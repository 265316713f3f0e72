"""The benchmark's traced run wraps names bound in moncap's modules; a
refactor that drops or renames one must fail here, not in ``--trace 1``."""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from moncap import assembly
from moncap.capacity import compute_capacity
from moncap.flux import p_laplacian
from moncap.mesh import build_mesh, disk, rasterize

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" \
    / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("moncap_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_layer_binding_resolves(tracer):
    for name, attr, _ in tracer.LAYERS:
        assert hasattr(importlib.import_module(name), attr), (name, attr)


def traced_annulus_solve(tracer, n):
    """A p = 3 annulus solve at N = n under every layer binding, checked to
    put each original back; returns (tracer, report, field, sets)."""
    originals = [(name, attr, getattr(importlib.import_module(name), attr))
                 for name, attr, _ in tracer.LAYERS]
    mesh = build_mesh(n)
    e = rasterize(disk(0.5, 0.5, 0.1), mesh, "E")
    f = rasterize(disk(0.5, 0.5, 0.4), mesh, "F")
    with tracer.Tracer(tracer.LAYERS) as t:
        capacity = importlib.import_module("moncap.capacity")
        report, field = capacity.compute_capacity(mesh, p_laplacian(3.0), e,
                                                  f)
    assert report.converged
    for name, attr, original in originals:
        assert getattr(importlib.import_module(name), attr) is original, \
            (name, attr)
    assert t.originals_in_place()
    return t, report, field, (mesh, e, f)


def test_traced_solve_restores_every_binding(tracer):
    t, report, _, (mesh, e, f) = traced_annulus_solve(tracer, 8)
    # the solve went through the wrapped layers; its blocks are banded
    # factors, which no binding wraps (the Krylov solve below has a
    # SuperLU factor)
    seen = {span.name for span in t.spans}
    for layer in ("capacity.compute", "solver.solve", "assembly.residual",
                  "assembly.jacobian", "assembly.p2_stiffness",
                  "assembly.pairing", "flux.eval", "flux.jacobian"):
        assert layer in seen, layer
    plain, _ = compute_capacity(mesh, p_laplacian(3.0), e, f)
    assert report.c_inner == plain.c_inner


def test_traced_krylov_solve_records_linear_solves(tracer):
    # the N = 128 annulus is too wide to band and above the Krylov gate:
    # each Newton step is a GMRES solve whose preconditioner applies run
    # the multigrid cycle, whose coarse level is a SuperLU factor: its LU
    # solves are the traced ones
    t, _, field, (mesh, e, f) = traced_annulus_solve(tracer, 128)
    assert np.count_nonzero(f.mask & ~e.mask) >= assembly.KRYLOV_MIN_NODES
    assert any(span.name == "solver.factor" for span in t.spans)
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["solver.newton_steps"] == field.iterations > 0
    assert 0 < metrics["solver.linsolve_calls"] <= field.iterations
    assert metrics["solver.factor_calls"] < field.iterations
    assert metrics["solver.linsolve_s"] > 0
    assert any(span.name == "solver.lu_solve"
               and span.parent == "solver.linsolve" for span in t.spans)
