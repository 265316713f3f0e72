"""Span tracer for the moncap benchmark.

A layer is traced by wrapping the public functions it is reached through,
as they are bound in the calling module's namespace (``moncap.solver.residual``,
``moncap.assembly.flux_jacobian``, ``scipy.sparse.linalg.splu`` as reached
through ``moncap.solver.spla``, ...).  The spans therefore come from the
benchmark's own files and the program is left as it is; leaving the
``with`` block puts every original binding back.

Spans stay in memory and are written out by the caller at the end.  A span's
self time is its duration minus the time of its child spans on the same
thread; time spent counting a span's work is charged to no layer.
"""

from __future__ import annotations

import importlib
import json
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

# bytes per stored factor entry: a float64 value plus an int32 row index
FACTOR_ENTRY_BYTES = 12


@dataclass(slots=True)
class Span:
    name: str
    parent: str          # enclosing span on the same thread, "" at top level
    thread: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    count: int = 0       # work done, as the binding's measure counts it

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Installs span wrappers on a list of bindings for one ``with`` block."""

    def __init__(self, bindings):
        self.bindings = bindings
        self.spans: list[Span] = []
        self._local = threading.local()
        self._installed: list = []
        self._originals = []
        for name, attr, _ in bindings:
            module = importlib.import_module(name)
            self._originals.append((module, attr, getattr(module, attr)))

    def __enter__(self):
        for (module, attr, original), (_, _, factory) in zip(
                self._originals, self.bindings):
            setattr(module, attr, factory(self, original))
            self._installed.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        return False

    def originals_in_place(self) -> bool:
        return all(getattr(module, attr) is original
                   for module, attr, original in self._originals)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, measure=None):
        """``fn`` recorded as span ``name``; ``measure(args, result, error)``
        gives the span's work count."""
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1].name if stack else "",
                        threading.get_ident(), perf_counter())
            stack.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if measure is not None:
                    span.count = measure(args, result, error)
                if stack:
                    stack[-1].child_s += perf_counter() - span.start
                self.spans.append(span)
            return result
        return traced


# ---------------------------------------------------------------------------
# what each binding counts


def _solve_failed(args, result, error) -> int:
    """1 when a compute_capacity call raised or reported an unconverged or
    inconsistent solve; an incompatible pair is an answer, not a failure."""
    if error is not None:
        return 1
    report = result[0]
    return int(report.compatible
               and not (report.converged and report.three_formula_ok))


def _newton_steps(args, result, error) -> int:
    field = result if error is None else getattr(error, "field", None)
    return 0 if field is None else int(field.iterations)


def _rows(args, result, error) -> int:
    return len(args[2])     # eval_flux*(flux, x, xi, ...): one row per point


def _fill_nnz(args, result, error) -> int:
    return 0 if result is None else int(result.L.nnz + result.U.nnz)


def _span(name, measure=None):
    return lambda tracer, original: tracer.wrap(name, original, measure)


class _TracedLU:
    """A SuperLU factor whose ``solve`` calls are spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.wrap("solver.lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedSpla:
    """``scipy.sparse.linalg`` as ``moncap.solver`` sees it while traced."""

    def __init__(self, tracer, real):
        self._real = real
        self.splu = tracer.wrap(
            "solver.factor", lambda *a, **k: _TracedLU(real.splu(*a, **k),
                                                       tracer), _fill_nnz)
        self.gmres = tracer.wrap("solver.linsolve", real.gmres)

    def __getattr__(self, name):
        return getattr(self._real, name)


# Every pass, plain or traced, times each compute_capacity call; the suites
# reach it through their own binding.
CALLS = [
    ("moncap.capacity", "compute_capacity", _span("capacity.compute", _solve_failed)),
    ("moncap.properties", "compute_capacity", _span("properties.solve", _solve_failed)),
]

LAYERS = CALLS + [
    ("moncap.mesh", "build_mesh", _span("mesh.build")),
    ("moncap.mesh", "rasterize", _span("mesh.rasterize")),
    ("moncap.properties", "rasterize", _span("mesh.rasterize")),
    ("moncap.capacity", "solve_dirichlet", _span("solver.solve", _newton_steps)),
    ("moncap.capacity", "residual", _span("assembly.residual")),
    ("moncap.capacity", "pairing", _span("assembly.pairing")),
    ("moncap.solver", "validate_pair", _span("mesh.validate_pair")),
    ("moncap.solver", "residual", _span("assembly.residual")),
    ("moncap.solver", "jacobian_matrix", _span("assembly.jacobian")),
    ("moncap.solver", "p2_stiffness", _span("assembly.p2_stiffness")),
    ("moncap.solver", "spla", _TracedSpla),
    ("moncap.assembly", "eval_flux", _span("flux.eval", _rows)),
    ("moncap.assembly", "eval_flux_smoothed", _span("flux.eval", _rows)),
    ("moncap.assembly", "flux_jacobian", _span("flux.jacobian", _rows)),
]

SOLVE_SPANS = ("capacity.compute", "properties.solve")


def solve_calls(spans) -> list[Span]:
    """Top-level compute_capacity calls (a nested C_p solve is not one)."""
    return [s for s in spans if s.name in SOLVE_SPANS and not s.parent]


# counts that must repeat exactly across traced passes of one seed
EXACT_COUNTS = (
    "solver.factor_calls", "solver.factor_fill_nnz", "solver.linsolve_calls",
    "solver.precond_applies", "assembly.jacobian_calls",
    "assembly.residual_calls", "flux.eval_points", "flux.jacobian_points",
    "solver.newton_steps", "solver.retries", "properties.solves",
)


def dump(spans, path) -> None:
    """Write one pass's spans as JSON lines."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "name": s.name, "parent": s.parent, "thread": s.thread,
                "start": s.start, "end": s.end, "self_s": s.self_s,
                "count": s.count}) + "\n")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    calls, count = Counter(), Counter()
    total, own = defaultdict(float), defaultdict(float)
    fill_max = solver_residuals = 0
    for s in spans:
        calls[s.name] += 1
        count[s.name] += s.count
        total[s.name] += s.duration
        own[s.name] += s.self_s
        if s.name == "solver.factor":
            fill_max = max(fill_max, s.count)
        elif s.name == "assembly.residual" and s.parent == "solver.solve":
            solver_residuals += 1
    steps = count["solver.solve"]
    factors = calls["solver.factor"]
    return {
        "mesh.build_s": total["mesh.build"],
        "mesh.rasterize_s": total["mesh.rasterize"],
        "flux.eval_points": count["flux.eval"],
        "flux.jacobian_points": count["flux.jacobian"],
        "flux.self_s": own["flux.eval"] + own["flux.jacobian"],
        "assembly.residual_calls": calls["assembly.residual"],
        "assembly.residual_self_s": own["assembly.residual"],
        "assembly.jacobian_calls": calls["assembly.jacobian"],
        "assembly.jacobian_self_s": own["assembly.jacobian"],
        "assembly.p2_stiffness_s": total["assembly.p2_stiffness"],
        "assembly.pairing_s": total["assembly.pairing"],
        "solver.factor_calls": factors,
        "solver.factor_s": total["solver.factor"],
        "solver.factor_fill_nnz": count["solver.factor"],
        "solver.factor_fill_mb": fill_max * FACTOR_ENTRY_BYTES / 1e6,
        "solver.linsolve_calls": calls["solver.linsolve"],
        "solver.linsolve_s": total["solver.linsolve"],
        "solver.precond_applies": calls["solver.lu_solve"],
        "solver.newton_steps": steps,
        "solver.steps_per_factor": steps / factors if factors else 0.0,
        "solver.residuals_per_step": solver_residuals / steps if steps else 0.0,
        "solver.retries": calls["mesh.validate_pair"] - calls["solver.solve"],
        "solver.self_s": own["solver.solve"],
        "capacity.report_s": own["capacity.compute"] + own["properties.solve"],
        "properties.solves": calls["properties.solve"],
    }
