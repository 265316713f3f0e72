import pytest
from hypothesis import settings

from moncap import assembly, capacity, solver
from moncap.reporting import canonical_json

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# assembly.BAND_MAX and assembly.KRYLOV_MIN_NODES of each forced path
_PATHS = {"band": (10**9, 10**9), "superlu": (-1, 10**9), "krylov": (-1, 0)}


@pytest.fixture
def force_path(monkeypatch):
    """``force_path(name)`` puts every FreeBlock made after it, and so every
    solve on it, on one path, whatever its shape and size: "band" (every
    block banded, every step factored), "superlu" (no block banded, every
    step factored by SuperLU) or "krylov" (no block banded, GMRES steps on
    the multigrid cycle); "shipped" restores the shipped rule.
    ``force_path.gmres`` counts the GMRES solves made since the fixture was
    set up, so a test can assert the path its solves took."""
    paths = dict(_PATHS,
                 shipped=(assembly.BAND_MAX, assembly.KRYLOV_MIN_NODES))
    real = solver.spla.gmres

    def gmres(*args, **kwargs):
        force.gmres += 1
        return real(*args, **kwargs)

    def force(path):
        band_max, krylov_min_nodes = paths[path]
        monkeypatch.setattr(assembly, "BAND_MAX", band_max)
        monkeypatch.setattr(assembly, "KRYLOV_MIN_NODES", krylov_min_nodes)
    force.gmres = 0
    monkeypatch.setattr(solver.spla, "gmres", gmres)
    return force


@pytest.fixture
def both_paths(force_path, monkeypatch):
    """``both_paths(run)`` calls run() as shipped, where no solve may call
    GMRES, and again with every block forced onto the Krylov path, where
    some solve must.  Both runs must make the same capacity reports in the
    same order, keyed by flux, E and F masks and s, each converged on both
    paths or on neither, with every converged c_inner within the larger
    tol_cap of the two.  Returns the two results of run() and the Newton
    steps of the Krylov run's reports."""
    def run_both(run):
        runs = []
        for path in ("shipped", "krylov"):
            force_path(path)
            gmres = force_path.gmres
            reports, steps = [], []
            real = capacity._build_report

            def build(mesh, flux, e, f, s, pf):
                report = real(mesh, flux, e, f, s, pf)
                reports.append(((canonical_json(flux.describe()),
                                 e.mask.tobytes(), f.mask.tobytes(), s),
                                report))
                steps.append(pf.iterations)
                return report
            with monkeypatch.context() as m:
                m.setattr(capacity, "_build_report", build)
                result = run()
            assert (force_path.gmres > gmres) == (path == "krylov")
            runs.append((result, reports, sum(steps)))
        (shipped, direct, _), (krylov, iterative, steps) = runs
        assert [key for key, _ in direct] == [key for key, _ in iterative]
        for (key, rep), (_, other) in zip(direct, iterative):
            assert rep.converged == other.converged, key[0]
            if rep.converged:
                assert abs(rep.c_inner - other.c_inner) \
                    <= max(rep.tol_cap, other.tol_cap), key[0]
        return shipped, krylov, steps
    return run_both
