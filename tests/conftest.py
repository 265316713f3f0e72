import pytest
from hypothesis import settings

from moncap import assembly, solver

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# assembly.BAND_MAX and solver.KRYLOV_MIN_NODES of each forced path
_PATHS = {"band": (10**9, 10**9), "superlu": (-1, 10**9), "krylov": (-1, 0)}


@pytest.fixture
def force_path(monkeypatch):
    """``force_path(name)`` puts every FreeBlock and solve made after it on
    one path, whatever its shape and size: "band" (every block banded,
    every step factored), "superlu" (no block banded, every step factored
    by SuperLU) or "krylov" (no block banded, GMRES steps on the multigrid
    cycle); "shipped" restores the shipped rule.  ``force_path.gmres``
    counts the GMRES solves made since the fixture was set up, so a test
    can assert the path its solves took."""
    paths = dict(_PATHS, shipped=(assembly.BAND_MAX, solver.KRYLOV_MIN_NODES))
    real = solver.spla.gmres

    def gmres(*args, **kwargs):
        force.gmres += 1
        return real(*args, **kwargs)

    def force(path):
        band_max, krylov_min_nodes = paths[path]
        monkeypatch.setattr(assembly, "BAND_MAX", band_max)
        monkeypatch.setattr(solver, "KRYLOV_MIN_NODES", krylov_min_nodes)
    force.gmres = 0
    monkeypatch.setattr(solver.spla, "gmres", gmres)
    return force
