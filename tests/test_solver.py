import json
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf

from assembly_reference import (band_storage, complement, difference,
                                discrete_boundary, jacobian_reference,
                                p2_reference, triangles)
from moncap import solver
from moncap.assembly import (BAND_MAX, FreeBlock, _grid_span,
                             jacobian_matrix, p2_stiffness, residual)
from moncap.capacity import compute_capacity, sweep_s
from moncap.cli import main
from moncap.errors import InvalidInput, SolverDiverged
from moncap.flux import (anisotropic_p, combine, flat_core_p, is_linear,
                         is_symmetric, linear_matrix, p_laplacian,
                         s_transform, weighted_p_laplacian)
from moncap.mesh import (build_mesh, disk, halfplane, rasterize, rect,
                         shape_all, shape_difference, shape_none, shape_union)
from moncap.properties import (INVARIANCE_TOL, default_flux_family,
                               run_invariance_suite, run_order_suite)
from moncap.solver import SolverOptions, solve_dirichlet


def strip_sets(mesh):
    e = rasterize(halfplane("x", 0.25, "le"), mesh, "E")
    f = complement(rasterize(halfplane("x", 0.75, "ge"), mesh, "Fc"), "F")
    return e, f


def annulus_sets(mesh, r=0.12, big_r=0.38):
    e = rasterize(disk(0.5, 0.5, r), mesh, "E")
    f = rasterize(disk(0.5, 0.5, big_r), mesh, "F")
    return e, f


# Instances of the shipped invariance suite (configs/suite-order.json: seed
# 2024, N = 48), as its generator draws them: flat_core_p(2, rho0) with
# only 2-6% of the triangles outside the flat core near the solution.
INVARIANCE_INSTANCES = {
    29: (6.426240170723178,
         rect(0.15110631234539112, 0.1976335881428532,
              0.5846589372545414, 0.6311862130520034),
         disk(0.39358233305458057, 0.4407025722760222, 0.07494793135705188)),
    34: (6.116024913962127,
         rect(0.22699510877842188, 0.19149919765096085,
              0.7487960403773499, 0.7133001292498888),
         disk(0.3785662966484064, 0.43840031289531894, 0.03173684808424926)),
    42: (6.203765272664915,
         disk(0.6396740318923149, 0.4517462125174329, 0.3015040476387228),
         disk(0.7112874320096915, 0.5612699691351436, 0.04544270232287529)),
}


# linear fluxes that the p = 2 blend start does not solve: weighted,
# anisotropic and composite ones
LINEAR_FLUXES = [
    weighted_p_laplacian(2.0, 1.0, 2.0), anisotropic_p(2.0, 2.0, 0.5),
    s_transform(anisotropic_p(2.0, 2.0, 0.5), -0.7),
    combine(weighted_p_laplacian(2.0, 1.0, 2.0),
            linear_matrix([[1.0, 0.5], [-0.5, 1.0]]), 1.0, 0.5)]


def invariance_instance(i):
    rho0, f_shape, e_shape = INVARIANCE_INSTANCES[i]
    mesh = build_mesh(48)
    return (mesh, flat_core_p(2.0, rho0), rasterize(e_shape, mesh, "E"),
            rasterize(f_shape, mesh, "F"))


class TestStripExactness:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [8, 32])
    def test_clamped_linear_profile(self, p, n):
        mesh = build_mesh(n)
        e, f = strip_sets(mesh)
        pf = solve_dirichlet(mesh, p_laplacian(p), e, f, 1.0)
        assert pf.converged
        assert pf.residual_max <= 1e-12
        x = mesh.nodes[:, 0]
        exact = np.clip((0.75 - x) / 0.5, 0.0, 1.0)
        assert np.max(np.abs(pf.u - exact)) <= 1e-10


class TestDegenerateInputs:
    def test_empty_e_returns_zero_without_iterating(self):
        mesh = build_mesh(8)
        f = rasterize(disk(0.5, 0.5, 0.3), mesh, "F")
        e = rasterize(shape_none(), mesh, "E")
        pf = solve_dirichlet(mesh, p_laplacian(2.0), e, f, 1.0)
        assert pf.converged and pf.iterations == 0
        assert np.all(pf.u == 0.0)

    def test_s_zero_returns_zero_field(self):
        mesh = build_mesh(8)
        e, f = annulus_sets(mesh)
        pf = solve_dirichlet(mesh, p_laplacian(3.0), e, f, 0.0)
        assert pf.converged and pf.iterations == 0
        assert np.all(pf.u == 0.0)

    def test_no_free_nodes(self):
        mesh = build_mesh(8)
        e = rasterize(disk(0.5, 0.5, 0.2), mesh, "E")
        pf = solve_dirichlet(mesh, p_laplacian(2.0), e, e, 1.0)
        assert pf.converged
        assert pf.residual_max == 0.0

    @pytest.mark.parametrize("opts", [dict(init="bogus"), dict(init="given")],
                             ids=["unknown", "given_without_field"])
    def test_bad_init_rejected_at_construction(self, opts):
        # an s = 0 solve makes no start, so only construction sees these
        with pytest.raises(InvalidInput) as exc:
            SolverOptions(**opts)
        assert exc.value.field == "init"

    def test_given_field_needs_one_value_per_node(self):
        mesh = build_mesh(16)
        e, f = annulus_sets(mesh)
        opts = SolverOptions(init="given",
                             init_field=np.zeros(mesh.n_nodes - 1))
        with pytest.raises(InvalidInput, match="mesh has 289 nodes"):
            solve_dirichlet(mesh, p_laplacian(3.0), e, f, 1.0, opts)


class TestDirichletExactness:
    @pytest.mark.parametrize("s", [1.0, -2.5, 0.3])
    def test_constrained_nodes_carry_exact_values(self, s):
        mesh = build_mesh(12)
        e, f = annulus_sets(mesh)
        pf = solve_dirichlet(mesh, p_laplacian(3.0), e, f, s)
        assert np.all(pf.u[e.mask] == s)
        assert np.all(pf.u[~f.mask] == 0.0)


class TestComparisonPrinciple:
    def test_nested_e_orders_potentials(self):
        mesh = build_mesh(16)
        f = rasterize(disk(0.5, 0.5, 0.4), mesh, "F")
        e1 = rasterize(disk(0.5, 0.5, 0.08), mesh, "E1")
        e2 = rasterize(disk(0.5, 0.5, 0.2), mesh, "E2")
        u1 = solve_dirichlet(mesh, p_laplacian(2.0), e1, f, 1.0).u
        u2 = solve_dirichlet(mesh, p_laplacian(2.0), e2, f, 1.0).u
        assert float(np.min(u2 - u1)) >= -1e-8

    def test_nested_f_orders_potentials(self):
        mesh = build_mesh(16)
        e = rasterize(disk(0.5, 0.5, 0.1), mesh, "E")
        f1 = rasterize(disk(0.5, 0.5, 0.3), mesh, "F1")
        f2 = rasterize(disk(0.5, 0.5, 0.42), mesh, "F2")
        u1 = solve_dirichlet(mesh, p_laplacian(2.0), e, f1, 1.0).u
        u2 = solve_dirichlet(mesh, p_laplacian(2.0), e, f2, 1.0).u
        assert float(np.max(u1 - u2)) <= 1e-8

    def test_range_bound(self):
        mesh = build_mesh(16)
        e, f = annulus_sets(mesh)
        pf = solve_dirichlet(mesh, p_laplacian(2.0), e, f, 1.0)
        assert pf.u.min() >= -1e-8
        assert pf.u.max() <= 1.0 + 1e-8


class TestScaleRelations:
    def test_scale_equivariance_p_laplacian(self):
        mesh = build_mesh(12)
        e, f = annulus_sets(mesh)
        for p in (2.0, 3.0):
            base = solve_dirichlet(mesh, p_laplacian(p), e, f, 1.0)
            sigma = 2.5
            scaled = solve_dirichlet(mesh, p_laplacian(p), e, f, sigma)
            tol = 10.0 * scaled.tol_res
            assert np.max(np.abs(scaled.u - sigma * base.u)) <= tol

    def test_s_transform_change_of_unknown(self):
        # u solved at s=2 equals 2 * (potential of the s-transformed flux)
        mesh = build_mesh(12)
        e, f = annulus_sets(mesh)
        u_s = solve_dirichlet(mesh, p_laplacian(2.0), e, f, 2.0).u
        u_t = solve_dirichlet(mesh, s_transform(p_laplacian(2.0), 2.0),
                              e, f, 1.0).u
        assert np.max(np.abs(u_s - 2.0 * u_t)) <= 1e-8


class TestOrderingInS:
    @pytest.mark.parametrize("s_pair", [(-1.0, 0.5), (0.5, 2.0), (-2.0, -0.5)])
    def test_potentials_ordered_by_boundary_level(self, s_pair):
        # p=2 on this mesh: larger boundary level gives a larger potential
        mesh = build_mesh(16)
        e, f = annulus_sets(mesh)
        s1, s2 = s_pair
        u1 = solve_dirichlet(mesh, p_laplacian(2.0), e, f, s1).u
        u2 = solve_dirichlet(mesh, p_laplacian(2.0), e, f, s2).u
        assert float(np.min(u2 - u1)) >= -1e-8


class TestFlatCore:
    def test_energy_invariant_across_initializations(self):
        from moncap.assembly import pairing
        mesh = build_mesh(16)
        e, f = annulus_sets(mesh)
        flux = flat_core_p(2.0, 4.0)
        energies = []
        for opts in (SolverOptions(init="linear_blend"),
                     SolverOptions(init="zero"),
                     SolverOptions(init="random", init_seed=1),
                     SolverOptions(init="random", init_seed=2),
                     SolverOptions(init="random", init_seed=3)):
            pf = solve_dirichlet(mesh, flux, e, f, 1.0, opts)
            assert pf.converged
            energies.append(pairing(mesh, flux, pf.u, pf.u))
        spread = max(energies) - min(energies)
        assert spread <= 1e-6 * (1.0 + abs(np.mean(energies)))


class TestRandomStart:
    def test_drawn_in_mask_order(self):
        # the block's order of the free nodes (here row-major, elsewhere
        # column-major or dissection order) must not reach the random
        # start: its draw fills u[free] in node-index order
        mesh = build_mesh(16)
        e, f = annulus_sets(mesh)
        free = f.mask & ~e.mask
        opts = SolverOptions(init="random", init_seed=5, tol_res=1e300)
        pf = solve_dirichlet(mesh, p_laplacian(3.0), e, f, 0.8, opts)
        assert pf.iterations == 0
        draw = np.random.default_rng(5).uniform(0.0, 0.8,
                                                size=int(free.sum()))
        assert np.array_equal(pf.u[free], draw)


class TestSkewMatrix:
    def test_skew_equals_laplace_when_f_interior(self):
        # interior free rows of the skew part cancel on this mesh, so the
        # solution coincides with the harmonic one when F stays inside
        mesh = build_mesh(16)
        e, f = annulus_sets(mesh)
        skew = linear_matrix([[1.0, 0.5], [-0.5, 1.0]])
        u_skew = solve_dirichlet(mesh, skew, e, f, 1.0).u
        u_harm = solve_dirichlet(mesh, p_laplacian(2.0), e, f, 1.0).u
        assert np.max(np.abs(u_skew - u_harm)) <= 1e-9

    def test_skew_differs_when_f_touches_box_edge(self):
        mesh = build_mesh(16)
        e, f = strip_sets(mesh)
        skew = linear_matrix([[1.0, 0.5], [-0.5, 1.0]])
        pf = solve_dirichlet(mesh, skew, e, f, 1.0)
        assert pf.converged
        x = mesh.nodes[:, 0]
        linear = np.clip((0.75 - x) / 0.5, 0.0, 1.0)
        assert np.max(np.abs(pf.u - linear)) > 1e-4


class TestFlatCoreTransitionRegression:
    # capacity transition instances: huge near-kink regions used to chatter
    # Newton into stalls just above the residual target

    def test_small_s_union_geometry(self):
        mesh = build_mesh(96)
        flux = flat_core_p(2.0, 0.5)
        from moncap.mesh import shape_union
        e = rasterize(shape_union(
            disk(0.213186744608081, 0.4820307625682843, 0.023586650108772398),
            disk(0.4621702912241868, 0.4820307625682843, 0.06577151741148407)),
            mesh, "E")
        f = rasterize(disk(0.3376785179161339, 0.4820307625682843,
                           0.27486690785155965), mesh, "F")
        pf = solve_dirichlet(mesh, flux, e, f, -0.1)
        assert pf.converged and pf.residual_max <= pf.tol_res

    def test_p3_core_transition(self):
        mesh = build_mesh(96)
        flux = flat_core_p(3.0, 1.5)
        e = rasterize(disk(0.6048053415518116, 0.152418451005717,
                           0.02766432118051604), mesh, "E")
        f = rasterize(disk(0.5759049985508178, 0.32043136984041865,
                           0.2222607844491952), mesh, "F")
        pf = solve_dirichlet(mesh, flux, e, f, 0.5)
        assert pf.converged and pf.residual_max <= pf.tol_res


class TestInvarianceInstances:
    """The invariance-suite instances whose linear-blend start stalled at
    the default budget while the eps-smoothed residual landed."""

    @pytest.mark.parametrize("i", [29, 34])
    def test_converges_from_both_starts(self, i):
        mesh, flux, e, f = invariance_instance(i)
        caps = []
        for init in ("linear_blend", "zero"):
            rep, pf = compute_capacity(mesh, flux, e, f, 1.0,
                                       SolverOptions(init=init))
            assert pf.converged and rep.three_formula_ok, init
            caps.append(rep.c_inner)
        assert abs(caps[0] - caps[1]) <= INVARIANCE_TOL

    def test_hardest_instance_converges_or_says_where_it_stopped(self):
        mesh, flux, e, f = invariance_instance(42)
        try:
            rep, pf = compute_capacity(mesh, flux, e, f, 1.0)
        except SolverDiverged as exc:
            assert "the continuation last landed eps" in str(exc)
            assert not exc.field.converged
        else:
            assert pf.converged and rep.three_formula_ok


class TestDivergence:
    def test_diverged_carries_best_iterate_and_history(self):
        mesh = build_mesh(12)
        e, f = annulus_sets(mesh)
        opts = SolverOptions(max_newton=1, init="zero")
        with pytest.raises(SolverDiverged) as exc:
            solve_dirichlet(mesh, p_laplacian(3.0), e, f, 1.0, opts)
        err = exc.value
        assert err.field is not None and not err.field.converged
        assert len(err.field.residual_history) >= 1
        assert err.field.residual_max == min(err.field.residual_history)

    def test_budget_spent_in_the_fast_pass_is_named(self):
        mesh = build_mesh(12)
        e, f = annulus_sets(mesh)
        with pytest.raises(SolverDiverged, match=(
                r"^residual \S+ above target \S+ after 1 iterations; "
                r"max_newton ran out in the fast pass$")):
            solve_dirichlet(mesh, p_laplacian(3.0), e, f, 1.0,
                            SolverOptions(max_newton=1))

    def test_budget_spent_in_the_continuation_is_named(self):
        # instance 29 leaves the fast pass after 8 steps, and the
        # continuation lands its first eps within 60 steps but needs 176
        mesh, flux, e, f = invariance_instance(29)
        with pytest.raises(SolverDiverged, match=(
                r"^residual \S+ above target \S+ after 60 iterations; "
                r"the continuation last landed eps = \S+, then "
                r"max_newton = 60 ran out$")):
            solve_dirichlet(mesh, flux, e, f, 1.0, SolverOptions(max_newton=60))

    def test_non_finite_start_residual_carries_the_start(self):
        # the squared gradients overflow, so the start residual is NaN and
        # no iterate ever beats it
        mesh = build_mesh(8)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        opts = SolverOptions(tol_res=1.0)
        with np.errstate(all="ignore"), pytest.raises(
                SolverDiverged, match="start residual is not finite"
        ) as exc:
            solve_dirichlet(mesh, p_laplacian(3.0), e, f, 1e160, opts)
        field = exc.value.field
        assert field.u.shape == (mesh.n_nodes,)
        assert np.all(field.u[e.mask] == 1e160)
        assert field.iterations == 0 and not field.converged


class TestNewtonBudget:
    @pytest.mark.parametrize("floor", [1e-9, 1e300])
    @pytest.mark.parametrize("max_newton", [0, 1, 2, 200])
    def test_iterations_within_max_newton(self, max_newton, floor, recwarn):
        # a floor of 1e300 cripples every Newton step, so only the budget
        # rule decides how long the solve may iterate
        self.check_budget(max_newton, floor, recwarn)

    @pytest.mark.parametrize("floor", [1e-9, 1e300])
    @pytest.mark.parametrize("max_newton", [0, 1, 2, 200])
    def test_iterations_within_max_newton_above_krylov_gate(
            self, max_newton, floor, force_path, recwarn):
        # steps go through GMRES on a multigrid cycle, and a failed GMRES
        # step rebuilds the cycle or is factored within the same budget
        force_path("krylov")
        self.check_budget(max_newton, floor, recwarn)
        assert (force_path.gmres > 0) == (max_newton > 0)

    @staticmethod
    def check_budget(max_newton, floor, recwarn):
        mesh = build_mesh(8)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        opts = SolverOptions(max_newton=max_newton, jacobian_floor=floor)
        try:
            field = solve_dirichlet(mesh, p_laplacian(3.0), e, f, 1.0, opts)
        except SolverDiverged as exc:
            field = exc.field
        assert field.iterations <= max_newton
        assert len(field.residual_history) <= max_newton
        # the floor's huge Jacobian must not leak GMRES overflow warnings
        assert not [w for w in recwarn if w.category is RuntimeWarning]


def _counting(monkeypatch, owner, name, replacement=None):
    """Record each call the solver makes to ``owner.<name>`` (such as
    ``solver.spla.gmres``), passing it on to ``replacement`` or to the
    original."""
    calls = []
    target = replacement or getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return target(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def _one_factor_at_a_time(monkeypatch):
    """Record the columns of each factor the solver makes: each
    solver._direct_solve call, band array or sparse matrix alike, and each
    SuperLU factor made outside it, which a multigrid cycle holds.  Fails
    any call made while a held factor is still referenced."""
    live = weakref.WeakSet()
    calls, direct = [], []
    real_solve, real_splu = solver._direct_solve, solver.spla.splu

    class Factor:
        def __init__(self, lu):
            self.solve = lu.solve

    def direct_solve(a, b, *layout):
        assert not live, "a direct solve while a cycle's factor is held"
        calls.append(a.shape[1])
        direct.append(1)
        try:
            return real_solve(a, b, *layout)
        finally:
            direct.pop()

    def splu(a, *args, **kwargs):
        if direct:          # the direct solve's own factor, not kept
            return real_splu(a, *args, **kwargs)
        assert not live, "a new factor while the last one is held"
        calls.append(a.shape[1])
        lu = Factor(real_splu(a, *args, **kwargs))
        live.add(lu)
        return lu
    monkeypatch.setattr(solver, "_direct_solve", direct_solve)
    monkeypatch.setattr(solver.spla, "splu", splu)
    return calls


class TestStaleFactorKrylov:
    """On an unbanded block of at least KRYLOV_MIN_NODES free nodes a
    Newton step solves with GMRES preconditioned by the held multigrid
    cycle; when GMRES or its direction fails, the cycle is rebuilt from the
    step's Jacobian, and only when that fails too is the step solved
    directly.  Any other block factors every step."""

    @pytest.fixture(scope="class")
    def large(self):
        # 7,736 free nodes at span 100: too wide for a band
        mesh = build_mesh(128)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        assert FreeBlock(mesh, e.mask, f.mask).band is None
        assert np.count_nonzero(f.mask & ~e.mask) >= solver.KRYLOV_MIN_NODES
        return mesh, e, f

    @staticmethod
    def direct(force_path, solve):
        """solve() with every block banded and factored, then the shipped
        rule again."""
        gmres = force_path.gmres
        force_path("band")
        result = solve()
        assert force_path.gmres == gmres
        force_path("shipped")
        return result

    @staticmethod
    def cycles(monkeypatch):
        """The matrix each _Cycle is built from, in CSR as it is built."""
        built = []
        real = solver._Cycle

        def cycle(a, *args):
            assert a.format == "csr"
            built.append(a)
            return real(a, *args)
        monkeypatch.setattr(solver, "_Cycle", cycle)
        return built

    @pytest.mark.parametrize("flux", [p_laplacian(3.0), flat_core_p(2.0, 3.0)],
                             ids=["p_laplacian", "flat_core_p"])
    def test_agrees_with_direct_path(self, large, flux, monkeypatch,
                                     force_path):
        mesh, e, f = large

        def solve():
            return compute_capacity(mesh, flux, e, f)
        direct, _ = self.direct(force_path, solve)
        factors = _one_factor_at_a_time(monkeypatch)
        gmres = _counting(monkeypatch, solver.spla, "gmres")
        krylov, field = solve()
        assert direct.converged and krylov.converged and gmres
        assert len(factors) < field.iterations
        assert abs(krylov.c_inner - direct.c_inner) <= krylov.tol_cap

    def test_failed_gmres_step_rebuilds_the_cycle(self, large, monkeypatch,
                                                  force_path):
        # GMRES fails once, on the blend start's cycle: the step rebuilds
        # the cycle from its Jacobian, which the rest of the solve keeps,
        # and no block factor is made
        mesh, e, f = large
        direct, _ = self.direct(force_path, lambda: compute_capacity(
            mesh, p_laplacian(3.0), e, f))
        factors = _one_factor_at_a_time(monkeypatch)
        built = self.cycles(monkeypatch)
        real = solver.spla.gmres
        gmres = _counting(monkeypatch, solver.spla, "gmres",
                          lambda a, b, **kwargs: (np.zeros_like(b), 1)
                          if len(gmres) == 1 else real(a, b, **kwargs))
        report, field = compute_capacity(mesh, p_laplacian(3.0), e, f)
        assert report.converged and field.iterations > 1
        assert len(built) == 2 and len(gmres) > 2
        # the rebuilt cycle is the first step's Jacobian, not the p = 2 block
        assert abs(built[1] - built[0]).max() > 0
        assert max(factors) <= solver.COARSE_MAX_NODES
        assert abs(report.c_inner - direct.c_inner) <= report.tol_cap

    @pytest.mark.parametrize("flux", [p_laplacian(3.0), LINEAR_FLUXES[-1]],
                             ids=["symmetric", "skew"])
    def test_gmres_multiplies_in_csr(self, large, flux, monkeypatch):
        # GMRES takes the step Jacobian in CSR: the transpose of a
        # symmetric kind's CSC block, else one conversion, which the cycle
        # rebuilt after the first GMRES call fails reuses
        mesh, e, f = large
        assert is_symmetric(flux) == (flux.kind == "p_laplacian")
        operands = []
        real = solver._NewtonState._gmres

        def gmres(state, kff, *args):
            operands.append(kff)
            return real(state, kff, *args)
        monkeypatch.setattr(solver._NewtonState, "_gmres", gmres)
        built = self.cycles(monkeypatch)
        real_gmres = solver.spla.gmres
        calls = _counting(monkeypatch, solver.spla, "gmres",
                          lambda a, b, **kwargs: (np.zeros_like(b), 1)
                          if len(calls) == 1 else real_gmres(a, b, **kwargs))
        report, field = compute_capacity(mesh, flux, e, f)
        assert report.converged and field.iterations >= 1
        assert {kff.format for kff in operands} == {"csr"}
        assert operands[0] is operands[1] is built[1]

    @pytest.mark.parametrize("info", [1, 0], ids=["stalled", "rejected"])
    def test_failed_gmres_step_is_refactored(self, large, info,
                                             monkeypatch, force_path):
        # info 1: GMRES misses its tolerance; info 0 with a zero direction:
        # the line search finds no decrease.  Either way the held cycle
        # fails, then the cycle rebuilt from the step's Jacobian, and the
        # step is solved from a factor; each later step builds a cycle,
        # which fails, and factors.  So the solve is the direct one from
        # the same blend start, to round-off
        mesh, e, f = large
        start, held = solver._linear_blend_init(
            mesh, p_laplacian(3.0), FreeBlock(mesh, e.mask, f.mask),
            np.where(e.mask, 1.0, 0.0), 1.0)
        assert isinstance(held, solver._Cycle)
        direct = self.direct(force_path, lambda: solve_dirichlet(
            mesh, p_laplacian(3.0), e, f, 1.0,
            SolverOptions(init="given", init_field=start)))
        factors = _one_factor_at_a_time(monkeypatch)
        built = self.cycles(monkeypatch)
        gmres = _counting(monkeypatch, solver.spla, "gmres",
                          lambda a, b, **kwargs: (np.zeros_like(b), info))
        field = solve_dirichlet(mesh, p_laplacian(3.0), e, f, 1.0)
        steps = field.iterations
        assert field.converged and steps > 1
        # the blend start's cycle, then one cycle per step
        assert len(built) == steps + 1 and len(gmres) == steps + 1
        size = np.count_nonzero(f.mask & ~e.mask)
        assert [n for n in factors if n > solver.COARSE_MAX_NODES] \
            == [size] * steps
        assert len(factors) == len(built) + steps
        # the direct path's banded block goes to LAPACK, this CSC block to
        # SuperLU: the same steps, to round-off
        assert field.iterations == direct.iterations
        assert np.max(np.abs(field.u - direct.u)) <= 1e-14

    @pytest.mark.parametrize("flux", [
        p_laplacian(3.0), linear_matrix([[1.0, 0.5], [-0.5, 1.0]])],
        ids=["p_laplacian", "skew_linear_matrix"])
    def test_zero_start_builds_its_cycle_from_a_jacobian(self, flux,
                                                         monkeypatch):
        # no blend start, so no p = 2 cycle: the first Newton step builds
        # the cycle from its own Jacobian, in CSR and not transposed, and
        # no block is factored.  F is the whole square, so that the skew
        # flux's Jacobian is not symmetric at the free nodes on its edge
        mesh = build_mesh(96)
        e, f = _box_sets(mesh)
        jacobians = []
        real = solver.jacobian_matrix

        def jacobian(*args, **kwargs):
            jacobians.append(real(*args, **kwargs))
            return jacobians[-1]
        monkeypatch.setattr(solver, "jacobian_matrix", jacobian)
        factors = _one_factor_at_a_time(monkeypatch)
        built = self.cycles(monkeypatch)
        field = solve_dirichlet(mesh, flux, e, f, 1.0,
                                SolverOptions(init="zero"))
        assert field.converged and field.iterations > 0 and built
        first = jacobians[0].tocsr()
        if flux.describe()["kind"] == "linear_matrix":
            assert abs(first - first.T).max() > 0.1 * abs(first).max()
        assert np.array_equal(built[0].indptr, first.indptr)
        assert np.array_equal(built[0].indices, first.indices)
        assert np.array_equal(built[0].data, first.data)
        assert max(factors) <= solver.COARSE_MAX_NODES

    @pytest.mark.parametrize("init", ["linear_blend", "zero"])
    def test_zero_diagonal_jacobian_takes_direct_steps(
            self, init, monkeypatch, force_path, recwarn):
        # without a floor the flat core's Jacobian has zero rows, which no
        # Jacobi smoother can divide by: such a step builds no cycle and is
        # solved directly, and no RuntimeWarning escapes
        force_path("krylov")
        monkeypatch.setattr(solver, "COARSE_MAX_NODES", 50)
        mesh = build_mesh(32)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        opts = SolverOptions(jacobian_floor=0.0, init=init)
        report, _ = compute_capacity(mesh, flat_core_p(2.0, 3.0), e, f,
                                     opts=opts)
        assert force_path.gmres > 0
        direct, _ = self.direct(force_path, lambda: compute_capacity(
            mesh, flat_core_p(2.0, 3.0), e, f, opts=opts))
        assert report.converged and direct.converged
        assert abs(report.c_inner - direct.c_inner) <= report.tol_cap
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_retry_frees_the_failed_attempts_factor(self, monkeypatch,
                                                    force_path):
        # the zero start fails within its one-step budget; the retry's
        # blend start factors only after that attempt's factors are gone.
        # On a band: the zero start's step, the retry's blend start and its
        # step each factor the block and drop it.  On the Krylov path: the
        # zero start's cycle and the retry's blend cycle, which its step
        # reuses
        mesh = build_mesh(8)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        opts = SolverOptions(max_newton=1, init="zero")
        for path, factored in (("band", 3), ("krylov", 2)):
            force_path(path)
            gmres = force_path.gmres
            with monkeypatch.context() as m:
                factors = _one_factor_at_a_time(m)
                with pytest.raises(SolverDiverged):
                    solve_dirichlet(mesh, p_laplacian(3.0), e, f, 1.0, opts)
            assert len(factors) == factored
            assert (force_path.gmres > gmres) == (path == "krylov")

    def test_small_blocks_never_call_gmres(self, monkeypatch):
        # an N = 48 grid has (N - 1)^2 interior nodes, below the gate
        mesh = build_mesh(48)
        assert (mesh.n - 1) ** 2 < solver.KRYLOV_MIN_NODES
        e, f = annulus_sets(mesh, 0.1, 0.45)
        gmres = _counting(monkeypatch, solver.spla, "gmres")
        factors = _one_factor_at_a_time(monkeypatch)
        field = solve_dirichlet(mesh, flat_core_p(2.0, 3.0), e, f, 1.0)
        assert field.converged and field.iterations > 0
        assert not gmres and len(factors) > field.iterations

    def test_overflowing_residual_norm_takes_direct_steps(self, large,
                                                          monkeypatch,
                                                          recwarn):
        # at s = 1e100 every entry of the p = 3 residual is finite but the
        # sum of their squares overflows: no forcing term can be formed, so
        # the steps are direct, and no RuntimeWarning escapes
        mesh, e, f = large
        gmres = _counting(monkeypatch, solver.spla, "gmres")
        field = solve_dirichlet(mesh, p_laplacian(3.0), e, f, 1e100)
        assert field.converged and field.iterations > 0 and not gmres
        assert not [w for w in recwarn if w.category is RuntimeWarning]


def _ring_sets(mesh):
    """F a disk and E its interior, so that F \\ E is one node wide."""
    f = rasterize(disk(0.5, 0.5, 0.3), mesh, "F")
    return difference(f, discrete_boundary(f, mesh), "E"), f


def _split_sets(mesh):
    """E a ring inside F that cuts the free nodes in two components."""
    e = rasterize(shape_difference(disk(0.5, 0.5, 0.25), disk(0.5, 0.5, 0.2)),
                  mesh, "E")
    return e, rasterize(disk(0.5, 0.5, 0.4), mesh, "F")


def _cross_sets(mesh, *_):
    """E a disk at the crossing of a cross whose arms are 8 nodes wide."""
    return (rasterize(disk(0.5, 0.5, 0.05), mesh, "E"),
            rasterize(shape_union(rect(0.0, 0.44, 1.0, 0.56),
                                  rect(0.44, 0.0, 0.56, 1.0)), mesh, "F"))


def _box_sets(mesh):
    """F the whole square, so that free nodes lie on its edge."""
    return (rasterize(disk(0.3, 0.6, 0.1), mesh, "E"),
            rasterize(shape_all(), mesh, "F"))


class TestMultigridCycle:
    """On the Krylov path the held preconditioner is a smoothed aggregation
    V-cycle of the blend start's p = 2 block, which also preconditions the
    blend start's CG solve."""

    @staticmethod
    def cycle(force_path, mesh, e, f):
        """The CSC p = 2 block of e in f and its cycle, on the Krylov
        path."""
        force_path("krylov")
        block = FreeBlock(mesh, e.mask, f.mask)
        assert block.band is None
        k = p2_stiffness(mesh, block)
        return k, solver._Cycle(k.T, mesh, block)

    def test_fixed_symmetric_linear_operator(self, force_path):
        mesh = build_mesh(96)
        k, cycle = self.cycle(force_path, mesh, *annulus_sets(mesh, 0.1, 0.4))
        assert cycle.levels
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, k.shape[0]))
        mx, my = cycle.solve(x), cycle.solve(y)
        scale = np.linalg.norm(mx) * np.linalg.norm(y)
        assert abs(mx @ y - x @ my) <= 1e-13 * scale
        assert np.allclose(cycle.solve(2.0 * x - 3.0 * y), 2.0 * mx - 3.0 * my,
                           rtol=0.0, atol=1e-13 * np.abs(mx).max())
        # positive definite: a preconditioner that CG can use
        assert x @ mx > 0 and y @ my > 0
        assert np.array_equal(cycle.solve(x), mx)

    def test_operator_complexity(self, force_path):
        # 3 x 3 boxes keep the coarse stencils compact: on the N = 96
        # annulus the two levels hold 29,752 and 4,364 entries, an operator
        # complexity of 1.147 (2 x 2 boxes made three levels and 1.78)
        mesh = build_mesh(96)
        _, cycle = self.cycle(force_path, mesh,
                              *annulus_sets(mesh, 0.1, 0.4))
        a, _, p, p_t = cycle.levels[-1]
        nnz = [level[0].nnz for level in cycle.levels] + [(p_t @ a @ p).nnz]
        assert nnz == [29752, 4364]
        assert sum(nnz) / nnz[0] == pytest.approx(1.1467, abs=1e-4)

    def test_blend_start_cycle_stores_no_zero(self):
        # the p = 2 block's SW/NE couplings vanish on right triangles; the
        # blend start's cycle drops them from its finest level, and its
        # applies keep the bits of a cycle built with them
        mesh = build_mesh(128)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        block = FreeBlock(mesh, e.mask, f.mask)
        assert block.band is None
        _, cycle = solver._linear_blend_init(
            mesh, p_laplacian(3.0), block, np.where(e.mask, 1.0, 0.0), 1.0)
        k = p2_stiffness(mesh, block).T
        fine = cycle.levels[0][0]
        assert fine.format == "csr" and np.all(fine.data != 0.0)
        assert fine.nnz == np.count_nonzero(k.data) < k.nnz
        with_zeros = solver._Cycle(k, mesh, block)
        for b in np.random.default_rng(5).standard_normal((3, k.shape[0])):
            assert cycle.solve(b).tobytes() == with_zeros.solve(b).tobytes()

    @pytest.mark.parametrize("flux", [
        p_laplacian(2.0), linear_matrix([[1.0, 0.5], [-0.5, 1.0]])],
        ids=["p_laplacian", "skew_linear_matrix"])
    def test_p2_start_converges_without_newton_steps(self, flux, monkeypatch,
                                                     force_path):
        mesh = build_mesh(128)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        assert np.count_nonzero(f.mask & ~e.mask) >= solver.KRYLOV_MIN_NODES
        gmres = _counting(monkeypatch, solver.spla, "gmres")
        cycles = _counting(monkeypatch, solver, "_Cycle")
        report, field = compute_capacity(mesh, flux, e, f)
        assert report.converged and field.iterations == 0 and not gmres
        assert len(cycles) == 1
        direct, _ = TestStaleFactorKrylov.direct(
            force_path, lambda: compute_capacity(mesh, flux, e, f))
        assert abs(report.c_inner - direct.c_inner) <= report.tol_cap

    @pytest.mark.parametrize("n, sets, levels", [
        (63, annulus_sets, 2), (48, _box_sets, 2), (64, _split_sets, 2),
        (128, _ring_sets, 1), (8, annulus_sets, 0)],
        ids=["odd_n", "f_on_box_edge", "two_components", "one_node_ring",
             "coarsest_only"])
    def test_hierarchy_on_free_sets(self, n, sets, levels, monkeypatch,
                                    force_path):
        # each block forced onto the Krylov path
        monkeypatch.setattr(solver, "COARSE_MAX_NODES", 200)
        mesh = build_mesh(n)
        e, f = sets(mesh)
        k, cycle = self.cycle(force_path, mesh, e, f)
        assert len(cycle.levels) == levels
        # the coarsest level is a banded or a SuperLU factor
        coarse = cycle.levels[-1][2].shape[1] if cycle.levels else k.shape[0]
        assert coarse <= solver.COARSE_MAX_NODES
        for a, _, p, _ in cycle.levels:
            assert p.shape[0] == a.shape[0] > p.shape[1] > 0
        # the p = 2 start is as tight as a linear flux needs to take no
        # Newton step, and only as tight as Newton needs for another flux
        block = FreeBlock(mesh, e.mask, f.mask)
        u = np.where(e.mask, 1.0, 0.0)
        rhs = np.linalg.norm(solver._blend_rhs(mesh, block, u))
        for flux, bound in ((p_laplacian(2.0), solver.BLEND_CG_ATOL),
                            (p_laplacian(3.0), solver.BLEND_CG_RTOL * rhs)):
            start, _ = solver._linear_blend_init(mesh, flux, block, u, 1.0)
            r = residual(mesh, p_laplacian(2.0), start,
                         block=block)[block.nodes]
            assert np.linalg.norm(r) <= 2.0 * bound
        report, field = compute_capacity(mesh, p_laplacian(3.0), e, f)
        assert force_path.gmres > 0
        direct, _ = TestStaleFactorKrylov.direct(
            force_path, lambda: compute_capacity(mesh, p_laplacian(3.0), e, f))
        assert report.converged and direct.converged
        assert abs(report.c_inner - direct.c_inner) <= report.tol_cap

    @pytest.mark.parametrize("s", [1e-150, 1e150])
    def test_extreme_levels_match_direct_path(self, s, force_path, recwarn):
        # the blend start solves for E at level 1 and scales by s: at level
        # s, CG's inner products underflow or overflow
        mesh = build_mesh(128)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        report, _ = compute_capacity(mesh, p_laplacian(2.0), e, f, s)
        direct, _ = TestStaleFactorKrylov.direct(
            force_path, lambda: compute_capacity(mesh, p_laplacian(2.0), e, f,
                                                 s))
        assert report.converged
        assert abs(report.c_inner - direct.c_inner) <= report.tol_cap
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_overflowing_capacity_above_the_gate(self, recwarn):
        mesh = build_mesh(128)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        with pytest.raises(InvalidInput, match="the capacity overflows"):
            compute_capacity(mesh, p_laplacian(2.0), e, f, 1e160)
        assert not [w for w in recwarn if w.category is RuntimeWarning]


def _block(mesh, e_shape, f_shape, symmetric=False):
    e, f = rasterize(e_shape, mesh, "E"), rasterize(f_shape, mesh, "F")
    return FreeBlock(mesh, e.mask, f.mask, symmetric=symmetric)


def _agrees_with_superlu(a, csc, lower=False):
    """_direct_solve with a, in the lower band layout when ``lower``,
    solves like a SuperLU factor of csc, to round-off; returns its x."""
    b = np.random.default_rng(0).standard_normal(csc.shape[0])
    want = spla.splu(csc).solve(b)
    got = solver._direct_solve(a, b, lower)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    return got


class TestBandLU:
    """A free block is assembled in the grid order whose mesh edges span
    fewer places; when that span is at most BAND_MAX, its matrices are
    band storage that LAPACK factors (the lower band of a symmetric
    flux's block by Cholesky, else the general band by LU), else CSC that
    SuperLU factors in its own COLAMD order; all solve in block order."""

    @pytest.mark.parametrize("flux", [p_laplacian(3.0), flat_core_p(2.0, 3.0),
                                      anisotropic_p(1.5, 2.0, 0.5)],
                             ids=["p_laplacian", "flat_core_p",
                                  "anisotropic_p"])
    @pytest.mark.parametrize("shapes", [
        (disk(0.5, 0.5, 0.1), disk(0.5, 0.5, 0.4)),
        (disk(0.3, 0.6, 0.05), rect(0.1, 0.2, 0.7, 0.9)),
        (disk(0.6, 0.4, 0.2), shape_all())], ids=["annulus", "rect", "box"])
    def test_suite_sized_blocks_agree_with_superlu(self, flux, shapes,
                                                   force_path):
        mesh = build_mesh(48)
        force_path("superlu")
        csc = _block(mesh, *shapes)
        assert csc.band is None
        u = np.random.default_rng(1).uniform(0.0, 1.0, mesh.n_nodes)
        force_path("band")
        for symmetric in (False, True):
            band = _block(mesh, *shapes, symmetric=symmetric)
            assert band.band is not None and band.lower == symmetric
            for block_matrix in (
                    lambda block: p2_stiffness(mesh, block),
                    lambda block: jacobian_matrix(mesh, flux, u, 1e-10,
                                                  shift=1e-9, block=block)):
                _agrees_with_superlu(block_matrix(band), block_matrix(csc),
                                     band.lower)

    def test_nonsymmetric_shifted_jacobian_needs_pivoting(self, force_path):
        # the skew Jacobian of linear_matrix, shifted down to a tenth of
        # its diagonal, with its lower triangle (in block order) scaled
        # up: off-diagonal entries now dominate, so rows are swapped
        mesh = build_mesh(24)
        shapes = (disk(0.5, 0.5, 0.1), disk(0.5, 0.5, 0.4))
        force_path("band")
        bw = _block(mesh, *shapes).band
        force_path("superlu")
        block = _block(mesh, *shapes)
        assert bw is not None and block.band is None
        flux = linear_matrix([[1.0, 0.5], [-0.5, 1.0]])
        jac = jacobian_matrix(mesh, flux, np.zeros(mesh.n_nodes), 0.0,
                              shift=1e-9, block=block)
        a = (jac - 0.9 * sp.diags(jac.diagonal())
             + 3.0 * sp.tril(jac, -1)).tocsc()
        _, piv, _ = dgbtrf(band_storage(a, bw), bw, bw)
        assert np.any(piv != np.arange(a.shape[0]))
        _agrees_with_superlu(band_storage(a, bw), a)

    @pytest.mark.parametrize("stored", [True, False],
                             ids=["zero_entries", "no_entries"])
    def test_singular_block_gives_no_direction(self, stored, force_path):
        # a flat Jacobian with no floor can be all zeros, stored, as the
        # block assembly stores them, or not stored at all; a banded block
        # stores it as zero band storage, general or lower
        mesh = build_mesh(16)
        shapes = (disk(0.5, 0.5, 0.1), disk(0.5, 0.5, 0.4))
        force_path("superlu")
        block = _block(mesh, *shapes)
        assert block.band is None
        a = p2_stiffness(mesh, block)
        a.data[:] = 0.0
        if not stored:
            a.eliminate_zeros()
        b = np.ones(a.shape[0])
        zeros = [(block, lambda: a)]
        force_path("band")
        for symmetric in (False, True):
            band = _block(mesh, *shapes, symmetric=symmetric)
            assert band.band is not None
            zeros.append((band, lambda band=band:
                          0.0 * p2_stiffness(mesh, band)))
        for held, zero in zeros:
            with pytest.raises(RuntimeError):
                solver._direct_solve(zero(), b, held.lower)
            state = solver._NewtonState(mesh, p_laplacian(3.0), held,
                                        SolverOptions(), [])
            assert state._direct(zero(), b) is None
            assert state.cycle is None
        with pytest.raises(RuntimeError):
            spla.splu(a)

    def test_one_node_block(self, force_path):
        mesh = build_mesh(8)
        free = np.zeros(mesh.n_nodes, dtype=bool)
        free[mesh.node_index(4, 4)] = True
        e = np.zeros_like(free)
        force_path("superlu")
        csc = FreeBlock(mesh, e, free)
        force_path("band")
        block = FreeBlock(mesh, e, free)
        assert block.band == 0 and csc.band is None
        x = _agrees_with_superlu(p2_stiffness(mesh, block),
                                 p2_stiffness(mesh, csc))
        assert x.shape == (1,)

    @pytest.mark.parametrize("n, f_shape, high", [
        (64, rect(0.0, 0.45, 1.0, 0.55), 7),
        (256, rect(0.05, 0.45, 0.95, 0.55), 25)], ids=["N64", "N256"])
    def test_wide_strip_takes_column_order(self, n, f_shape, high,
                                           force_path):
        # the strips are 65 nodes wide and 7 high, and 231 wide and 25
        # high: column-major order keeps each entry within a few places of
        # the diagonal.  The N = 256 strip lies above the Krylov gate and
        # bands only in that order
        mesh = build_mesh(n)
        shapes = (shape_none(), f_shape)
        block = _block(mesh, *shapes)
        side = mesh.n + 1
        nodes = block.nodes
        assert np.all(np.diff(nodes % side * side + nodes // side) > 0)
        assert np.count_nonzero(nodes % side == side // 2) == high
        assert block.band is not None and block.band < high + 3
        row_span = _grid_span(block.free.reshape(side, side))
        assert (row_span > BAND_MAX) == (nodes.size >= solver.KRYLOV_MIN_NODES)
        force_path("superlu")
        _agrees_with_superlu(p2_stiffness(mesh, block),
                             p2_stiffness(mesh, _block(mesh, *shapes)))

    def test_thin_cross_goes_to_superlu(self, monkeypatch):
        # a cross two nodes wide: in either grid order the nodes of one arm
        # sit about a grid side apart next to the crossing, so the block
        # keeps row-major order (a tie), and a band that wide would cost
        # far more than the sparse factor
        mesh = build_mesh(256)
        cross = shape_union(rect(0.0, 0.499, 1.0, 0.504),
                            rect(0.499, 0.0, 0.504, 1.0))
        block = _block(mesh, shape_none(), cross)
        assert np.all(np.diff(block.nodes) > 0)
        assert block.band is None
        a = p2_stiffness(mesh, block)
        factors = _counting(monkeypatch, solver.spla, "splu")
        _agrees_with_superlu(a, a)
        # the reference's factor, and the direct solve's
        assert len(factors) == 2

    def test_coarse_level_keeps_superlu(self, force_path):
        mesh = build_mesh(96)
        _, cycle = TestMultigridCycle.cycle(force_path, mesh,
                                            *annulus_sets(mesh, 0.1, 0.4))
        assert isinstance(cycle.coarse, spla.SuperLU)


class TestFactorRoute:
    """The block alone decides band or SuperLU, and its flux's kind lower
    or general band: _direct_solve follows its storage and reads no
    bandwidth of its own."""

    def test_order_suite_solves_only_bands(self, monkeypatch):
        # every suite block at N = 48 spans at most BAND_MAX places
        storages = []
        real = solver._direct_solve

        def direct_solve(a, b, *layout):
            storages.append(type(a))
            return real(a, b, *layout)
        monkeypatch.setattr(solver, "_direct_solve", direct_solve)
        factors = _counting(monkeypatch, solver.spla, "splu")
        report = run_order_suite(build_mesh(48), default_flux_family(), 10, 7)
        assert report.passed and storages
        assert set(storages) == {np.ndarray} and not factors

    SYMMETRIC = [flux for flux in default_flux_family()
                 if is_symmetric(flux)] + [
        s_transform(p_laplacian(3.0), -0.7),
        combine(p_laplacian(2.0), flat_core_p(2.0, 0.5), 1.0, 0.5)]
    SKEW = linear_matrix([[1.0, 0.5], [-0.5, 1.0]])

    @staticmethod
    def lapack_solves(monkeypatch, flux, sets):
        """The band Cholesky and band LU solves of one N = 24 capacity."""
        mesh = build_mesh(24)
        e, f = sets(mesh)
        cholesky = _counting(monkeypatch, solver, "dpbsv")
        lu = _counting(monkeypatch, solver, "dgbsv")
        report, _ = compute_capacity(mesh, flux, e, f, 1.3)
        assert report.converged
        return len(cholesky), len(lu)

    @pytest.mark.parametrize("sets", [annulus_sets, strip_sets, _box_sets],
                             ids=["annulus", "strip", "box"])
    @pytest.mark.parametrize("flux", SYMMETRIC,
                             ids=lambda f: f"{f.kind}-p{f.p}")
    def test_symmetric_kinds_take_cholesky(self, monkeypatch, flux, sets):
        cholesky, lu = self.lapack_solves(monkeypatch, flux, sets)
        assert cholesky > 0 and lu == 0

    @pytest.mark.parametrize("sets", [strip_sets, _box_sets],
                             ids=["strip", "box"])
    @pytest.mark.parametrize("flux", [
        SKEW, combine(weighted_p_laplacian(2.0, 1.0, 2.0), SKEW, 1.0, 0.5)],
        ids=["linear_matrix", "weighted_sum"])
    def test_skew_kinds_take_lu(self, monkeypatch, flux, sets):
        assert not is_symmetric(flux)
        cholesky, lu = self.lapack_solves(monkeypatch, flux, sets)
        assert cholesky == 0 and lu > 0

    @pytest.mark.parametrize("n, sets, route", [
        (96, annulus_sets, "band"), (64, _cross_sets, "band"),
        (128, annulus_sets, "krylov")],
        ids=["annulus_N96", "cross_N64", "annulus_N128"])
    def test_bandwidth_alone_decides_the_route(self, n, sets, route,
                                               monkeypatch):
        # the N = 96 annulus (4,344 free nodes, span 76) lies above the
        # Krylov gate and the N = 64 cross (824 free nodes, span 63) is thin
        # and wide, yet both band: every step is a LAPACK solve.  The
        # N = 128 annulus (span 100) does not band and takes GMRES steps
        mesh = build_mesh(n)
        e, f = sets(mesh, 0.1, 0.4)
        block = FreeBlock(mesh, e.mask, f.mask)
        assert (block.band is not None) == (route == "band")
        lapack = _counting(monkeypatch, solver, "dpbsv")
        superlu = _counting(monkeypatch, solver.spla, "splu")
        gmres = _counting(monkeypatch, solver.spla, "gmres")
        report, field = compute_capacity(mesh, p_laplacian(3.0), e, f)
        assert report.converged and field.iterations > 0
        if route == "band":
            assert len(lapack) == field.iterations + 1
            assert not superlu and not gmres
        else:
            assert not lapack and gmres


class TestFreeBlockWork:
    """The Newton solve assembles only the triangles that touch free
    nodes."""

    def test_flux_rows_per_residual(self, monkeypatch):
        # every residual of the solve (start, line-search trials, true
        # residual checks, smoothed continuation stages) evaluates the
        # flux on exactly those triangles; this flux reaches continuation
        from moncap import assembly
        mesh = build_mesh(32)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        free = f.mask & ~e.mask
        touching = int(np.count_nonzero(free[triangles(mesh)].any(axis=1)))
        rows = {"eval_flux": [], "eval_flux_smoothed": []}

        def counting(name, real):
            def evaluate(flux, x, xi, *args, **kwargs):
                rows[name].append(len(xi))
                return real(flux, x, xi, *args, **kwargs)
            return evaluate
        for name in rows:
            monkeypatch.setattr(assembly, name,
                                counting(name, getattr(assembly, name)))
        field = solve_dirichlet(mesh, flat_core_p(3.0, 3.0), e, f, 1.0)
        assert field.converged and field.iterations > 0
        assert 0 < touching < mesh.n_triangles
        for name, counts in rows.items():
            assert counts and set(counts) == {touching}, name

    def test_flux_jacobian_rows_per_assembly(self, monkeypatch):
        from moncap import assembly
        mesh = build_mesh(32)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        free = f.mask & ~e.mask
        touching = int(np.count_nonzero(free[triangles(mesh)].any(axis=1)))
        rows, calls = [], []
        real_jac, real_matrix = assembly.flux_jacobian, solver.jacobian_matrix

        def counting_jac(flux, x, xi, *args, **kwargs):
            rows.append(len(xi))
            return real_jac(flux, x, xi, *args, **kwargs)

        def counting_matrix(*args, **kwargs):
            calls.append(1)
            return real_matrix(*args, **kwargs)
        monkeypatch.setattr(assembly, "flux_jacobian", counting_jac)
        monkeypatch.setattr(solver, "jacobian_matrix", counting_matrix)
        field = solve_dirichlet(mesh, p_laplacian(3.0), e, f, 1.0)
        assert field.converged and field.iterations > 0
        assert 0 < touching < mesh.n_triangles and calls
        assert sum(rows) == touching * len(calls)


class TestLinearBlendInit:
    def test_matches_free_free_solve(self):
        # the blend start of a flux that is not linear equals the p=2 solve
        # written with explicit free/fixed blocks, on the acceptance annulus
        from scipy.sparse.linalg import spsolve
        for n in (32, 64):
            mesh = build_mesh(n)
            e, f = annulus_sets(mesh, 0.1, 0.4)
            free = f.mask & ~e.mask
            u = np.where(e.mask, 1.0, 0.0)
            got, held = solver._linear_blend_init(
                mesh, p_laplacian(3.0), FreeBlock(mesh, e.mask, f.mask), u,
                1.0)
            # off the Krylov path the p = 2 factor is dropped with the start
            assert held is None
            k = p2_reference(mesh)
            expected = u.copy()
            expected[free] = spsolve(k[free][:, free].tocsc(),
                                     -k[free][:, ~free] @ u[~free])
            assert np.array_equal(got[~free], u[~free])
            assert np.allclose(got, expected, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("flux", LINEAR_FLUXES, ids=lambda f: f.kind)
    def test_linear_flux_solves_its_own_problem(self, flux):
        # off the Krylov path a linear flux starts from its own free-free
        # solve, its Jacobian reference split into free and fixed blocks
        from scipy.sparse.linalg import spsolve
        mesh = build_mesh(32)
        e, f = _box_sets(mesh)
        free = f.mask & ~e.mask
        u = np.where(e.mask, -0.6, 0.0)
        block = FreeBlock(mesh, e.mask, f.mask)
        got, held = solver._linear_blend_init(mesh, flux, block, u, -0.6)
        assert held is None and block.band is not None
        k = jacobian_reference(mesh, flux, u, 0.0)
        expected = u.copy()
        expected[free] = spsolve(k[free][:, free].tocsc(),
                                 -k[free][:, ~free] @ u[~free])
        assert np.array_equal(got[~free], u[~free])
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)


class TestLinearStart:
    """Off the Krylov path a linear flux's blend start is the exact
    solution of its own problem, so its solve takes no Newton step; a flux
    that is not linear keeps the p = 2 start and its steps."""

    @pytest.mark.parametrize("flux", LINEAR_FLUXES, ids=lambda f: f.kind)
    @pytest.mark.parametrize("sets", [annulus_sets, _box_sets],
                             ids=["annulus", "box"])
    def test_converges_without_newton_steps(self, flux, sets):
        mesh = build_mesh(24)
        e, f = sets(mesh)
        assert np.count_nonzero(f.mask & ~e.mask) < solver.KRYLOV_MIN_NODES
        report, field = compute_capacity(mesh, flux, e, f, 1.3)
        assert report.converged and field.iterations == 0
        zero, steps = compute_capacity(mesh, flux, e, f, 1.3,
                                       SolverOptions(init="zero"))
        assert zero.converged and steps.iterations > 0
        assert abs(report.c_inner - zero.c_inner) <= report.tol_cap

    # Newton steps each takes from the p = 2 blend start on the N = 16
    # annulus r 0.12 / 0.38 at s = 1
    PARENT_STEPS = [(p_laplacian(1.5), 5), (p_laplacian(3.0), 4),
                    (weighted_p_laplacian(3.0, 1.0, 2.0), 4),
                    (anisotropic_p(1.5, 2.0, 0.5), 7),
                    (flat_core_p(2.0, 0.5), 3), (flat_core_p(2.0, 3.0), 12)]

    @pytest.mark.parametrize("flux, steps", PARENT_STEPS,
                             ids=lambda v: getattr(v, "kind", str(v)))
    def test_other_fluxes_keep_their_steps(self, flux, steps):
        mesh = build_mesh(16)
        e, f = annulus_sets(mesh)
        assert not is_linear(flux)
        field = solve_dirichlet(mesh, flux, e, f, 1.0)
        assert field.converged and field.iterations == steps

    def test_pure_skew_block_falls_back_to_the_p2_start(self, recwarn):
        # on interior nodes the skew flux's Jacobian block is exactly 0:
        # its factor is singular, and the start is the p = 2 one
        mesh = build_mesh(16)
        e, f = annulus_sets(mesh)
        block = FreeBlock(mesh, e.mask, f.mask)
        assert block.band is not None
        skew = linear_matrix([[0.0, 1.0], [-1.0, 0.0]], validate=False)
        u = np.where(e.mask, 1.0, 0.0)
        assert not np.any(jacobian_matrix(mesh, skew, u, 0.0, block=block))
        assert solver._linear_start(mesh, skew, block, u) is None
        p2_start, _ = solver._linear_blend_init(mesh, p_laplacian(3.0), block,
                                                u, 1.0)
        field = solve_dirichlet(mesh, skew, e, f, 1.0)
        assert field.converged and field.iterations == 0
        assert np.array_equal(field.u, p2_start)
        assert not [w for w in recwarn if w.category is RuntimeWarning]


class TestSolveWork:
    """A solve off the Krylov path does only the work its answer needs."""

    @pytest.mark.parametrize("flux", [p_laplacian(3.0), flat_core_p(2.0, 3.0),
                                      weighted_p_laplacian(2.0, 1.0, 2.0)],
                             ids=lambda f: f.kind)
    def test_banded_solve_builds_no_sparse_matrix(self, flux, monkeypatch):
        from scipy.sparse._base import _spbase
        built = []
        real = _spbase.__init__

        def init(self, *args, **kwargs):
            built.append(type(self).__name__)
            real(self, *args, **kwargs)
        monkeypatch.setattr(_spbase, "__init__", init)
        mesh = build_mesh(32)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        field = solve_dirichlet(mesh, flux, e, f, 1.0)
        assert field.converged and not built

    @pytest.mark.parametrize("case", ["p_laplacian", "flat_core_p",
                                      "p_laplacian_1.5", "invariance_29"])
    def test_no_residual_is_evaluated_twice(self, case, monkeypatch):
        # the start's true residual is the fast pass's first, and a
        # continuation hop that takes no step hands its iterate to the
        # true check unevaluated
        if case == "invariance_29":
            mesh, flux, e, f = invariance_instance(29)
        else:
            mesh = build_mesh(24)
            e, f = annulus_sets(mesh, 0.1, 0.4)
            flux = {"p_laplacian": p_laplacian(3.0),
                    "flat_core_p": flat_core_p(2.0, 3.0),
                    "p_laplacian_1.5": p_laplacian(1.5)}[case]
        seen = []
        real = solver.residual

        def counted(mesh, flux, u, eps=0.0, block=None):
            seen.append((u.tobytes(), eps))
            return real(mesh, flux, u, eps=eps, block=block)
        monkeypatch.setattr(solver, "residual", counted)
        field = solve_dirichlet(mesh, flux, e, f, 1.0)
        assert field.converged and field.iterations > 0
        assert len(seen) == len(set(seen))


class TestOptionsValidation:
    def test_bad_tol(self):
        with pytest.raises(ValueError):
            SolverOptions(tol_res=-1.0)

    @pytest.mark.parametrize("key,value", [
        ("max_newton", -1), ("max_newton", 2.0), ("max_newton", True),
        ("jacobian_floor", float("nan")), ("jacobian_floor", float("inf")),
        ("jacobian_floor", -1.0), ("init_seed", -1),
        ("tol_res", float("inf")),
    ])
    def test_rejected_value_names_its_field(self, key, value):
        with pytest.raises(InvalidInput) as exc:
            SolverOptions(**{key: value})
        assert exc.value.field == key

    def test_zero_newton_budget_and_floor_accepted(self):
        opts = SolverOptions(max_newton=0, jacobian_floor=0.0)
        assert opts.max_newton == 0 and opts.jacobian_floor == 0.0

    def test_default_tol_scales_with_s(self):
        opts = SolverOptions()
        assert opts.resolve_tol(p_laplacian(3.0), 1.0) == pytest.approx(1e-10)
        assert opts.resolve_tol(p_laplacian(3.0), 4.0) == pytest.approx(16e-10)


class TestOptionsReachSolve:
    """Every config-settable option reaches each solve made on the caller's
    behalf: the retry, the C_p solve of ``moncap capacity``, the sweep and
    the invariance suite."""

    SET = dict(tol_res=3e-9, max_newton=77, init_seed=11,
               jacobian_floor=2e-8)

    def _record(self, monkeypatch, fail_first=False):
        real = solver._solve
        seen = []

        def recording(mesh, flux, e, f, s, opts):
            seen.append(opts)
            if fail_first and len(seen) == 1:
                raise SolverDiverged("forced")
            return real(mesh, flux, e, f, s, opts)
        monkeypatch.setattr(solver, "_solve", recording)
        return seen

    def _assert_carried(self, seen, skip=()):
        assert seen
        for opts in seen:
            for name, value in self.SET.items():
                if name not in skip:
                    assert getattr(opts, name) == value, name

    def test_retry(self, monkeypatch):
        seen = self._record(monkeypatch, fail_first=True)
        mesh = build_mesh(12)
        e, f = annulus_sets(mesh)
        solve_dirichlet(mesh, p_laplacian(2.0), e, f, 1.0,
                        SolverOptions(init="zero", **self.SET))
        assert [o.init for o in seen] == ["zero", "linear_blend"]
        self._assert_carried(seen)

    def test_cp_solve(self, monkeypatch, tmp_path):
        seen = self._record(monkeypatch)
        flux = anisotropic_p(2.0, 2.0, 0.5).describe()
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "mesh": {"N": 12},
            "flux": {k: flux[k] for k in ("kind", "p", "params")},
            "E": {"disk": {"cx": 0.5, "cy": 0.5, "r": 0.12}},
            "F": {"disk": {"cx": 0.5, "cy": 0.5, "r": 0.38}},
            "solver": {"init": "zero", **self.SET},
            "output_dir": str(tmp_path)}))
        assert main(["capacity", str(cfg), "--quiet"]) == 0
        # moncap capacity's C_p solve starts from the blend on purpose
        assert [o.init for o in seen] == ["zero", "linear_blend"]
        self._assert_carried(seen)

    def test_sweep_s(self, monkeypatch):
        seen = self._record(monkeypatch)
        mesh = build_mesh(12)
        e, f = annulus_sets(mesh)
        sweep_s(mesh, anisotropic_p(2.0, 2.0, 0.5), e, f, [0.5, 1.0],
                SolverOptions(init="zero", **self.SET))
        # the first point from the caller's start, the next warm-started
        # from the previous field
        assert [o.init for o in seen] == ["zero", "given"]
        self._assert_carried(seen)

    def test_invariance_suite(self, monkeypatch):
        seen = self._record(monkeypatch)
        run_invariance_suite(build_mesh(12), 2, seed=5,
                             opts=SolverOptions(**self.SET))
        assert {"linear_blend", "zero", "random"} <= {o.init for o in seen}
        self._assert_carried(seen, skip=("init_seed",))
        # each random start draws from a seed offset by the caller's
        random_seeds = {o.init_seed for o in seen if o.init == "random"}
        assert random_seeds == {11 + 5 + 37 * i + k for i in range(2)
                                for k in range(3)}
