from dataclasses import replace

import numpy as np
import pytest

from moncap import properties
from moncap.errors import InvalidInput, SolverDiverged
from moncap.flux import combine, flat_core_p, linear_matrix, p_laplacian
from moncap.mesh import build_mesh, disk, rasterize
from assembly_reference import rerun_subadditivity_case
from moncap.properties import (default_flux_family, run_bounds_suite,
                               run_convergence_study, run_invariance_suite,
                               run_order_suite, run_s_suite,
                               run_sequence_demo, run_subadditivity_suite)

MESH = build_mesh(20)
FAMILY = default_flux_family()


def diverge_when(monkeypatch, fails):
    """Make properties' compute_capacity raise SolverDiverged on the
    problems fails(mesh, e, f) picks, and solve the others."""
    real = properties.compute_capacity

    def solve(mesh, flux, e, f, *args):
        if fails(mesh, e, f):
            raise SolverDiverged("forced")
        return real(mesh, flux, e, f, *args)
    monkeypatch.setattr(properties, "compute_capacity", solve)


class TestOrderSuite:
    def test_passes_and_deterministic(self):
        a = run_order_suite(MESH, FAMILY, 8, seed=10)
        b = run_order_suite(MESH, FAMILY, 8, seed=10)
        assert a.passed
        assert a.to_dict() == b.to_dict()

    def test_different_seed_differs(self):
        a = run_order_suite(MESH, FAMILY, 4, seed=1)
        b = run_order_suite(MESH, FAMILY, 4, seed=2)
        assert a.to_dict() != b.to_dict()

    def test_empty_e1_margin_is_full_capacity(self):
        # seeded so that some instance draws the empty-E1 branch
        rep = run_order_suite(MESH, [p_laplacian(2.0)], 12, seed=3)
        assert rep.passed
        margins = [r["margin"] for r in rep.records
                   if r["check"] == "monotone_E"]
        assert all(m >= -1e-6 for m in margins)

    def test_worst_margin_reported_even_on_pass(self):
        rep = run_order_suite(MESH, [p_laplacian(2.0)], 4, seed=4)
        assert "worst_margin" in rep.to_dict()

    def test_banded_blocks_build_no_dissection_rank(self):
        # every block of a 70-instance N = 48 order suite is assembled in
        # a grid order, and the residuals, gradients and pairings gather
        # from the triangles themselves
        mesh = build_mesh(48)
        assert run_order_suite(mesh, FAMILY, 70, 7).passed

    def test_krylov_path_gives_the_shipped_answers(self, force_path,
                                                   monkeypatch):
        # every block of the seed-7 N = 48 suite bands; forced onto the
        # Krylov path the suite makes the same skips, and each solve, keyed
        # as the suite cache keys it, gives the shipped c_inner within the
        # larger tol_cap of the two reports
        caches = []
        real = properties._Cache.__init__

        def init(cache, *args):
            real(cache, *args)
            caches.append(cache)
        monkeypatch.setattr(properties._Cache, "__init__", init)
        mesh = build_mesh(48)
        shipped = run_order_suite(mesh, FAMILY, 70, 7)
        assert force_path.gmres == 0
        force_path("krylov")
        krylov = run_order_suite(mesh, FAMILY, 70, 7)
        assert force_path.gmres > 0
        assert krylov.skipped == shipped.skipped
        direct, iterative = (cache.store for cache in caches)
        assert direct.keys() == iterative.keys()
        for key, rep in direct.items():
            other = iterative[key]
            assert abs(rep.c_inner - other.c_inner) \
                <= max(rep.tol_cap, other.tol_cap), key[0]

    def test_weighted_sum_flux(self):
        # the suite cache keys each solve on flux.describe(), which must be
        # JSON-serialisable for the nested parts of a weighted sum too
        flux = combine(p_laplacian(2.0), p_laplacian(2.0), 1.0, 0.5)
        rep = run_order_suite(build_mesh(12), [flux], 1, 0)
        assert rep.passed


@pytest.mark.parametrize("suite", [run_order_suite, run_subadditivity_suite,
                                   run_bounds_suite],
                         ids=["order", "subadditivity", "bounds"])
def test_parallel_matches_serial(suite):
    a = suite(MESH, [p_laplacian(2.0)], 6, seed=5, jobs=1)
    b = suite(MESH, [p_laplacian(2.0)], 6, seed=5, jobs=3)
    assert a.passed
    assert a.to_dict() == b.to_dict()


class TestSubadditivitySuite:
    def test_passes(self):
        rep = run_subadditivity_suite(MESH, FAMILY, 9, seed=20)
        assert rep.passed
        assert len(rep.extras["worst_cases"]) == 5

    def test_rerun_case_on_finer_mesh(self):
        rep = run_subadditivity_suite(MESH, [p_laplacian(2.0)], 4, seed=21)
        case = rep.extras["worst_cases"][0]
        d20 = rerun_subadditivity_case(case, 20, [p_laplacian(2.0)])
        d40 = rerun_subadditivity_case(case, 40, [p_laplacian(2.0)])
        assert d40 <= d20 + 1e-12


class TestBoundsSuite:
    def test_passes(self):
        rep = run_bounds_suite(MESH, FAMILY, 8, seed=30)
        assert rep.passed, [r for r in rep.records if r["violation"]][:3]

    def test_plap_lower_bound_tight(self):
        rep = run_bounds_suite(MESH, [p_laplacian(2.0)], 3, seed=31)
        tight = [r for r in rep.records if r["check"] == "plap_lower_tight"]
        assert tight and all(r["margin"] >= -1e-10 for r in tight)


class TestSSuite:
    def test_grid_validation(self):
        with pytest.raises(InvalidInput):
            run_s_suite(MESH, FAMILY[:1], [0.5, 1.0], seed=1)
        with pytest.raises(InvalidInput):
            run_s_suite(MESH, FAMILY[:1], [1.0, -1.0], seed=1)

    @pytest.mark.parametrize("grid", [[], [1.0]])
    def test_grid_needs_two_values(self, grid):
        with pytest.raises(InvalidInput,
                           match="^s_grid needs at least two values$"):
            run_s_suite(MESH, FAMILY[:1], grid, seed=0)

    def test_laws_hold(self):
        grid = list(np.linspace(-2.0, 2.0, 9))
        rep = run_s_suite(MESH, [p_laplacian(2.0), flat_core_p(2.0, 2.5)],
                          grid, seed=33)
        assert rep.passed, [r for r in rep.records if r["violation"]][:3]
        ratios = [r["value"] for r in rep.records
                  if r["check"] == "continuity_ratio"]
        assert all(v >= 1.5 for v in ratios)
        zeros = [r for r in rep.records if r["check"] == "hat_zero_at_origin"]
        assert zeros and all(not r["violation"] for r in zeros)


class TestInvarianceSuite:
    def test_passes_with_field_nonuniqueness(self):
        rep = run_invariance_suite(build_mesh(24), 6, seed=40)
        assert rep.passed
        assert rep.extras["max_field_spread"] > 1e-2

    def test_zero_set_instance_all_zero(self):
        rep = run_invariance_suite(build_mesh(16), 2, seed=41)
        zero_recs = [r for r in rep.records if r["index"] == 0]
        assert zero_recs
        assert all(c == 0.0 for c in zero_recs[0]["capacities"])


class TestSequenceDemo:
    def setup_method(self):
        self.mesh = build_mesh(20)
        self.f = rasterize(disk(0.5, 0.5, 0.42), self.mesh, "F")
        radii = [0.05, 0.1, 0.15, 0.2]
        self.chain = [rasterize(disk(0.5, 0.5, r), self.mesh, f"E{r}")
                      for r in radii]

    def test_growing_disks_strictly_increase(self):
        rep = run_sequence_demo(self.mesh, p_laplacian(2.0), self.chain,
                                self.f, "E")
        assert rep.passed
        vals = rep.extras["values"]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        last = [r for r in rep.records if r["check"] == "limit_attained"][0]
        assert not last["violation"]
        assert abs(last["margin"]) <= last["tolerance"]

    @pytest.mark.parametrize("mode", ["E", "F"])
    def test_limit_that_misses_the_last_value_fails(self, monkeypatch, mode):
        # the limit is solved on its own, from the zero start, so a solve
        # that returns another value there fails the record
        real = properties.compute_capacity

        def solve(mesh, flux, e, f, s, opts):
            rep, field = real(mesh, flux, e, f, s, opts)
            if opts.init == "zero":
                rep = replace(rep, c_inner=rep.c_inner + 2.0 * rep.tol_cap)
            return rep, field
        monkeypatch.setattr(properties, "compute_capacity", solve)
        e = rasterize(disk(0.5, 0.5, 0.08), self.mesh, "E")
        fchain = [rasterize(disk(0.5, 0.5, r), self.mesh, f"F{r}")
                  for r in (0.42, 0.3)]
        chain, fixed = (self.chain, self.f) if mode == "E" else (fchain, e)
        rep = run_sequence_demo(self.mesh, p_laplacian(2.0), chain, fixed,
                                mode)
        last = [r for r in rep.records if r["check"] == "limit_attained"]
        assert len(last) == 1 and last[0]["violation"]
        assert -last[0]["margin"] > last[0]["tolerance"] > 0.0
        assert not rep.passed

    def test_decreasing_f_chain_nondecreasing(self):
        e = rasterize(disk(0.5, 0.5, 0.08), self.mesh, "E")
        fchain = [rasterize(disk(0.5, 0.5, r), self.mesh, f"F{r}")
                  for r in (0.42, 0.3, 0.2)]
        rep = run_sequence_demo(self.mesh, p_laplacian(2.0), fchain, e, "F")
        assert rep.passed
        vals = rep.extras["values"]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_non_monotone_chain_rejected(self):
        bad = [self.chain[1], self.chain[0]]
        with pytest.raises(InvalidInput):
            run_sequence_demo(self.mesh, p_laplacian(2.0), bad, self.f, "E")

    def test_diverged_member_is_a_skip(self, monkeypatch):
        diverge_when(monkeypatch, lambda mesh, e, f: e.name == "E0.1")
        rep = run_sequence_demo(self.mesh, p_laplacian(2.0), self.chain,
                                self.f, "E")
        vals = rep.extras["values"]
        assert rep.skipped == 1 and vals[1] is None
        assert None not in vals[:1] + vals[2:]
        # no step touches the skipped member
        assert [r["index"] for r in rep.records] == [3, 3]
        assert [r["check"] for r in rep.records] == ["chain_E_step",
                                                     "limit_attained"]


class TestConvergenceStudy:
    def test_empty_n_list_rejected(self):
        with pytest.raises(InvalidInput, match="^N_list must be nonempty$"):
            run_convergence_study(disk(0.5, 0.5, 0.1), disk(0.5, 0.5, 0.4),
                                  p_laplacian(2.0), [], oracle_value=1.0,
                                  tol_final=1e-3)

    def test_diverged_n_is_a_skip(self, monkeypatch):
        from moncap.mesh import halfplane, shape_complement
        diverge_when(monkeypatch, lambda mesh, e, f: mesh.n == 16)
        rep = run_convergence_study(
            halfplane("x", 0.25, "le"),
            shape_complement(halfplane("x", 0.75, "ge")), p_laplacian(2.0),
            [8, 16, 32], oracle_value=2.0, tol_final=1e-8)
        errs = rep.extras["errors"]
        assert rep.skipped == 1 and errs[1] is None
        assert all(e <= 1e-10 for e in errs[:1] + errs[2:])
        assert [r["index"] for r in rep.records] == [8, 32, 32]
        # the trend and final error hold; one skip in three fails the suite
        assert rep.violations == 0 and not rep.passed
    def test_strip_exact_every_n(self):
        from moncap.mesh import halfplane, shape_complement
        e_shape = halfplane("x", 0.25, "le")
        f_shape = shape_complement(halfplane("x", 0.75, "ge"))
        rep = run_convergence_study(e_shape, f_shape, p_laplacian(2.0),
                                    [8, 16, 32], oracle_value=2.0,
                                    tol_final=1e-8)
        assert rep.passed
        errs = rep.extras["errors"]
        assert all(e <= 1e-10 for e in errs)

    def test_skew_vs_identity_reference(self):
        # with F strictly interior the skew rows of the free system cancel
        # on this mesh, so the gap to the identity flux is pure solver noise
        skew = linear_matrix([[1.0, 0.5], [-0.5, 1.0]])
        rep = run_convergence_study(disk(0.5, 0.5, 0.1), disk(0.5, 0.5, 0.4),
                                    skew, [16, 32, 64], oracle_value=None,
                                    tol_final=1e-9,
                                    reference_flux=p_laplacian(2.0))
        assert rep.passed
        assert all(e <= 1e-10 for e in rep.extras["errors"])

    def test_skew_strip_gap_is_boundary_physics(self):
        # when F touches the box edge the natural condition (M grad u).n = 0
        # differs from the Laplace one, so the capacities stay apart
        from moncap.capacity import compute_capacity
        from moncap.mesh import halfplane, rasterize, shape_complement
        skew = linear_matrix([[1.0, 0.5], [-0.5, 1.0]])
        gaps = []
        for n in (8, 16, 32):
            mesh = build_mesh(n)
            e = rasterize(halfplane("x", 0.25, "le"), mesh, "E")
            f = rasterize(shape_complement(halfplane("x", 0.75, "ge")),
                          mesh, "F")
            rep, _ = compute_capacity(mesh, skew, e, f, 1.0)
            gaps.append(rep.c_inner - 2.0)
        assert all(g > 1e-3 for g in gaps)
