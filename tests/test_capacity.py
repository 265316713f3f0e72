import math

import numpy as np
import pytest

from assembly_reference import (complement, discrete_boundary, min_weight,
                                triangles)
from moncap import solver
from moncap.assembly import residual
from moncap.capacity import (compute_capacity, distributions, p_capacity,
                             sandwich_constants, sweep_s)
from moncap.errors import InvalidInput, SolverDiverged
from moncap.flux import (anisotropic_p, flat_core_p, linear_matrix,
                         p_laplacian, s_transform, weighted_p_laplacian)
from moncap.mesh import (build_mesh, disk, halfplane, rasterize, shape_none,
                         touched_triangles)
from moncap.properties import default_flux_family
from moncap.solver import SolverOptions


def strip_sets(mesh):
    e = rasterize(halfplane("x", 0.25, "le"), mesh, "E")
    f = complement(rasterize(halfplane("x", 0.75, "ge"), mesh, "Fc"), "F")
    return e, f


def annulus_sets(mesh, r=0.12, big_r=0.38):
    e = rasterize(disk(0.5, 0.5, r), mesh, "E")
    f = rasterize(disk(0.5, 0.5, big_r), mesh, "F")
    return e, f


class TestStripCapacitor:
    @pytest.mark.parametrize("p,expected", [(1.5, math.sqrt(2.0)),
                                            (2.0, 2.0), (3.0, 4.0)])
    def test_three_formulas_equal_closed_form(self, p, expected):
        mesh = build_mesh(8)
        e, f = strip_sets(mesh)
        rep, _ = compute_capacity(mesh, p_laplacian(p), e, f, 1.0)
        for value in (rep.c_energy, rep.c_inner, rep.c_outer):
            assert value == pytest.approx(expected, rel=1e-8)
        assert rep.three_formula_ok

    def test_all_isotropic_fluxes_share_strip_value(self):
        # constant-gradient solutions solve every x-independent flux
        mesh = build_mesh(8)
        e, f = strip_sets(mesh)
        rep, _ = compute_capacity(mesh, flat_core_p(2.0, 0.5), e, f, 1.0)
        # a(xi).xi = (|xi|-1/2)*|xi| at |xi| = 2 over area 1/2
        assert rep.c_energy == pytest.approx(0.5 * 1.5 * 2.0, rel=1e-8)


class TestConventions:
    def test_empty_e_zero_capacity(self):
        mesh = build_mesh(8)
        f = rasterize(disk(0.5, 0.5, 0.3), mesh, "F")
        e = rasterize(shape_none(), mesh, "E")
        rep, pf = compute_capacity(mesh, p_laplacian(2.0), e, f, 1.0)
        assert rep.c_inner == 0.0 and rep.c_energy == 0.0
        assert pf.iterations == 0

    def test_incompatible_pair_infinity_no_solve(self):
        mesh = build_mesh(8)
        e = rasterize(disk(0.5, 0.5, 0.2), mesh, "E")
        f = rasterize(disk(0.5, 0.5, 0.1), mesh, "F")
        rep, pf = compute_capacity(mesh, p_laplacian(2.0), e, f, 1.0)
        assert pf is None
        assert math.isinf(rep.c_inner) and not rep.compatible
        assert rep.to_dict()["c_inner"] == "infinity"

    def test_overflowed_capacity_is_invalid_input(self, recwarn):
        # |s|^p = 1e360 at p = 3 is past the largest double
        mesh = build_mesh(8)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        with pytest.raises(InvalidInput) as exc:
            compute_capacity(mesh, p_laplacian(3.0), e, f, 1e120)
        assert exc.value.field == "s"
        # the overflow is reported once, as the error, not as numpy warnings
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    @pytest.mark.parametrize("s", [1e155, 1e200, 1e300])
    def test_p_below_2_past_gradient_overflow(self, s, recwarn):
        # |grad u|^2 overflows at these s; a p < 2 flux must not turn that
        # into a zero flux and a zero capacity reported as converged
        mesh = build_mesh(8)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        unit, _ = compute_capacity(mesh, p_laplacian(1.5), e, f, 1.0)
        try:
            report, _ = compute_capacity(mesh, p_laplacian(1.5), e, f, s)
        except (SolverDiverged, InvalidInput):
            pass
        else:
            assert report.converged
            assert abs(report.c_inner - s ** 1.5 * unit.c_inner) \
                <= report.tol_cap
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_e_equals_f_single_node_hat_is_stencil_diagonal(self):
        # u is the unit impulse; its residual at the center is the stencil
        # value 4, independent of h
        mesh = build_mesh(4)
        e = rasterize(disk(0.5, 0.5, 1e-9), mesh, "E")
        assert e.count == 1
        rep, _ = compute_capacity(mesh, p_laplacian(2.0), e, e, 1.0)
        assert rep.c_hat == pytest.approx(4.0, rel=1e-12)
        assert rep.c_inner == pytest.approx(4.0, rel=1e-12)
        assert rep.c_outer == pytest.approx(4.0, rel=1e-12)


class TestAnnulus:
    def test_p2_disk_matches_radial_oracle_roughly(self):
        from moncap.oracle import RadialSpec, radial_p_capacity
        mesh = build_mesh(64)
        e = rasterize(disk(0.5, 0.5, 0.1), mesh, "E")
        f = rasterize(disk(0.5, 0.5, 0.4), mesh, "F")
        rep, _ = compute_capacity(mesh, p_laplacian(2.0), e, f, 1.0)
        oracle = radial_p_capacity(RadialSpec(2, 2.0, 0.1, 0.4))
        assert rep.c_inner == pytest.approx(oracle, rel=0.08)


class TestThreeFormulaIdentity:
    @pytest.mark.parametrize("flux", [
        p_laplacian(1.5), p_laplacian(3.0),
        weighted_p_laplacian(2.0, 1.0, 2.0),
        anisotropic_p(2.0, 2.0, 0.5),
        linear_matrix([[1.0, 0.5], [-0.5, 1.0]]),
        flat_core_p(2.0, 2.0),
    ], ids=lambda f: f"{f.kind}-p{f.p}")
    @pytest.mark.parametrize("s", [1.0, -1.5, 2.0])
    def test_identity_within_tol_cap(self, flux, s):
        mesh = build_mesh(16)
        e, f = annulus_sets(mesh)
        rep, _ = compute_capacity(mesh, flux, e, f, s)
        assert rep.converged
        assert abs(rep.c_energy - rep.c_inner) <= rep.tol_cap
        assert abs(rep.c_inner - rep.c_outer) <= rep.tol_cap
        assert rep.three_formula_ok


class TestDistributions:
    def setup_method(self):
        self.mesh = build_mesh(16)
        self.e, self.f = annulus_sets(self.mesh)

    def test_totals_match_c_hat(self):
        flux = p_laplacian(3.0)
        rep, pf = compute_capacity(self.mesh, flux, self.e, self.f, 1.0)
        lam, nu = distributions(pf, self.e, self.f)
        assert lam.total == pytest.approx(rep.c_hat, abs=rep.tol_cap)
        assert nu.total == pytest.approx(rep.c_hat, abs=rep.tol_cap)

    def test_interior_weights_exactly_zero(self):
        flux = p_laplacian(2.0)
        _, pf = compute_capacity(self.mesh, flux, self.e, self.f, 1.0)
        lam, _ = distributions(pf, self.e, self.f)
        boundary = discrete_boundary(self.e, self.mesh).mask
        interior = self.e.mask & ~boundary
        assert interior.any()
        assert np.all(lam.weights[interior] == 0.0)
        # so the measure vanishes off the discrete boundary of E
        assert np.all(lam.weights[~boundary] == 0.0)

    def test_nonnegative_for_positive_s(self):
        for flux in (p_laplacian(2.0), p_laplacian(3.0),
                     flat_core_p(2.0, 2.0)):
            rep, pf = compute_capacity(self.mesh, flux, self.e, self.f, 1.0)
            lam, nu = distributions(pf, self.e, self.f)
            floor = -1e-8 * (1.0 + rep.c_hat)
            assert min_weight(lam) >= floor
            assert min_weight(nu) >= floor

    def test_negative_s_swaps_carriers(self):
        flux = p_laplacian(2.0)
        rep, pf = compute_capacity(self.mesh, flux, self.e, self.f, -1.0)
        lam, nu = distributions(pf, self.e, self.f)
        assert np.array_equal(lam.carrier, ~self.f.mask)
        assert np.array_equal(nu.carrier, self.e.mask)
        floor = -1e-8 * (1.0 + abs(rep.c_hat))
        assert min_weight(lam) >= floor and min_weight(nu) >= floor

    def test_s_zero_zero_measures(self):
        flux = p_laplacian(2.0)
        _, pf = compute_capacity(self.mesh, flux, self.e, self.f, 0.0)
        lam, nu = distributions(pf, self.e, self.f)
        assert lam.total == 0.0 and nu.total == 0.0

    @pytest.mark.parametrize("s", [1.0, -1.0, 0.0])
    def test_carriers_swap_with_the_sign_of_s(self, s):
        # the three-branch form the carrier swap replaced
        flux = p_laplacian(3.0)
        _, pf = compute_capacity(self.mesh, flux, self.e, self.f, s)
        lam, nu = distributions(pf, self.e, self.f)
        from moncap.assembly import residual
        r = residual(self.mesh, flux, pf.u)
        e_mask, fc_mask = self.e.mask, ~self.f.mask
        lam_w, nu_w = np.zeros_like(r), np.zeros_like(r)
        lam_c, nu_c = e_mask, fc_mask
        if s > 0.0:
            lam_w[e_mask], nu_w[fc_mask] = r[e_mask], -r[fc_mask]
        elif s < 0.0:
            lam_w[fc_mask], nu_w[e_mask] = r[fc_mask], -r[e_mask]
            lam_c, nu_c = fc_mask, e_mask
        for got, weights, carrier in ((lam, lam_w, lam_c), (nu, nu_w, nu_c)):
            assert np.array_equal(got.weights, weights)
            assert np.array_equal(got.carrier, carrier)
            assert got.total == float(weights.sum())
        assert (lam.total != 0.0) == (s != 0.0)

    def test_total_residual_closure(self):
        flux = p_laplacian(3.0)
        from moncap.assembly import residual
        _, pf = compute_capacity(self.mesh, flux, self.e, self.f, 1.0)
        lam, nu = distributions(pf, self.e, self.f)
        r = residual(self.mesh, flux, pf.u)
        free = self.f.mask & ~self.e.mask
        gap = lam.total - nu.total + float(r[free].sum())
        assert abs(gap) <= 1e-12 * (1.0 + lam.total)


class TestPCapacity:
    def test_strip_value(self):
        mesh = build_mesh(8)
        e, f = strip_sets(mesh)
        assert p_capacity(mesh, 2.0, e, f) == pytest.approx(2.0, rel=1e-10)

    def test_bitwise_same_code_path(self):
        mesh = build_mesh(8)
        e, f = annulus_sets(mesh)
        a = p_capacity(mesh, 3.0, e, f)
        rep, _ = compute_capacity(mesh, p_laplacian(3.0), e, f, 1.0)
        assert a == rep.c_inner


class TestOneSolvePerCall:
    @pytest.mark.parametrize("flux,s", [
        *((fl, s) for fl in default_flux_family() for s in (1.0, -2.0)),
        (p_laplacian(3.0), 2.0),
    ], ids=lambda v: f"{v.kind}-p{v.p}" if hasattr(v, "kind") else f"s{v}")
    def test_solves_only_the_given_problem(self, monkeypatch, flux, s):
        from moncap import capacity
        real, solves = capacity.solve_dirichlet, []

        def counting(*args):
            solves.append(args)
            return real(*args)
        monkeypatch.setattr(capacity, "solve_dirichlet", counting)
        mesh = build_mesh(8)
        e, f = annulus_sets(mesh)
        rep, _ = compute_capacity(mesh, flux, e, f, s)
        assert len(solves) == 1
        assert solves[0][1] is flux and solves[0][4] == s
        assert rep.cp_value is None


class TestReportWork:
    """The report and the distributions read their residual from the
    solve; the report evaluates the flux only in its pairing, on the
    triangles that touch a node where the potential is nonzero."""

    @pytest.mark.parametrize("s", [1.5, -2.0, 0.0])
    def test_flux_rows_per_evaluation(self, monkeypatch, s):
        from moncap import assembly, capacity
        mesh = build_mesh(32)
        e, f = annulus_sets(mesh)
        flux = p_laplacian(3.0)
        _, pf = compute_capacity(mesh, flux, e, f, s)
        rows, real = [], assembly.eval_flux

        def counting(flux, x, xi):
            rows.append(len(xi))
            return real(flux, x, xi)
        monkeypatch.setattr(assembly, "eval_flux", counting)
        capacity._build_report(mesh, flux, e, f, s, pf)
        distributions(pf, e, f)
        touching = np.count_nonzero((pf.u != 0)[triangles(mesh)].any(axis=1))
        # the pairing of the report; the distributions read pf.residual
        assert rows == [touching]
        assert touching < mesh.n_triangles
        assert (touching > 0) == (s != 0)


def assert_kept_residual(mesh, flux, pf):
    """The field's residual is bitwise the one evaluated from its u."""
    assert pf.residual.shape == (mesh.n_nodes,)
    assert pf.residual.tobytes() == residual(mesh, flux, pf.u).tobytes()


def touching_sets(mesh):
    """E = disk r 0.2 with F = disk r 0.25 shifted off it: E reaches the
    outside of F, so some triangles join E to it with no free corner."""
    return (rasterize(disk(0.5, 0.5, 0.2), mesh, "E"),
            rasterize(disk(0.55, 0.5, 0.25), mesh, "F"))


class TestKeptResidual:
    """Every field the solver returns keeps its true residual at every
    node, and the report reads c_inner and c_outer from it."""

    @staticmethod
    def assert_report_reads(report, pf, e, f, s):
        assert report.c_inner == s * float(np.sum(pf.residual[e.mask]))
        assert report.c_outer == -s * float(np.sum(pf.residual[~f.mask]))

    @pytest.mark.parametrize("n", [48, 128], ids=["band", "krylov_csc"])
    def test_annulus(self, n, force_path):
        # force_path is not called: it only counts the GMRES solves
        mesh = build_mesh(n)
        e, f = annulus_sets(mesh, 0.1, 0.4)
        free = np.count_nonzero(f.mask & ~e.mask)
        assert (free >= solver.KRYLOV_MIN_NODES) == (n == 128)
        flux = p_laplacian(3.0)
        report, pf = compute_capacity(mesh, flux, e, f)
        assert pf.converged and pf.iterations > 0
        assert (force_path.gmres > 0) == (n == 128)
        assert_kept_residual(mesh, flux, pf)
        self.assert_report_reads(report, pf, e, f, 1.0)

    def test_e_reaching_outside_f(self):
        mesh = build_mesh(48)
        e, f = touching_sets(mesh)
        joined = touched_triangles(mesh, e.mask) \
            & touched_triangles(mesh, ~f.mask)
        assert joined.any()
        flux = p_laplacian(3.0)
        report, pf = compute_capacity(mesh, flux, e, f)
        assert_kept_residual(mesh, flux, pf)
        assert report.three_formula_ok
        # the bits of the report that evaluated its own residual
        assert report.c_inner == float.fromhex("0x1.379d5dbef3f7bp+10")
        assert report.c_outer == float.fromhex("0x1.379d5dbef3f7cp+10")
        assert report.c_energy == float.fromhex("0x1.379d5dbef3f7ap+10")

    def test_f_equal_to_e(self):
        mesh = build_mesh(16)
        e = rasterize(disk(0.5, 0.5, 0.3), mesh, "E")
        flux = p_laplacian(3.0)
        report, pf = compute_capacity(mesh, flux, e, e, 1.5)
        assert pf.converged and pf.iterations == 0
        assert_kept_residual(mesh, flux, pf)
        assert np.any(pf.residual)
        self.assert_report_reads(report, pf, e, e, 1.5)

    def test_s_zero(self):
        mesh = build_mesh(16)
        e, f = annulus_sets(mesh)
        flux = p_laplacian(3.0)
        report, pf = compute_capacity(mesh, flux, e, f, 0.0)
        assert_kept_residual(mesh, flux, pf)
        assert not np.any(pf.residual) and report.c_inner == 0.0

    def test_diverged_field_and_report(self):
        mesh = build_mesh(12)
        e, f = annulus_sets(mesh)
        flux = p_laplacian(3.0)
        with pytest.raises(SolverDiverged) as info:
            compute_capacity(mesh, flux, e, f, 1.0,
                             SolverOptions(max_newton=1))
        pf = info.value.field
        assert not pf.converged
        assert_kept_residual(mesh, flux, pf)
        assert pf.residual_max == np.max(np.abs(
            pf.residual[f.mask & ~e.mask]))
        self.assert_report_reads(info.value.report, pf, e, f, 1.0)

    def test_retry_from_a_zero_start(self):
        # the zero start has no step to take, so it fails; the retry from
        # the blend start converges without one
        mesh = build_mesh(12)
        e, f = annulus_sets(mesh)
        flux = p_laplacian(2.0)
        opts = SolverOptions(init="zero", max_newton=0)
        with pytest.raises(SolverDiverged):
            solver._solve(mesh, flux, e, f, 1.0, opts)
        report, pf = compute_capacity(mesh, flux, e, f, 1.0, opts)
        assert pf.converged and pf.iterations == 0
        assert_kept_residual(mesh, flux, pf)
        self.assert_report_reads(report, pf, e, f, 1.0)


class TestSweepS:
    def test_p_laplacian_power_law(self):
        mesh = build_mesh(12)
        e, f = annulus_sets(mesh)
        grid = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        out = sweep_s(mesh, p_laplacian(2.0), e, f, grid)
        cp = p_capacity(mesh, 2.0, e, f)
        for s, rep in out:
            assert rep is not None
            if s == 0.0:
                assert rep.c_inner == 0.0 and rep.c_hat == 0.0
            else:
                assert rep.c_inner == pytest.approx(s * s * cp, rel=1e-8)
                want_hat = np.sign(s) * abs(s) * cp
                assert rep.c_hat == pytest.approx(want_hat, rel=1e-8)

    def test_flat_core_hat_nondecreasing(self):
        mesh = build_mesh(12)
        e, f = annulus_sets(mesh)
        out = sweep_s(mesh, flat_core_p(2.0, 2.0), e, f,
                      [0.5, 1.0, 2.0, 4.0])
        hats = [rep.c_hat for _, rep in out]
        scale = 1.0 + max(abs(h) for h in hats)
        assert all(b - a >= -1e-6 * scale for a, b in zip(hats, hats[1:]))

    def test_unsorted_grid_rejected(self):
        mesh = build_mesh(8)
        e, f = annulus_sets(mesh)
        with pytest.raises(ValueError):
            sweep_s(mesh, p_laplacian(2.0), e, f, [1.0, 0.5])


class TestScalingIdentity:
    @pytest.mark.parametrize("flux", [
        p_laplacian(2.0), p_laplacian(3.0),
        weighted_p_laplacian(2.0, 1.0, 2.0), flat_core_p(2.0, 2.0),
    ], ids=lambda f: f"{f.kind}-p{f.p}")
    @pytest.mark.parametrize("s", [-2.0, -0.5, 0.5, 3.0])
    def test_capacity_equals_transformed_flux_capacity(self, flux, s):
        mesh = build_mesh(12)
        e, f = annulus_sets(mesh)
        rep, _ = compute_capacity(mesh, flux, e, f, s)
        rep_t, _ = compute_capacity(mesh, s_transform(flux, s), e, f, 1.0)
        assert abs(rep.c_inner - rep_t.c_inner) \
            <= 1e-8 * (1.0 + abs(rep.c_inner))


class TestCombinedFlux:
    def test_capacity_and_bounds_for_weighted_sum(self):
        from moncap.flux import combine
        from moncap.properties import bound_margins
        mesh = build_mesh(16)
        e, f = annulus_sets(mesh)
        mixed = combine(p_laplacian(2.0),
                        linear_matrix([[1.0, 0.5], [-0.5, 1.0]]), 0.6, 0.7)
        rep, pf = compute_capacity(mesh, mixed, e, f, 1.0)
        cp = p_capacity(mesh, mixed.p, e, f)
        assert rep.converged and rep.three_formula_ok
        # (0.6 I + 0.7 M) has symmetric part 1.3 I: capacity is 1.3 * C_p
        # when F stays interior (skew rows cancel on interior free nodes)
        assert rep.c_inner == pytest.approx(1.3 * cp, rel=1e-8)
        slack = 1e-9 * (1.0 + cp)
        for name, raw in bound_margins(rep, cp, rep.area_f).items():
            assert raw >= -slack, (name, raw)


class TestSandwichConstants:
    def test_p_laplacian_k1(self):
        k1, k2, k3 = sandwich_constants(p_laplacian(2.0), 1.0, 1.0)
        assert k1 == pytest.approx(4.0)
        assert k2 == 0.0 and k3 == 0.0

    def test_k2_k3_with_offsets(self):
        from dataclasses import replace
        fl = replace(p_laplacian(2.0), b1=0.5, b2=0.25)
        area, diam = 0.8, 1.2
        k1, k2, k3 = sandwich_constants(fl, area, diam)
        q = 2.0
        assert k2 == pytest.approx(4.0 * (0.5 * area) ** 0.5
                                   + 4.0 * 0.25 * area ** 0.5)
        assert k3 == pytest.approx(2.0 ** 3 * (0.5 ** 0.5 + 0.25) * diam)

    def test_bounds_hold_on_annulus(self):
        from moncap.properties import bound_margins
        mesh = build_mesh(16)
        e, f = annulus_sets(mesh)
        for flux in (p_laplacian(2.0), weighted_p_laplacian(2.0, 1.0, 2.0),
                     anisotropic_p(2.0, 2.0, 0.5), flat_core_p(2.0, 2.0),
                     linear_matrix([[1.0, 0.5], [-0.5, 1.0]])):
            rep, _ = compute_capacity(mesh, flux, e, f, 1.0)
            cp = p_capacity(mesh, flux.p, e, f)
            margins = bound_margins(rep, cp, rep.area_f)
            slack = 1e-9 * (1.0 + cp)
            for name, raw in margins.items():
                assert raw >= -slack, (flux.kind, name, raw)
