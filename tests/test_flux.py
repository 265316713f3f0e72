import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moncap.errors import InvalidInput
from moncap.flux import (MARGIN_TOL, Flux, adversarial_fixture,
                         anisotropic_p, check_conditions, combine, eval_flux,
                         eval_flux_smoothed, flat_core_p, flux_jacobian,
                         linear_matrix, p_laplacian, s_transform,
                         weighted_p_laplacian)

X0 = np.array([0.3, 0.7])


def shipped_family():
    return [
        p_laplacian(1.5),
        p_laplacian(2.0),
        p_laplacian(3.0),
        weighted_p_laplacian(2.0, 1.0, 2.0),
        weighted_p_laplacian(3.0, 0.5, 1.5, kx=2.0, ky=0.0),
        anisotropic_p(2.0, 2.0, 0.5),
        anisotropic_p(3.0, 1.5, 0.7),
        linear_matrix([[1.0, 0.5], [-0.5, 1.0]]),
        flat_core_p(2.0, 1.0),
        flat_core_p(3.0, 1.0),
        s_transform(p_laplacian(2.0), 2.0),
        combine(p_laplacian(2.0), linear_matrix([[1.0, 0.5], [-0.5, 1.0]]),
                1.0, 1.0),
    ]


class TestEval:
    def test_p2_identity(self):
        out = eval_flux(p_laplacian(2.0), X0, np.array([1.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0], rtol=0, atol=0)

    def test_p4_cubic(self):
        out = eval_flux(p_laplacian(4.0), X0, np.array([1.0, 1.0]))
        assert np.allclose(out, [2.0, 2.0], rtol=1e-15)

    def test_linear_matrix_product(self):
        fl = linear_matrix([[1.0, 0.5], [-0.5, 1.0]])
        out = eval_flux(fl, X0, np.array([1.0, 0.0]))
        assert np.allclose(out, [1.0, -0.5], rtol=0, atol=0)

    def test_flat_core_vanishes_inside(self):
        fl = flat_core_p(2.0, 1.0)
        out = eval_flux(fl, X0, np.array([0.5, 0.0]))
        assert np.all(out == 0.0)

    def test_zero_at_zero_all_kinds(self):
        zero = np.zeros(2)
        for fl in shipped_family():
            out = eval_flux(fl, X0, zero)
            assert np.all(out == 0.0), fl.kind

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            eval_flux(p_laplacian(2.0), X0, np.array([np.nan, 0.0]))

    def test_vectorized_shapes(self):
        xi = np.random.default_rng(0).normal(size=(7, 5, 2))
        out = eval_flux(p_laplacian(3.0), X0, xi)
        assert out.shape == xi.shape


class TestJacobian:
    def test_p2_identity_matrix(self):
        jac = flux_jacobian(p_laplacian(2.0), X0, np.array([0.3, -0.4]))
        assert np.allclose(jac, np.eye(2), rtol=0, atol=0)

    def test_linear_matrix_constant(self):
        m = np.array([[1.0, 0.5], [-0.5, 1.0]])
        jac = flux_jacobian(linear_matrix(m), X0, np.array([2.0, 3.0]))
        assert np.allclose(jac, m, rtol=0, atol=0)

    def test_p4_hand_derivative(self):
        # d(|xi|^2 xi) at (1,0): diag(3, 1)
        jac = flux_jacobian(p_laplacian(4.0), X0, np.array([1.0, 0.0]))
        assert np.allclose(jac, [[3.0, 0.0], [0.0, 1.0]], rtol=1e-14)

    @pytest.mark.parametrize("flux", shipped_family(),
                             ids=lambda f: f"{f.kind}-p{f.p}")
    def test_matches_finite_differences(self, flux):
        rng = np.random.default_rng(42)
        n = 1000
        radii = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))
        if flux.kind == "flat_core_p" or flux.kind == "weighted_sum":
            # keep clear of the positive-part kink at |xi| = rho0
            radii = radii[np.abs(radii - 1.0) > 0.05]
        ang = rng.uniform(0, 2 * np.pi, size=len(radii))
        xis = np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=-1)
        jac = flux_jacobian(flux, X0, xis)
        worst = 0.0
        for k in (0, 1):
            step = 1e-5 * radii
            e = np.zeros_like(xis)
            e[:, k] = step
            fd = (eval_flux(flux, X0, xis + e)
                  - eval_flux(flux, X0, xis - e)) / (2 * step[:, None])
            scale = np.maximum(np.abs(jac[:, :, k]).max(axis=-1), 1e-12)
            worst = max(worst,
                        float(np.max(np.abs(fd - jac[:, :, k]) / scale[:, None])))
        assert worst <= 1e-6

    def test_smoothed_eval_derivative_consistency(self):
        # flux_jacobian(eps) is the exact derivative of the smoothed flux
        rng = np.random.default_rng(3)
        for flux in (p_laplacian(1.5), flat_core_p(2.0, 1.0)):
            xis = rng.normal(size=(50, 2)) * 1.3
            eps = 1e-2
            jac = flux_jacobian(flux, X0, xis, eps=eps)
            for k in (0, 1):
                e = np.zeros_like(xis)
                e[:, k] = 1e-7
                fd = (eval_flux_smoothed(flux, X0, xis + e, eps)
                      - eval_flux_smoothed(flux, X0, xis - e, eps)) / 2e-7
                assert np.allclose(fd, jac[:, :, k], rtol=1e-4, atol=1e-8)

    def test_smoothed_matches_true_at_zero_eps(self):
        rng = np.random.default_rng(4)
        xis = rng.normal(size=(20, 2))
        for flux in shipped_family():
            a = eval_flux(flux, X0, xis)
            b = eval_flux_smoothed(flux, X0, xis, 0.0)
            assert np.array_equal(a, b)


class TestCheckConditions:
    def test_p3_plaplacian_all_pass(self):
        rep = check_conditions(p_laplacian(3.0), 1000, xi_radius=10.0, seed=1)
        assert rep.all_passed
        assert all(m >= -MARGIN_TOL for m in rep.margins.values())

    def test_adversarial_fails_monotonicity_with_witness(self):
        rep = check_conditions(adversarial_fixture(), 1000, seed=2)
        assert not rep.passed["monotone"]
        wit = rep.witnesses["monotone"]
        xi = np.array(wit["xi"])
        eta = np.array(wit["eta"])
        # margin is -|xi-eta|^2 normalized by the sample scale
        raw = -float(np.sum((xi - eta) ** 2))
        scale = 1.0 + np.linalg.norm(xi) ** 2 + np.linalg.norm(eta) ** 2
        assert rep.margins["monotone"] == pytest.approx(raw / scale, rel=1e-12)

    def test_flat_core_b1_from_independent_scan(self):
        p, rho0 = 3.0, 1.0
        fl = flat_core_p(p, rho0)
        # independent oracle: dense grid maximum of the coercivity deficit
        t = np.linspace(0.0, 2.0 * rho0, 2_000_001)
        deficit = fl.c1 * t ** p - np.maximum(t - rho0, 0.0) ** (p - 1) * t
        assert fl.b1 == pytest.approx(float(deficit.max()), rel=1e-6)
        rep = check_conditions(fl, 2000, seed=3)
        assert rep.all_passed

    @pytest.mark.parametrize("rho0", [1e-3, 0.5, 3.0, 40.0])
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 6.0])
    def test_flat_core_b1_tight_above_fine_scan(self, p, rho0):
        fl = flat_core_p(p, rho0)

        def scan(lo, hi):
            t = np.linspace(lo, hi, 2 ** 20 + 1)
            deficit = fl.c1 * t ** p - np.maximum(t - rho0, 0.0) ** (p - 1) * t
            k = int(np.argmax(deficit))
            return float(deficit[k]), t[max(k - 1, 0)], t[min(k + 1, t.size - 1)]

        coarse, lo, hi = scan(0.0, 2.0 * rho0)
        # the coarse scan falls short of the sup by up to 3e-12 relative
        # at p = 6; a second scan over its best two cells closes the gap
        top = max(coarse, scan(lo, hi)[0])
        assert fl.b1 >= top >= coarse
        # b1 is the sup plus its declared padding, 1e-12 relative + 1e-15
        assert fl.b1 == pytest.approx(top * (1.0 + 1e-12) + 1e-15, rel=1e-12)

    @pytest.mark.parametrize("rho0, bits", [(0.5, 0.125000000000126),
                                            (3.0, 4.500000000004501)])
    def test_flat_core_b1_shipped_bits(self, rho0, bits):
        # flat_core_p(2, 0.5) is in the suite family, rho0 = 3 in
        # configs/sweep-flat-core.json: their reports depend on these bits
        assert flat_core_p(2.0, rho0).b1 == bits

    @pytest.mark.parametrize("p, rho0", [(3.0, 1e120), (2.0, 1e154),
                                         (6.0, 1e60)])
    def test_flat_core_b1_overflow_rejected(self, p, rho0):
        with pytest.raises(InvalidInput, match="overflows b1"):
            flat_core_p(p, rho0)

    @pytest.mark.parametrize("flux", shipped_family(),
                             ids=lambda f: f"{f.kind}-p{f.p}")
    def test_shipped_fluxes_pass(self, flux):
        rep = check_conditions(flux, 2000, xi_radius=10.0, seed=11)
        assert rep.all_passed, rep.margins

    def test_report_serializes(self):
        rep = check_conditions(p_laplacian(2.0), 10, seed=0)
        d = rep.to_dict()
        assert d["all_passed"] and set(d["conditions"]) == {
            "zero", "monotone", "coercive", "growth"}


class TestSTransform:
    def test_plaplacian_scales_by_s_power_p(self):
        rng = np.random.default_rng(5)
        for p, s in [(2.0, 3.0), (3.0, -2.0), (1.5, 0.5)]:
            base = p_laplacian(p)
            wrapped = s_transform(base, s)
            xis = rng.normal(size=(40, 2))
            got = eval_flux(wrapped, X0, xis)
            want = abs(s) ** p * eval_flux(base, X0, xis)
            assert np.allclose(got, want, rtol=1e-13)

    def test_s_one_is_identity(self):
        rng = np.random.default_rng(6)
        fl = anisotropic_p(3.0, 1.5, 0.7)
        xis = rng.normal(size=(20, 2))
        assert np.allclose(eval_flux(s_transform(fl, 1.0), X0, xis),
                           eval_flux(fl, X0, xis), rtol=1e-15)

    def test_linear_matrix_s2_quadruples(self):
        m = np.array([[1.0, 0.5], [-0.5, 1.0]])
        fl = s_transform(linear_matrix(m), 2.0)
        xi = np.array([0.3, -1.2])
        assert np.allclose(eval_flux(fl, X0, xi), 4.0 * m @ xi, rtol=1e-14)

    def test_constants_rescaled(self):
        fl = flat_core_p(2.0, 1.0)
        w = s_transform(fl, -3.0)
        assert w.c1 == pytest.approx(9.0 * fl.c1)
        assert w.c2 == pytest.approx(9.0 * fl.c2)
        assert w.b1 == fl.b1
        assert w.b2 == pytest.approx(3.0 * fl.b2)

    def test_s_zero_rejected(self):
        with pytest.raises(InvalidInput):
            s_transform(p_laplacian(2.0), 0.0)

    @given(st.floats(min_value=0.1, max_value=8.0),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, s, seed):
        fl = p_laplacian(3.0)
        back = s_transform(s_transform(fl, s), 1.0 / s)
        xis = np.random.default_rng(seed).normal(size=(10, 2)) * 3.0
        a = eval_flux(fl, X0, xis)
        b = eval_flux(back, X0, xis)
        assert np.allclose(a, b, rtol=1e-14, atol=1e-300)


class TestCombine:
    def test_zero_weight_reduces_to_first(self):
        f1 = p_laplacian(2.0)
        f2 = linear_matrix([[2.0, 0.0], [0.0, 2.0]])
        c = combine(f1, f2, 1.0, 0.0)
        xis = np.random.default_rng(7).normal(size=(20, 2))
        assert np.array_equal(eval_flux(c, X0, xis), eval_flux(f1, X0, xis))

    def test_p2_sum_is_matrix_sum(self):
        m = np.array([[1.0, 0.5], [-0.5, 1.0]])
        c = combine(p_laplacian(2.0), linear_matrix(m), 1.0, 1.0)
        xi = np.array([0.4, 1.1])
        assert np.allclose(eval_flux(c, X0, xi), (np.eye(2) + m) @ xi,
                           rtol=1e-14)

    def test_combined_passes_checker(self):
        c = combine(flat_core_p(2.0, 0.5), weighted_p_laplacian(2.0, 1.0, 2.0),
                    0.7, 1.3)
        rep = check_conditions(c, 3000, seed=9)
        assert rep.all_passed, rep.margins

    def test_mismatched_p_rejected(self):
        with pytest.raises(InvalidInput):
            combine(p_laplacian(2.0), p_laplacian(3.0), 1.0, 1.0)

    def test_nested_describe_is_json(self):
        inner = combine(p_laplacian(2.0), linear_matrix(np.eye(2)), 1.0, 2.0)
        c = combine(p_laplacian(2.0), inner, 1.0, 0.5)
        parts = json.loads(json.dumps(c.describe()))["params"]["parts"]
        assert parts[0] == [1.0, p_laplacian(2.0).describe()]
        assert parts[1][1]["params"]["parts"][1] == [
            2.0, linear_matrix(np.eye(2)).describe()]


class TestSymmetricPartEnergy:
    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_energy_sees_only_symmetric_part(self, seed):
        rng = np.random.default_rng(seed)
        m = np.array([[1.0, 0.0], [0.0, 1.0]]) + rng.normal(size=(2, 2)) * 0.3
        sym = 0.5 * (m + m.T)
        if np.linalg.eigvalsh(sym)[0] <= 1e-6:
            return
        fl = linear_matrix(m)
        xi = rng.normal(size=2)
        lhs = float(eval_flux(fl, X0, xi) @ xi)
        rhs = float(xi @ sym @ xi)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)


def test_big_randomized_condition_sweep():
    # every shipped flux, 1e4 samples, margins above -1e-12 * scale
    for flux in shipped_family():
        rep = check_conditions(flux, 10_000, xi_radius=10.0, seed=123)
        assert rep.all_passed, (flux.kind, rep.margins)
