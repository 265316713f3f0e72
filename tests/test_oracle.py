import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moncap.errors import InvalidInput
from moncap.flux import (flat_core_p, linear_matrix, p_laplacian,
                         s_transform, weighted_p_laplacian)
from moncap.oracle import (RadialSpec, radial_numeric, radial_p_capacity,
                           sphere_measure, strip_capacity)


class TestClosedForms:
    def test_p2_log_branch(self):
        spec = RadialSpec(2, 2.0, 0.1, 0.4)
        assert radial_p_capacity(spec) == pytest.approx(
            2.0 * math.pi / math.log(4.0), rel=1e-14)

    def test_p3_value(self):
        spec = RadialSpec(2, 3.0, 0.1, 0.4)
        integral = 2.0 * (math.sqrt(0.4) - math.sqrt(0.1))
        assert integral == pytest.approx(0.632455532, rel=1e-9)
        assert radial_p_capacity(spec) == pytest.approx(
            2.0 * math.pi * integral ** -2, rel=1e-14)
        assert radial_p_capacity(spec) == pytest.approx(15.7080, rel=1e-5)

    def test_degenerate_annulus_blows_up(self):
        vals = [radial_p_capacity(RadialSpec(2, 2.0, r, 0.4))
                for r in (0.2, 0.3, 0.39, 0.399, 0.3999)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1e3

    def test_bad_radii_rejected(self):
        with pytest.raises(InvalidInput):
            RadialSpec(2, 2.0, 0.4, 0.4)

    @pytest.mark.parametrize("args, field", [
        ((1, 2.0, 0.1, 0.4), "n"), ((2, 1.0, 0.1, 0.4), "p"),
        ((2, 2.0, 0.0, 0.4), "r"), ((2, 2.0, 0.5, 0.2), "R")])
    def test_rejection_names_its_field(self, args, field):
        with pytest.raises(InvalidInput) as info:
            RadialSpec(*args)
        assert info.value.field == field

    def test_n3_sphere_measure(self):
        assert sphere_measure(3) == pytest.approx(4.0 * math.pi, rel=1e-14)

    @given(st.floats(min_value=1.2, max_value=4.0),
           st.floats(min_value=0.05, max_value=0.2),
           st.floats(min_value=0.25, max_value=0.5))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_radii(self, p, r, big_r):
        c = radial_p_capacity(RadialSpec(2, p, r, big_r))
        c_bigger_hole = radial_p_capacity(RadialSpec(2, p, r * 1.1, big_r))
        c_bigger_box = radial_p_capacity(RadialSpec(2, p, r, big_r * 1.1))
        assert c_bigger_hole > c
        assert c_bigger_box < c


class TestStrip:
    def test_values(self):
        assert strip_capacity(2.0, 0.25, 0.75, 1.0) == pytest.approx(2.0)
        assert strip_capacity(3.0, 0.25, 0.75, 1.0) == pytest.approx(4.0)
        assert strip_capacity(2.0, 0.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_bad_interval(self):
        with pytest.raises(InvalidInput):
            strip_capacity(2.0, 0.75, 0.25, 1.0)

    @pytest.mark.parametrize("args, field", [
        ((1.0, 0.25, 0.75, 1.0), "p"), ((2.0, -0.1, 0.75, 1.0), "a"),
        ((2.0, 0.75, 0.25, 1.0), "b"), ((2.0, 0.25, 0.75, 0.0), "Ly")])
    def test_rejection_names_its_field(self, args, field):
        with pytest.raises(InvalidInput) as info:
            strip_capacity(*args)
        assert info.value.field == field


class TestRadialNumeric:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_closed_form(self, p):
        spec = RadialSpec(2, p, 0.1, 0.4)
        got = radial_numeric(spec, p_laplacian(p), 10_000)
        want = radial_p_capacity(spec)
        assert got == pytest.approx(want, rel=1e-10)

    def test_quadrature_convergence_ratio(self):
        # refinement by 4x must shrink the error by at least 3x
        spec = RadialSpec(2, 2.0, 0.1, 0.4)
        want = radial_p_capacity(spec)
        errs = [abs(radial_numeric(spec, p_laplacian(2.0), m) - want)
                for m in (8, 32, 128)]
        assert errs[0] / max(errs[1], 1e-300) >= 3.0
        assert errs[1] / max(errs[2], 1e-300) >= 3.0

    def test_flat_core_degenerate_is_zero(self):
        # drop 1 achievable inside the core: rho0 (R - r) > 1
        spec = RadialSpec(2, 2.0, 0.1, 0.4)
        got = radial_numeric(spec, flat_core_p(2.0, 4.0), 2000)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_flat_core_positive_case(self):
        spec = RadialSpec(2, 2.0, 0.1, 0.4)
        got = radial_numeric(spec, flat_core_p(2.0, 1.0), 4000)
        plain = radial_p_capacity(spec)
        assert 0.0 < got < plain

    def test_s_scaled_flux_consistency(self):
        # the transformed flux at drop 1 equals the base flux at drop s
        spec = RadialSpec(2, 2.0, 0.1, 0.4)
        s = 2.0
        base = radial_numeric(spec, flat_core_p(2.0, 1.0), 4000, s=s)
        scaled = radial_numeric(spec, s_transform(flat_core_p(2.0, 1.0), s),
                                4000, s=1.0)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_non_isotropic_rejected(self):
        spec = RadialSpec(2, 2.0, 0.1, 0.4)
        with pytest.raises(InvalidInput):
            radial_numeric(spec, linear_matrix([[1.0, 0.5], [-0.5, 1.0]]),
                           100)
        with pytest.raises(InvalidInput):
            radial_numeric(spec, weighted_p_laplacian(2.0, 1.0, 2.0), 100)

    def test_negative_drop_symmetric(self):
        spec = RadialSpec(2, 3.0, 0.1, 0.4)
        a = radial_numeric(spec, p_laplacian(3.0), 2000, s=1.5)
        b = radial_numeric(spec, p_laplacian(3.0), 2000, s=-1.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_power_law_in_s(self):
        spec = RadialSpec(2, 3.0, 0.1, 0.4)
        c1 = radial_numeric(spec, p_laplacian(3.0), 4000, s=1.0)
        c2 = radial_numeric(spec, p_laplacian(3.0), 4000, s=2.0)
        assert c2 == pytest.approx(8.0 * c1, rel=1e-9)
