import pytest

from moncap.config import parse_flux
from moncap.errors import ConfigError
from moncap.flux import (adversarial_fixture, anisotropic_p, combine,
                         flat_core_p, linear_matrix, p_laplacian, s_transform,
                         weighted_p_laplacian)

M = [[1.0, 0.5], [-0.5, 1.0]]
P2 = {"kind": "p_laplacian", "p": 2.0}


@pytest.mark.parametrize("spec,expected", [
    ({"kind": "p_laplacian", "p": 3.0}, p_laplacian(3.0)),
    ({"kind": "weighted_p_laplacian", "p": 3.0,
      "params": {"w_min": 0.5, "w_max": 1.5, "kx": 2.0}},
     weighted_p_laplacian(3.0, 0.5, 1.5, kx=2.0, ky=1.0)),
    ({"kind": "anisotropic_p", "p": 1.5,
      "params": {"alpha": 2.0, "beta": 0.5}}, anisotropic_p(1.5, 2.0, 0.5)),
    ({"kind": "linear_matrix", "params": {"M": M}}, linear_matrix(M)),
    ({"kind": "flat_core_p", "p": 2.0, "params": {"rho0": 0.5}},
     flat_core_p(2.0, 0.5)),
    ({"kind": "s_transformed", "params": {"inner": P2, "s": -2.0}},
     s_transform(p_laplacian(2.0), -2.0)),
    ({"kind": "weighted_sum", "params": {"parts": [
        [1.0, P2], [0.5, {"kind": "anisotropic_p", "p": 2.0,
                          "params": {"alpha": 2.0, "beta": 0.5}}]]}},
     combine(p_laplacian(2.0), anisotropic_p(2.0, 2.0, 0.5), 1.0, 0.5)),
    ({"kind": "adversarial_fixture"}, adversarial_fixture()),
], ids=lambda v: v["kind"] if isinstance(v, dict) else "")
def test_each_kind_parses_to_its_constructor(spec, expected):
    assert parse_flux(spec).describe() == expected.describe()


@pytest.mark.parametrize("spec,message,path", [
    ({"kind": "flat_core_p", "p": 2.0}, "missing required key 'rho0'",
     "flux.params"),
    ({"kind": "flat_core_p", "params": {"rho0": 1.0}},
     "missing required key 'p'", "flux"),
    ({"kind": "p_laplacian", "p": 2.0, "params": {"rho0": 1.0}},
     "unknown keys ['rho0']", "flux.params"),
    ({"kind": "s_transformed", "params": {
        "inner": {"kind": "p_laplacian", "p": "3"}, "s": 1.0}},
     "expected a number", "flux.params.inner.p"),
    ({"kind": "weighted_sum", "params": {"parts": [[1.0], [2.0]]}},
     "parts must be a list of two [weight, flux] pairs",
     "flux.params.parts"),
    ({"kind": "linear_matrix", "params": {"M": [["a", 1.0], [0.0, 1.0]]}},
     "expected a numeric matrix", "flux.params.M"),
    ({"kind": "linear_matrix", "p": 3.0, "params": {"M": M}},
     "flux kind 'linear_matrix' takes no p", "flux.p"),
    ({"kind": "s_transformed", "p": 2.0,
      "params": {"inner": P2, "s": -2.0}},
     "flux kind 's_transformed' takes no p", "flux.p"),
    ({"kind": "weighted_sum", "p": 2.0,
      "params": {"parts": [[1.0, P2], [0.5, P2]]}},
     "flux kind 'weighted_sum' takes no p", "flux.p"),
    ({"kind": "adversarial_fixture", "p": 2.0},
     "flux kind 'adversarial_fixture' takes no p", "flux.p"),
    ({"kind": "weighted_sum", "params": {"parts": [
        [1.0, P2], [0.5, {"kind": "linear_matrix", "p": 2.0,
                          "params": {"M": M}}]]}},
     "takes no p", "flux.params.parts[1].p"),
])
def test_bad_spec_names_its_path(spec, message, path):
    with pytest.raises(ConfigError) as exc:
        parse_flux(spec)
    assert exc.value.path == path
    assert message in str(exc.value)
