import pytest

from moncap.config import (MAX_CHECK_SAMPLES, MAX_MESH_N, ExperimentConfig,
                           parse_flux, parse_solver)
from moncap.errors import ConfigError
from moncap.flux import (adversarial_fixture, anisotropic_p, combine,
                         flat_core_p, linear_matrix, p_laplacian, s_transform,
                         weighted_p_laplacian)
from moncap.solver import SolverOptions

M = [[1.0, 0.5], [-0.5, 1.0]]
P2 = {"kind": "p_laplacian", "p": 2.0}


def path_of(exc):
    """The config path at fault, which a ConfigError's message starts with."""
    return str(exc).split(": ", 1)[0]


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
    # constructor errors name the one parameter at fault, else the flux
    ({"kind": "flat_core_p", "p": 2.0, "params": {"rho0": -1.0}},
     "core radius must be nonnegative", "flux.params.rho0"),
    ({"kind": "flat_core_p", "p": 3.0, "params": {"rho0": 1e120}},
     "core radius 1e+120 overflows b1", "flux.params.rho0"),
    ({"kind": "p_laplacian", "p": 1.0}, "growth exponent", "flux.p"),
    ({"kind": "linear_matrix", "params": {"M": [[1.0, 0.0], [0.0, -1.0]]}},
     "must be positive definite", "flux.params.M"),
    ({"kind": "s_transformed", "params": {"inner": P2, "s": 0.0}},
     "finite nonzero s", "flux.params.s"),
    ({"kind": "weighted_p_laplacian", "p": 2.0,
      "params": {"w_min": 2.0, "w_max": 1.0}}, "need 0 < w_min <= w_max",
     "flux"),
    ({"kind": "weighted_sum", "params": {"parts": [
        [1.0, P2], [0.5, {"kind": "p_laplacian", "p": 3.0}]]}},
     "cannot combine fluxes", "flux"),
    ({"kind": "weighted_sum", "params": {"parts": [
        [1.0, P2], [0.5, {"kind": "flat_core_p", "p": 2.0,
                          "params": {"rho0": -1.0}}]]}},
     "core radius must be nonnegative", "flux.params.parts[1].params.rho0"),
])
def test_bad_spec_names_its_path(spec, message, path):
    with pytest.raises(ConfigError) as exc:
        parse_flux(spec)
    assert path_of(exc.value) == path
    assert message in str(exc.value)


@pytest.mark.parametrize("key,value,message", [
    ("max_newton", -1, "max_newton must be an integer >= 0"),
    ("max_newton", 1.5, "expected an integer"),
    ("max_newton", float("inf"), "expected an integer"),
    # JSON has no NaN or Infinity, though Python's json module reads them
    ("jacobian_floor", float("nan"), "expected a number, got nan"),
    ("jacobian_floor", float("inf"), "expected a number, got inf"),
    ("jacobian_floor", -1.0, "jacobian_floor must be finite and >= 0"),
    ("init_seed", -3, "init_seed must be an integer >= 0"),
    ("tol_res", float("inf"), "expected a number, got inf"),
    ("tol_res", 0.0, "tol_res must be positive and finite"),
    ("init", "bogus", "init must be zero|linear_blend|given|random"),
    # a config cannot carry a start field
    ("init", "given", "init='given' requires init_field"),
])
def test_bad_solver_option_names_its_key(key, value, message):
    with pytest.raises(ConfigError) as exc:
        parse_solver({key: value})
    assert path_of(exc.value).startswith(f"solver.{key}")
    assert message in str(exc.value)


def test_solver_options_reach_solver_options():
    spec = {"tol_res": 1, "max_newton": 7.0, "init": "random",
            "init_seed": 3, "jacobian_floor": 0}
    opts = parse_solver(spec)
    assert opts == SolverOptions(**{**spec, "max_newton": 7})
    assert type(opts.max_newton) is int
    assert type(opts.tol_res) is type(opts.jacobian_floor) is float
    # a null tol_res, like a missing key, means the default
    assert parse_solver({"tol_res": None}) == parse_solver({}) \
        == SolverOptions()


def annulus_raw(**overrides):
    raw = {"mesh": {"N": 8}, "flux": P2,
           "E": {"disk": {"cx": 0.5, "cy": 0.5, "r": 0.1}},
           "F": {"disk": {"cx": 0.5, "cy": 0.5, "r": 0.4}}}
    raw.update(overrides)
    return raw


@pytest.mark.parametrize("raw,path", [
    (annulus_raw(mesh={"N": 1}), "mesh.N"),
    (annulus_raw(mesh={"N": MAX_MESH_N + 1}), "mesh.N"),
    (annulus_raw(mesh={"N": 100_000}), "mesh.N"),
    (annulus_raw(mesh={"N": 8, "L": float("inf")}), "mesh.L"),
    (annulus_raw(mesh={"N": 8, "L": float("nan")}), "mesh.L"),
    (annulus_raw(mesh={"N": 8, "L": 0.0}), "mesh.L"),
    (annulus_raw(mesh={"N": 8, "L": 1e-160}), "mesh.L"),
    (annulus_raw(mesh={"N": 8, "L": 1e160}), "mesh.L"),
    (annulus_raw(s=float("nan")), "s"),
    (annulus_raw(s=float("-inf")), "s"),
    (annulus_raw(N_list=[8, 0]), "N_list[1]"),
    (annulus_raw(N_list=[8, MAX_MESH_N + 1]), "N_list[1]"),
])
def test_out_of_range_names_its_path(raw, path):
    # parsing builds no mesh, so an out-of-range size allocates nothing
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(raw)
    assert path_of(exc.value) == path


def test_mesh_size_bounds_accepted():
    cfg = ExperimentConfig(annulus_raw(mesh={"N": MAX_MESH_N},
                                       N_list=[2, MAX_MESH_N]))
    assert cfg.mesh_n == MAX_MESH_N and cfg.n_list == [2, MAX_MESH_N]


@pytest.mark.parametrize("block,key", [("solver", "inner_tol"),
                                       ("solver", "picard_fallback"),
                                       ("solver", "eps_schedule"),
                                       ("suite", "n_refine")])
def test_retired_keys_rejected(block, key):
    raw = annulus_raw(**{block: {key: 1e-10}})
    if block == "suite":
        raw[block]["name"] = "order"
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(raw)
    assert path_of(exc.value) == block
    assert f"unknown keys ['{key}']" in str(exc.value)


@pytest.mark.parametrize("oracle,path,message", [
    ({"radial": {"p": 2.0, "R": 0.4}}, "oracle.radial",
     "missing required key 'r'"),
    ({"radial": {"p": 2.0, "r": 0.1, "R": 0.4, "m": 1}}, "oracle.radial",
     "unknown keys ['m']"),
    ({"radial": {"n": 2.5, "p": 2.0, "r": 0.1, "R": 0.4}},
     "oracle.radial.n", "expected an integer"),
    ({"radial": [2.0, 0.1, 0.4]}, "oracle.radial", "expected an object"),
    ({"strip": {"p": 2.0, "a": 0.25}}, "oracle.strip",
     "missing required key 'b'"),
    ({"strip": {"p": 2.0, "a": 0.25, "b": 0.75, "Ly": float("inf")}},
     "oracle.strip.Ly", "expected a number"),
    ({"value": "x"}, "oracle.value", "expected a number"),
    ({"value": 1.0, "tol": "abc"}, "oracle.tol", "expected a number"),
    ({"value": 1.0, "tol": float("nan")}, "oracle.tol", "expected a number"),
])
def test_bad_oracle_block_names_its_path(oracle, path, message):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(annulus_raw(oracle=oracle))
    assert path_of(exc.value) == path
    assert message in str(exc.value)


def test_oracle_block_defaults():
    cfg = ExperimentConfig(annulus_raw(oracle={
        "radial": {"p": 2, "r": 0.1, "R": 0.4}, "strip": {
            "p": 3.0, "a": 0.25, "b": 0.75}}))
    assert cfg.oracle == {
        "tol": 0.05, "radial": {"n": 2, "p": 2.0, "r": 0.1, "R": 0.4},
        "strip": {"p": 3.0, "a": 0.25, "b": 0.75, "Ly": 1.0}}


@pytest.mark.parametrize("suite,path,message", [
    ({"s_grid": ["a", "b"]}, "suite.s_grid[0]", "expected a number"),
    ({"s_grid": 5}, "suite.s_grid", "s_grid must be a list"),
    ({"s_grid": [1.0]}, "suite.s_grid", "at least two numbers"),
    ({"s_grid": [-1.0, float("inf")]}, "suite.s_grid[1]",
     "expected a number"),
    ({"instances": -3}, "suite.instances", "instances must be >= 1"),
    ({"instances": 0}, "suite.instances", "instances must be >= 1"),
    ({"instances": 2.5}, "suite.instances", "expected an integer"),
    ({"fluxes": 5}, "suite.fluxes", "fluxes must be a list"),
])
def test_bad_suite_block_names_its_path(suite, path, message):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(annulus_raw(suite=dict(suite, name="s")))
    assert path_of(exc.value) == path
    assert message in str(exc.value)


P3 = {"kind": "p_laplacian", "p": 3.0}


@pytest.mark.parametrize("flux,check,path,message", [
    (P3, {"n_samples": 0}, "check.n_samples", "in (0, 1e+06]"),
    (P3, {"n_samples": -5}, "check.n_samples", "in (0, 1e+06]"),
    (P3, {"n_samples": 1e10}, "check.n_samples", "in (0, 1e+06]"),
    (P3, {"n_samples": 2.5}, "check.n_samples", "expected an integer"),
    (P3, {"xi_radius": 0}, "check.xi_radius", "xi_radius must be positive"),
    (P3, {"xi_radius": -1}, "check.xi_radius", "xi_radius must be positive"),
    (P3, {"xi_radius": float("inf")}, "check.xi_radius", "expected a number"),
    # the check's own xi_radius^p bound is not the config's (test_cli.py);
    # positivity and finiteness are, with or without a flux
    (None, {"xi_radius": 0}, "check.xi_radius", "xi_radius must be positive"),
    (P3, {"xi_radius": float("nan")}, "check.xi_radius", "expected a number"),
    (P3, {"n_samples": float("inf")}, "check.n_samples",
     "expected an integer"),
    (None, {"n_samples": MAX_CHECK_SAMPLES + 1}, "check.n_samples",
     "in (0, 1e+06]"),
    (P3, [500], "check", "expected an object"),
    (P3, {"samples": 500}, "check", "unknown keys ['samples']"),
])
def test_bad_check_block_names_its_path(flux, check, path, message):
    raw = {"check": check} if flux is None else {"flux": flux, "check": check}
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(raw)
    assert path_of(exc.value) == path
    assert message in str(exc.value)


def test_check_block_bounds_accepted():
    cfg = ExperimentConfig({"flux": P3, "check": {
        "n_samples": MAX_CHECK_SAMPLES, "xi_radius": 1e33}})
    assert cfg.check == {"n_samples": MAX_CHECK_SAMPLES, "xi_radius": 1e33}


def test_growth_bound_is_left_to_the_check():
    # xi_radius^p is bounded by check_conditions, which check-flux runs, so
    # a capacity config with a steep flux and any radius still loads
    for check in ({}, {"xi_radius": 3.0}):
        cfg = ExperimentConfig({"flux": {"kind": "p_laplacian", "p": 300.0},
                                "check": check})
        assert cfg.check["xi_radius"] == check.get("xi_radius", 10.0)


DISK = {"cx": 0.5, "cy": 0.5, "r": 0.1}


@pytest.mark.parametrize("key,shape,path,message", [
    ("E", {"disk": {**DISK, "radius": 0.3}}, "E.disk",
     "unknown keys ['radius']"),
    ("E", {"disk": {"cx": 0.5, "cy": 0.5}}, "E.disk",
     "missing required key 'r'"),
    ("E", {"disk": {**DISK, "cx": float("nan")}}, "E.disk.cx",
     "expected a number, got nan"),
    ("E", {"disk": {**DISK, "r": float("inf")}}, "E.disk.r",
     "expected a number, got inf"),
    ("E", {"disk": {**DISK, "cx": True}}, "E.disk.cx",
     "expected a number, got True"),
    ("E", {"disk": {**DISK, "cx": "0.5"}}, "E.disk.cx",
     "expected a number, got '0.5'"),
    ("E", {"disk": {**DISK, "r": -0.1}}, "E.disk.r",
     "disk radius must be nonnegative"),
    ("E", {"disk": [0.5, 0.5, 0.1]}, "E.disk", "disk must be an object"),
    ("E", {"all": {"r": 1.0}}, "E.all", "unknown keys ['r']"),
    ("F", {"union": [{"disk": DISK}, {"rect": {
        "x0": None, "y0": 0.0, "x1": 1.0, "y1": 1.0}}]}, "F.union[1].rect.x0",
     "expected a number, got None"),
    ("F", {"complement": {"halfplane": {
        "axis": "x", "threshold": "0.75", "side": "ge"}}},
     "F.complement.halfplane.threshold", "expected a number"),
    ("F", {"complement": {"halfplane": {
        "axis": "z", "threshold": 0.75, "side": "ge"}}},
     "F.complement.halfplane", "halfplane needs axis in {x,y}"),
    ("F", {"difference": [{"all": {}}]}, "F.difference",
     "difference takes exactly two shapes"),
    ("F", {"annulus": {}}, "F", "unknown shape op 'annulus'"),
    ("F", [{"all": {}}], "F", "shape must be a single-key object"),
])
def test_bad_shape_names_its_path(key, shape, path, message):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(annulus_raw(**{key: shape}))
    assert path_of(exc.value) == path
    assert message in str(exc.value)


def test_bad_chain_shape_names_its_path():
    chain = {"mode": "E", "fixed": {"all": {}},
             "shapes": [{"none": {}}, {"disk": {**DISK, "cy": "x"}}]}
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(annulus_raw(chain=chain))
    assert path_of(exc.value) == "chain.shapes[1].disk.cy"


def test_shape_numbers_read_as_floats():
    cfg = ExperimentConfig(annulus_raw(
        E={"rect": {"x0": 0, "y0": 0, "x1": 1, "y1": 0.5}}))
    assert cfg.e_shape.args == (0.0, 0.0, 1.0, 0.5)
    assert all(type(v) is float for v in cfg.e_shape.args)


@pytest.mark.parametrize("raw,path,message", [
    (annulus_raw(s_grid=[-1.0, 1.0, 0.5]), "s_grid",
     "s_grid must be strictly ascending"),
    (annulus_raw(s_grid=[-1.0, 0.0, 0.0, 1.0]), "s_grid",
     "s_grid must be strictly ascending"),
    (annulus_raw(suite={"name": "s", "s_grid": [1.0, -1.0]}),
     "suite.s_grid", "s_grid must be strictly ascending"),
    (annulus_raw(N_list=[16, 8]), "N_list",
     "N_list must be strictly ascending"),
    (annulus_raw(N_list=[8, 8]), "N_list",
     "N_list must be strictly ascending"),
])
def test_unordered_grid_names_its_path(raw, path, message):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(raw)
    assert path_of(exc.value) == path
    assert message in str(exc.value)
