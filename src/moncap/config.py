"""Strict experiment-config parsing: schema-valid, unknown keys rejected."""

from __future__ import annotations

import json
import math
from typing import Any, Optional

import numpy as np

from .errors import ConfigError, InvalidInput
from .flux import CONFIG_KINDS, Flux
from .mesh import ShapeExpr, shape_from_json
from .solver import SolverOptions

_TOP_KEYS = {"mesh", "flux", "E", "F", "s", "solver", "suite", "s_grid",
             "N_list", "oracle", "check", "chain", "output_dir", "seed",
             "clip_E_to_F"}
_MESH_KEYS = {"N", "L"}
_FLUX_KEYS = {"kind", "p", "params"}
_SOLVER_KEYS = {"tol_res", "max_newton", "init", "init_seed",
                "jacobian_floor"}
_SUITE_KEYS = {"name", "instances", "fluxes", "s_grid"}
_CHECK_KEYS = {"n_samples", "xi_radius"}
_CHAIN_KEYS = {"mode", "shapes", "fixed"}
_ORACLE_KEYS = {"value", "radial", "strip", "reference_flux", "tol"}
# closed-form oracle arguments with their defaults; None marks a required key
_RADIAL_ARGS = {"n": 2, "p": None, "r": None, "R": None}
_STRIP_ARGS = {"p": None, "a": None, "b": None, "Ly": 1.0}

# Largest accepted mesh.N and N_list entry: the mesh alone grows like N^2
# (6.3 MB at N = 256) and a solve's LU factor faster, so larger grids end
# in a memory error rather than a result on a desk machine.
MAX_MESH_N = 1024
# Accepted mesh.L: at every accepted N, element areas h^2 and gradient
# coefficients 1/h stay far inside floating-point range.
MESH_L_RANGE = (1e-100, 1e100)


def _reject_unknown(obj: dict, allowed: set, path: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", path)


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"missing required key {key!r}", path)
    return obj[key]


def _number(value, path: str, integer=False) -> float:
    """A finite JSON number (Python's json also reads NaN and Infinity)."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)
    if not ok or (integer and int(value) != value):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"expected {kind}, got {value!r}", path)
    return int(value) if integer else float(value)


def _numbers(obj, args: dict, path: str, integers=()) -> dict:
    """An object whose keys are those of args, each a finite number."""
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", path)
    _reject_unknown(obj, set(args), path)
    out = {}
    for key, default in args.items():
        value = obj.get(key, default)
        if value is None:
            raise ConfigError(f"missing required key {key!r}", path)
        out[key] = _number(value, f"{path}.{key}", integer=key in integers)
    return out


def _s_grid(value, path: str) -> list:
    if not isinstance(value, list) or len(value) < 2:
        raise ConfigError("s_grid must be a list of at least two numbers",
                          path)
    return [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _parts(value, path: str) -> list:
    if not (isinstance(value, list) and len(value) == 2 and all(
            isinstance(pair, list) and len(pair) == 2 for pair in value)):
        raise ConfigError("parts must be a list of two [weight, flux] pairs",
                          path)
    return [(_number(w, f"{path}[{k}]"), parse_flux(f, f"{path}[{k}]"))
            for k, (w, f) in enumerate(value)]


def _matrix(value, path: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"expected a numeric matrix, got {value!r}",
                          path) from exc


def parse_flux(spec, path: str = "flux") -> Flux:
    if not isinstance(spec, dict):
        raise ConfigError("flux spec must be an object", path)
    _reject_unknown(spec, _FLUX_KEYS, path)
    kind = _need(spec, "kind", path)
    entry = CONFIG_KINDS.get(kind)
    if entry is None:
        raise ConfigError(f"unknown flux kind {kind!r}", path)
    params = spec.get("params", {})
    ppath = f"{path}.params"
    if not isinstance(params, dict):
        raise ConfigError("params must be an object", ppath)
    _reject_unknown(params, {prm.name for prm in entry.params}, ppath)

    if entry.needs_p:
        args = [_number(_need(spec, "p", path), f"{path}.p")]
    elif "p" in spec:
        raise ConfigError(f"flux kind {kind!r} takes no p", f"{path}.p")
    else:
        args = []
    kwargs = {}
    for prm in entry.params:
        value = params.get(prm.name, prm.default)
        if value is None:
            raise ConfigError(f"missing required key {prm.name!r}", ppath)
        kwargs[prm.name] = _PARAM_PARSERS[prm.type](
            value, f"{ppath}.{prm.name}")
    try:
        return entry.build(*args, **kwargs)
    except InvalidInput as exc:
        # the constructor names the one parameter at fault, if there is one
        if exc.field in kwargs:
            path = f"{ppath}.{exc.field}"
        elif exc.field == "p" and args:
            path = f"{path}.p"
        raise ConfigError(str(exc), path) from exc


_PARAM_PARSERS = {"number": _number, "matrix": _matrix, "flux": parse_flux,
                  "parts": _parts}


def parse_shape(spec, path: str) -> ShapeExpr:
    try:
        return shape_from_json(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad shape: {exc}", path) from exc


def parse_solver(spec, path: str = "solver") -> SolverOptions:
    if not isinstance(spec, dict):
        raise ConfigError("solver options must be an object", path)
    _reject_unknown(spec, _SOLVER_KEYS, path)
    kwargs: dict[str, Any] = {}
    if "tol_res" in spec and spec["tol_res"] is not None:
        kwargs["tol_res"] = _number(spec["tol_res"], f"{path}.tol_res")
    if "max_newton" in spec:
        kwargs["max_newton"] = _number(spec["max_newton"],
                                       f"{path}.max_newton", integer=True)
    if "init" in spec:
        # SolverOptions checks the name; a config has no init_field for
        # "given"
        kwargs["init"] = spec["init"]
    if "init_seed" in spec:
        kwargs["init_seed"] = _number(spec["init_seed"], f"{path}.init_seed",
                                      integer=True)
    if "jacobian_floor" in spec:
        kwargs["jacobian_floor"] = _number(spec["jacobian_floor"],
                                           f"{path}.jacobian_floor")
    try:
        return SolverOptions(**kwargs)
    except InvalidInput as exc:
        raise ConfigError(str(exc), f"{path}.{exc.field}") from exc


def _mesh_n(value, path: str) -> int:
    n = _number(value, path, integer=True)
    if not 2 <= n <= MAX_MESH_N:
        raise ConfigError(f"N must be between 2 and {MAX_MESH_N}", path)
    return n


class ExperimentConfig:
    """Validated experiment configuration; raw dict kept for hashing."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        _reject_unknown(raw, _TOP_KEYS, "config")
        self.raw = raw

        mesh = raw.get("mesh")
        self.mesh_n: Optional[int] = None
        self.mesh_l: float = 1.0
        if mesh is not None:
            if not isinstance(mesh, dict):
                raise ConfigError("mesh must be an object", "mesh")
            _reject_unknown(mesh, _MESH_KEYS, "mesh")
            self.mesh_n = _mesh_n(_need(mesh, "N", "mesh"), "mesh.N")
            self.mesh_l = _number(mesh.get("L", 1.0), "mesh.L")
            lo, hi = MESH_L_RANGE
            if not lo <= self.mesh_l <= hi:
                raise ConfigError(f"L must be between {lo:g} and {hi:g}",
                                  "mesh.L")

        self.flux = parse_flux(raw["flux"]) if "flux" in raw else None
        self.e_shape = parse_shape(raw["E"], "E") if "E" in raw else None
        self.f_shape = parse_shape(raw["F"], "F") if "F" in raw else None
        self.s = _number(raw.get("s", 1.0), "s")
        self.solver = parse_solver(raw["solver"]) if "solver" in raw \
            else SolverOptions()
        self.seed = _number(raw.get("seed", 0), "seed", integer=True)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0", "seed")
        self.output_dir = raw.get("output_dir", "out")
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string", "output_dir")
        self.clip_e_to_f = raw.get("clip_E_to_F", False)
        if not isinstance(self.clip_e_to_f, bool):
            raise ConfigError("clip_E_to_F must be a boolean", "clip_E_to_F")

        self.s_grid = _s_grid(raw["s_grid"], "s_grid") if "s_grid" in raw \
            else None

        self.n_list = None
        if "N_list" in raw:
            lst = raw["N_list"]
            if not isinstance(lst, list) or not lst:
                raise ConfigError("N_list must be a nonempty list", "N_list")
            self.n_list = [_mesh_n(v, f"N_list[{k}]")
                           for k, v in enumerate(lst)]

        self.suite = None
        if "suite" in raw:
            suite = raw["suite"]
            if not isinstance(suite, dict):
                raise ConfigError("suite must be an object", "suite")
            _reject_unknown(suite, _SUITE_KEYS, "suite")
            name = _need(suite, "name", "suite")
            if name not in ("order", "subadditivity", "bounds", "s",
                            "invariance", "sequence"):
                raise ConfigError(f"unknown suite {name!r}", "suite.name")
            instances = _number(suite.get("instances", 25),
                                "suite.instances", integer=True)
            if instances < 1:
                raise ConfigError("instances must be >= 1",
                                  "suite.instances")
            fluxes = suite.get("fluxes", [])
            if not isinstance(fluxes, list):
                raise ConfigError("fluxes must be a list", "suite.fluxes")
            self.suite = {
                "name": name,
                "instances": instances,
                "fluxes": [parse_flux(fs, f"suite.fluxes[{k}]")
                           for k, fs in enumerate(fluxes)],
                "s_grid": _s_grid(suite["s_grid"], "suite.s_grid")
                if "s_grid" in suite else None,
            }

        self.check = {"n_samples": 10_000, "xi_radius": 10.0}
        if "check" in raw:
            chk = raw["check"]
            if not isinstance(chk, dict):
                raise ConfigError("check must be an object", "check")
            _reject_unknown(chk, _CHECK_KEYS, "check")
            if "n_samples" in chk:
                self.check["n_samples"] = int(
                    _number(chk["n_samples"], "check.n_samples", integer=True))
            if "xi_radius" in chk:
                self.check["xi_radius"] = _number(chk["xi_radius"],
                                                  "check.xi_radius")

        self.chain = None
        if "chain" in raw:
            chain = raw["chain"]
            if not isinstance(chain, dict):
                raise ConfigError("chain must be an object", "chain")
            _reject_unknown(chain, _CHAIN_KEYS, "chain")
            mode = _need(chain, "mode", "chain")
            if mode not in ("E", "F"):
                raise ConfigError("chain.mode must be 'E' or 'F'",
                                  "chain.mode")
            shapes = _need(chain, "shapes", "chain")
            if not isinstance(shapes, list) or len(shapes) < 2:
                raise ConfigError("chain.shapes needs at least two entries",
                                  "chain.shapes")
            self.chain = {
                "mode": mode,
                "shapes": [parse_shape(sh, f"chain.shapes[{k}]")
                           for k, sh in enumerate(shapes)],
                "fixed": parse_shape(_need(chain, "fixed", "chain"),
                                     "chain.fixed"),
            }

        self.oracle = None
        if "oracle" in raw:
            orc = raw["oracle"]
            if not isinstance(orc, dict):
                raise ConfigError("oracle must be an object", "oracle")
            _reject_unknown(orc, _ORACLE_KEYS, "oracle")
            self.oracle = {"tol": _number(orc.get("tol", 0.05),
                                          "oracle.tol")}
            if "value" in orc:
                self.oracle["value"] = _number(orc["value"], "oracle.value")
            if "radial" in orc:
                self.oracle["radial"] = _numbers(
                    orc["radial"], _RADIAL_ARGS, "oracle.radial",
                    integers=("n",))
            if "strip" in orc:
                self.oracle["strip"] = _numbers(orc["strip"], _STRIP_ARGS,
                                                "oracle.strip")
            if "reference_flux" in orc:
                self.oracle["reference_flux"] = parse_flux(
                    orc["reference_flux"], "oracle.reference_flux")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return ExperimentConfig(raw)
