"""Strict experiment-config parsing: schema-valid, unknown keys rejected."""

from __future__ import annotations

import json
from typing import Any, Optional

import numpy as np

from .errors import ConfigError, InvalidInput, finite_number
from .flux import CONFIG_KINDS, Flux
from .mesh import ShapeExpr, shape_from_json
from .solver import SolverOptions

_TOP_KEYS = {"mesh", "flux", "E", "F", "s", "solver", "suite", "s_grid",
             "N_list", "oracle", "check", "chain", "output_dir", "seed",
             "clip_E_to_F"}
_FLUX_KEYS = {"kind", "p", "params"}
# solver keys by how parse_solver reads them; an init name goes to
# SolverOptions as it is, which checks it (a config has no init_field for
# "given")
_SOLVER_KEYS = {"tol_res": "number", "max_newton": "integer", "init": "name",
                "init_seed": "integer"}
_CHECK_ARGS = {"n_samples": 10_000, "xi_radius": 10.0}
# closed-form oracle -> its arguments with their defaults, None marking a
# required one; a config's oracle block and the oracle command both read it
ORACLE_ARGS = {"radial": {"n": 2, "p": None, "r": None, "R": None},
               "strip": {"p": None, "a": None, "b": None, "Ly": 1.0}}

# Largest accepted mesh.N and N_list entry.  One p = 3 annulus solve peaks
# at 100 MiB at N = 256, 202 MiB at N = 512 and 613-622 MiB at N = 1024,
# where the import holds 62, building the mesh and its sets adds 33, the
# solve's FreeBlock and its indices 256, and the solve, its Jacobians and
# multigrid hierarchy, 255.  All of it grows like N^2, so larger grids end
# in a memory error rather than a result on a desk machine.
MAX_MESH_N = 1024
# Accepted mesh.L: at every accepted N, element areas h^2 and gradient
# coefficients 1/h stay far inside floating-point range.
MESH_L_RANGE = (1e-100, 1e100)
# Largest accepted check.n_samples: 10^6 samples take about 190 MB and under
# a second on a shared 2-CPU machine; 10^10 ended in a memory error.
# check.xi_radius^p is bounded by the check itself (flux.MAX_CHECK_GROWTH).
MAX_CHECK_SAMPLES = 10**6


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"missing required key {key!r}", path)
    return obj[key]


def _block(obj, keys, path: str, required=(), message=None) -> dict:
    """An object with no key outside keys and each required one; message
    is the error for a value that is not an object."""
    if not isinstance(obj, dict):
        raise ConfigError(message or f"{path.rsplit('.', 1)[-1]} must be "
                          "an object", path)
    unknown = set(obj) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", path)
    for key in required:
        _need(obj, key, path)
    return obj


def _number(value, path: str, integer=False) -> float:
    try:
        return finite_number(value, path, integer)
    except InvalidInput as exc:
        raise ConfigError(str(exc), path) from exc


def _numbers(obj, args: dict, path: str, integers=()) -> dict:
    """An object whose keys are those of args, each a finite number."""
    _block(obj, args, path, message="expected an object")
    out = {}
    for key, default in args.items():
        value = obj.get(key, default)
        if value is None:
            raise ConfigError(f"missing required key {key!r}", path)
        out[key] = _number(value, f"{path}.{key}", integer=key in integers)
    return out


def _ascending(value, path: str, read, what: str, least: int) -> list:
    """A list of at least least entries, each read by read(entry, path),
    strictly ascending; what names the list in an error."""
    name = path.rsplit(".", 1)[-1]
    if not isinstance(value, list) or len(value) < least:
        raise ConfigError(f"{name} must be {what}", path)
    values = [read(v, f"{path}[{k}]") for k, v in enumerate(value)]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{name} must be strictly ascending", path)
    return values


def _s_grid(value, path: str) -> list:
    return _ascending(value, path, _number, "a list of at least two numbers",
                      2)


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
    kind = _block(spec, _FLUX_KEYS, path, ("kind",),
                  "flux spec must be an object")["kind"]
    entry = CONFIG_KINDS.get(kind)
    if entry is None:
        raise ConfigError(f"unknown flux kind {kind!r}", path)
    ppath = f"{path}.params"
    params = _block(spec.get("params", {}),
                    [prm.name for prm in entry.params], ppath)

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
# oracle key -> reader(value, path), in the order they are checked
_ORACLE = {
    "tol": _number,
    "value": _number,
    **{kind: lambda value, path, args=args: _numbers(value, args, path,
                                                     integers=("n",))
       for kind, args in ORACLE_ARGS.items()},
    "reference_flux": parse_flux,
}


def parse_shape(spec, path: str) -> ShapeExpr:
    try:
        return shape_from_json(spec, path)
    except InvalidInput as exc:
        raise ConfigError(str(exc), exc.field) from exc


def parse_solver(spec) -> SolverOptions:
    _block(spec, _SOLVER_KEYS, "solver",
           message="solver options must be an object")
    kwargs: dict[str, Any] = {}
    for key, kind in _SOLVER_KEYS.items():
        value = spec.get(key)
        # a missing key, or a null tol_res, means the default
        if key not in spec or key == "tol_res" and value is None:
            continue
        kwargs[key] = value if kind == "name" else _number(
            value, f"solver.{key}", integer=kind == "integer")
    try:
        return SolverOptions(**kwargs)
    except InvalidInput as exc:
        raise ConfigError(str(exc), f"solver.{exc.field}") from exc


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
        _block(raw, _TOP_KEYS, "config")
        self.raw = raw

        mesh = raw.get("mesh")
        self.mesh_n: Optional[int] = None
        self.mesh_l: float = 1.0
        if mesh is not None:
            _block(mesh, ("N", "L"), "mesh", ("N",))
            self.mesh_n = _mesh_n(mesh["N"], "mesh.N")
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

        self.n_list = _ascending(raw["N_list"], "N_list", _mesh_n,
                                 "a nonempty list", 1) \
            if "N_list" in raw else None

        # a config without a suite block runs the suite its command names
        suite = raw.get("suite", {"name": None})
        _block(suite, ("name", "instances", "fluxes", "s_grid"), "suite",
               ("name",))
        instances = _number(suite.get("instances", 25), "suite.instances",
                            integer=True)
        if instances < 1:
            raise ConfigError("instances must be >= 1", "suite.instances")
        fluxes = suite.get("fluxes", [])
        if not isinstance(fluxes, list):
            raise ConfigError("fluxes must be a list", "suite.fluxes")
        self.suite = {
            "name": suite["name"],
            "instances": instances,
            "fluxes": [parse_flux(fs, f"suite.fluxes[{k}]")
                       for k, fs in enumerate(fluxes)],
            "s_grid": _s_grid(suite["s_grid"], "suite.s_grid")
            if "s_grid" in suite else None,
        }

        self.check = _numbers(raw.get("check", {}), _CHECK_ARGS, "check",
                              integers=("n_samples",))
        if not 0 < self.check["n_samples"] <= MAX_CHECK_SAMPLES:
            raise ConfigError(
                f"n_samples must be in (0, {MAX_CHECK_SAMPLES:g}]",
                "check.n_samples")
        if not self.check["xi_radius"] > 0:
            raise ConfigError("xi_radius must be positive", "check.xi_radius")

        self.chain = None
        if "chain" in raw:
            keys = ("mode", "shapes", "fixed")
            chain = _block(raw["chain"], keys, "chain", keys)
            if chain["mode"] not in ("E", "F"):
                raise ConfigError("chain.mode must be 'E' or 'F'",
                                  "chain.mode")
            shapes = chain["shapes"]
            if not isinstance(shapes, list) or len(shapes) < 2:
                raise ConfigError("chain.shapes needs at least two entries",
                                  "chain.shapes")
            self.chain = {
                "mode": chain["mode"],
                "shapes": [parse_shape(sh, f"chain.shapes[{k}]")
                           for k, sh in enumerate(shapes)],
                "fixed": parse_shape(chain["fixed"], "chain.fixed"),
            }

        self.oracle = None
        if "oracle" in raw:
            orc = {"tol": 0.05, **_block(raw["oracle"], _ORACLE, "oracle")}
            self.oracle = {key: read(orc[key], f"oracle.{key}")
                           for key, read in _ORACLE.items() if key in orc}


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return ExperimentConfig(raw)
