"""Configuration-driven command line: solves, sweeps, suites and studies.

Exit codes: 0 success, 1 suite failure, 2 bad configuration, 3 solver
divergence.  Every run appends one JSONL ledger line (config hash, command,
key results, wall time) under the output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import properties
from .capacity import compute_capacity, p_capacity, sweep_s
from .config import ORACLE_ARGS, ExperimentConfig, load_config
from .errors import ConfigError, InvalidInput, SolverDiverged
from .flux import check_conditions, p_laplacian
from .mesh import (build_mesh, intersect, mask_to_rle, nodeset_to_image,
                   rasterize)
from .oracle import RadialSpec, radial_numeric, radial_p_capacity, strip_capacity
from .reporting import (append_jsonl, config_hash, dumps_report, field_to_csv,
                        field_to_pgm, history_to_csv, sweep_to_csv,
                        write_json, write_pgm)
from .solver import solve_dirichlet

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_BAD_CONFIG = 2
EXIT_DIVERGED = 3

# Largest --numeric M: the 1-D solve bisects some 4,000 times over M + 1
# floats, so M = 10^5 took 20 s and 72 MB on a shared 2-CPU machine, M = 10^6
# about 3 minutes, and a much larger M ends in a memory error.
MAX_NUMERIC_CELLS = 10**6


def _int_at_least(low: int, high: float = math.inf):
    """An argparse type: an integer no smaller than low, at most high."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}")
        return value
    return parse


@dataclass
class _Run:
    """A config-driven command's output directory, config hash and start."""
    command: str
    out_dir: str
    hash: str
    t0: float

    def path(self, stem: str) -> str:
        return os.path.join(self.out_dir, f"{stem}-{self.hash[:12]}")

    def ledger(self, results):
        append_jsonl(os.path.join(self.out_dir, "runs.jsonl"), {
            "config_hash": self.hash,
            "command": self.command,
            "results": results,
            "wall_time_s": time.time() - self.t0,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        })

    def diverged(self, exc, results=None) -> int:
        """A diverged solve: reported on stderr and in the ledger, next to
        the results of the run before it."""
        print(f"solver diverged: {exc}", file=sys.stderr)
        self.ledger({**(results or {"converged": False}),
                     "diverged": str(exc)})
        return EXIT_DIVERGED


def _prepare(args, needs) -> tuple[ExperimentConfig, _Run]:
    """Load the config, apply the --seed and --tol-res overrides, and check
    that it has the keys the command needs; the hash covers the overrides."""
    cfg = load_config(args.config)
    raw = cfg.raw
    if "suite" in raw:
        _suite(cfg.suite["name"], "suite.name")
    if args.seed is not None:
        cfg.seed = args.seed
        raw = {**raw, "seed": args.seed}
    if args.tol_res is not None:
        try:
            cfg.solver = replace(cfg.solver, tol_res=args.tol_res)
        except InvalidInput as exc:
            raise ConfigError(str(exc), "--tol-res") from exc
        raw = {**raw, "solver": {**raw.get("solver", {}),
                                 "tol_res": args.tol_res}}
    missing = [name for name in needs if getattr(cfg, name) is None]
    if missing:
        raise ConfigError(f"command needs config keys: {missing}")
    out_dir = args.out or os.environ.get("MONCAP_OUT") or cfg.output_dir
    return cfg, _Run(args.command, out_dir, config_hash(raw), time.time())


def _geometry(cfg):
    mesh = build_mesh(cfg.mesh_n, cfg.mesh_l)
    e = rasterize(cfg.e_shape, mesh, "E")
    f = rasterize(cfg.f_shape, mesh, "F")
    if cfg.clip_e_to_f:
        e = intersect(e, f, "E&F")
    return mesh, e, f


def _emit(text, quiet=False):
    if not quiet:
        print(text)


def _cp_value(mesh, e, f, cfg, report):
    """C_p for the sandwich bounds next to a capacity report: the capacity
    itself for the p-Laplacian at s = 1, else a solve of its own; None for
    an incompatible pair."""
    if not report.compatible:
        return None
    if cfg.flux.kind == "p_laplacian" and cfg.s == 1.0:
        return report.c_inner
    # the config's start belongs to another flux and level
    return p_capacity(mesh, cfg.flux.p, e, f, replace(
        cfg.solver, init="linear_blend", init_field=None))


def cmd_capacity(args, cfg, run) -> int:
    mesh, e, f = _geometry(cfg)
    try:
        report, _ = compute_capacity(mesh, cfg.flux, e, f, cfg.s, cfg.solver)
    except SolverDiverged as exc:
        _emit(dumps_report(exc.report.to_dict()), args.quiet)
        return run.diverged(exc)
    try:
        report.cp_value = _cp_value(mesh, e, f, cfg, report)
    except SolverDiverged as exc:
        _emit(dumps_report(report.to_dict()), args.quiet)
        return run.diverged(f"C_p solve: {exc}",
                            {"c_inner": report.c_inner,
                             "converged": report.converged})
    body = report.to_dict()
    if not report.compatible:
        body["capacity"] = "infinity"
    _emit(dumps_report(body), args.quiet)
    write_json(run.path("capacity") + ".json", body)
    run.ledger({"c_inner": body["c_inner"], "converged": report.converged})
    return EXIT_OK


def cmd_potential(args, cfg, run) -> int:
    mesh, e, f = _geometry(cfg)
    base = run.path("potential")
    try:
        pf = solve_dirichlet(mesh, cfg.flux, e, f, cfg.s, cfg.solver)
    except SolverDiverged as exc:
        if exc.field is not None:
            history_to_csv(base + "-history.csv", exc.field.residual_history)
        return run.diverged(exc)
    if args.csv:
        field_to_csv(base + ".csv", mesh, pf.u)
    if args.pgm:
        field_to_pgm(base + ".pgm", mesh, pf.u)
        write_pgm(base + "-E.pgm", nodeset_to_image(e, mesh))
        write_pgm(base + "-F.pgm", nodeset_to_image(f, mesh))
    history_to_csv(base + "-history.csv", pf.residual_history)
    write_json(base + "-mask.json",
               {"E": mask_to_rle(e.mask), "F": mask_to_rle(f.mask)})
    summary = {"residual_max": pf.residual_max, "iterations": pf.iterations,
               "converged": pf.converged,
               "u_min": float(pf.u.min()), "u_max": float(pf.u.max())}
    _emit(dumps_report(summary), args.quiet)
    run.ledger(summary)
    return EXIT_OK


def cmd_sweep_s(args, cfg, run) -> int:
    mesh, e, f = _geometry(cfg)
    entries = sweep_s(mesh, cfg.flux, e, f, cfg.s_grid, cfg.solver)
    base = run.path("sweep")
    sweep_to_csv(base + ".csv", entries)
    body = [{"s": s, "report": rep.to_dict() if rep is not None else None}
            for s, rep in entries]
    write_json(base + ".json", body)
    _emit(dumps_report([{"s": s,
                         "C_A": None if rep is None else rep.c_inner,
                         "C_hat": None if rep is None else rep.c_hat}
                        for s, rep in entries]), args.quiet)
    run.ledger({"points": len(entries),
                "failures": sum(1 for _, rep in entries if rep is None)})
    return EXIT_OK


def _seeded(run_suite):
    """A suite of seeded plans over the fluxes, --jobs of them at a time."""
    return lambda cfg, mesh, fluxes, jobs: run_suite(
        mesh, fluxes, cfg.suite["instances"], cfg.seed, cfg.solver, jobs)


def _s_suite(cfg, mesh, fluxes, jobs):
    grid = cfg.suite["s_grid"] or cfg.s_grid \
        or list(np.linspace(-4.0, 4.0, 17))
    if not cfg.suite["fluxes"]:  # an explicit choice is respected
        # p < 2 members make the continuity proxy unattainable (the max
        # jump near s=0 shrinks by 2^(p-1) < 1.5 per halving)
        fluxes = [fl for fl in fluxes if fl.p >= 2.0]
    return properties.run_s_suite(mesh, fluxes, grid, cfg.seed, cfg.solver)


def _sequence_suite(cfg, mesh, fluxes, jobs):
    if cfg.chain is None:
        raise ConfigError("sequence suite needs a chain block")
    sets = [rasterize(sh, mesh, f"chain{k}")
            for k, sh in enumerate(cfg.chain["shapes"])]
    fixed = rasterize(cfg.chain["fixed"], mesh, "fixed")
    return properties.run_sequence_demo(mesh, cfg.flux or p_laplacian(2.0),
                                        sets, fixed, cfg.chain["mode"],
                                        cfg.solver)


# suite name -> run(cfg, mesh, fluxes, jobs), fluxes being the config's
# suite.fluxes or else the default family
SUITES = {
    "order": _seeded(properties.run_order_suite),
    "subadditivity": _seeded(properties.run_subadditivity_suite),
    "bounds": _seeded(properties.run_bounds_suite),
    "s": _s_suite,
    "invariance": lambda cfg, mesh, fluxes, jobs:
        properties.run_invariance_suite(mesh, cfg.suite["instances"],
                                        cfg.seed, cfg.solver),
    "sequence": _sequence_suite,
}


def _suite(name, path=""):
    if not isinstance(name, str) or name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}", path)
    return SUITES[name]


def cmd_suite(args, cfg, run) -> int:
    name = args.name or cfg.suite["name"]
    if not name:
        raise ConfigError("suite name missing (config suite.name or --name)")
    report = _suite(name)(cfg, build_mesh(cfg.mesh_n, cfg.mesh_l),
                          cfg.suite["fluxes"]
                          or properties.default_flux_family(), args.jobs)
    write_json(run.path(f"suite-{name}") + ".json", report.to_dict())
    print(report.summary_line())
    run.command = f"suite:{name}"
    run.ledger({"passed": report.passed, "violations": report.violations,
                "worst_margin": report.worst_margin})
    return EXIT_OK if report.passed else EXIT_SUITE_FAIL


def _closed_form(kind, values, prefix):
    """(capacity, RadialSpec or None) of the radial or strip closed form at
    ``values``, keyed as in a config's oracle block; an argument the oracle
    rejects is reported at its path, ``prefix`` and then its key."""
    try:
        if kind == "radial":
            spec = RadialSpec(values["n"], values["p"], values["r"],
                              values["R"])
            return radial_p_capacity(spec), spec
        return strip_capacity(values["p"], values["a"], values["b"],
                              values["Ly"]), None
    except InvalidInput as exc:
        if exc.field is None:
            raise
        raise ConfigError(str(exc), prefix + exc.field) from exc


def cmd_converge(args, cfg, run) -> int:
    orc = cfg.oracle
    oracle_value = orc.get("value")
    for kind in ORACLE_ARGS:
        if oracle_value is None and kind in orc:
            oracle_value, _ = _closed_form(kind, orc[kind],
                                           f"oracle.{kind}.")
    report = properties.run_convergence_study(
        cfg.e_shape, cfg.f_shape, cfg.flux, cfg.n_list, oracle_value,
        orc["tol"], cfg.mesh_l, orc.get("reference_flux"), cfg.solver)
    write_json(run.path("converge") + ".json", report.to_dict())
    print(report.summary_line())
    if not args.quiet:
        for rec in report.records:
            if rec["check"] == "refinement_error":
                print(f"  N={rec['index']:>4}  C_A={rec['value']:.8f}  "
                      f"rel_err={rec['rel_error']:.3e}")
    run.ledger({"passed": report.passed, "errors": report.extras["errors"]})
    return EXIT_OK if report.passed else EXIT_SUITE_FAIL


def cmd_check_flux(args, cfg, run) -> int:
    try:
        report = check_conditions(cfg.flux, cfg.check["n_samples"],
                                  cfg.check["xi_radius"], cfg.seed,
                                  domain_l=cfg.mesh_l)
    except InvalidInput as exc:
        # xi_radius^p beyond MAX_CHECK_GROWTH for the flux's p
        raise ConfigError(str(exc), f"check.{exc.field}") from exc
    body = report.to_dict()
    _emit(dumps_report(body), args.quiet)
    write_json(run.path("check") + ".json", body)
    run.ledger({"all_passed": report.all_passed})
    return EXIT_OK if report.all_passed else EXIT_SUITE_FAIL


def cmd_oracle(args) -> int:
    body = {key: default if (value := getattr(args, key)) is None else value
            for key, default in ORACLE_ARGS[args.kind].items()}
    if None in body.values():
        # every flag of the kind without a default; argparse demands --p
        needs = [f"--{key}" for key, default in ORACLE_ARGS[args.kind].items()
                 if default is None and key != "p"]
        print(f"{args.kind} oracle needs {' and '.join(needs)}",
              file=sys.stderr)
        return EXIT_BAD_CONFIG
    body["value"], spec = _closed_form(args.kind, body, "--")
    if args.numeric is not None and spec is not None:
        body["numeric"] = radial_numeric(spec, p_laplacian(args.p),
                                         args.numeric)
    print(dumps_report({"kind": args.kind, **body}))
    return EXIT_OK


_STORE = {"action": "store_true"}
# the options of every command that reads a config
_CONFIG_OPTIONS = {
    "config": {"help": "experiment config (JSON)"},
    # numpy seeds must be non-negative
    "--seed": {"type": _int_at_least(0), "help": "override the config seed"},
    "--out": {"help": "output directory"},
    "--tol-res": {"type": float,
                  "help": "override the solver residual target"},
    "--quiet": _STORE,
}
_GEOMETRY = ("mesh_n", "flux", "e_shape", "f_shape")
# command -> (run, help, the config keys it needs or None for a command
# that reads no config, its own options)
_COMMANDS = {
    "capacity": (cmd_capacity, "one capacity report", _GEOMETRY, {}),
    "potential": (cmd_potential, "solve and dump the field", _GEOMETRY,
                  {"--csv": _STORE, "--pgm": _STORE}),
    "sweep-s": (cmd_sweep_s, "capacity along an s grid",
                _GEOMETRY + ("s_grid",), {}),
    "suite": (cmd_suite, "run a property suite", ("mesh_n",), {
        "--jobs": {"type": _int_at_least(1), "default": 1,
                   "help": "bound on concurrent workers of the order, "
                   "subadditivity and bounds suites"},
        "--name": {"help": "suite name (overrides config)"}}),
    "converge": (cmd_converge, "grid refinement study",
                 ("flux", "e_shape", "f_shape", "n_list", "oracle"), {}),
    "check-flux": (cmd_check_flux, "randomized structural check",
                   ("flux",), {}),
    "oracle": (cmd_oracle, "closed-form reference values", None, {
        "kind": {"choices": list(ORACLE_ARGS)},
        "--n": {"type": int},
        "--p": {"type": float, "required": True},
        "--r": {"type": float},
        "--R": {"type": float, "metavar": "BIG_R"},
        "--a": {"type": float},
        "--b": {"type": float},
        "--Ly": {"type": float},
        "--numeric": {"type": _int_at_least(4, MAX_NUMERIC_CELLS),
                      "help": "also solve the 1-D problem with M cells"},
        "--quiet": _STORE}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moncap",
        description="capacity engine for monotone fluxes on a square grid")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, needs, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if needs is not None:
            options = {**_CONFIG_OPTIONS, **options}
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_CONFIG if exc.code not in (0, None) else 0
    command, _, needs, _ = _COMMANDS[args.command]
    try:
        if needs is None:
            return command(args)
        return command(args, *_prepare(args, needs))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SolverDiverged as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
