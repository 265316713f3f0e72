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
from dataclasses import replace

import numpy as np

from . import properties
from .capacity import compute_capacity, p_capacity, sweep_s
from .config import ExperimentConfig, load_config
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moncap",
        description="capacity engine for monotone fluxes on a square grid")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("config", help="experiment config (JSON)")
        # numpy seeds must be non-negative
        p.add_argument("--seed", type=_int_at_least(0), default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--tol-res", type=float, default=None,
                       help="override the solver residual target")
        p.add_argument("--quiet", action="store_true")

    common(sub.add_parser("capacity", help="one capacity report"))
    p_pot = sub.add_parser("potential", help="solve and dump the field")
    common(p_pot)
    p_pot.add_argument("--csv", action="store_true")
    p_pot.add_argument("--pgm", action="store_true")
    common(sub.add_parser("sweep-s", help="capacity along an s grid"))
    p_suite = sub.add_parser("suite", help="run a property suite")
    common(p_suite)
    p_suite.add_argument("--jobs", type=_int_at_least(1), default=1,
                         help="bound on concurrent workers of the order, "
                         "subadditivity and bounds suites")
    p_suite.add_argument("--name", default=None,
                         help="suite name (overrides config)")
    common(sub.add_parser("converge", help="grid refinement study"))
    common(sub.add_parser("check-flux", help="randomized structural check"))

    p_oracle = sub.add_parser("oracle", help="closed-form reference values")
    p_oracle.add_argument("kind", choices=["radial", "strip"])
    p_oracle.add_argument("--n", type=int, default=2)
    p_oracle.add_argument("--p", type=float, required=True)
    p_oracle.add_argument("--r", type=float, default=None)
    p_oracle.add_argument("--R", dest="big_r", type=float, default=None)
    p_oracle.add_argument("--a", type=float, default=None)
    p_oracle.add_argument("--b", type=float, default=None)
    p_oracle.add_argument("--Ly", dest="ly", type=float, default=1.0)
    p_oracle.add_argument("--numeric", default=None,
                          type=_int_at_least(4, MAX_NUMERIC_CELLS),
                          help="also solve the 1-D problem with M cells")
    p_oracle.add_argument("--quiet", action="store_true")
    return parser


def _out_dir(args, cfg: ExperimentConfig | None) -> str:
    if args.out:
        return args.out
    env = os.environ.get("MONCAP_OUT")
    if env:
        return env
    return cfg.output_dir if cfg is not None else "out"


def _ledger(out_dir, command, cfg_hash, results, t0):
    append_jsonl(os.path.join(out_dir, "runs.jsonl"), {
        "config_hash": cfg_hash,
        "command": command,
        "results": results,
        "wall_time_s": time.time() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })


def _diverged(exc, out_dir, command, cfg_hash, t0, results=None) -> int:
    """A diverged solve: reported on stderr and in the ledger, next to the
    results of the run before it."""
    print(f"solver diverged: {exc}", file=sys.stderr)
    _ledger(out_dir, command, cfg_hash,
            {**(results or {"converged": False}), "diverged": str(exc)}, t0)
    return EXIT_DIVERGED


def _prepare(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.tol_res is not None:
        try:
            cfg.solver = replace(cfg.solver, tol_res=args.tol_res)
        except InvalidInput as exc:
            raise ConfigError(str(exc), "--tol-res") from exc
    return cfg, _out_dir(args, cfg), config_hash(cfg.raw)


def _require(cfg, *fields):
    missing = [name for name in fields
               if getattr(cfg, name, None) is None]
    if missing:
        raise ConfigError(f"command needs config keys: {missing}")


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


def cmd_capacity(args) -> int:
    cfg, out_dir, h = _prepare(args)
    _require(cfg, "mesh_n", "flux", "e_shape", "f_shape")
    t0 = time.time()
    mesh, e, f = _geometry(cfg)
    try:
        report, _ = compute_capacity(mesh, cfg.flux, e, f, cfg.s, cfg.solver)
    except SolverDiverged as exc:
        _emit(dumps_report(exc.report.to_dict()), args.quiet)
        return _diverged(exc, out_dir, "capacity", h, t0)
    try:
        report.cp_value = _cp_value(mesh, e, f, cfg, report)
    except SolverDiverged as exc:
        _emit(dumps_report(report.to_dict()), args.quiet)
        return _diverged(f"C_p solve: {exc}", out_dir, "capacity", h, t0,
                         {"c_inner": report.c_inner,
                          "converged": report.converged})
    body = report.to_dict()
    if not report.compatible:
        body["capacity"] = "infinity"
    _emit(dumps_report(body), args.quiet)
    write_json(os.path.join(out_dir, f"capacity-{h[:12]}.json"), body)
    _ledger(out_dir, "capacity", h,
            {"c_inner": body["c_inner"], "converged": report.converged}, t0)
    return EXIT_OK


def cmd_potential(args) -> int:
    cfg, out_dir, h = _prepare(args)
    _require(cfg, "mesh_n", "flux", "e_shape", "f_shape")
    t0 = time.time()
    mesh, e, f = _geometry(cfg)
    try:
        pf = solve_dirichlet(mesh, cfg.flux, e, f, cfg.s, cfg.solver)
    except SolverDiverged as exc:
        if exc.field is not None:
            history_to_csv(os.path.join(out_dir, f"potential-{h[:12]}-history.csv"),
                           exc.field.residual_history)
        return _diverged(exc, out_dir, "potential", h, t0)
    base = os.path.join(out_dir, f"potential-{h[:12]}")
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
    _ledger(out_dir, "potential", h, summary, t0)
    return EXIT_OK


def cmd_sweep_s(args) -> int:
    cfg, out_dir, h = _prepare(args)
    _require(cfg, "mesh_n", "flux", "e_shape", "f_shape", "s_grid")
    t0 = time.time()
    mesh, e, f = _geometry(cfg)
    entries = sweep_s(mesh, cfg.flux, e, f, cfg.s_grid, cfg.solver)
    base = os.path.join(out_dir, f"sweep-{h[:12]}")
    sweep_to_csv(base + ".csv", entries)
    body = [{"s": s, "report": rep.to_dict() if rep is not None else None}
            for s, rep in entries]
    write_json(base + ".json", body)
    failures = sum(1 for _, rep in entries if rep is None)
    summary = {"points": len(entries), "failures": failures}
    _emit(dumps_report([{"s": s,
                         "C_A": None if rep is None else rep.c_inner,
                         "C_hat": None if rep is None else rep.c_hat}
                        for s, rep in entries]), args.quiet)
    _ledger(out_dir, "sweep-s", h, summary, t0)
    return EXIT_OK


def _run_suite(cfg, name, jobs):
    mesh = build_mesh(cfg.mesh_n, cfg.mesh_l)
    fluxes = cfg.suite["fluxes"] if cfg.suite and cfg.suite["fluxes"] \
        else properties.default_flux_family()
    instances = cfg.suite["instances"] if cfg.suite else 25
    seed = cfg.seed
    opts = cfg.solver
    if name == "order":
        return properties.run_order_suite(mesh, fluxes, instances, seed,
                                          opts, jobs)
    if name == "subadditivity":
        return properties.run_subadditivity_suite(mesh, fluxes, instances,
                                                  seed, opts, jobs)
    if name == "bounds":
        return properties.run_bounds_suite(mesh, fluxes, instances, seed,
                                           opts, jobs)
    if name == "s":
        grid = (cfg.suite or {}).get("s_grid") or cfg.s_grid \
            or list(np.linspace(-4.0, 4.0, 17))
        if cfg.suite and cfg.suite["fluxes"]:
            chosen = fluxes  # explicit user choice is respected
        else:
            # p < 2 members make the continuity proxy unattainable (the
            # max jump near s=0 shrinks by 2^(p-1) < 1.5 per halving)
            chosen = [fl for fl in fluxes if fl.p >= 2.0]
        return properties.run_s_suite(mesh, chosen, grid, seed, opts)
    if name == "invariance":
        return properties.run_invariance_suite(mesh, instances, seed, opts)
    if name == "sequence":
        if cfg.chain is None:
            raise ConfigError("sequence suite needs a chain block")
        flux = cfg.flux or p_laplacian(2.0)
        sets = [rasterize(sh, mesh, f"chain{k}")
                for k, sh in enumerate(cfg.chain["shapes"])]
        fixed = rasterize(cfg.chain["fixed"], mesh, "fixed")
        return properties.run_sequence_demo(mesh, flux, sets, fixed,
                                            cfg.chain["mode"], opts)
    raise ConfigError(f"unknown suite {name!r}")


def cmd_suite(args) -> int:
    cfg, out_dir, h = _prepare(args)
    _require(cfg, "mesh_n")
    name = args.name or (cfg.suite or {}).get("name")
    if not name:
        raise ConfigError("suite name missing (config suite.name or --name)")
    t0 = time.time()
    report = _run_suite(cfg, name, args.jobs)
    write_json(os.path.join(out_dir, f"suite-{name}-{h[:12]}.json"),
               report.to_dict())
    print(report.summary_line())
    _ledger(out_dir, f"suite:{name}", h,
            {"passed": report.passed, "violations": report.violations,
             "worst_margin": report.worst_margin}, t0)
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


def cmd_converge(args) -> int:
    cfg, out_dir, h = _prepare(args)
    _require(cfg, "flux", "e_shape", "f_shape", "n_list", "oracle")
    t0 = time.time()
    orc = cfg.oracle
    oracle_value = orc.get("value")
    for kind in ("radial", "strip"):
        if oracle_value is None and kind in orc:
            oracle_value, _ = _closed_form(kind, orc[kind],
                                           f"oracle.{kind}.")
    report = properties.run_convergence_study(
        cfg.e_shape, cfg.f_shape, cfg.flux, cfg.n_list, oracle_value,
        orc["tol"], cfg.mesh_l, orc.get("reference_flux"), cfg.solver)
    write_json(os.path.join(out_dir, f"converge-{h[:12]}.json"),
               report.to_dict())
    print(report.summary_line())
    if not args.quiet:
        for rec in report.records:
            if rec["check"] == "refinement_error":
                print(f"  N={rec['index']:>4}  C_A={rec['value']:.8f}  "
                      f"rel_err={rec['rel_error']:.3e}")
    _ledger(out_dir, "converge", h,
            {"passed": report.passed, "errors": report.extras["errors"]}, t0)
    return EXIT_OK if report.passed else EXIT_SUITE_FAIL


def cmd_check_flux(args) -> int:
    cfg, out_dir, h = _prepare(args)
    _require(cfg, "flux")
    t0 = time.time()
    try:
        report = check_conditions(cfg.flux, cfg.check["n_samples"],
                                  cfg.check["xi_radius"], cfg.seed,
                                  domain_l=cfg.mesh_l)
    except InvalidInput as exc:
        # xi_radius^p beyond MAX_CHECK_GROWTH for the flux's p
        raise ConfigError(str(exc), f"check.{exc.field}") from exc
    body = report.to_dict()
    _emit(dumps_report(body), args.quiet)
    write_json(os.path.join(out_dir, f"check-{h[:12]}.json"), body)
    _ledger(out_dir, "check-flux", h, {"all_passed": report.all_passed}, t0)
    return EXIT_OK if report.all_passed else EXIT_SUITE_FAIL


def cmd_oracle(args) -> int:
    if args.kind == "radial":
        if args.r is None or args.big_r is None:
            print("radial oracle needs --r and --R", file=sys.stderr)
            return EXIT_BAD_CONFIG
        body = {"kind": "radial", "n": args.n, "p": args.p, "r": args.r,
                "R": args.big_r}
        body["value"], spec = _closed_form("radial", body, "--")
        if args.numeric is not None:
            body["numeric"] = radial_numeric(spec, p_laplacian(args.p),
                                             args.numeric)
    else:
        if args.a is None or args.b is None:
            print("strip oracle needs --a and --b", file=sys.stderr)
            return EXIT_BAD_CONFIG
        body = {"kind": "strip", "p": args.p, "a": args.a, "b": args.b,
                "Ly": args.ly}
        body["value"], _ = _closed_form("strip", body, "--")
    print(dumps_report(body))
    return EXIT_OK


_COMMANDS = {
    "capacity": cmd_capacity,
    "potential": cmd_potential,
    "sweep-s": cmd_sweep_s,
    "suite": cmd_suite,
    "converge": cmd_converge,
    "check-flux": cmd_check_flux,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_CONFIG if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
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
