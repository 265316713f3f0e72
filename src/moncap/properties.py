"""Randomized property suites: each structural inequality of the capacity
becomes a seeded generator plus a margin check.

Margins are recorded RELATIVE, i.e. raw/(1 + value), so a suite tolerance
is a flat number: a record passes iff margin >= -tolerance.  Suites never
clip negative margins; the worst one is reported even on pass.  Diverged
solves are counted as skips and fail the suite beyond 2% of instances.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional

import numpy as np

from .capacity import compute_capacity, distributions, p_capacity, sweep_s
from .errors import InvalidInput, SolverDiverged
from .flux import (Flux, anisotropic_p, flat_core_p, linear_matrix,
                   p_laplacian, s_transform, weighted_p_laplacian)
from .mesh import (Mesh, NodeSet, ShapeExpr, build_mesh, disk, is_equal,
                   is_subset, rasterize, rect, shape_intersect, shape_union,
                   union)
from .reporting import config_hash
from .solver import SolverOptions

ORDER_TOL = 1e-6
SUBADD_TOL = 1e-3
BOUNDS_SLACK = 1e-9
S_MONO_TOL = 1e-6
S_IDENTITY_TOL = 1e-8
INVARIANCE_TOL = 1e-6
MAX_SKIP_FRACTION = 0.02


@dataclass
class SuiteReport:
    suite: str
    instances: int
    violations: int
    skipped: int
    worst_margin: float
    tolerance: float
    records: list = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        ok_skips = self.skipped <= MAX_SKIP_FRACTION * max(self.instances, 1)
        return self.violations == 0 and ok_skips

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "instances": self.instances,
            "violations": self.violations,
            "skipped": self.skipped,
            "worst_margin": self.worst_margin,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "records": self.records,
            "extras": self.extras,
        }

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict} suite={self.suite} instances={self.instances} "
                f"violations={self.violations} skipped={self.skipped} "
                f"worst_margin={self.worst_margin:.3e} "
                f"tolerance={self.tolerance:.1e}")


def default_flux_family() -> list[Flux]:
    """The shipped test family: three p-Laplacians, a weighted and an
    anisotropic flux, the skew (non-potential) matrix, and the flat core."""
    return [
        p_laplacian(1.5),
        p_laplacian(2.0),
        p_laplacian(3.0),
        weighted_p_laplacian(2.0, 1.0, 2.0),
        anisotropic_p(2.0, 2.0, 0.5),
        linear_matrix([[1.0, 0.5], [-0.5, 1.0]]),
        flat_core_p(2.0, 0.5),
    ]


# ---------------------------------------------------------------------------
# seeded geometry generator


class ShapeGen:
    """Random nested disks/rectangles, snapped to exact node-level nesting
    by geometric containment.  F keeps a 2-cell margin from the box edge so
    the truncation of the plane never shows up in continuum-facing checks."""

    def __init__(self, rng: np.random.Generator, mesh: Mesh,
                 margin_cells: float = 2.0):
        self.rng = rng
        self.mesh = mesh
        self.margin = margin_cells * mesh.h

    def outer_shape(self):
        """F as a disk or square well inside the box."""
        rng = self.rng
        length = self.mesh.length
        m = self.margin
        if rng.random() < 0.5:
            big_r = rng.uniform(0.22, 0.33) * length
            cx = rng.uniform(m + big_r, length - m - big_r)
            cy = rng.uniform(m + big_r, length - m - big_r)
            return disk(cx, cy, big_r), (cx, cy, big_r)
        half = rng.uniform(0.2, 0.3) * length
        cx = rng.uniform(m + half, length - m - half)
        cy = rng.uniform(m + half, length - m - half)
        return rect(cx - half, cy - half, cx + half, cy + half), (cx, cy, half)

    def inner_disk(self, cx, cy, reach, r_lo_cells=1.5, r_hi_frac=0.45):
        """A disk geometrically inside the ball of radius reach at (cx,cy)."""
        rng = self.rng
        h = self.mesh.h
        r = rng.uniform(r_lo_cells * h, max(r_hi_frac * reach, 2.0 * h))
        r = min(r, reach - 2.0 * h)
        if r <= 0:
            r = 0.5 * reach
        rho = rng.uniform(0.0, max(reach - r - 2.0 * h, 0.0))
        ang = rng.uniform(0.0, 2.0 * np.pi)
        return disk(cx + rho * np.cos(ang), cy + rho * np.sin(ang), r)

    def nested_pair_in(self, cx, cy, reach):
        """E1 subset of E2, both inside the reach ball.

        Mixes degenerate branches (empty E1, E1 = E2) and union obstacles;
        nesting is exact at node level because it is geometric."""
        rng = self.rng
        e2 = self.inner_disk(cx, cy, reach)
        roll = rng.random()
        if roll < 0.10:
            from .mesh import shape_none
            return shape_none(), e2
        if roll < 0.20:
            return e2, e2
        if roll < 0.35:
            other = self.inner_disk(cx, cy, reach)
            return e2, shape_union(e2, other)
        _, _, r2 = e2.args
        r1 = rng.uniform(0.3, 1.0) * r2
        return disk(e2.args[0], e2.args[1], r1), e2


def _rasterize_pair(mesh, e_shape, f_shape, names=("E", "F")):
    e = rasterize(e_shape, mesh, names[0])
    f = rasterize(f_shape, mesh, names[1])
    return e, f


class _Cache:
    """Per-suite capacity cache keyed by config hash: identical configs
    short-circuit to the identical report."""

    def __init__(self, mesh: Mesh, opts: SolverOptions):
        self.mesh = mesh
        self.opts = opts
        self.store: dict[str, object] = {}

    def key(self, flux: Flux, e: NodeSet, f: NodeSet, s: float) -> str:
        return config_hash({
            "mesh": self.mesh.mesh_id,
            "flux": flux.describe(),
            "E": e.mask.tobytes().hex(),
            "F": f.mask.tobytes().hex(),
            "s": s,
        })

    def capacity(self, flux: Flux, e: NodeSet, f: NodeSet, s: float = 1.0,
                 with_cp: bool = False):
        k = self.key(flux, e, f, s)
        if k not in self.store:
            self.store[k] = compute_capacity(self.mesh, flux, e, f, s,
                                             self.opts, with_cp=with_cp)
        return self.store[k]


def _run_tasks(tasks: list[Callable], jobs: int) -> list:
    if jobs <= 1:
        return [t() for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(t) for t in tasks]
        return [f.result() for f in futures]


def _finalize(suite, records, tolerance, instances, skipped, extras=None):
    margins = [r["margin"] for r in records if r.get("margin") is not None]
    worst = float(min(margins)) if margins else 0.0
    violations = sum(1 for r in records if r.get("violation"))
    return SuiteReport(suite=suite, instances=instances,
                       violations=violations, skipped=skipped,
                       worst_margin=worst, tolerance=tolerance,
                       records=records, extras=extras or {})


def _margin_record(index, flux, check, raw, value, tol, **extra):
    margin = raw / (1.0 + abs(value))
    rec = {"index": index, "flux": flux.kind, "p": flux.p, "check": check,
           "margin": float(margin), "value": float(value),
           "tolerance": tol, "violation": bool(margin < -tol)}
    rec.update(extra)
    return rec


# ---------------------------------------------------------------------------
# order suite: capacity increasing in E, decreasing in F


def run_order_suite(mesh: Mesh, fluxes: list[Flux], n_instances: int,
                    seed: int, opts: Optional[SolverOptions] = None,
                    jobs: int = 1) -> SuiteReport:
    rng = np.random.default_rng(seed)
    opts = opts or SolverOptions()
    cache = _Cache(mesh, opts)
    gen = ShapeGen(rng, mesh)

    # generate all instances upfront so solving may run concurrently
    plans = []
    for i in range(int(n_instances)):
        f_shape, (cx, cy, reach) = gen.outer_shape()
        e1_shape, e2_shape = gen.nested_pair_in(cx, cy, reach * 0.8)
        big2 = rng.uniform(0.75, 1.0) * reach
        big1 = rng.uniform(0.55, 1.0) * big2
        if rng.random() < 0.10:
            big1 = big2
        e_shape = gen.inner_disk(cx, cy, big1 * 0.75)
        flux = fluxes[i % len(fluxes)]
        plans.append((i, flux, f_shape, e1_shape, e2_shape,
                      disk(cx, cy, big1), disk(cx, cy, big2), e_shape))

    records: list[dict] = []
    skipped = 0

    def solve_plan(plan):
        i, flux, f_shape, e1s, e2s, f1s, f2s, es = plan
        out = []
        e1, f = _rasterize_pair(mesh, e1s, f_shape)
        e2 = rasterize(e2s, mesh, "E2")
        f1 = rasterize(f1s, mesh, "F1")
        f2 = rasterize(f2s, mesh, "F2")
        e = rasterize(es, mesh, "E")
        try:
            rep1, _ = cache.capacity(flux, e1, f)
            rep2, _ = cache.capacity(flux, e2, f)
            value = max(abs(rep1.c_inner), abs(rep2.c_inner))
            out.append(_margin_record(
                i, flux, "monotone_E", rep2.c_inner - rep1.c_inner, value,
                ORDER_TOL, three_formula_ok=rep1.three_formula_ok
                and rep2.three_formula_ok))
            repf1, _ = cache.capacity(flux, e, f1)
            repf2, _ = cache.capacity(flux, e, f2)
            value = max(abs(repf1.c_inner), abs(repf2.c_inner))
            out.append(_margin_record(
                i, flux, "antitone_F", repf1.c_inner - repf2.c_inner, value,
                ORDER_TOL, three_formula_ok=repf1.three_formula_ok
                and repf2.three_formula_ok))
        except SolverDiverged:
            return None
        return out

    results = _run_tasks([lambda p=p: solve_plan(p) for p in plans], jobs)
    for res in results:
        if res is None:
            skipped += 1
        else:
            records.extend(res)
    return _finalize("order", records, ORDER_TOL, n_instances, skipped)


# ---------------------------------------------------------------------------
# subadditivity suite (pairs, plus finite covers)


def run_subadditivity_suite(mesh: Mesh, fluxes: list[Flux], n_instances: int,
                            seed: int, opts: Optional[SolverOptions] = None,
                            jobs: int = 1) -> SuiteReport:
    rng = np.random.default_rng(seed)
    opts = opts or SolverOptions()
    cache = _Cache(mesh, opts)
    gen = ShapeGen(rng, mesh)

    plans = []
    for i in range(int(n_instances)):
        f_shape, (cx, cy, reach) = gen.outer_shape()
        e1s = gen.inner_disk(cx, cy, reach * 0.8)
        roll = rng.random()
        if roll < 0.10:
            e2s = e1s
        elif roll < 0.25:
            r1 = e1s.args[2]
            e2s = disk(e1s.args[0], e1s.args[1], rng.uniform(0.3, 1.0) * r1)
        else:
            e2s = gen.inner_disk(cx, cy, reach * 0.8)
        cover = None
        if i % 3 == 0:
            e3s = gen.inner_disk(cx, cy, reach * 0.8)
            lo = rng.uniform(0.0, 0.5)
            window = rect(0.0, 0.0, mesh.length, mesh.length * (0.5 + lo))
            cover = (e3s, window)
        plans.append((i, fluxes[i % len(fluxes)], f_shape, e1s, e2s, cover))

    records: list[dict] = []
    skipped = 0
    worst_cases: list[tuple[float, dict]] = []

    def solve_plan(plan):
        i, flux, f_shape, e1s, e2s, cover = plan
        out = []
        f = rasterize(f_shape, mesh, "F")
        e1 = rasterize(e1s, mesh, "E1")
        e2 = rasterize(e2s, mesh, "E2")
        try:
            r1, _ = cache.capacity(flux, e1, f)
            r2, _ = cache.capacity(flux, e2, f)
            ru, _ = cache.capacity(flux, union(e1, e2, "E1|E2"), f)
            raw = r1.c_inner + r2.c_inner - ru.c_inner
            case = {"flux_index": None, "f": f_shape.to_json(),
                    "shapes": [e1s.to_json(), e2s.to_json()]}
            out.append((_margin_record(i, flux, "subadd_pair", raw,
                                       ru.c_inner, SUBADD_TOL), case))
            if cover is not None:
                e3s, window = cover
                e3 = rasterize(e3s, mesh, "E3")
                covered = rasterize(
                    shape_intersect(shape_union(e1s, e2s, e3s), window),
                    mesh, "Ecov")
                r3, _ = cache.capacity(flux, e3, f)
                rc, _ = cache.capacity(flux, covered, f)
                raw = r1.c_inner + r2.c_inner + r3.c_inner - rc.c_inner
                case3 = {"flux_index": None, "f": f_shape.to_json(),
                         "shapes": [e1s.to_json(), e2s.to_json(),
                                    e3s.to_json()],
                         "window": window.to_json()}
                out.append((_margin_record(i, flux, "finite_cover", raw,
                                           rc.c_inner, SUBADD_TOL), case3))
        except SolverDiverged:
            return None
        return out

    results = _run_tasks([lambda p=p: solve_plan(p) for p in plans], jobs)
    for plan, res in zip(plans, results):
        if res is None:
            skipped += 1
            continue
        for rec, case in res:
            case["flux_index"] = plan[0] % len(fluxes)
            rec["case"] = case
            records.append(rec)
            worst_cases.append((rec["margin"], case))

    worst_cases.sort(key=lambda t: t[0])
    extras = {"worst_cases": [c for _, c in worst_cases[:5]]}
    return _finalize("subadditivity", records, SUBADD_TOL, n_instances,
                     skipped, extras)


def rerun_subadditivity_case(case: dict, n: int, fluxes: list[Flux],
                             length: float = 1.0,
                             opts: Optional[SolverOptions] = None) -> float:
    """Deficit (negative part of the margin) of an archived case on an
    N-cell mesh; used for the refinement-trend check."""
    from .mesh import shape_from_json
    mesh = build_mesh(n, length)
    opts = opts or SolverOptions()
    cache = _Cache(mesh, opts)
    flux = fluxes[case["flux_index"]]
    f = rasterize(shape_from_json(case["f"]), mesh, "F")
    shapes = [shape_from_json(sj) for sj in case["shapes"]]
    sets = [rasterize(sh, mesh, f"E{k}") for k, sh in enumerate(shapes)]
    total = 0.0
    for es in sets:
        rep, _ = cache.capacity(flux, es, f)
        total += rep.c_inner
    if "window" in case:
        target_shape = shape_intersect(shape_union(*shapes),
                                       shape_from_json(case["window"]))
    else:
        target_shape = shape_union(*shapes)
    target = rasterize(target_shape, mesh, "target")
    rep_u, _ = cache.capacity(flux, target, f)
    margin = (total - rep_u.c_inner) / (1.0 + abs(rep_u.c_inner))
    return max(0.0, -margin)


# ---------------------------------------------------------------------------
# sandwich bounds suite


def bound_margins(report, cp: float, area_f: float) -> dict[str, float]:
    """Raw sandwich-bound margins for a converged capacity report."""
    p = report.p
    s = report.s
    sp = abs(s) ** p
    ca = report.c_inner
    lower = ca - (sp * report.c1 * cp - report.b1 * area_f)
    upper = sp * report.k1 * cp + abs(s) * report.k2 * cp ** (1.0 / p) - ca
    upper2 = (sp * report.k1 + abs(s) * report.k3) * cp - ca
    return {"lower": lower, "upper": upper, "upper_linf": upper2}


def run_bounds_suite(mesh: Mesh, fluxes: list[Flux], n_instances: int,
                     seed: int, opts: Optional[SolverOptions] = None,
                     jobs: int = 1) -> SuiteReport:
    rng = np.random.default_rng(seed)
    opts = opts or SolverOptions()
    cache = _Cache(mesh, opts)
    gen = ShapeGen(rng, mesh)

    plans = []
    s_pool = (-2.0, -0.5, 0.5, 2.0, 3.0)
    for i in range(int(n_instances)):
        f_shape, (cx, cy, reach) = gen.outer_shape()
        e_shape = gen.inner_disk(cx, cy, reach * 0.8)
        s = float(rng.choice(s_pool))
        plans.append((i, fluxes[i % len(fluxes)], f_shape, e_shape, s))

    records: list[dict] = []
    skipped = 0

    def solve_plan(plan):
        i, flux, f_shape, e_shape, s = plan
        e, f = _rasterize_pair(mesh, e_shape, f_shape)
        out = []
        try:
            cp = p_capacity(mesh, flux.p, e, f, opts)
            rep, _ = cache.capacity(flux, e, f, 1.0)
            slack_value = cp
            for name, raw in bound_margins(rep, cp, rep.area_f).items():
                out.append(_margin_record(i, flux, f"bound_{name}", raw,
                                          slack_value, BOUNDS_SLACK))
            if flux.kind == "p_laplacian":
                out.append(_margin_record(
                    i, flux, "plap_lower_tight",
                    -abs(rep.c_inner - cp), cp, 1e-10))
            rep_s, _ = cache.capacity(flux, e, f, s)
            for name, raw in bound_margins(rep_s, cp, rep_s.area_f).items():
                out.append(_margin_record(i, flux, f"bound_s_{name}", raw,
                                          slack_value, BOUNDS_SLACK))
        except SolverDiverged:
            return None
        return out

    results = _run_tasks([lambda p=p: solve_plan(p) for p in plans], jobs)
    for res in results:
        if res is None:
            skipped += 1
        else:
            records.extend(res)
    return _finalize("bounds", records, BOUNDS_SLACK, n_instances, skipped)


# ---------------------------------------------------------------------------
# s-laws suite


def run_s_suite(mesh: Mesh, fluxes: list[Flux], s_grid, seed: int,
                opts: Optional[SolverOptions] = None) -> SuiteReport:
    s_grid = [float(s) for s in s_grid]
    if any(s_grid[i + 1] <= s_grid[i] for i in range(len(s_grid) - 1)):
        raise InvalidInput("s_grid must be ascending")
    if not (s_grid[0] < 0.0 < s_grid[-1]):
        raise InvalidInput("s_grid must straddle 0")
    rng = np.random.default_rng(seed)
    opts = opts or SolverOptions()
    gen = ShapeGen(rng, mesh)

    fine_grid = np.linspace(s_grid[0], s_grid[-1], 2 * len(s_grid) - 1)

    records: list[dict] = []
    skipped = 0
    for i, flux in enumerate(fluxes):
        f_shape, (cx, cy, reach) = gen.outer_shape()
        e_shape = gen.inner_disk(cx, cy, reach * 0.75)
        e, f = _rasterize_pair(mesh, e_shape, f_shape)
        try:
            coarse = sweep_s(mesh, flux, e, f, s_grid, opts)
            fine = sweep_s(mesh, flux, e, f, fine_grid, opts)
        except SolverDiverged:
            skipped += 1
            continue
        if any(rep is None for _, rep in coarse + fine):
            skipped += 1
            continue

        hats = np.array([rep.c_hat for _, rep in coarse])
        diffs = np.diff(hats)
        records.append(_margin_record(i, flux, "hat_monotone",
                                      float(diffs.min()),
                                      float(np.max(np.abs(hats))),
                                      S_MONO_TOL))
        if 0.0 in s_grid:
            k0 = s_grid.index(0.0)
            records.append({
                "index": i, "flux": flux.kind, "p": flux.p,
                "check": "hat_zero_at_origin",
                "margin": -abs(hats[k0]), "value": 0.0, "tolerance": 0.0,
                "violation": bool(hats[k0] != 0.0)})

        hats_fine = np.array([rep.c_hat for _, rep in fine])
        jump_coarse = float(np.max(np.abs(np.diff(hats))))
        jump_fine = float(np.max(np.abs(np.diff(hats_fine))))
        ratio = jump_coarse / jump_fine if jump_fine > 0 else np.inf
        records.append({
            "index": i, "flux": flux.kind, "p": flux.p,
            "check": "continuity_ratio",
            "margin": float(ratio - 1.5), "value": ratio, "tolerance": 0.0,
            "violation": bool(ratio < 1.5),
            "jump_coarse": jump_coarse, "jump_fine": jump_fine})

        for s, rep in coarse:
            if s == 0.0:
                continue
            rep_t, _ = compute_capacity(mesh, s_transform(flux, s), e, f,
                                        1.0, opts, with_cp=False)
            raw = -abs(rep.c_inner - rep_t.c_inner)
            records.append(_margin_record(i, flux, "scaling_identity", raw,
                                          rep.c_inner, S_IDENTITY_TOL, s=s))
        if flux.kind == "p_laplacian":
            cp = p_capacity(mesh, flux.p, e, f, opts)
            for s, rep in coarse:
                raw = -abs(rep.c_inner - abs(s) ** flux.p * cp)
                records.append(_margin_record(i, flux, "power_law", raw,
                                              rep.c_inner, S_IDENTITY_TOL,
                                              s=s))
    return _finalize("s_laws", records, S_MONO_TOL, len(fluxes), skipped)


# ---------------------------------------------------------------------------
# solution invariance (flat-core capacity is initialization-independent)


def run_invariance_suite(mesh: Mesh, n_instances: int, seed: int,
                         opts: Optional[SolverOptions] = None,
                         n_inits: int = 5) -> SuiteReport:
    rng = np.random.default_rng(seed)
    opts = opts or SolverOptions()
    gen = ShapeGen(rng, mesh)

    records: list[dict] = []
    skipped = 0
    from .mesh import shape_none

    for i in range(int(n_instances)):
        f_shape, (cx, cy, reach) = gen.outer_shape()
        if i == 0:
            e_shape = shape_none()  # zero-set instance: all runs return 0
        else:
            e_shape = gen.inner_disk(cx, cy, reach * 0.8)
        e, f = _rasterize_pair(mesh, e_shape, f_shape)
        # scale the core radius to the geometric gradient scale so the suite
        # hits active, partial-core, and all-core regimes
        r_e = e_shape.args[2] if e_shape.op == "disk" else 0.0
        gap = max(reach * 0.8 - r_e, 2.0 * mesh.h)
        flux = flat_core_p(2.0, float(rng.uniform(0.2, 1.6) / gap))

        init_opts = [replace(opts, init="linear_blend"),
                     replace(opts, init="zero")]
        for k in range(n_inits - len(init_opts)):
            init_opts.append(replace(
                opts, init="random",
                init_seed=opts.init_seed + seed + 37 * i + k))
        caps, fields = [], []
        failed = False
        for so in init_opts:
            try:
                rep, pf = compute_capacity(mesh, flux, e, f, 1.0, so,
                                           with_cp=False)
            except SolverDiverged:
                failed = True
                break
            caps.append(rep.c_inner)
            fields.append(pf.u if pf is not None else None)
        if failed:
            skipped += 1
            continue
        spread = max(caps) - min(caps)
        value = float(np.mean(caps))
        field_spread = 0.0
        if fields[0] is not None:
            field_spread = float(max(
                np.max(np.abs(fields[0] - u2)) for u2 in fields[1:]))
        records.append(_margin_record(
            i, flux, "capacity_invariance", -spread, value, INVARIANCE_TOL,
            field_spread=field_spread, capacities=caps))

        # control group: strictly monotone flux pins the field itself
        if i == 1:
            control = p_laplacian(2.0)
            ctrl_fields = []
            for so in init_opts:
                try:
                    _, pf = compute_capacity(mesh, control, e, f, 1.0, so,
                                             with_cp=False)
                except SolverDiverged:
                    ctrl_fields = []
                    break
                ctrl_fields.append(pf.u)
            if ctrl_fields:
                ctrl_spread = float(max(
                    np.max(np.abs(ctrl_fields[0] - u2))
                    for u2 in ctrl_fields[1:]))
                tol_field = 10.0 * SolverOptions().resolve_tol(control, 1.0)
                records.append({
                    "index": i, "flux": control.kind, "p": control.p,
                    "check": "control_field_unique",
                    "margin": float(tol_field - ctrl_spread),
                    "value": ctrl_spread, "tolerance": 0.0,
                    "violation": bool(ctrl_spread > tol_field)})
    spreads = [r.get("field_spread", 0.0) for r in records
               if r["check"] == "capacity_invariance"]
    extras = {"max_field_spread": max(spreads) if spreads else 0.0}
    return _finalize("invariance", records, INVARIANCE_TOL, n_instances,
                     skipped, extras)


# ---------------------------------------------------------------------------
# finite monotone chains


def run_sequence_demo(mesh: Mesh, flux: Flux, chain: list[NodeSet],
                      fixed: NodeSet, mode: str,
                      opts: Optional[SolverOptions] = None) -> SuiteReport:
    """Finite-chain form of the monotone-sequence theorems.

    mode="E": increasing E-chain against fixed F, capacities nondecreasing
    and the last one equals the capacity of the chain's union (the final
    element) exactly.  mode="F": decreasing F-chain against fixed E,
    capacities nondecreasing.
    """
    if mode not in ("E", "F"):
        raise InvalidInput("mode must be 'E' or 'F'")
    if len(chain) < 2:
        raise InvalidInput("chain needs at least two sets")
    for a, b in zip(chain, chain[1:]):
        lo, hi = (a, b) if mode == "E" else (b, a)
        if not is_subset(lo, hi):
            raise InvalidInput("chain is not monotone under inclusion")

    opts = opts or SolverOptions()
    cache = _Cache(mesh, opts)
    records = []
    skipped = 0
    values = []
    for k, member in enumerate(chain):
        e, f = (member, fixed) if mode == "E" else (fixed, member)
        try:
            rep, _ = cache.capacity(flux, e, f)
        except SolverDiverged:
            skipped += 1
            values.append(None)
            continue
        values.append(rep.c_inner)
    for k in range(1, len(chain)):
        if values[k] is None or values[k - 1] is None:
            continue
        raw = values[k] - values[k - 1]
        records.append(_margin_record(k, flux, f"chain_{mode}_step", raw,
                                      max(abs(values[k]),
                                          abs(values[k - 1])), ORDER_TOL))
    # last element IS the union/intersection: identical config, exact value
    if values and values[-1] is not None:
        e, f = (chain[-1], fixed) if mode == "E" else (fixed, chain[-1])
        rep, _ = cache.capacity(flux, e, f)
        records.append({
            "index": len(chain) - 1, "flux": flux.kind, "p": flux.p,
            "check": "limit_attained",
            "margin": -abs(rep.c_inner - values[-1]),
            "value": values[-1], "tolerance": 0.0,
            "violation": bool(rep.c_inner != values[-1])})
    return _finalize(f"sequence_{mode}", records, ORDER_TOL, len(chain),
                     skipped, extras={"values": values})


# ---------------------------------------------------------------------------
# grid-refinement study


def run_convergence_study(e_shape: ShapeExpr, f_shape: ShapeExpr, flux: Flux,
                          n_list: list[int], oracle_value: Optional[float],
                          tol_final: float, length: float = 1.0,
                          reference_flux: Optional[Flux] = None,
                          opts: Optional[SolverOptions] = None) -> SuiteReport:
    """Capacity vs an independent oracle over a refinement ladder.

    With reference_flux set, the per-N reference is that flux's capacity on
    the same grid (same-geometry consistency study) instead of
    oracle_value.  Asserts the final error <= tol_final and a non-increasing
    error trend, allowing one non-monotone step for rasterization noise.
    """
    if any(n_list[i + 1] <= n_list[i] for i in range(len(n_list) - 1)):
        raise InvalidInput("N_list must be ascending")
    if oracle_value is None and reference_flux is None:
        raise InvalidInput("need an oracle value or a reference flux")
    opts = opts or SolverOptions()
    records = []
    errors = []
    skipped = 0
    for n in n_list:
        mesh = build_mesh(n, length)
        e, f = _rasterize_pair(mesh, e_shape, f_shape)
        try:
            rep, _ = compute_capacity(mesh, flux, e, f, 1.0, opts,
                                      with_cp=False)
            if reference_flux is not None:
                ref_rep, _ = compute_capacity(mesh, reference_flux, e, f,
                                              1.0, opts, with_cp=False)
                ref = ref_rep.c_inner
            else:
                ref = oracle_value
        except SolverDiverged:
            skipped += 1
            errors.append(None)
            continue
        err = abs(rep.c_inner - ref) / (abs(ref) if abs(ref) > 1e-12 else 1.0)
        errors.append(err)
        records.append({"index": n, "flux": flux.kind, "p": flux.p,
                        "check": "refinement_error", "margin": None,
                        "value": rep.c_inner, "reference": ref,
                        "rel_error": err, "tolerance": tol_final,
                        "violation": False})
    valid = [e for e in errors if e is not None]
    final_ok = bool(valid and valid[-1] <= tol_final)
    # increases below round-off are not rasterization bumps
    bumps = sum(1 for a, b in zip(valid, valid[1:]) if b > a + 1e-12)
    trend_ok = bumps <= 1
    records.append({"index": n_list[-1], "flux": flux.kind, "p": flux.p,
                    "check": "final_error",
                    "margin": (tol_final - valid[-1]) if valid else None,
                    "value": valid[-1] if valid else None,
                    "tolerance": tol_final,
                    "violation": not (final_ok and trend_ok),
                    "bumps": bumps})
    return _finalize("convergence", records, tol_final, len(n_list), skipped,
                     extras={"errors": errors})
