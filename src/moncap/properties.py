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
from functools import partial
from typing import Callable, Optional

import numpy as np

from .capacity import CapacityReport, compute_capacity, p_capacity, sweep_s
from .errors import InvalidInput, SolverDiverged
from .flux import (Flux, anisotropic_p, flat_core_p, linear_matrix,
                   p_laplacian, s_transform, weighted_p_laplacian)
from .mesh import (Mesh, NodeSet, ShapeExpr, build_mesh, disk, is_subset,
                   rasterize, rect, shape_from_json, shape_intersect,
                   shape_none, shape_union)
from .reporting import canonical_json
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
            return shape_none(), e2
        if roll < 0.20:
            return e2, e2
        if roll < 0.35:
            other = self.inner_disk(cx, cy, reach)
            return e2, shape_union(e2, other)
        _, _, r2 = e2.args
        r1 = rng.uniform(0.3, 1.0) * r2
        return disk(e2.args[0], e2.args[1], r1), e2


class _Cache:
    """Per-suite capacity cache on one mesh, keyed by the flux's canonical
    description, the E and F masks and s: identical problems short-circuit
    to the identical report.  It keeps reports only; no suite reads the
    fields."""

    def __init__(self, mesh: Mesh, opts: SolverOptions):
        self.mesh = mesh
        self.opts = opts
        self.store: dict[tuple, CapacityReport] = {}

    def capacity(self, flux: Flux, e: NodeSet, f: NodeSet,
                 s: float = 1.0) -> CapacityReport:
        k = (canonical_json(flux.describe()), e.mask.tobytes(),
             f.mask.tobytes(), s)
        if k not in self.store:
            self.store[k], _ = compute_capacity(self.mesh, flux, e, f, s,
                                                self.opts)
        return self.store[k]


def _finalize(suite, records, tolerance, instances, skipped, extras=None):
    margins = [r["margin"] for r in records if r.get("margin") is not None]
    worst = float(min(margins)) if margins else 0.0
    violations = sum(1 for r in records if r.get("violation"))
    return SuiteReport(suite=suite, instances=instances,
                       violations=violations, skipped=skipped,
                       worst_margin=worst, tolerance=tolerance,
                       records=records, extras=extras or {})


def _attempt(solve: Callable, *args):
    """solve(*args), or None when it raises SolverDiverged: the one skip
    rule of the suites."""
    try:
        return solve(*args)
    except SolverDiverged:
        return None


def _run_plans(suite: str, plans: list, check: Callable[..., list],
               tolerance: float, jobs: int = 1,
               extras: Optional[Callable[[list], dict]] = None) -> SuiteReport:
    """One instance per plan: check turns a plan into records, up to jobs
    plans at a time.  A plan whose check raises SolverDiverged is a skip;
    the other records keep plan order, so reports do not depend on jobs."""
    if jobs <= 1:
        results = [_attempt(check, plan) for plan in plans]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(partial(_attempt, check), plans))
    records = [rec for res in results if res is not None for rec in res]
    skipped = sum(1 for res in results if res is None)
    return _finalize(suite, records, tolerance, len(plans), skipped,
                     extras(records) if extras else None)


def _record(index, flux, check, margin, value, tolerance, violation,
            **extra):
    """One suite record; every suite writes its records through here."""
    rec = {"index": index, "flux": flux.kind, "p": flux.p, "check": check,
           "margin": margin, "value": value, "tolerance": tolerance,
           "violation": bool(violation)}
    rec.update(extra)
    return rec


def _margin_record(index, flux, check, raw, value, tol, **extra):
    margin = float(raw / (1.0 + abs(value)))
    return _record(index, flux, check, margin, float(value), tol,
                   margin < -tol, **extra)


def _spread(fields) -> float:
    """Largest max-norm distance from the first field to the others."""
    return float(max(np.max(np.abs(fields[0] - u)) for u in fields[1:]))


# ---------------------------------------------------------------------------
# order suite: capacity increasing in E, decreasing in F


def run_order_suite(mesh: Mesh, fluxes: list[Flux], n_instances: int,
                    seed: int, opts: Optional[SolverOptions] = None,
                    jobs: int = 1) -> SuiteReport:
    rng = np.random.default_rng(seed)
    cache = _Cache(mesh, opts or SolverOptions())
    gen = ShapeGen(rng, mesh)

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

    def ordered(i, flux, check, lo, hi):
        """Margin of C(hi) - C(lo) for two (E, F) pairs."""
        rep_lo = cache.capacity(flux, *lo)
        rep_hi = cache.capacity(flux, *hi)
        value = max(abs(rep_lo.c_inner), abs(rep_hi.c_inner))
        return _margin_record(
            i, flux, check, rep_hi.c_inner - rep_lo.c_inner, value, ORDER_TOL,
            three_formula_ok=rep_lo.three_formula_ok
            and rep_hi.three_formula_ok)

    def check(plan):
        i, flux, *shapes = plan
        f, e1, e2, f1, f2, e = (rasterize(sh, mesh) for sh in shapes)
        return [ordered(i, flux, "monotone_E", (e1, f), (e2, f)),
                ordered(i, flux, "antitone_F", (e, f2), (e, f1))]

    return _run_plans("order", plans, check, ORDER_TOL, jobs)


# ---------------------------------------------------------------------------
# subadditivity suite (pairs, plus finite covers)


def run_subadditivity_suite(mesh: Mesh, fluxes: list[Flux], n_instances: int,
                            seed: int, opts: Optional[SolverOptions] = None,
                            jobs: int = 1) -> SuiteReport:
    rng = np.random.default_rng(seed)
    cache = _Cache(mesh, opts or SolverOptions())
    gen = ShapeGen(rng, mesh)

    # a plan is the instance's archived cases, the form reruns read
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
        pair = {"flux_index": i % len(fluxes), "f": f_shape.to_json(),
                "shapes": [e1s.to_json(), e2s.to_json()]}
        cases = [("subadd_pair", pair)]
        if i % 3 == 0:
            e3s = gen.inner_disk(cx, cy, reach * 0.8)
            lo = rng.uniform(0.0, 0.5)
            window = rect(0.0, 0.0, mesh.length, mesh.length * (0.5 + lo))
            cases.append(("finite_cover", {
                **pair, "shapes": pair["shapes"] + [e3s.to_json()],
                "window": window.to_json()}))
        plans.append((i, cases))

    def check(plan):
        i, cases = plan
        return [_subadditivity_record(cache, fluxes, i, name, case)
                for name, case in cases]

    def worst_cases(records):
        worst = sorted(records, key=lambda rec: rec["margin"])[:5]
        return {"worst_cases": [rec["case"] for rec in worst]}

    return _run_plans("subadditivity", plans, check, SUBADD_TOL, jobs,
                      worst_cases)


def _subadditivity_record(cache, fluxes, index, check, case):
    """Margin of C(E_1) + ... + C(E_k) - C(E_1 u ... u E_k) for an archived
    case, the union clipped to the case's window when it has one."""
    mesh = cache.mesh
    flux = fluxes[case["flux_index"]]
    f = rasterize(shape_from_json(case["f"]), mesh, "F")
    shapes = [shape_from_json(sj) for sj in case["shapes"]]
    target = shape_union(*shapes)
    if "window" in case:
        target = shape_intersect(target, shape_from_json(case["window"]))
    parts = [cache.capacity(flux, rasterize(sh, mesh, f"E{k}"), f).c_inner
             for k, sh in enumerate(shapes, 1)]
    whole = cache.capacity(flux, rasterize(target, mesh, "union"), f)
    return _margin_record(index, flux, check, sum(parts) - whole.c_inner,
                          whole.c_inner, SUBADD_TOL, case=case)


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
    cache = _Cache(mesh, opts or SolverOptions())
    gen = ShapeGen(rng, mesh)

    plans = []
    s_pool = (-2.0, -0.5, 0.5, 2.0, 3.0)
    for i in range(int(n_instances)):
        f_shape, (cx, cy, reach) = gen.outer_shape()
        e_shape = gen.inner_disk(cx, cy, reach * 0.8)
        s = float(rng.choice(s_pool))
        plans.append((i, fluxes[i % len(fluxes)], f_shape, e_shape, s))

    def check(plan):
        i, flux, f_shape, e_shape, s = plan
        e = rasterize(e_shape, mesh, "E")
        f = rasterize(f_shape, mesh, "F")
        cp = cache.capacity(p_laplacian(flux.p), e, f).c_inner
        rep = cache.capacity(flux, e, f, 1.0)
        rep_s = cache.capacity(flux, e, f, s)
        out = [_margin_record(i, flux, f"bound_{name}", raw, cp, BOUNDS_SLACK)
               for name, raw in bound_margins(rep, cp, rep.area_f).items()]
        if flux.kind == "p_laplacian":
            out.append(_margin_record(i, flux, "plap_lower_tight",
                                      -abs(rep.c_inner - cp), cp, 1e-10))
        out += [_margin_record(i, flux, f"bound_s_{name}", raw, cp,
                               BOUNDS_SLACK)
                for name, raw in bound_margins(rep_s, cp, rep_s.area_f).items()]
        return out

    return _run_plans("bounds", plans, check, BOUNDS_SLACK, jobs)


# ---------------------------------------------------------------------------
# s-laws suite


def run_s_suite(mesh: Mesh, fluxes: list[Flux], s_grid, seed: int,
                opts: Optional[SolverOptions] = None) -> SuiteReport:
    s_grid = [float(s) for s in s_grid]
    if len(s_grid) < 2:
        raise InvalidInput("s_grid needs at least two values")
    if any(s_grid[i + 1] <= s_grid[i] for i in range(len(s_grid) - 1)):
        raise InvalidInput("s_grid must be ascending")
    if not (s_grid[0] < 0.0 < s_grid[-1]):
        raise InvalidInput("s_grid must straddle 0")
    rng = np.random.default_rng(seed)
    opts = opts or SolverOptions()
    gen = ShapeGen(rng, mesh)

    fine_grid = np.linspace(s_grid[0], s_grid[-1], 2 * len(s_grid) - 1)

    plans = []
    for i, flux in enumerate(fluxes):
        f_shape, (cx, cy, reach) = gen.outer_shape()
        plans.append((i, flux, f_shape, gen.inner_disk(cx, cy, reach * 0.75)))

    def check(plan):
        i, flux, f_shape, e_shape = plan
        e = rasterize(e_shape, mesh, "E")
        f = rasterize(f_shape, mesh, "F")
        coarse = sweep_s(mesh, flux, e, f, s_grid, opts)
        fine = sweep_s(mesh, flux, e, f, fine_grid, opts)
        if any(rep is None for _, rep in coarse + fine):
            raise SolverDiverged(f"an s-sweep point of instance {i} diverged")

        hats = np.array([rep.c_hat for _, rep in coarse])
        diffs = np.diff(hats)
        out = [_margin_record(i, flux, "hat_monotone", float(diffs.min()),
                              float(np.max(np.abs(hats))), S_MONO_TOL)]
        if 0.0 in s_grid:
            hat0 = hats[s_grid.index(0.0)]
            out.append(_record(i, flux, "hat_zero_at_origin", -abs(hat0),
                               0.0, 0.0, hat0 != 0.0))

        hats_fine = np.array([rep.c_hat for _, rep in fine])
        jump_coarse = float(np.max(np.abs(np.diff(hats))))
        jump_fine = float(np.max(np.abs(np.diff(hats_fine))))
        ratio = jump_coarse / jump_fine if jump_fine > 0 else np.inf
        out.append(_record(i, flux, "continuity_ratio", float(ratio - 1.5),
                           ratio, 0.0, ratio < 1.5, jump_coarse=jump_coarse,
                           jump_fine=jump_fine))

        for s, rep in coarse:
            if s == 0.0:
                continue
            rep_t, _ = compute_capacity(mesh, s_transform(flux, s), e, f,
                                        1.0, opts)
            raw = -abs(rep.c_inner - rep_t.c_inner)
            out.append(_margin_record(i, flux, "scaling_identity", raw,
                                      rep.c_inner, S_IDENTITY_TOL, s=s))
        if flux.kind == "p_laplacian":
            cp = p_capacity(mesh, flux.p, e, f, opts)
            for s, rep in coarse:
                raw = -abs(rep.c_inner - abs(s) ** flux.p * cp)
                out.append(_margin_record(i, flux, "power_law", raw,
                                          rep.c_inner, S_IDENTITY_TOL, s=s))
        return out

    return _run_plans("s_laws", plans, check, S_MONO_TOL)


# ---------------------------------------------------------------------------
# solution invariance (flat-core capacity is initialization-independent)


def run_invariance_suite(mesh: Mesh, n_instances: int, seed: int,
                         opts: Optional[SolverOptions] = None) -> SuiteReport:
    rng = np.random.default_rng(seed)
    opts = opts or SolverOptions()
    gen = ShapeGen(rng, mesh)

    plans = []
    for i in range(int(n_instances)):
        f_shape, (cx, cy, reach) = gen.outer_shape()
        if i == 0:
            e_shape = shape_none()  # zero-set instance: all runs return 0
        else:
            e_shape = gen.inner_disk(cx, cy, reach * 0.8)
        # scale the core radius to the geometric gradient scale so the suite
        # hits active, partial-core, and all-core regimes
        r_e = e_shape.args[2] if e_shape.op == "disk" else 0.0
        gap = max(reach * 0.8 - r_e, 2.0 * mesh.h)
        flux = flat_core_p(2.0, float(rng.uniform(0.2, 1.6) / gap))
        plans.append((i, flux, f_shape, e_shape))

    def check(plan):
        i, flux, f_shape, e_shape = plan
        e = rasterize(e_shape, mesh, "E")
        f = rasterize(f_shape, mesh, "F")
        # the blend, zero and three random starts
        init_opts = [replace(opts, init="linear_blend"),
                     replace(opts, init="zero")]
        for k in range(3):
            init_opts.append(replace(
                opts, init="random",
                init_seed=opts.init_seed + seed + 37 * i + k))

        def solves(fl):
            return [compute_capacity(mesh, fl, e, f, 1.0, so)
                    for so in init_opts]

        runs = solves(flux)
        caps = [rep.c_inner for rep, _ in runs]
        field_spread = 0.0
        if runs[0][1] is not None:
            field_spread = _spread([pf.u for _, pf in runs])
        out = [_margin_record(
            i, flux, "capacity_invariance", -(max(caps) - min(caps)),
            float(np.mean(caps)), INVARIANCE_TOL, field_spread=field_spread,
            capacities=caps)]

        # control group: strictly monotone flux pins the field itself; its
        # divergence drops the control record, not the instance
        if i == 1:
            control = p_laplacian(2.0)
            try:
                ctrl_runs = solves(control)
            except SolverDiverged:
                return out
            ctrl_spread = _spread([pf.u for _, pf in ctrl_runs])
            tol_field = 10.0 * SolverOptions().resolve_tol(control, 1.0)
            out.append(_record(i, control, "control_field_unique",
                               float(tol_field - ctrl_spread), ctrl_spread,
                               0.0, ctrl_spread > tol_field))
        return out

    def max_field_spread(records):
        spreads = [r["field_spread"] for r in records
                   if r["check"] == "capacity_invariance"]
        return {"max_field_spread": max(spreads) if spreads else 0.0}

    return _run_plans("invariance", plans, check, INVARIANCE_TOL,
                      extras=max_field_spread)


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

    cache = _Cache(mesh, opts or SolverOptions())

    def pair(member):
        return (member, fixed) if mode == "E" else (fixed, member)

    reps = [_attempt(cache.capacity, flux, *pair(member)) for member in chain]
    values = [None if rep is None else rep.c_inner for rep in reps]
    records = []
    for k in range(1, len(chain)):
        if values[k] is None or values[k - 1] is None:
            continue
        raw = values[k] - values[k - 1]
        records.append(_margin_record(k, flux, f"chain_{mode}_step", raw,
                                      max(abs(values[k]),
                                          abs(values[k - 1])), ORDER_TOL))
    # last element IS the union/intersection: identical config, exact value
    if values and values[-1] is not None:
        rep = cache.capacity(flux, *pair(chain[-1]))
        records.append(_record(len(chain) - 1, flux, "limit_attained",
                               -abs(rep.c_inner - values[-1]), values[-1],
                               0.0, rep.c_inner != values[-1]))
    return _finalize(f"sequence_{mode}", records, ORDER_TOL, len(chain),
                     values.count(None), extras={"values": values})


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
    if not n_list:
        raise InvalidInput("N_list must be nonempty")
    if any(n_list[i + 1] <= n_list[i] for i in range(len(n_list) - 1)):
        raise InvalidInput("N_list must be ascending")
    if oracle_value is None and reference_flux is None:
        raise InvalidInput("need an oracle value or a reference flux")
    opts = opts or SolverOptions()

    def capacities(n):
        """The capacity on an n-cell mesh and its reference."""
        mesh = build_mesh(n, length)
        e = rasterize(e_shape, mesh, "E")
        f = rasterize(f_shape, mesh, "F")
        rep, _ = compute_capacity(mesh, flux, e, f, 1.0, opts)
        if reference_flux is None:
            return rep.c_inner, oracle_value
        ref_rep, _ = compute_capacity(mesh, reference_flux, e, f, 1.0, opts)
        return rep.c_inner, ref_rep.c_inner

    records = []
    errors = []
    for n in n_list:
        pair = _attempt(capacities, n)
        if pair is None:
            errors.append(None)
            continue
        value, ref = pair
        err = abs(value - ref) / (abs(ref) if abs(ref) > 1e-12 else 1.0)
        errors.append(err)
        records.append(_record(n, flux, "refinement_error", None, value,
                               tol_final, False, reference=ref,
                               rel_error=err))
    valid = [e for e in errors if e is not None]
    final_ok = bool(valid and valid[-1] <= tol_final)
    # increases below round-off are not rasterization bumps
    bumps = sum(1 for a, b in zip(valid, valid[1:]) if b > a + 1e-12)
    trend_ok = bumps <= 1
    records.append(_record(n_list[-1], flux, "final_error",
                           (tol_final - valid[-1]) if valid else None,
                           valid[-1] if valid else None, tol_final,
                           not (final_ok and trend_ok), bumps=bumps))
    return _finalize("convergence", records, tol_final, len(n_list),
                     errors.count(None), extras={"errors": errors})
