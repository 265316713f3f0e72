"""Acceptance gate: every criterion at its stated size and tolerance,
one printed pass/fail line each.

The heavy suites run once in module-scoped fixtures and are shared by the
criteria that inspect them.  The audit fixture wraps the capacity report
builder and logs every converged report made while this module runs, so
the identity checks really cover all suites.
"""

import math
import time

import numpy as np
import pytest

import moncap.capacity as capacity_mod
from assembly_reference import discrete_boundary
from moncap.capacity import compute_capacity, distributions, p_capacity
from moncap.flux import (adversarial_fixture, check_conditions, flat_core_p,
                         p_laplacian, s_transform, weighted_p_laplacian)
from moncap.mesh import build_mesh, complement, disk, halfplane, rasterize
from moncap.oracle import RadialSpec, radial_p_capacity, strip_capacity
from moncap.properties import (ShapeGen, default_flux_family,
                               rerun_subadditivity_case, run_bounds_suite,
                               run_convergence_study, run_invariance_suite,
                               run_order_suite, run_s_suite,
                               run_subadditivity_suite)
from moncap.reporting import dumps_report
from moncap.solver import SolverOptions, solve_dirichlet

FAMILY = default_flux_family()


def emit(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {name}: {verdict} - {detail}")


@pytest.fixture(scope="module", autouse=True)
def audit_log():
    log = []
    build = capacity_mod._build_report

    def audited(*args):
        report = build(*args)
        if report.converged:
            log.append(report)
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity_mod, "_build_report", audited)
        yield log


@pytest.fixture(scope="module")
def order_suite():
    t0 = time.time()
    rep = run_order_suite(build_mesh(48), FAMILY, 350, seed=2024)
    return rep, time.time() - t0


@pytest.fixture(scope="module")
def subadd_suite():
    rep = run_subadditivity_suite(build_mesh(64), FAMILY, 50, seed=2025)
    return rep


@pytest.fixture(scope="module")
def bounds_suite():
    rep = run_bounds_suite(build_mesh(32), FAMILY, 56, seed=2026)
    return rep


@pytest.fixture(scope="module")
def s_suite():
    fluxes = [p_laplacian(2.0), p_laplacian(3.0),
              weighted_p_laplacian(2.0, 1.0, 2.0), flat_core_p(2.0, 3.0)]
    grid = [float(s) for s in np.linspace(-4.0, 4.0, 17)]
    rep = run_s_suite(build_mesh(32), fluxes, grid, seed=2027)
    return rep


@pytest.fixture(scope="module")
def invariance_suite():
    rep = run_invariance_suite(build_mesh(32), 10, seed=2028)
    return rep


# -- criterion 1 ------------------------------------------------------------

def test_criterion_01_strip_exactness():
    worst_err = 0.0
    worst_dt = 0.0
    for p in (1.5, 2.0, 3.0):
        expected = strip_capacity(p, 0.25, 0.75, 1.0)
        for n in (8, 32):
            mesh = build_mesh(n)
            e = rasterize(halfplane("x", 0.25, "le"), mesh, "E")
            f = complement(rasterize(halfplane("x", 0.75, "ge"), mesh, "Fc"),
                           "F")
            t0 = time.time()
            rep, _ = compute_capacity(mesh, p_laplacian(p), e, f, 1.0)
            dt = time.time() - t0
            worst_dt = max(worst_dt, dt)
            for val in (rep.c_energy, rep.c_inner, rep.c_outer):
                worst_err = max(worst_err, abs(val - expected) / expected)
    ok = worst_err <= 1e-8 and worst_dt < 1.0
    emit(1, "strip capacitor exactness", ok,
         f"worst rel err {worst_err:.2e} (tol 1e-8), "
         f"worst runtime {worst_dt * 1e3:.0f} ms (< 1 s)")
    assert worst_err <= 1e-8
    assert worst_dt < 1.0


# -- criterion 2 ------------------------------------------------------------

def test_criterion_02_annulus_oracle():
    t0 = time.time()
    e_shape = disk(0.5, 0.5, 0.1)
    f_shape = disk(0.5, 0.5, 0.4)
    results = {}
    for p, tol in ((2.0, 0.05), (3.0, 0.07)):
        oracle = radial_p_capacity(RadialSpec(2, p, 0.1, 0.4))
        rep = run_convergence_study(e_shape, f_shape, p_laplacian(p),
                                    [32, 64, 128], oracle, tol)
        results[p] = (rep, oracle)
    dt = time.time() - t0
    ok = all(rep.passed for rep, _ in results.values()) and dt < 60.0
    detail = ", ".join(
        f"p={p}: err(N=128)={results[p][0].extras['errors'][-1]:.4f} "
        f"(tol {tol})" for p, tol in ((2.0, 0.05), (3.0, 0.07)))
    emit(2, "annulus vs radial oracle", ok, f"{detail}, total {dt:.1f}s (< 60)")
    for p, (rep, oracle) in results.items():
        assert rep.passed, (p, rep.extras["errors"])
    assert dt < 60.0


# -- criterion 3 ------------------------------------------------------------

def test_criterion_03_three_formula_identity(audit_log, order_suite,
                                             subadd_suite, bounds_suite,
                                             s_suite, invariance_suite):
    total = len(audit_log)
    bad = [r for r in audit_log if not r.three_formula_ok]
    ok = total > 500 and not bad
    emit(3, "three-formula identity", ok,
         f"{total - len(bad)}/{total} converged solves satisfy "
         f"|c_energy-c_inner|, |c_inner-c_outer| <= tol_cap")
    assert total > 500
    assert not bad


# -- criterion 4 ------------------------------------------------------------

def test_criterion_04_distribution_structure():
    rng = np.random.default_rng(4040)
    mesh = build_mesh(32)
    gen = ShapeGen(rng, mesh)
    checked = 0
    worst_support = 0.0
    worst_sign = np.inf
    for i in range(25):
        flux = FAMILY[i % len(FAMILY)]
        f_shape, (cx, cy, reach) = gen.outer_shape()
        e_shape = gen.inner_disk(cx, cy, reach * 0.8)
        e = rasterize(e_shape, mesh, "E")
        f = rasterize(f_shape, mesh, "F")
        rep, pf = compute_capacity(mesh, flux, e, f, 1.0)
        lam, nu = distributions(mesh, flux, pf, e, f)
        interior = e.mask & ~discrete_boundary(e, mesh).mask
        if interior.any():
            worst_support = max(worst_support,
                                float(np.max(np.abs(lam.weights[interior]))))
        floor = -1e-8 * (1.0 + rep.c_hat)
        worst_sign = min(worst_sign,
                         lam.min_weight - floor, nu.min_weight - floor)
        checked += 1
    ok = worst_support <= SolverOptions().resolve_tol(p_laplacian(2.0), 1.0) \
        and worst_sign >= 0.0
    emit(4, "capacitary distribution structure", ok,
         f"{checked} instances; max interior-E residual {worst_support:.2e} "
         f"(<= tol_res), min sign margin {worst_sign:.2e} (>= 0)")
    assert ok


# -- criterion 5 ------------------------------------------------------------

def test_criterion_05_order_suite(order_suite):
    rep, dt = order_suite
    per_flux = rep.instances / len(FAMILY)
    ok = rep.passed and per_flux >= 50 and dt < 900.0
    emit(5, "order suite (monotone in E, antitone in F)", ok,
         f"{rep.instances} instances ({per_flux:.0f}/flux x {len(FAMILY)} "
         f"fluxes) at N=48, violations={rep.violations}, "
         f"skips={rep.skipped}, worst margin {rep.worst_margin:.2e}, "
         f"{dt:.0f}s (< 900)")
    assert rep.passed
    assert per_flux >= 50
    assert dt < 900.0


# -- criterion 6 ------------------------------------------------------------

def test_criterion_06_subadditivity(subadd_suite):
    rep = subadd_suite
    deficits = []
    for case in rep.extras["worst_cases"]:
        d64 = rerun_subadditivity_case(case, 64, FAMILY)
        d128 = rerun_subadditivity_case(case, 128, FAMILY)
        deficits.append((d64, d128))
    trend_ok = all(d128 <= d64 + 1e-12 for d64, d128 in deficits)
    ok = rep.passed and trend_ok
    emit(6, "subadditivity (pairs and finite covers)", ok,
         f"{rep.instances} instances at N=64, violations={rep.violations}, "
         f"worst margin {rep.worst_margin:.2e} (tol 1e-3); worst-case "
         f"deficits N=64 -> 128: {[(f'{a:.1e}', f'{b:.1e}') for a, b in deficits]}")
    assert rep.passed
    assert trend_ok


# -- criterion 7 ------------------------------------------------------------

def test_criterion_07_sandwich_bounds(bounds_suite):
    rep = bounds_suite
    tight = [r for r in rep.records if r["check"] == "plap_lower_tight"]
    tight_ok = bool(tight) and all(r["margin"] >= -1e-10 for r in tight)
    ok = rep.passed and tight_ok
    emit(7, "sandwich bounds with declared constants", ok,
         f"{rep.instances} instances, violations={rep.violations}, worst "
         f"margin {rep.worst_margin:.2e} (slack 1e-9); p-Laplacian lower "
         f"bound tight on {len(tight)} records")
    assert rep.passed
    assert tight_ok


# -- criterion 8 ------------------------------------------------------------

def test_criterion_08a_scaling_identity():
    rng = np.random.default_rng(8080)
    mesh = build_mesh(32)
    gen = ShapeGen(rng, mesh)
    worst = 0.0
    for i in range(20):
        flux = FAMILY[i % len(FAMILY)]
        f_shape, (cx, cy, reach) = gen.outer_shape()
        e_shape = gen.inner_disk(cx, cy, reach * 0.8)
        e = rasterize(e_shape, mesh, "E")
        f = rasterize(f_shape, mesh, "F")
        for s in (-2.0, -0.5, 0.5, 3.0):
            rep, _ = compute_capacity(mesh, flux, e, f, s)
            rep_t, _ = compute_capacity(mesh, s_transform(flux, s), e, f,
                                        1.0)
            worst = max(worst, abs(rep.c_inner - rep_t.c_inner)
                        / (1.0 + abs(rep.c_inner)))
    ok = worst <= 1e-8
    emit(8, "s-law (a) scaling identity", ok,
         f"20 instances x 4 s-values, worst rel gap {worst:.2e} (tol 1e-8)")
    assert ok


def test_criterion_08b_power_law(s_suite):
    recs = [r for r in s_suite.records if r["check"] == "power_law"]
    worst = min(r["margin"] for r in recs)
    ok = bool(recs) and worst >= -1e-8
    emit(8, "s-law (b) p-Laplacian |s|^p law", ok,
         f"{len(recs)} grid points, worst rel gap {-worst:.2e} (tol 1e-8)")
    assert ok


def test_criterion_08c_hat_monotone(s_suite):
    mono = [r for r in s_suite.records if r["check"] == "hat_monotone"]
    zeros = [r for r in s_suite.records if r["check"] == "hat_zero_at_origin"]
    worst = min(r["margin"] for r in mono)
    ok = all(not r["violation"] for r in mono + zeros) and worst >= -1e-6
    emit(8, "s-law (c) normalized capacity nondecreasing, zero at origin",
         ok, f"{len(mono)} sweeps on the 17-point grid over [-4,4], worst "
         f"margin {worst:.2e} (tol 1e-6); hat(0)=0 exact on "
         f"{len(zeros)} sweeps")
    assert ok


def test_criterion_08d_continuity_proxy(s_suite):
    recs = [r for r in s_suite.records if r["check"] == "continuity_ratio"]
    kinds = {r["flux"] for r in recs}
    ratios = {r["flux"]: r["value"] for r in recs}
    ok = all(r["value"] >= 1.5 for r in recs) and "flat_core_p" in kinds
    emit(8, "s-law (d) continuity proxy", ok,
         f"max-jump shrink ratios when the grid halves: "
         f"{ {k: f'{v:.2f}' for k, v in ratios.items()} } (>= 1.5, "
         f"flat core included)")
    assert ok


# -- criterion 9 ------------------------------------------------------------

def test_criterion_09_solution_invariance(invariance_suite):
    rep = invariance_suite
    spread = rep.extras["max_field_spread"]
    ok = rep.passed and spread > 1e-2
    emit(9, "capacity invariance across initializations", ok,
         f"{rep.instances} flat-core instances x 5 inits, worst capacity "
         f"margin {rep.worst_margin:.2e} (tol 1e-6); max field spread "
         f"{spread:.3f} (> 1e-2: genuine non-uniqueness exercised)")
    assert rep.passed
    assert spread > 1e-2


# -- criterion 10 -----------------------------------------------------------

def test_criterion_10_comparison_principle():
    rng = np.random.default_rng(1010)
    mesh = build_mesh(32)
    gen = ShapeGen(rng, mesh)
    worst_e = worst_f = worst_range = np.inf
    for _ in range(25):
        f_shape, (cx, cy, reach) = gen.outer_shape()
        e1_shape, e2_shape = gen.nested_pair_in(cx, cy, reach * 0.8)
        f = rasterize(f_shape, mesh, "F")
        e1 = rasterize(e1_shape, mesh, "E1")
        e2 = rasterize(e2_shape, mesh, "E2")
        u1 = solve_dirichlet(mesh, p_laplacian(2.0), e1, f, 1.0)
        u2 = solve_dirichlet(mesh, p_laplacian(2.0), e2, f, 1.0)
        worst_e = min(worst_e, float(np.min(u2.u - u1.u)))
        big2 = rng.uniform(0.75, 1.0) * reach
        big1 = rng.uniform(0.55, 1.0) * big2
        e_shape = gen.inner_disk(cx, cy, big1 * 0.75)
        e = rasterize(e_shape, mesh, "E")
        f1 = rasterize(disk(cx, cy, big1), mesh, "F1")
        f2 = rasterize(disk(cx, cy, big2), mesh, "F2")
        v1 = solve_dirichlet(mesh, p_laplacian(2.0), e, f1, 1.0)
        v2 = solve_dirichlet(mesh, p_laplacian(2.0), e, f2, 1.0)
        worst_f = min(worst_f, float(np.min(v2.u - v1.u)))
        for pf in (u1, u2, v1, v2):
            worst_range = min(worst_range, float(pf.u.min()),
                              float(1.0 - pf.u.max()))
    ok = worst_e >= -1e-8 and worst_f >= -1e-8 and worst_range >= -1e-8
    emit(10, "comparison principle (p=2)", ok,
         f"25 instances; worst nested-E margin {worst_e:.2e}, nested-F "
         f"margin {worst_f:.2e}, range margin {worst_range:.2e} (>= -1e-8)")
    assert ok


# -- criterion 11 -----------------------------------------------------------

def test_criterion_11_flux_checker():
    margins = {}
    for flux in FAMILY:
        rep = check_conditions(flux, 10_000, xi_radius=10.0, seed=1111)
        margins[f"{flux.kind}-p{flux.p}"] = min(rep.margins.values())
        assert rep.all_passed, (flux.kind, rep.margins)
    adv = check_conditions(adversarial_fixture(), 10_000, seed=1111)
    witness = adv.witnesses["monotone"]
    ok = all(m >= -1e-12 for m in margins.values()) \
        and not adv.passed["monotone"] and len(witness["xi"]) == 2
    emit(11, "flux structural checker", ok,
         f"{len(FAMILY)} shipped fluxes pass at 1e4 samples (worst margin "
         f"{min(margins.values()):.1e}); adversarial fixture fails "
         f"monotonicity with witness xi={witness['xi']}")
    assert ok


# -- criterion 12 -----------------------------------------------------------

def test_criterion_12_determinism():
    mesh = build_mesh(24)
    fluxes = [p_laplacian(2.0), p_laplacian(3.0)]
    a = run_order_suite(mesh, fluxes, 10, seed=77)
    b = run_order_suite(mesh, fluxes, 10, seed=77)
    blob_a = dumps_report(a.to_dict()).encode()
    blob_b = dumps_report(b.to_dict()).encode()
    inv_a = dumps_report(run_invariance_suite(mesh, 4, seed=78).to_dict())
    inv_b = dumps_report(run_invariance_suite(mesh, 4, seed=78).to_dict())
    ok = blob_a == blob_b and inv_a == inv_b
    emit(12, "determinism of suite reports", ok,
         f"byte-identical JSON across reruns ({len(blob_a)} bytes order, "
         f"{len(inv_a)} bytes invariance)")
    assert ok
