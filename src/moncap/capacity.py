"""Capacity of E in F for a monotone flux, with capacitary distributions.

Three formulas are evaluated on every converged solve:

    c_energy = sum_T |T| a(x_T, grad u) . grad u        (self-pairing)
    c_inner  = s * sum_{i in E} r_i                     (inner distribution)
    c_outer  = -s * sum_{i not in F} r_i                (outer distribution)

r is the residual the solve kept with its field (``PotentialField.residual``,
bitwise ``residual(mesh, flux, u)``), so the report evaluates the flux only
in the pairing, and the capacitary distributions not at all.

They agree up to tol_cap = (#constrained nodes) * tol_res * max(1, |s|).
c_inner is the primary reported value; c_hat = c_inner / s is the
s-normalized capacity, set to 0 at s = 0 by definition.

Each compute_capacity call makes one solve, of the problem it is given.
The p-capacity C_p that the sandwich bounds compare with is a solve of
its own (p_capacity); a report's cp_value is None unless its caller fills
it in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# nothing here calls residual; benchmarks/tracer.py binds it by this name
from .assembly import pairing, residual
from .errors import IncompatiblePair, InvalidInput, SolverDiverged
from .flux import Flux, p_laplacian
from .mesh import Mesh, NodeSet, node_area, node_diameter
from .solver import PotentialField, SolverOptions, solve_dirichlet


@dataclass
class NodeMeasure:
    """Nonnegative node weights supported on a declared carrier set."""

    weights: np.ndarray
    carrier: np.ndarray  # bool mask; support is contained in it
    total: float


@dataclass
class CapacityReport:
    c_energy: float
    c_inner: float
    c_outer: float
    c_hat: float
    s: float
    cp_value: Optional[float]
    k1: float
    k2: float
    k3: float
    c1: float
    c2: float
    b1: float
    b2: float
    p: float
    area_f: float
    diam_f: float
    residual_max: float
    tol_cap: float
    compatible: bool = True
    converged: bool = True
    three_formula_ok: bool = True

    def to_dict(self) -> dict:
        def enc(v):
            if v is None:
                return None
            if math.isinf(v):
                return "infinity"
            return v
        return {
            "c_energy": enc(self.c_energy),
            "c_inner": enc(self.c_inner),
            "c_outer": enc(self.c_outer),
            "c_hat": enc(self.c_hat),
            "s": self.s,
            "cp_value": enc(self.cp_value),
            "k1": self.k1, "k2": self.k2, "k3": self.k3,
            "c1": self.c1, "c2": self.c2, "b1": self.b1, "b2": self.b2,
            "p": self.p,
            "area_F": self.area_f,
            "diam_F": self.diam_f,
            "residual_max": self.residual_max,
            "tol_cap": self.tol_cap,
            "flags": {
                "compatible": self.compatible,
                "converged": self.converged,
                "three_formula_ok": self.three_formula_ok,
            },
        }


def sandwich_constants(flux: Flux, area_f: float, diam_f: float):
    """Constants of the C_p sandwich: k1, k2(F), k3(F).

    k1 = (4 c2)^p / (p (q c1)^(p-1))
    k2 = (4 c2 / c1^(1/q)) (b1 area)^(1/q) + 4 b2 area^(1/q)
    k3 = 2^(p+1) (c2 / c1^(1/q) b1^(1/q) + b2) diam^(p-1)
    """
    p, q = flux.p, flux.q
    c1, c2, b1, b2 = flux.c1, flux.c2, flux.b1, flux.b2
    k1 = (4.0 * c2) ** p / (p * (q * c1) ** (p - 1.0))
    k2 = (4.0 * c2 / c1 ** (1.0 / q)) * (b1 * area_f) ** (1.0 / q) \
        + 4.0 * b2 * area_f ** (1.0 / q)
    k3 = 2.0 ** (p + 1.0) * (c2 / c1 ** (1.0 / q) * b1 ** (1.0 / q) + b2) \
        * diam_f ** (p - 1.0)
    return k1, k2, k3


def _report(mesh: Mesh, flux: Flux, f: NodeSet, s: float,
            **values) -> CapacityReport:
    """A report on F with the flux, area, diameter and sandwich constants
    filled in; values holds the rest."""
    area_f = node_area(mesh, f)
    diam_f = node_diameter(mesh, f)
    k1, k2, k3 = sandwich_constants(flux, area_f, diam_f)
    return CapacityReport(
        s=float(s), k1=k1, k2=k2, k3=k3,
        c1=flux.c1, c2=flux.c2, b1=flux.b1, b2=flux.b2, p=flux.p,
        area_f=area_f, diam_f=diam_f, **values)


def _build_report(mesh, flux, e, f, s, pf) -> CapacityReport:
    """The report of a solved field: c_inner and c_outer from the residual
    the solve kept, c_energy from a pairing of its own."""
    # an overflow here shows as a non-finite capacity, which
    # compute_capacity rejects and a diverged report already flags
    with np.errstate(over="ignore", invalid="ignore"):
        c_hat = float(np.sum(pf.residual[e.mask]))
        c_inner = s * c_hat
        c_outer = -s * float(np.sum(pf.residual[~f.mask]))
        c_energy = pairing(mesh, flux, pf.u, pf.u)
    n_constrained = int(e.count + (~f.mask).sum())
    tol_cap = n_constrained * pf.tol_res * max(1.0, abs(s))
    three_ok = (abs(c_energy - c_inner) <= tol_cap
                and abs(c_inner - c_outer) <= tol_cap)
    return _report(
        mesh, flux, f, s, c_energy=c_energy, c_inner=c_inner,
        c_outer=c_outer, c_hat=c_hat, cp_value=None,
        residual_max=pf.residual_max, tol_cap=tol_cap,
        converged=pf.converged, three_formula_ok=three_ok)


def compute_capacity(mesh: Mesh, flux: Flux, e: NodeSet, f: NodeSet,
                     s: float = 1.0, opts: Optional[SolverOptions] = None):
    """Solve the problem once and evaluate all three capacity formulas.

    Returns (CapacityReport, PotentialField).  An incompatible pair (E not
    inside F) yields a +infinity report with no solve and field None.
    Solver divergence re-raises SolverDiverged with a partial report
    attached as ``exc.report``.  The report's cp_value is None; C_p is
    ``p_capacity``, a solve of its own.
    """
    try:
        pf = solve_dirichlet(mesh, flux, e, f, s, opts)
    except IncompatiblePair:
        inf = math.inf
        return _report(mesh, flux, f, s, c_energy=inf, c_inner=inf,
                       c_outer=inf, c_hat=inf, cp_value=None,
                       residual_max=math.nan, tol_cap=math.nan,
                       compatible=False, converged=False), None
    except SolverDiverged as exc:
        exc.report = _build_report(mesh, flux, e, f, s, exc.field)
        raise

    report = _build_report(mesh, flux, e, f, s, pf)
    # an infinite capacity belongs to incompatible pairs alone
    if not all(map(math.isfinite,
                   (report.c_energy, report.c_inner, report.c_outer))):
        raise InvalidInput(f"the capacity overflows at s = {s!r}", "s")
    return report, pf


def p_capacity(mesh: Mesh, p: float, e: NodeSet, f: NodeSet,
               opts: Optional[SolverOptions] = None) -> float:
    """Discrete p-capacity: the pure p-Laplacian flux at s = 1."""
    report, _ = compute_capacity(mesh, p_laplacian(p), e, f, 1.0, opts)
    return report.c_inner


def distributions(potential: PotentialField, e: NodeSet, f: NodeSet):
    """Inner and outer capacitary node measures (lambda, nu) of a solved
    field, e and f being the sets it was solved for.

    For s > 0, lambda_i = r_i on E and nu_j = -r_j on the complement of F;
    for s < 0 the carriers swap; s = 0 gives zero measures.  lambda is
    supported on the discrete boundary of E because interior-E nodes see a
    locally constant field.  r is the residual the solve kept with the
    field, ``potential.residual``, so the measures are those of the flux
    and mesh that field was solved on.
    """
    r = potential.residual
    lam_carrier, nu_carrier = e.mask, ~f.mask
    if potential.s < 0.0:
        lam_carrier, nu_carrier = nu_carrier, lam_carrier
    # at s = 0 the potential is 0, and so are r and both measures
    lam_w = np.where(lam_carrier, r, 0.0)
    nu_w = np.where(nu_carrier, 0.0 - r, 0.0)
    lam = NodeMeasure(lam_w, lam_carrier, float(lam_w.sum()))
    nu = NodeMeasure(nu_w, nu_carrier, float(nu_w.sum()))
    return lam, nu


def sweep_s(mesh: Mesh, flux: Flux, e: NodeSet, f: NodeSet, s_values,
            opts: Optional[SolverOptions] = None):
    """One capacity report per s, warm-started along the ascending sweep.

    Per-point solver failures are recorded (report None) and the sweep
    continues.  Returns a list of (s, CapacityReport | None).
    """
    s_values = [float(s) for s in s_values]
    if any(s_values[i + 1] <= s_values[i] for i in range(len(s_values) - 1)):
        raise InvalidInput("s_values must be sorted strictly ascending")
    opts = opts or SolverOptions()
    out = []
    prev_u = None
    prev_s = None
    for s in s_values:
        if s == 0.0:
            out.append((s, _report(
                mesh, flux, f, s, c_energy=0.0, c_inner=0.0, c_outer=0.0,
                c_hat=0.0, cp_value=None, residual_max=0.0, tol_cap=0.0)))
            continue
        solve_opts = opts
        if prev_u is not None and prev_s not in (None, 0.0):
            solve_opts = replace(opts, init="given",
                                 init_field=prev_u * (s / prev_s))
        try:
            report, pf = compute_capacity(mesh, flux, e, f, s, solve_opts)
        except SolverDiverged:
            out.append((s, None))
            prev_u, prev_s = None, None
            continue
        out.append((s, report))
        if pf is not None:
            prev_u, prev_s = pf.u, s
    return out
