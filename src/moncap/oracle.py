"""Independent reference values: closed forms and a 1-D first-integral
solver, deliberately using different numerics than the 2-D engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .flux import Flux, eval_flux


@dataclass(frozen=True)
class RadialSpec:
    n: int      # dimension (formulas work for any n >= 2; grids use n = 2)
    p: float
    r: float    # inner radius
    big_r: float  # outer radius

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInput("dimension must be >= 2", "n")
        if not self.p > 1:
            raise InvalidInput("need p > 1", "p")
        if not 0 < self.r:
            raise InvalidInput("radii must satisfy 0 < r < R", "r")
        if not self.r < self.big_r:
            raise InvalidInput("radii must satisfy 0 < r < R", "R")


def sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2*pi for n = 2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def radial_p_capacity(spec: RadialSpec) -> float:
    """sigma_{n-1} * I^(1-p) with I = int_r^R rho^(-(n-1)/(p-1)) d rho."""
    m = (spec.n - 1.0) / (spec.p - 1.0)
    try:
        if abs(m - 1.0) < 1e-14:
            integral = math.log(spec.big_r / spec.r)
        else:
            integral = (spec.big_r ** (1.0 - m)
                        - spec.r ** (1.0 - m)) / (1.0 - m)
        value = sphere_measure(spec.n) * integral ** (1.0 - spec.p)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidInput(f"the radial capacity overflows at p = {spec.p!r}",
                           "p")
    return value


def strip_capacity(p: float, a: float, b: float, ly: float) -> float:
    """Capacity of the slab capacitor: Ly * (b - a)^(1-p)."""
    if not p > 1:
        raise InvalidInput("need p > 1", "p")
    if not 0 <= a:
        raise InvalidInput("need 0 <= a < b", "a")
    if not a < b:
        raise InvalidInput("need 0 <= a < b", "b")
    if not ly > 0:
        raise InvalidInput("need Ly > 0", "Ly")
    try:
        value = ly * (b - a) ** (1.0 - p)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidInput(f"the strip capacity overflows at p = {p!r}", "p")
    return value


# ---------------------------------------------------------------------------
# 1-D first-integral solver

# a flux is radial when, at each |xi| of RADIAL_PROBES, its tangential part
# and its spread over angles and points stay within RADIAL_TOL relative
RADIAL_PROBES = (0.3, 1.1, 2.7)
RADIAL_TOL = 1e-8


def _radial_profile(flux: Flux):
    """Extract g with a(xi) = g(|xi|) xi/|xi|, checking isotropy and
    x-independence on a few samples."""
    xs = np.array([[0.2, 0.3], [0.5, 0.5], [0.8, 0.6]])
    angles = np.array([0.0, 0.9, 2.2, 4.0])
    for t in RADIAL_PROBES:
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        vals = []
        for x in xs:
            a = eval_flux(flux, np.broadcast_to(x, dirs.shape), t * dirs)
            radial = np.sum(a * dirs, axis=-1)
            tangential = a - radial[:, None] * dirs
            scale = 1.0 + np.abs(radial).max()
            if np.max(np.abs(tangential)) > RADIAL_TOL * scale:
                raise InvalidInput("flux is not isotropic")
            vals.append(radial)
        vals = np.concatenate(vals)
        if vals.max() - vals.min() > RADIAL_TOL * (1.0 + np.abs(vals).max()):
            raise InvalidInput("flux is not isotropic (x- or angle-dependent)")

    x0 = np.array([0.5, 0.5])

    def g(t):
        t = np.asarray(t, dtype=float)
        xi = np.stack([t, np.zeros_like(t)], axis=-1)
        return eval_flux(flux, np.broadcast_to(x0, xi.shape), xi)[..., 0]

    return g


def _g_inverse(g, y: np.ndarray, t_hi: float) -> np.ndarray:
    """Vectorized smallest t with g(t) >= y, by bisection on [0, t_hi]."""
    y = np.asarray(y, dtype=float)
    lo = np.zeros_like(y)
    hi = np.full_like(y, t_hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ge = g(mid) >= y
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid)
    return hi


def radial_numeric(spec: RadialSpec, flux_radial: Flux, m: int = 10_000,
                   s: float = 1.0) -> float:
    """Capacity of the annulus by the 1-D two-point problem.

    Solves the first integral g(|u'|) rho^(n-1) = K by bisection on K, with
    Simpson quadrature on m subintervals, then returns
    sigma_{n-1} * K * s.  Independent of the 2-D assembly path.
    """
    if m < 4:
        raise InvalidInput("need at least 4 subintervals")
    g = _radial_profile(flux_radial)
    if s == 0.0:
        return 0.0
    drop = abs(s)

    n1 = spec.n - 1.0
    mm = int(m)
    if mm % 2:
        mm += 1
    rho = np.linspace(spec.r, spec.big_r, mm + 1)
    w = np.ones(mm + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (spec.big_r - spec.r) / (3.0 * mm)

    # generous slope cap for the g-inverse bisection
    slope_hi = 10.0 * drop / (spec.big_r - spec.r) + 10.0

    def total_drop(k):
        y = k / rho ** n1
        slopes = _g_inverse(g, y, slope_hi)
        return float(np.sum(w * slopes))

    k_hi = max(float(g(np.array([2.0 * drop / (spec.big_r - spec.r)]))[0]),
               1e-12) * spec.big_r ** n1
    for _ in range(200):
        if total_drop(k_hi) >= drop:
            break
        k_hi *= 2.0
        slope_hi *= 2.0
    else:
        raise InvalidInput("could not bracket the flux constant")

    k_lo = 0.0
    for _ in range(70):
        k_mid = 0.5 * (k_lo + k_hi)
        if total_drop(k_mid) >= drop:
            k_hi = k_mid
        else:
            k_lo = k_mid
    return sphere_measure(spec.n) * k_hi * drop
