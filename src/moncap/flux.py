"""Monotone flux family a(x, xi) with structural-condition checking.

Every flux ships with declared constants (p, c1, c2, b1, b2) such that

    a(x, 0) = 0
    (a(x, xi) - a(x, eta)) . (xi - eta) >= 0
    a(x, xi) . xi >= c1 |xi|^p - b1
    |a(x, xi)|   <= c2 |xi|^(p-1) + b2

hold for all x in the domain square and all xi, eta.  ``check_conditions``
verifies the declarations by randomized sampling.

All evaluation routines are vectorized: ``x`` and ``xi`` may be arrays of
shape (..., 2) and broadcast against each other.

A kind is defined once: its constructor and its ``FLUX_KINDS`` entry (value,
Jacobian, linearity, config param spec), which evaluation, the solver and
``config.parse_flux`` look up.  Adding a kind is one constructor, one entry,
and a member of the shipped family in tests/test_flux.py.  The entry declares
whether a flux of the kind is linear in xi; the solver then starts below its
Krylov gate from the exact solution of the linear problem, so a kind that is
not linear must say False.  It declares too whether the Jacobian in xi is
symmetric; the solver then stores a banded block's lower band only and
factors it by band Cholesky, so a kind with a skew part must say False.
Its value at xi = 0 must be exactly 0 (not only to round-off) at every x
and eps, for xi = (+0, +0) and (-0, -0): the residual leaves out the
triangles whose corners are all 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

import numpy as np

from .errors import InvalidInput


@dataclass(frozen=True)
class Flux:
    """A monotone flux with its declared growth/coercivity constants.

    Immutable; all operations on fluxes are pure functions, safe for
    concurrent use.
    """

    kind: str
    p: float
    params: dict[str, Any] = field(default_factory=dict)
    c1: float = 1.0
    c2: float = 1.0
    b1: float = 0.0
    b2: float = 0.0

    @property
    def q(self) -> float:
        """Dual exponent p/(p-1)."""
        return self.p / (self.p - 1.0)

    def describe(self) -> dict:
        """JSON-friendly description (used in configs and reports)."""
        return {
            "kind": self.kind,
            "p": self.p,
            "params": {k: _describe_param(v) for k, v in self.params.items()},
            "c1": self.c1,
            "c2": self.c2,
            "b1": self.b1,
            "b2": self.b2,
        }


def _describe_param(v):
    """A flux parameter as JSON-friendly data; weighted_sum parts become
    [weight, description] pairs, nested to any depth."""
    if isinstance(v, Flux):
        return v.describe()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_describe_param(w) for w in v]
    return v


def _check_p(p):
    if not (np.isfinite(p) and p > 1.0):
        raise InvalidInput(f"growth exponent must satisfy p > 1, got {p}",
                           "p")


def p_laplacian(p: float) -> Flux:
    """a(xi) = |xi|^(p-2) xi, with a(0) = 0 for every p > 1."""
    _check_p(p)
    return Flux(kind="p_laplacian", p=float(p), c1=1.0, c2=1.0)


def weighted_p_laplacian(p: float, w_min: float, w_max: float,
                         kx: float = 1.0, ky: float = 1.0) -> Flux:
    """a(x, xi) = w(x) |xi|^(p-2) xi with a smooth weight in [w_min, w_max].

    w(x, y) = w_min + (w_max - w_min) * (1 + sin(2*pi*(kx*x + ky*y))) / 2
    """
    _check_p(p)
    if not (0.0 < w_min <= w_max):
        raise InvalidInput(f"need 0 < w_min <= w_max, got {w_min}, {w_max}")
    return Flux(
        kind="weighted_p_laplacian",
        p=float(p),
        params={"w_min": float(w_min), "w_max": float(w_max),
                "kx": float(kx), "ky": float(ky)},
        c1=float(w_min),
        c2=float(w_max),
    )


def anisotropic_p(p: float, alpha: float, beta: float) -> Flux:
    """Gradient of (alpha xi1^2 + beta xi2^2)^(p/2) / p; axis-weighted flux."""
    _check_p(p)
    if alpha <= 0 or beta <= 0:
        raise InvalidInput("axis weights must be positive")
    lo, hi = min(alpha, beta), max(alpha, beta)
    # a . xi = (xi^T B xi)^(p/2) >= lo^(p/2) |xi|^p
    c1 = lo ** (p / 2.0)
    if p >= 2.0:
        c2 = hi ** (p / 2.0)
    else:
        c2 = hi * lo ** ((p - 2.0) / 2.0)
    return Flux(
        kind="anisotropic_p",
        p=float(p),
        params={"alpha": float(alpha), "beta": float(beta)},
        c1=c1,
        c2=c2,
    )


def linear_matrix(m, validate: bool = True) -> Flux:
    """a(xi) = M xi for a constant 2x2 matrix; p = 2 only.

    The symmetric part of M must be positive definite.  A nonzero skew part
    gives a monotone flux that is not the differential of any energy.  With
    ``validate=False`` the definiteness check is skipped; that path exists
    only to build adversarial test fixtures.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2) or not np.all(np.isfinite(m)):
        raise InvalidInput("linear_matrix needs a finite 2x2 matrix", "M")
    sym = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(sym)
    if validate and eigs[0] <= 0:
        raise InvalidInput("symmetric part of M must be positive definite",
                           "M")
    c1 = float(eigs[0])
    c2 = float(np.linalg.norm(m, 2))
    return Flux(kind="linear_matrix", p=2.0, params={"M": m}, c1=c1, c2=c2)


def _flat_core_b1(p: float, rho0: float, c1: float) -> float:
    """Smallest constant defect making the coercivity bound hold.

    b1 = sup_t [ c1 t^p - (t - rho0)+^(p-1) t ].  For t >= 2 rho0 the
    bracket is <= 0 when c1 <= 2^(1-p), so a bounded scan suffices; a
    golden-section search (Kiefer 1953) refines the bracket around the
    best scan point.
    """
    if rho0 == 0.0:
        return 0.0

    def deficit(t):
        return c1 * t ** p - max(t - rho0, 0.0) ** (p - 1) * t

    ts = np.linspace(0.0, 2.0 * rho0, 4097)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = c1 * ts ** p - np.maximum(ts - rho0, 0.0) ** (p - 1) * ts
    if not np.all(np.isfinite(vals)):
        raise InvalidInput(f"core radius {rho0!r} overflows b1 at p = {p!r}",
                           "rho0")
    k = int(np.argmax(vals))
    lo = float(ts[max(k - 1, 0)])
    hi = float(ts[min(k + 1, len(ts) - 1)])
    # 80 shrinks by 1/phi leave 1e-17 of the bracket, below one ulp of t
    shrink = (5.0 ** 0.5 - 1.0) / 2.0
    a = hi - shrink * (hi - lo)
    b = lo + shrink * (hi - lo)
    fa, fb = deficit(a), deficit(b)
    best = max(float(vals[k]), fa, fb)
    for _ in range(80):
        if fa >= fb:
            hi, b, fb = b, a, fa
            a = hi - shrink * (hi - lo)
            fa = deficit(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + shrink * (hi - lo)
            fb = deficit(b)
        best = max(best, fa, fb)
    return best * (1.0 + 1e-12) + 1e-15


def flat_core_p(p: float, rho0: float) -> Flux:
    """a(xi) = (|xi| - rho0)+^(p-1) xi/|xi|: monotone, vanishes on the core.

    Gradient of the convex energy (|xi| - rho0)+^p / p, hence monotone but
    not strictly monotone; Dirichlet problems for it can have several
    solutions sharing one capacity.
    """
    _check_p(p)
    if rho0 < 0:
        raise InvalidInput("core radius must be nonnegative", "rho0")
    c1 = 2.0 ** (1.0 - p)
    return Flux(
        kind="flat_core_p",
        p=float(p),
        params={"rho0": float(rho0)},
        c1=c1,
        c2=1.0,
        b1=_flat_core_b1(p, rho0, c1),
    )


def s_transform(flux: Flux, s: float) -> Flux:
    """Wrap the flux as a_s(x, xi) = s a(x, s xi), s != 0.

    Constants rescale to |s|^p c1, |s|^p c2, |s| b2; b1 is unchanged.
    """
    if s == 0.0 or not np.isfinite(s):
        raise InvalidInput("s_transform requires a finite nonzero s", "s")
    sp = abs(s) ** flux.p
    return Flux(
        kind="s_transformed",
        p=flux.p,
        params={"inner": flux, "s": float(s)},
        c1=sp * flux.c1,
        c2=sp * flux.c2,
        b1=flux.b1,
        b2=abs(s) * flux.b2,
    )


def combine(f1: Flux, f2: Flux, w1: float, w2: float) -> Flux:
    """Pointwise w1 a1 + w2 a2 for fluxes sharing the same p.

    The combined c1 uses max(w1 c1_1, w2 c1_2): each term's coercivity
    survives because the other term contributes at least -w b1.  The rule is
    conservative; check_conditions verifies it on every shipped combination.
    """
    if f1.p != f2.p:
        raise InvalidInput(f"cannot combine fluxes with p={f1.p} and p={f2.p}")
    if w1 < 0 or w2 < 0:
        raise InvalidInput("combination weights must be nonnegative")
    c1 = max(w1 * f1.c1, w2 * f2.c1)
    if c1 <= 0:
        raise InvalidInput("at least one weight must be positive")
    return Flux(
        kind="weighted_sum",
        p=f1.p,
        params={"parts": [(float(w1), f1), (float(w2), f2)]},
        c1=c1,
        c2=w1 * f1.c2 + w2 * f2.c2,
        b1=w1 * f1.b1 + w2 * f2.b1,
        b2=w1 * f1.b2 + w2 * f2.b2,
    )


def adversarial_fixture() -> Flux:
    """a(xi) = -xi: violates monotonicity.  Test fixture only."""
    return linear_matrix(-np.eye(2), validate=False)


# ---------------------------------------------------------------------------
# evaluation: one registry entry per kind

_EYE = np.eye(2)


def _weight(flux: Flux, x):
    prm = flux.params
    phase = np.sin(2.0 * np.pi * (prm["kx"] * x[..., 0] + prm["ky"] * x[..., 1]))
    return prm["w_min"] + (prm["w_max"] - prm["w_min"]) * 0.5 * (1.0 + phase)


def _overflowed(q, xi, eps):
    """The rows of xi where the sum q = xi.B xi + eps^2 overflowed, and the
    largest of their |components| and eps, m: the power-law terms are
    homogeneous of degree p - 2 in (xi, eps), so those rows are evaluated
    at (xi, eps) / m and scaled by m^(p-2).  Rows with a finite sum keep
    their bits."""
    big = np.isinf(q)
    if not big.any():
        return None, None
    return big, np.maximum(np.max(np.abs(xi[big]), axis=-1), eps)


def _power_factor(p, xi, bxi, eps):
    """(xi.B xi + eps^2)^((p-2)/2), given bxi = B xi; the q > 0 guard is the
    |xi| > 0 guard that p < 2 needs at eps = 0."""
    with np.errstate(over="ignore"):
        q = (bxi[..., 0] * xi[..., 0] + bxi[..., 1] * xi[..., 1])[..., None] \
            + eps * eps
    safe = np.where(q > 0.0, q, 1.0)
    fac = np.where(q > 0.0, safe ** ((p - 2.0) / 2.0), 0.0)
    big, m = _overflowed(q[..., 0], xi, eps)
    if big is not None:
        m = m[:, None]
        fac[big] = m ** (p - 2.0) * _power_factor(p, xi[big] / m,
                                                  bxi[big] / m, eps / m)
    return fac


def _power_jacobian(p, xi, bxi, b, eps):
    """Derivative of _power_factor(p, xi, bxi, eps) * bxi in xi."""
    if p == 2.0:
        return np.broadcast_to(b, xi.shape + (2,)).copy()
    # rows whose sum overflows give inf and nan here, and are redone below
    with np.errstate(over="ignore", invalid="ignore"):
        q0 = bxi[..., 0] * xi[..., 0] + bxi[..., 1] * xi[..., 1]
        q = q0 + eps * eps
        safe = np.where(q > 0.0, q, 1e-300)
        fac2 = np.where(q0 > 0.0, (p - 2.0) * safe ** ((p - 4.0) / 2.0), 0.0)
        outer = bxi[..., :, None] * bxi[..., None, :]
        jac = (safe ** ((p - 2.0) / 2.0))[..., None, None] * b \
            + fac2[..., None, None] * outer
    big, m = _overflowed(q, xi, eps)
    if big is not None:
        jac[big] = (m ** (p - 2.0))[:, None, None] * _power_jacobian(
            p, xi[big] / m[:, None], bxi[big] / m[:, None], b, eps / m)
    return jac


def _weighted_value(flux, x, xi, eps):
    return _weight(flux, x)[..., None] * _power_factor(flux.p, xi, xi, eps) \
        * xi


def _weighted_jacobian(flux, x, xi, eps):
    return _weight(flux, x)[..., None, None] \
        * _power_jacobian(flux.p, xi, xi, _EYE, eps)


def _axis_scaled(flux, xi):
    al, be = flux.params["alpha"], flux.params["beta"]
    return np.stack([al * xi[..., 0], be * xi[..., 1]], axis=-1)


def _anisotropic_value(flux, x, xi, eps):
    bxi = _axis_scaled(flux, xi)
    return _power_factor(flux.p, xi, bxi, eps) * bxi


def _anisotropic_jacobian(flux, x, xi, eps):
    b = np.diag([flux.params["alpha"], flux.params["beta"]])
    return _power_jacobian(flux.p, xi, _axis_scaled(flux, xi), b, eps)


def _core_excess(t, eps):
    """(t)+ smoothed to (t + sqrt(t^2 + eps^2)) / 2, and its derivative."""
    if eps > 0.0:
        root = np.sqrt(t * t + eps * eps)
        return 0.5 * (t + root), 0.5 * (1.0 + t / root)
    return np.maximum(t, 0.0), (t > 0.0).astype(float)


def _flat_core_value(flux, x, xi, eps):
    m = np.sqrt((xi[..., 0] * xi[..., 0] + xi[..., 1] * xi[..., 1])[..., None]
                + eps * eps)
    pos, _ = _core_excess(m - flux.params["rho0"], eps)
    fac = np.where(m > 0.0,
                   pos ** (flux.p - 1.0) / np.where(m > 0.0, m, 1.0), 0.0)
    return fac * xi


def _flat_core_jacobian(flux, x, xi, eps):
    p = flux.p
    r = np.sqrt(xi[..., 0] * xi[..., 0] + xi[..., 1] * xi[..., 1]
                + eps * eps)
    r = np.where(r > 0.0, r, 1e-300)
    pos, dpos = _core_excess(r - flux.params["rho0"], eps)
    g = pos ** (p - 1.0)
    dg = np.where(
        pos > 0.0,
        (p - 1.0) * np.where(pos > 0.0, pos, 1.0) ** (p - 2.0) * dpos,
        0.0)
    hat = xi / r[..., None]
    outer = hat[..., :, None] * hat[..., None, :]
    return (g / r)[..., None, None] * (_EYE - outer) \
        + dg[..., None, None] * outer


def _s_value(flux, x, xi, eps):
    s, inner = flux.params["s"], flux.params["inner"]
    return s * _entry(inner).value(inner, x, s * xi, abs(s) * eps)


def _s_jacobian(flux, x, xi, eps):
    s, inner = flux.params["s"], flux.params["inner"]
    return s * s * _entry(inner).jacobian(inner, x, s * xi, abs(s) * eps)


def _sum_value(flux, x, xi, eps):
    return sum(w * _entry(f).value(f, x, xi, eps)
               for w, f in flux.params["parts"])


def _sum_jacobian(flux, x, xi, eps):
    return sum(w * _entry(f).jacobian(f, x, xi, eps)
               for w, f in flux.params["parts"])


@dataclass(frozen=True)
class Param:
    """A config parameter of a flux kind: its name, its value type
    (number, matrix, flux or parts) and, when optional, its default."""

    name: str
    type: str = "number"
    default: Optional[float] = None


@dataclass(frozen=True)
class FluxKind:
    """One flux kind.  ``value(flux, x, xi, eps)`` is the eps-smoothed flux
    (eps = 0 is the true flux), ``jacobian`` with the same arguments its
    exact derivative in xi.  ``linear(flux)`` says whether the value is
    linear in xi at every x and eps, so that the Jacobian is one constant
    matrix per point; ``symmetric(flux)`` whether that Jacobian is a
    symmetric matrix at every x, xi and eps.  A config builds the kind as
    ``build(p, **params)``, without p when ``needs_p`` is false."""

    value: Callable
    jacobian: Callable
    build: Callable[..., Flux]
    linear: Callable[[Flux], bool]
    symmetric: Callable[[Flux], bool]
    params: tuple[Param, ...] = ()
    needs_p: bool = True


def _p_is_2(flux):
    # the power factor is exactly 1 there, and _power_jacobian returns B
    return flux.p == 2.0


def _always(flux):
    # the gradient of a convex energy: its Hessian is symmetric
    return True


FLUX_KINDS: dict[str, FluxKind] = {
    "p_laplacian": FluxKind(
        lambda fl, x, xi, eps: _power_factor(fl.p, xi, xi, eps) * xi,
        lambda fl, x, xi, eps: _power_jacobian(fl.p, xi, xi, _EYE, eps),
        p_laplacian, _p_is_2, _always),
    "weighted_p_laplacian": FluxKind(
        _weighted_value, _weighted_jacobian, weighted_p_laplacian, _p_is_2,
        _always, (Param("w_min"), Param("w_max"), Param("kx", default=1.0),
                  Param("ky", default=1.0))),
    "anisotropic_p": FluxKind(_anisotropic_value, _anisotropic_jacobian,
                              anisotropic_p, _p_is_2, _always,
                              (Param("alpha"), Param("beta"))),
    "linear_matrix": FluxKind(
        lambda fl, x, xi, eps: xi @ fl.params["M"].T,
        lambda fl, x, xi, eps: np.broadcast_to(
            fl.params["M"], xi.shape + (2,)).copy(),
        lambda M: linear_matrix(M), lambda fl: True,
        lambda fl: bool(np.array_equal(fl.params["M"], fl.params["M"].T)),
        (Param("M", "matrix"),), needs_p=False),
    "flat_core_p": FluxKind(_flat_core_value, _flat_core_jacobian,
                            flat_core_p, lambda fl: False, _always,
                            (Param("rho0"),)),
    "s_transformed": FluxKind(
        _s_value, _s_jacobian, lambda inner, s: s_transform(inner, s),
        lambda fl: is_linear(fl.params["inner"]),
        lambda fl: is_symmetric(fl.params["inner"]),
        (Param("inner", "flux"), Param("s")), needs_p=False),
    "weighted_sum": FluxKind(
        _sum_value, _sum_jacobian,
        lambda parts: combine(parts[0][1], parts[1][1],
                              parts[0][0], parts[1][0]),
        lambda fl: all(is_linear(f) for _, f in fl.params["parts"]),
        lambda fl: all(is_symmetric(f) for _, f in fl.params["parts"]),
        (Param("parts", "parts"),), needs_p=False),
}

# a config may also name the adversarial fixture, a linear_matrix flux
CONFIG_KINDS = {**FLUX_KINDS, "adversarial_fixture": replace(
    FLUX_KINDS["linear_matrix"], build=adversarial_fixture, params=())}


def _entry(flux: Flux) -> FluxKind:
    try:
        return FLUX_KINDS[flux.kind]
    except KeyError:
        raise InvalidInput(f"unknown flux kind {flux.kind!r}") from None


def is_linear(flux: Flux) -> bool:
    """Whether a(x, xi) is linear in xi, as its kind declares: then its
    Dirichlet problem is one linear solve."""
    return _entry(flux).linear(flux)


def is_symmetric(flux: Flux) -> bool:
    """Whether the Jacobian of a(x, xi) in xi is symmetric, as its kind
    declares: then every free block of its Dirichlet problem is."""
    return _entry(flux).symmetric(flux)


def eval_flux(flux: Flux, x, xi) -> np.ndarray:
    """Evaluate a(x, xi).  Shapes (..., 2) broadcast; returns (..., 2)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != 2 or x.shape[-1] != 2:
        raise InvalidInput("points and gradients must have trailing dim 2")
    if not np.all(np.isfinite(xi)):
        raise InvalidInput("non-finite gradient components")
    return _entry(flux).value(flux, x, xi, 0.0)


def eval_flux_smoothed(flux: Flux, x, xi, eps: float) -> np.ndarray:
    """Evaluate the eps-smoothed flux: |xi| replaced by sqrt(|xi|^2+eps^2)
    inside the formulas (flat-core positive part smoothed the same way).

    This is the solver's continuation surrogate; flux_jacobian with the same
    eps is its exact derivative.  At eps = 0 it coincides with eval_flux.
    Capacity values always use the true flux.
    """
    if eps == 0.0:
        return eval_flux(flux, x, xi)
    return _entry(flux).value(flux, np.asarray(x, dtype=float),
                              np.asarray(xi, dtype=float), eps)


def flux_jacobian(flux: Flux, x, xi, eps: float = 0.0) -> np.ndarray:
    """d a / d xi at (x, xi), shape (..., 2, 2).

    With eps > 0, |xi| is replaced by sqrt(|xi|^2 + eps^2) inside the
    derivative formulas (and the flat-core positive part is smoothed the
    same way), so the result stays bounded at the singular sets.  eval_flux
    itself is never regularized.
    """
    return _entry(flux).jacobian(flux, np.asarray(x, dtype=float),
                                 np.asarray(xi, dtype=float), eps)


# ---------------------------------------------------------------------------
# randomized structural checks


_CONDITION_NAMES = ("zero", "monotone", "coercive", "growth")


@dataclass
class ConditionReport:
    """Outcome of the randomized structural check, one entry per condition.

    ``margins`` are worst signed values normalized by the per-sample scale
    1 + |xi|^p + |eta|^p; a condition passes iff its margin >= -1e-12.
    """

    flux: dict
    n_samples: int
    seed: int
    xi_radius: float
    margins: dict[str, float]
    witnesses: dict[str, dict]
    passed: dict[str, bool]

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())

    def to_dict(self) -> dict:
        return {
            "flux": self.flux,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "xi_radius": self.xi_radius,
            "conditions": {
                name: {
                    "passed": self.passed[name],
                    "margin": self.margins[name],
                    "witness": self.witnesses[name],
                }
                for name in _CONDITION_NAMES
            },
            "all_passed": self.all_passed,
        }


MARGIN_TOL = 1e-12
# Largest accepted xi_radius^p: up to 1e150 every flux kind's check stays
# inside floating-point range; at 1e200 squared gradients overflow.
MAX_CHECK_GROWTH = 1e100


def check_conditions(flux: Flux, n_samples: int, xi_radius: float = 10.0,
                     seed: int = 0, domain_l: float = 1.0) -> ConditionReport:
    """Sample the four structural conditions and report worst margins.

    x is uniform in the domain square, xi and eta uniform in the ball of
    radius xi_radius, which must keep xi_radius^p within MAX_CHECK_GROWTH.
    """
    if n_samples < 1:
        raise InvalidInput("n_samples must be >= 1")
    top = MAX_CHECK_GROWTH ** (1.0 / flux.p)
    if not 0 < xi_radius <= top:
        raise InvalidInput(f"xi_radius must be in (0, {top:g}] for p = "
                           f"{flux.p:g}", "xi_radius")
    rng = np.random.default_rng(seed)
    n = int(n_samples)
    x = rng.uniform(0.0, domain_l, size=(n, 2))

    def ball(k):
        ang = rng.uniform(0.0, 2.0 * np.pi, size=k)
        rad = xi_radius * np.sqrt(rng.uniform(0.0, 1.0, size=k))
        return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=-1)

    xi = ball(n)
    eta = ball(n)
    p = flux.p

    a_zero = eval_flux(flux, x, np.zeros_like(xi))
    a_xi = eval_flux(flux, x, xi)
    a_eta = eval_flux(flux, x, eta)

    nxi = np.linalg.norm(xi, axis=-1)
    neta = np.linalg.norm(eta, axis=-1)
    scale = 1.0 + nxi ** p + neta ** p

    vals = {
        "zero": -np.linalg.norm(a_zero, axis=-1) / scale,
        "monotone": np.sum((a_xi - a_eta) * (xi - eta), axis=-1) / scale,
        "coercive": (np.sum(a_xi * xi, axis=-1)
                     - flux.c1 * nxi ** p + flux.b1) / scale,
        "growth": (flux.c2 * nxi ** (p - 1.0) + flux.b2
                   - np.linalg.norm(a_xi, axis=-1)) / scale,
    }

    margins, witnesses, passed = {}, {}, {}
    for name in _CONDITION_NAMES:
        k = int(np.argmin(vals[name]))
        margins[name] = float(vals[name][k])
        witnesses[name] = {
            "x": x[k].tolist(),
            "xi": xi[k].tolist(),
            "eta": eta[k].tolist(),
        }
        passed[name] = bool(margins[name] >= -MARGIN_TOL)

    return ConditionReport(
        flux=flux.describe(),
        n_samples=n,
        seed=int(seed),
        xi_radius=float(xi_radius),
        margins=margins,
        witnesses=witnesses,
        passed=passed,
    )
