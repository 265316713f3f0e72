"""Dirichlet solver: find u with u = s on E, u = 0 outside F, and zero
residual at the free nodes of F \\ E.

The stages: the start, a short damped-Newton pass on the true flux (cheap
when the problem is smooth, and it preserves initialization-dependent
solutions for merely monotone fluxes), then one eps-continuation that
solves the eps-smoothed problem from EPS_START downwards with a hop ratio
fitted to the Newton basin near a flux kink.  A solve the continuation
does not finish raises SolverDiverged, whose message names the stage that
stopped, and ``solve_dirichlet`` retries a failed non-default start once
from the linear blend.  ``max_newton`` bounds the Newton steps of each
attempt.  A start whose residual is not finite raises SolverDiverged at
once.

Each solve works on its ``FreeBlock``: B_t, the rows of the mesh's
gradient operator B for the triangles that touch a free node, and B_f,
those rows restricted to the free columns.  Every residual the solve
evaluates (line-search trials and true-residual checks included) is
B_f^T (|T| a(B_t u)), with the flux evaluated on those triangles only.  The
block's rows and columns follow the order ``FreeBlock`` picked for it: a
grid order in which the block is a narrow band (every order-suite block
is), else the mesh's nested-dissection order.  ``_factor`` reads only its
matrix, block or multigrid coarsest level: when every stored entry lies
within BAND_C n^(1/4) of the diagonal it is a dense band LU (LAPACK
dgbtrf), else SuperLU in the matrix's own order (``permc_spec="NATURAL"``,
no COLAMD ordering).  Both pivot rows partially, for skew and shifted
degenerate Jacobians.

A solve holds one preconditioner at a time, across Newton steps and
stages.  On blocks below ``KRYLOV_MIN_NODES`` free nodes it is an LU
factor, at first the blend start's p=2 factor, and each Newton step factors
its free-free Jacobian B_f^T D B_f and solves directly.  On larger blocks
the blend start builds a smoothed-aggregation multigrid cycle of the p=2
block, whose coarsest level is its one LU factor, and solves the p=2
problem by CG preconditioned with it.  A Newton step then solves with
GMRES, right-preconditioned by the held preconditioner, to an
Eisenstat-Walker forcing term (inexact Newton); when GMRES needs more than
``KRYLOV_MAX_ITER`` iterations or the line search rejects its direction,
the held preconditioner is dropped and the step, like the rest of its
stage's Newton pass, is solved directly from a fresh factor, which is held
from then on.  Step lengths backtrack on the free-node residual max-norm.
Convergence is always declared on the TRUE flux residual at the same
target, so reported capacities belong to the problem actually posed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .assembly import (BAND_C, FreeBlock, _check_field, jacobian_matrix,
                       p2_stiffness, residual)
from .errors import InvalidInput, SolverDiverged
from .flux import Flux
from .mesh import Mesh, NodeSet, validate_pair

# backtracking line search: step factor, sufficient decrease, shortest step
LS_BACKTRACK = 0.5
LS_DECREASE = 1e-4
LS_MIN_STEP = 1e-8
# the fast pass smooths only its Jacobian, which keeps |xi|^(p-2) finite
FAST_JAC_EPS = 1e-10
# eps-continuation: first width and hop ratio, Newton steps per hop, limits
EPS_START = 1e-2
FIRST_HOP_RATIO = 0.1
HOP_MAX_ITER = 8
MAX_HOPS = 120
EPS_FLOOR = 1e-13
# Blocks of at least KRYLOV_MIN_NODES free nodes take GMRES steps on the
# held preconditioner.  Below about 4,000 free nodes the flat-core annulus
# solves took 0.75-1.10x the direct time (inexact steps add Newton steps);
# above it every measured p = 3 and flat-core case was faster
# (table in CHANGES.md).
KRYLOV_MIN_NODES = 4096
KRYLOV_MAX_ITER = 20
# Eisenstat-Walker choice 2 forcing terms (SIAM J. Sci. Comput. 17, 1996)
EW_GAMMA = 0.9
EW_ALPHA = 2.0
EW_MAX = 0.1
# Above the gate the held preconditioner is a smoothed-aggregation cycle of
# the p=2 block: levels coarsen to at most COARSE_MAX_NODES nodes, which are
# factored, and smooth with JACOBI_WEIGHT D^-1
COARSE_MAX_NODES = 800
JACOBI_WEIGHT = 0.6
# The blend start's CG solve for E at level 1 stops at a residual 2-norm of
# BLEND_CG_ATOL, a tenth of the p=2 target 1e-10 max(1, |s|) / |s| once
# scaled by s: p=2 starts converge with no Newton step
BLEND_CG_ATOL = 1e-11
BLEND_CG_MAX_ITER = 100


@dataclass(frozen=True)
class SolverOptions:
    tol_res: Optional[float] = None      # default 1e-10 * max(1, |s|^(p-1))
    max_newton: int = 200
    init: str = "linear_blend"           # zero | linear_blend | given | random
    init_field: Optional[np.ndarray] = None
    init_seed: int = 0
    jacobian_floor: float = 1e-9         # conditioning shift, see ledger

    def __post_init__(self):
        # a negative budget, a non-finite or negative floor, or an infinite
        # target would let a solve report itself converged without a
        # Newton step that earns it
        if self.tol_res is not None and not 0 < self.tol_res < math.inf:
            raise InvalidInput("tol_res must be positive and finite",
                               "tol_res")
        for name in ("max_newton", "init_seed"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer))
                    and not isinstance(value, bool) and value >= 0):
                raise InvalidInput(f"{name} must be an integer >= 0", name)
        if not 0 <= self.jacobian_floor < math.inf:
            raise InvalidInput("jacobian_floor must be finite and >= 0",
                               "jacobian_floor")
        if self.init not in ("zero", "linear_blend", "given", "random"):
            raise InvalidInput("init must be zero|linear_blend|given|random",
                               "init")
        if self.init == "given" and self.init_field is None:
            raise InvalidInput("init='given' requires init_field", "init")

    def resolve_tol(self, flux: Flux, s: float) -> float:
        if self.tol_res is not None:
            return self.tol_res
        try:
            tol = 1e-10 * max(1.0, abs(s) ** (flux.p - 1.0))
        except OverflowError:
            tol = math.inf
        if not math.isfinite(tol):
            raise InvalidInput(f"|s|^(p-1) overflows at s = {s!r}, "
                               f"p = {flux.p!r}", "s")
        return tol


@dataclass
class PotentialField:
    """A solved (or best-effort) capacitary potential with diagnostics."""

    u: np.ndarray
    s: float
    e_name: str
    f_name: str
    mesh_id: str
    residual_max: float
    iterations: int
    converged: bool
    tol_res: float
    residual_history: list = dc_field(default_factory=list)
    touches_outer_boundary: bool = False


def _factor(a):
    """LU factor of a CSC matrix a: a banded LU when its stored entries lie
    within BAND_C n^(1/4) of the diagonal, else SuperLU in a's own order."""
    n = a.shape[0]
    col = np.repeat(np.arange(n), np.diff(a.indptr))
    below = a.indices - col
    # initial=0: a Jacobian may store no entry at all
    kl, ku = int(below.max(initial=0)), -int(below.min(initial=0))
    if max(kl, ku) <= BAND_C * n ** 0.25:
        return _BandLU(a, col, below, kl, ku)
    return spla.splu(a, permc_spec="NATURAL")


class _BandLU:
    """LU factor with partial pivoting (LAPACK dgbtrf) of a CSC matrix a
    whose stored entries sit at (col + below, col), kl below and ku above
    the diagonal at most; ``solve`` works like a SuperLU factor's.  An
    exactly singular pivot raises RuntimeError, as SuperLU does."""

    def __init__(self, a, col, below, kl, ku):
        n = a.shape[0]
        # LAPACK band storage: entry (r, c) in row kl + ku + r - c of
        # column c, under kl rows kept for the fill of row interchanges;
        # built as its transpose in C order, the Fortran-ordered array that
        # dgbtrf factors in place
        rows = 2 * kl + ku + 1
        ab = np.zeros(n * rows)
        ab[col * rows + below + (kl + ku)] = a.data
        self.lu, self.piv, info = dgbtrf(ab.reshape(n, rows).T, kl, ku,
                                         overwrite_ab=1)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")
        self.kl, self.ku = kl, ku

    def solve(self, b):
        return dgbtrs(self.lu, self.kl, self.ku, b, self.piv)[0]


def _blend_rhs(mesh: Mesh, block: FreeBlock, u: np.ndarray) -> np.ndarray:
    """Right-hand side of the p=2 free-free problem with u's fixed values."""
    fixed = np.where(block.free, 0.0, u)
    return -mesh.tri_area * (block.bf_t @ (block.bt @ fixed))


def _linear_blend_init(mesh: Mesh, block: FreeBlock, u: np.ndarray, s: float):
    """Solve the p=2 problem with the same boundary data; cheap and inside
    the comparison cone.  Returns the start and the preconditioner that the
    first Newton steps on large blocks hold: below ``KRYLOV_MIN_NODES`` free
    nodes the p=2 LU factor, which gives the start directly; above it a
    multigrid cycle of the p=2 block, which preconditions a CG solve for E
    at level 1 that is then scaled by s.  At extreme s, CG's inner products
    at level s would underflow or overflow."""
    k = p2_stiffness(mesh, block)
    out = u.copy()
    if block.nodes.size < KRYLOV_MIN_NODES:
        lu = _factor(k)
        out[block.nodes] = lu.solve(_blend_rhs(mesh, block, u))
        return out, lu
    # k is symmetric, so its transpose is k itself in CSR, the format the
    # cycle's products and CG's matvecs run fastest in
    k = k.T
    cycle = _Cycle(k, block.nodes % (mesh.n + 1), block.nodes // (mesh.n + 1))
    m = spla.LinearOperator(k.shape, matvec=cycle.solve, dtype=float)
    x, _ = spla.cg(k, _blend_rhs(mesh, block, u / s), rtol=0.0,
                   atol=BLEND_CG_ATOL, maxiter=BLEND_CG_MAX_ITER, M=m)
    out[block.nodes] = s * x
    return out, cycle


class _Cycle:
    """A smoothed-aggregation V(1,1) cycle for a symmetric positive
    definite free-free block a (Vanek, Mandel and Brezina, Computing 56,
    1996), given the grid indices (i, j) of its nodes.

    Each level aggregates its nodes by 2x2 boxes of grid indices, node
    (i, j) into box (i // 2, j // 2), and smooths the piecewise-constant
    prolongator once by damped Jacobi, P = (I - 4/(3 rho) D^-1 a) T with rho
    the Gershgorin bound of D^-1 a; the next level is the Galerkin product
    P^T a P at the box indices.  This handles odd grids and masked free
    sets alike.  The first level with at most ``COARSE_MAX_NODES`` nodes is
    factored.  ``solve(b)`` applies one cycle: damped-Jacobi pre- and
    post-smoothing around the coarse correction, a fixed symmetric linear
    operator that stands in for a^-1 as a held LU factor would.
    """

    def __init__(self, a, i, j):
        # only solves above the gate build a hierarchy; moncap.assembly has
        # loaded scipy.sparse already
        import scipy.sparse as sp
        self.levels = []
        while a.shape[0] > COARSE_MAX_NODES:
            d = a.diagonal()
            rho = float(np.max(abs(a) @ np.ones(a.shape[0]) / d))
            i, j = i // 2, j // 2
            _, first, box = np.unique(j * (int(i.max()) + 1) + i,
                                      return_index=True, return_inverse=True)
            t = sp.csr_matrix((np.ones(box.size), box, np.arange(box.size + 1)),
                              shape=(box.size, first.size))
            p = (t - sp.diags(4.0 / (3.0 * rho) / d) @ (a @ t)).tocsr()
            p_t = p.T.tocsr()
            self.levels.append((a, JACOBI_WEIGHT / d, p, p_t))
            a = (p_t @ (a @ p)).tocsr()
            i, j = i[first], j[first]
        self.coarse = _factor(a.tocsc())

    def solve(self, b):
        return self._cycle(0, b)

    def _cycle(self, level, b):
        if level == len(self.levels):
            return self.coarse.solve(b)
        a, w, p, p_t = self.levels[level]
        x = w * b
        x += p @ self._cycle(level + 1, p_t @ (b - a @ x))
        x += w * (b - a @ x)
        return x


def solve_dirichlet(mesh: Mesh, flux: Flux, e: NodeSet, f: NodeSet, s: float,
                    opts: Optional[SolverOptions] = None) -> PotentialField:
    """Solve for the capacitary potential of e in f at boundary level s.

    Raises IncompatiblePair when e is not inside f, SolverDiverged (carrying
    the best iterate and residual history) on non-convergence.
    """
    opts = opts or SolverOptions()
    try:
        return _solve(mesh, flux, e, f, s, opts)
    except SolverDiverged:
        if opts.init == "linear_blend":
            raise
    # the initialization is a hint, not a semantic: when a warm start,
    # zero, or random basin start fails, retry once from the default blend
    # (for merely monotone fluxes any converged solution carries the same
    # capacity).  The retry runs after the handler, so the failed attempt's
    # frames, and its LU factor, are freed first.
    return _solve(mesh, flux, e, f, s, replace(opts, init="linear_blend"))


def _solve(mesh: Mesh, flux: Flux, e: NodeSet, f: NodeSet, s: float,
           opts: SolverOptions) -> PotentialField:
    vp = validate_pair(e, f, mesh)
    free = vp.free_mask
    tol = opts.resolve_tol(flux, s)

    u = np.zeros(mesh.n_nodes)
    u[e.mask] = s

    def make_field(uu, rmax, iters, converged, history):
        return PotentialField(
            u=uu, s=float(s), e_name=e.name, f_name=f.name,
            mesh_id=mesh.mesh_id, residual_max=rmax, iterations=iters,
            converged=converged, tol_res=tol, residual_history=history,
            touches_outer_boundary=vp.touches_outer_boundary)

    # s = 0: the zero field is a potential (flux vanishes at zero gradient)
    if s == 0.0 or e.count == 0:
        u[:] = 0.0
        return make_field(u, 0.0, 0, True, [0.0])

    if not free.any():
        return make_field(u, 0.0, 0, True, [0.0])

    block = FreeBlock(mesh, free)
    history: list[float] = []
    state = _NewtonState(mesh, flux, block, opts, history)
    # init "zero" starts from u as it is
    if opts.init == "linear_blend":
        u, state.precond = _linear_blend_init(mesh, block, u, s)
    elif opts.init == "given":
        u = _check_field(mesh, opts.init_field).copy()
        u[e.mask] = s
        u[~f.mask] = 0.0
    elif opts.init == "random":
        rng = np.random.default_rng(opts.init_seed)
        lo, hi = min(0.0, s), max(0.0, s)
        u[free] = rng.uniform(lo, hi, size=int(free.sum()))

    # a start that overflows is rejected just below as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        rmax = state.true_rmax(u)
    if rmax <= tol:
        return make_field(u, rmax, 0, True, history)
    if not math.isfinite(rmax):
        # no step can reduce a NaN or infinite max-norm
        raise SolverDiverged(
            f"the start residual is not finite ({rmax}) at s = {s!r}",
            field=make_field(u, rmax, 0, False, history), history=history)

    # fast path: damped Newton on the true flux from the given init, with a
    # small budget; this preserves initialization-dependent solutions for
    # merely monotone fluxes and costs nothing when the problem is smooth
    u, rmax = state.newton(u, residual_eps=0.0, jac_eps=FAST_JAC_EPS,
                           target=tol, max_iter=min(8, opts.max_newton))
    if rmax <= tol:
        return make_field(u, rmax, state.iterations, True, history)

    def diverged(where):
        return SolverDiverged(
            f"residual {state.best_rmax:.3e} above target {tol:.3e} after "
            f"{state.iterations} iterations; {where}",
            field=make_field(state.best_u, state.best_rmax, state.iterations,
                             False, history),
            history=history)

    if state.budget() <= 0:
        raise diverged("max_newton ran out in the fast pass")

    # continuation: solve the eps-smoothed problem (the regularized Jacobian
    # is its exact derivative), warm-starting downwards from EPS_START.
    # Near a flux kink the Newton basin of the smoothed problem shrinks with
    # eps, so a fixed factor-10 descent can outrun it: the hop ratio grows
    # after landed hops and relaxes toward 1 after stalls (partial progress
    # is kept either way), and every arrival is checked against the true
    # residual.  The smoothed-vs-true residual gap is O(h * eps^(p-1)), so
    # small widths certify true convergence.
    eps, ratio, hops = EPS_START, FIRST_HOP_RATIO, 0
    target = max(tol / 10.0, eps * eps)
    u, smax = state.newton(u, residual_eps=eps, jac_eps=eps, target=target,
                           max_iter=HOP_MAX_ITER)
    landed = eps if smax <= target * 1.001 else None
    while state.budget() > 0 and hops < MAX_HOPS:
        hops += 1
        rmax = state.true_rmax(u)
        if rmax <= tol:
            return make_field(u, rmax, state.iterations, True, history)
        if eps <= EPS_FLOOR:
            break
        eps_next = ratio * eps
        target_next = max(tol / 10.0, eps_next * eps_next)
        u, smax = state.newton(u, residual_eps=eps_next, jac_eps=eps_next,
                               target=target_next, max_iter=HOP_MAX_ITER)
        if smax <= target_next * 1.001:
            eps = landed = eps_next
            ratio = max(0.5 * ratio, 0.05)
        else:
            ratio = min(ratio ** 0.5, 0.7)
    rmax = state.true_rmax(u)
    if rmax <= tol:
        return make_field(u, rmax, state.iterations, True, history)

    cause = (f"max_newton = {opts.max_newton} ran out" if state.budget() <= 0
             else f"eps reached its floor {EPS_FLOOR:.0e}" if eps <= EPS_FLOOR
             else f"it made its {MAX_HOPS} hops")
    reached = ("landed no eps" if landed is None
               else f"last landed eps = {landed:.3e}")
    raise diverged(f"the continuation {reached}, then {cause}")


class _NewtonState:
    """Shared bookkeeping for the staged Newton solve.

    ``precond`` is the held preconditioner: the blend start's p=2 LU factor
    or multigrid cycle at first, later the last LU factor made.  It is held
    across Newton steps and stages to precondition GMRES on large blocks,
    and dropped before the next factor is made, so one solve never holds
    two factors.
    """

    def __init__(self, mesh, flux, block, opts, history):
        self.mesh = mesh
        self.flux = flux
        self.block = block
        self.opts = opts
        self.history = history
        self.iterations = 0
        self.best_u = None
        self.best_rmax = np.inf
        self.precond = None

    def budget(self):
        return self.opts.max_newton - self.iterations

    def _residual(self, u, eps):
        """The residual on the block's nodes and its max-norm."""
        r = residual(self.mesh, self.flux, u, eps=eps, block=self.block)
        return r, float(np.max(np.abs(r)))

    def true_rmax(self, u):
        _, rmax = self._residual(u, 0.0)
        self._track(rmax, u)
        return rmax

    def _track(self, rmax, u):
        if rmax < self.best_rmax:
            self.best_rmax = rmax
            self.best_u = u.copy()

    def _direct(self, kff, r):
        """Newton direction from a fresh LU factor of kff, which becomes
        the held preconditioner; None when the factor or the direction
        fails."""
        self.precond = None
        try:
            self.precond = _factor(kff)
        except RuntimeError:
            return None
        delta = self.precond.solve(-r)
        return delta if np.all(np.isfinite(delta)) else None

    def _krylov_norm(self, r, rmax):
        """The 2-norm of r when a GMRES step can use it (a held
        preconditioner, a finite norm), else None."""
        if self.precond is None or not math.isfinite(rmax):
            return None
        # finite entries can still overflow the sum of squares
        with np.errstate(over="ignore"):
            rnorm = float(np.linalg.norm(r))
        return rnorm if math.isfinite(rnorm) else None

    def _gmres(self, kff, r, rtol):
        """Newton direction from GMRES preconditioned by the held
        preconditioner, to relative residual rtol; None when
        KRYLOV_MAX_ITER iterations do not reach it."""
        m = self.precond
        # right preconditioning: GMRES minimises the true residual
        # |kff delta + r| of delta = m.solve(y), the forcing term's measure
        kff_m = spla.LinearOperator(kff.shape, dtype=float,
                                    matvec=lambda y: kff @ m.solve(y))
        # with the legacy callback type, maxiter bounds the inner iterations
        # over all restarts (otherwise it counts restart cycles).  A Krylov
        # basis that overflows (a huge jacobian_floor against the p=2
        # preconditioner) ends in info > 0 or a non-finite direction, both refused.
        with np.errstate(over="ignore", invalid="ignore"):
            y, info = spla.gmres(kff_m, -r, rtol=rtol,
                                 restart=KRYLOV_MAX_ITER,
                                 maxiter=KRYLOV_MAX_ITER,
                                 callback=lambda _: None,
                                 callback_type="legacy")
            if info != 0:
                return None
            delta = m.solve(y)
        return delta if np.all(np.isfinite(delta)) else None

    def _line_search(self, u, delta, rmax, residual_eps):
        """Backtrack along delta to a sufficient decrease of the max-norm;
        (u, r, rmax) there, or None when no step length gives one."""
        t = 1.0
        while t >= LS_MIN_STEP:
            u_try = u.copy()
            u_try[self.block.nodes] += t * delta
            r_try, rmax_try = self._residual(u_try, residual_eps)
            if rmax_try <= (1.0 - LS_DECREASE * t) * rmax:
                return u_try, r_try, rmax_try
            t *= LS_BACKTRACK
        return None

    def newton(self, u, residual_eps, jac_eps, target, max_iter):
        """Damped Newton on the residual at smoothing residual_eps; returns
        (u, last rmax of that residual).  Tracks the best TRUE iterate only
        when iterating the true residual.  A step counts only once the line
        search accepts it, whether GMRES or a fresh factor gave it."""
        opts = self.opts
        true_pass = residual_eps == 0.0
        r, rmax = self._residual(u, residual_eps)
        if true_pass:
            self._track(rmax, u)
        rnorm_prev = None
        krylov = self.block.nodes.size >= KRYLOV_MIN_NODES
        it = 0
        while it < max_iter and self.budget() > 0 and rmax > target:
            kff = jacobian_matrix(self.mesh, self.flux, u, jac_eps,
                                  shift=opts.jacobian_floor, block=self.block)
            step = None
            rnorm = self._krylov_norm(r, rmax) if krylov else None
            if rnorm is not None:
                delta = self._gmres(kff, r, _forcing(rnorm, rnorm_prev,
                                                     target))
                rnorm_prev = rnorm
                if delta is not None:
                    step = self._line_search(u, delta, rmax, residual_eps)
                # near a flux kink the Jacobian changes faster than a
                # factor stays useful: after one failure the rest of the
                # pass is direct
                krylov = step is not None
            if step is None:
                delta = self._direct(kff, r)
                if delta is None:
                    break
                step = self._line_search(u, delta, rmax, residual_eps)
                if step is None:
                    break
            u, r, rmax = step
            self.history.append(rmax)
            if true_pass:
                self._track(rmax, u)
            self.iterations += 1
            it += 1
        return u, rmax


def _forcing(rnorm, rnorm_prev, target):
    """Eisenstat-Walker choice 2, gamma (|r_k| / |r_k-1|)^alpha, at most
    EW_MAX; EW_MAX at the first step of a pass.  Their safeguard
    max(eta, gamma eta_prev^alpha) applies only when gamma eta_prev^alpha
    exceeds 0.1, which eta_prev <= EW_MAX rules out.  The floor
    0.5 target / |r_k| (Kelley, 1995) stops the last step from solving past
    the target: the 2-norm bounds the max-norm the target is measured in."""
    eta = EW_MAX
    if rnorm_prev is not None:
        eta = min(eta, EW_GAMMA * (rnorm / rnorm_prev) ** EW_ALPHA)
    return min(EW_MAX, max(eta, 0.5 * target / rnorm))
