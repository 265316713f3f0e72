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

Each solve works on its ``FreeBlock``: the triangles with a corner in F
and a corner outside E, and the free nodes in grid row-major or
column-major order, whichever keeps the block's band narrower.  Every
residual the solve evaluates, line-search trials and true-residual checks
included, and every Jacobian is assembled on those triangles only, and no
iterate's true residual is evaluated twice.  A block residual is exact at
every node; the steps read its free rows, and the returned field keeps the
last true one, which the capacity report reads.  The block alone decides
the route of every linear solve (``FreeBlock``): LAPACK band storage for a
block of bandwidth at most ``BAND_MAX``, whatever its size, else CSR, on
which a block of at least ``KRYLOV_MIN_NODES`` free nodes takes GMRES
steps (``FreeBlock.krylov``) and a smaller one SuperLU steps.  The flux's
kind decides the band's layout: a symmetric Jacobian (``is_symmetric``)
keeps its lower band only.  ``_direct_solve`` follows the block: a lower
band is factored in place and solved by band Cholesky (dpbsv), a general
band by band LU (dgbsv), a CSR block by SuperLU in its own fill-reducing
order; the last two pivot rows partially, for skew Jacobians.
``_NewtonState`` makes every linear solve of a solve: the start, each
Newton step and each fallback.

Off the Krylov path a solve holds no preconditioner: the blend start and
each Newton step factor their matrix, solve directly and drop the
factor.  There a linear flux (its kind says so) starts from the exact
solution of its own linear problem, so it takes no Newton step.  On a
``krylov`` block the one thing a solve holds, across Newton steps and
stages, is a smoothed-aggregation multigrid V(2,2) cycle on 3x3
aggregates, whose coarsest level is its one SuperLU factor.  The cycle,
CG and GMRES multiply by the CSR blocks as they are assembled.  The blend
start builds the cycle from the p=2 block, with the stored zeros of the
SW/NE couplings dropped, and solves the p=2 problem by CG preconditioned
with it, to an absolute tolerance for a linear flux, which then takes no
Newton step, and only to a relative one for any other flux, whose Newton
steps correct the start anyway; any other start builds the cycle from its
first Jacobian.  A Newton step solves with GMRES, right-preconditioned by
the cycle, to an Eisenstat-Walker forcing term (inexact Newton).  When
GMRES needs more than ``KRYLOV_MAX_ITER`` iterations or the line search
rejects its direction, the cycle is rebuilt from that step's Jacobian and
GMRES is tried once more; only when that fails too is the step solved
directly, from a factor of its Jacobian made after the cycle is dropped,
and the next step builds a new cycle.  Step lengths backtrack on the
free-node residual max-norm.  Convergence is always declared on the TRUE
flux residual at the same target, so reported capacities belong to the
problem actually posed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbsv, dpbsv

from .assembly import (FreeBlock, _adjoint, _check_field, _gradients,
                       jacobian_matrix, p2_stiffness, residual)
from .errors import InvalidInput, SolverDiverged
from .flux import Flux, is_linear, is_symmetric
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
KRYLOV_MAX_ITER = 20
# Eisenstat-Walker choice 2 forcing terms (SIAM J. Sci. Comput. 17, 1996)
EW_GAMMA = 0.9
EW_ALPHA = 2.0
EW_MAX = 0.1
# On the Krylov path the preconditioner is a smoothed-aggregation cycle of
# the p=2 block or of a Jacobian: levels aggregate AGGREGATE_BOX x
# AGGREGATE_BOX boxes of grid nodes down to at most COARSE_MAX_NODES nodes,
# which are factored, and smooth SMOOTHING_SWEEPS times with JACOBI_WEIGHT
# D^-1 before and after each coarse correction.  One sweep on 3x3 boxes
# failed 16 GMRES steps on the family table against two sweeps' 6
# (CHANGES.md).
COARSE_MAX_NODES = 800
JACOBI_WEIGHT = 0.6
AGGREGATE_BOX = 3
SMOOTHING_SWEEPS = 2
# The blend start's CG solve for E at level 1 stops, for a linear flux, at
# a residual 2-norm of BLEND_CG_ATOL, a tenth of the p=2 target
# 1e-10 max(1, |s|) / |s| once scaled by s: its start converges with no
# Newton step.  For any other flux it stops at BLEND_CG_RTOL times the
# right-hand side's 2-norm: on the family table 1e-3 and 1e-2 kept every
# smooth flux's Newton steps, and 3e-2 and 1e-1 added some (CHANGES.md).
BLEND_CG_ATOL = 1e-11
BLEND_CG_RTOL = 1e-2
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
    # the true residual at every node, at u: bitwise residual(mesh, flux, u)
    residual: np.ndarray
    s: float
    residual_max: float
    iterations: int
    converged: bool
    tol_res: float
    residual_history: list = dc_field(default_factory=list)


def _direct_solve(a, b, lower=False):
    """x with a x = b, from a factor that is not kept.  A banded block's
    storage is factored in place by LAPACK: the lower band of a symmetric
    block (``lower``, its ``FreeBlock.lower``) by band Cholesky, dpbsv,
    the general band by LU with partial pivoting, dgbsv.  A CSR block goes
    to SuperLU as CSC, the format it factors, which orders its columns by
    COLAMD and pivots too.
    An exactly singular pivot, or a Cholesky pivot that is not positive,
    raises RuntimeError, as SuperLU does."""
    if isinstance(a, np.ndarray):
        if lower:
            _, x, info = dpbsv(a, b, lower=1, overwrite_ab=1)
        else:
            bw = (a.shape[0] - 1) // 3
            _, _, x, info = dgbsv(bw, bw, a, b, overwrite_ab=1)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")
        return x
    return spla.splu(a.tocsc()).solve(b)


def _blend_rhs(mesh: Mesh, block: FreeBlock, u: np.ndarray) -> np.ndarray:
    """Right-hand side of the p=2 free-free problem with u's fixed values;
    u is 0 at the free nodes."""
    return -_adjoint(mesh, block, _gradients(mesh, block, u)).take(
        block.nodes)


class _Cycle:
    """A smoothed-aggregation V(2,2) cycle for a free-free CSR block a
    (Vanek, Mandel and Brezina, Computing 56, 1996), as assembled: the p=2
    block with no stored zero, or a Newton step's Jacobian that GMRES
    multiplies by, which a skew flux makes nonsymmetric.

    Each level aggregates its nodes by 3x3 boxes of grid indices, node
    (i, j) into box (i // 3, j // 3): the 7-point stencil's diameter, so
    the smoothed prolongator reaches one node past a box and each coarse
    level keeps a compact stencil of about 9 entries a row.  It smooths
    the piecewise-constant prolongator once by damped Jacobi,
    P = (I - 4/(3 rho) D^-1 a) T with rho the Gershgorin bound of D^-1 a;
    the next level is the Galerkin product P^T a P at the box indices.
    This handles odd grids and masked free sets alike.  The first level
    with at most ``COARSE_MAX_NODES`` nodes is factored by SuperLU and
    held.  A level with a diagonal entry that is not positive (a flat
    Jacobian without a floor has zero rows) has no Jacobi smoother and
    raises RuntimeError, as a singular coarsest level does.
    ``solve(b)`` applies one cycle: two damped-Jacobi sweeps before and two
    after the coarse correction, a fixed linear operator that stands in
    for a^-1, symmetric when a is, since the sweeps after mirror those
    before.  GMRES needs no symmetry of it; CG, which preconditions only
    the p=2 block with it, does.
    """

    def __init__(self, a, mesh: Mesh, block: FreeBlock):
        i, j = block.nodes % (mesh.n + 1), block.nodes // (mesh.n + 1)
        self.levels = []
        while a.shape[0] > COARSE_MAX_NODES:
            d = a.diagonal()
            if not np.all(d > 0):
                raise RuntimeError("no Jacobi smoother: a diagonal <= 0")
            rho = float(np.max(abs(a) @ np.ones(a.shape[0]) / d))
            i, j = i // AGGREGATE_BOX, j // AGGREGATE_BOX
            _, first, box = np.unique(j * (int(i.max()) + 1) + i,
                                      return_index=True, return_inverse=True)
            t = sp.csr_matrix((np.ones(box.size), box, np.arange(box.size + 1)),
                              shape=(box.size, first.size))
            p = (t - sp.diags(4.0 / (3.0 * rho) / d) @ (a @ t)).tocsr()
            p_t = p.T.tocsr()
            self.levels.append((a, JACOBI_WEIGHT / d, p, p_t))
            a = (p_t @ (a @ p)).tocsr()
            i, j = i[first], j[first]
        self.coarse = spla.splu(a.tocsc())

    def solve(self, b):
        return self._cycle(0, b)

    def _cycle(self, level, b):
        if level == len(self.levels):
            return self.coarse.solve(b)
        a, w, p, p_t = self.levels[level]
        x = w * b
        for _ in range(SMOOTHING_SWEEPS - 1):
            x += w * (b - a @ x)
        x += p @ self._cycle(level + 1, p_t @ (b - a @ x))
        for _ in range(SMOOTHING_SWEEPS):
            x += w * (b - a @ x)
        return x


def solve_dirichlet(mesh: Mesh, flux: Flux, e: NodeSet, f: NodeSet, s: float,
                    opts: Optional[SolverOptions] = None) -> PotentialField:
    """Solve for the capacitary potential of e in f at boundary level s.

    Raises IncompatiblePair when e is not inside f, SolverDiverged (carrying
    the best iterate, with its residual history) on non-convergence.
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
    # frames, and its cycle's LU factor, are freed first.
    return _solve(mesh, flux, e, f, s, replace(opts, init="linear_blend"))


def _solve(mesh: Mesh, flux: Flux, e: NodeSet, f: NodeSet, s: float,
           opts: SolverOptions) -> PotentialField:
    free = validate_pair(e, f, mesh)
    tol = opts.resolve_tol(flux, s)

    u = np.zeros(mesh.n_nodes)
    u[e.mask] = s

    def make_field(uu, r, rmax, iters, converged, history):
        return PotentialField(
            u=uu, residual=r, s=float(s), residual_max=rmax,
            iterations=iters, converged=converged, tol_res=tol,
            residual_history=history)

    # s = 0: the zero field is a potential (flux vanishes at zero gradient)
    if s == 0.0 or e.count == 0:
        u[:] = 0.0
        return make_field(u, np.zeros(mesh.n_nodes), 0.0, 0, True, [0.0])

    if not free.any():
        # an overflow shows in the report, as a non-finite capacity
        with np.errstate(over="ignore", invalid="ignore"):
            r = residual(mesh, flux, u)
        return make_field(u, r, 0.0, 0, True, [0.0])

    block = FreeBlock(mesh, e.mask, f.mask, symmetric=is_symmetric(flux))
    history: list[float] = []
    state = _NewtonState(mesh, flux, block, opts, history)
    # init "zero" starts from u as it is
    if opts.init == "linear_blend":
        u = state.blend_start(u, s)
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

    def done(uu, rmax, converged=True):
        return make_field(uu, state.true_residual(uu), rmax,
                          state.iterations, converged, history)

    if rmax <= tol:
        return done(u, rmax)
    if not math.isfinite(rmax):
        # no step can reduce a NaN or infinite max-norm
        raise SolverDiverged(
            f"the start residual is not finite ({rmax}) at s = {s!r}",
            field=done(u, rmax, converged=False))

    # fast path: damped Newton on the true flux from the given init, with a
    # small budget; this preserves initialization-dependent solutions for
    # merely monotone fluxes and costs nothing when the problem is smooth
    u, rmax = state.newton(u, residual_eps=0.0, jac_eps=FAST_JAC_EPS,
                           target=tol, max_iter=min(8, opts.max_newton))
    if rmax <= tol:
        return done(u, rmax)

    def diverged(where):
        return SolverDiverged(
            f"residual {state.best_rmax:.3e} above target {tol:.3e} after "
            f"{state.iterations} iterations; {where}",
            field=make_field(state.best_u, state.best_residual,
                             state.best_rmax, state.iterations, False,
                             history))

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
            return done(u, rmax)
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
        return done(u, rmax)

    cause = (f"max_newton = {opts.max_newton} ran out" if state.budget() <= 0
             else f"eps reached its floor {EPS_FLOOR:.0e}" if eps <= EPS_FLOOR
             else f"it made its {MAX_HOPS} hops")
    reached = ("landed no eps" if landed is None
               else f"last landed eps = {landed:.3e}")
    raise diverged(f"the continuation {reached}, then {cause}")


class _NewtonState:
    """Shared bookkeeping for the staged Newton solve.

    Every linear solve of a solve is made here: the blend start
    (``blend_start``), each Newton step and its direct fallback.
    ``cycle`` is the multigrid cycle that preconditions GMRES on a
    ``krylov`` block, held across Newton steps and stages: the blend
    start's, or one built from a step's Jacobian when none is held or when
    the held one fails that step.  It is dropped before a direct solve,
    whose factor is not kept, so one solve never holds two factors.
    """

    def __init__(self, mesh, flux, block, opts, history):
        self.mesh = mesh
        self.flux = flux
        self.block = block
        self.opts = opts
        self.history = history
        self.iterations = 0
        self.best_u = self.best_residual = None
        self.best_rmax = np.inf
        self.cycle = None
        self._true = (None, None, None, None)

    def budget(self):
        return self.opts.max_newton - self.iterations

    def blend_start(self, u, s):
        """The linear-blend start from u, which is s on E and 0 elsewhere:
        the solution of the p=2 problem with the same boundary data, cheap
        and inside the comparison cone.  Off the Krylov path it is one
        direct solve whose factor is dropped.  There a linear flux
        (``is_linear``) solves its own problem instead, one exact Newton
        step from u by ``_direct``, and falls back to the p=2 one only
        when that fails (a pure skew flux on interior nodes has a singular
        Jacobian).  On a ``krylov`` block a multigrid cycle of the p=2
        block, held as ``cycle`` for the first Newton steps, preconditions
        a CG solve for E at level 1 that is then scaled by s; CG needs the
        symmetric p=2 block.  At extreme s, CG's inner products at level s
        would underflow or overflow.  The solve is exact to
        ``BLEND_CG_ATOL`` for a linear flux and to ``BLEND_CG_RTOL``
        relative for any other, whose Newton steps move the start further
        than that."""
        mesh, block = self.mesh, self.block
        out = u.copy()
        if not block.krylov:
            x = None
            if is_linear(self.flux):
                # an overflowing residual gives a non-finite x, refused
                with np.errstate(over="ignore", invalid="ignore"):
                    r, _ = self._residual(u, 0.0)
                    x = self._direct(jacobian_matrix(mesh, self.flux, u, 0.0,
                                                     block=block), r)
            if x is None:
                x = _direct_solve(p2_stiffness(mesh, block),
                                  _blend_rhs(mesh, block, u), block.lower)
            out[block.nodes] = x
            return out
        # the SW/NE couplings of the p=2 block vanish on right triangles:
        # dropping those stored zeros leaves every product's bits and a
        # quarter fewer entries
        k = p2_stiffness(mesh, block)
        k.eliminate_zeros()
        self.cycle = _Cycle(k, mesh, block)
        m = spla.LinearOperator(k.shape, matvec=self.cycle.solve, dtype=float)
        rtol, atol = ((0.0, BLEND_CG_ATOL) if is_linear(self.flux)
                      else (BLEND_CG_RTOL, 0.0))
        x, _ = spla.cg(k, _blend_rhs(mesh, block, u / s), rtol=rtol,
                       atol=atol, maxiter=BLEND_CG_MAX_ITER, M=m)
        out[block.nodes] = s * x
        return out

    def _residual(self, u, eps):
        """The residual on the block's nodes and its max-norm.  The last
        true one is kept with its iterate, which no stage changes in place,
        and with its rows at every node, so an iterate that one stage hands
        to the next (the start to the fast pass, a hop that took no step to
        the true check, the solution to its field) is evaluated once."""
        if eps == 0.0 and self._true[0] is u:
            return self._true[1:3]
        at_nodes = residual(self.mesh, self.flux, u, eps=eps,
                            block=self.block)
        r = at_nodes.take(self.block.nodes)
        rmax = float(np.max(np.abs(r)))
        if eps == 0.0:
            self._true = (u, r, rmax, at_nodes)
        return r, rmax

    def true_rmax(self, u):
        _, rmax = self._residual(u, 0.0)
        self._track(rmax, u)
        return rmax

    def true_residual(self, u):
        """u's true residual at every node."""
        self._residual(u, 0.0)
        return self._true[3]

    def _track(self, rmax, u):
        """Keep u as the best iterate when rmax, the max-norm of its true
        residual, the last one evaluated, is the least so far."""
        if rmax < self.best_rmax:
            self.best_rmax = rmax
            self.best_u = u.copy()
            self.best_residual = self.true_residual(u)

    def _direct(self, kff, r):
        """Newton direction from a direct solve with kff, made once the
        cycle is dropped, for a step or for a linear flux's start; None
        when the factor or the direction fails."""
        self.cycle = None
        try:
            delta = _direct_solve(kff, -r, self.block.lower)
        except RuntimeError:
            return None
        return delta if np.all(np.isfinite(delta)) else None

    def _krylov_norm(self, r, rmax):
        """The 2-norm of r when a GMRES step can use it, else None."""
        if not math.isfinite(rmax):
            return None
        # finite entries can still overflow the sum of squares
        with np.errstate(over="ignore"):
            rnorm = float(np.linalg.norm(r))
        return rnorm if math.isfinite(rnorm) else None

    def _krylov_step(self, kff, r, rtol, u, rmax, residual_eps):
        """The line search's (u, r, rmax) along a GMRES direction with the
        held cycle; when none is held, or the held one fails, with a cycle
        rebuilt from kff, the CSR block that GMRES and a rebuilt cycle
        multiply by.  None when that fails too."""

        def attempt():
            delta = self._gmres(kff, r, rtol)
            return (None if delta is None
                    else self._line_search(u, delta, rmax, residual_eps))
        step = None if self.cycle is None else attempt()
        if step is None:
            self.cycle = None       # its coarse factor goes before the next
            try:
                self.cycle = _Cycle(kff, self.mesh, self.block)
            except RuntimeError:    # no smoother, or a singular coarsest level
                return None
            step = attempt()
        return step

    def _gmres(self, kff, r, rtol):
        """Newton direction from GMRES preconditioned by the held cycle, to
        relative residual rtol, with kff in CSR; None when KRYLOV_MAX_ITER
        iterations do not reach it."""
        m = self.cycle
        # right preconditioning: GMRES minimises the true residual
        # |kff delta + r| of delta = m.solve(y), the forcing term's measure
        kff_m = spla.LinearOperator(kff.shape, dtype=float,
                                    matvec=lambda y: kff @ m.solve(y))
        # with the legacy callback type, maxiter bounds the inner iterations
        # over all restarts (otherwise it counts restart cycles).  A Krylov
        # basis that overflows (a huge jacobian_floor) ends in info > 0 or a
        # non-finite direction, both refused.
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
        search accepts it, whether GMRES or a direct factor gave it."""
        opts = self.opts
        true_pass = residual_eps == 0.0
        r, rmax = self._residual(u, residual_eps)
        if true_pass:
            self._track(rmax, u)
        rnorm_prev = None
        it = 0
        while it < max_iter and self.budget() > 0 and rmax > target:
            kff = jacobian_matrix(self.mesh, self.flux, u, jac_eps,
                                  shift=opts.jacobian_floor, block=self.block)
            step = None
            rnorm = self._krylov_norm(r, rmax) if self.block.krylov else None
            if rnorm is not None:
                step = self._krylov_step(
                    kff, r, _forcing(rnorm, rnorm_prev, target), u, rmax,
                    residual_eps)
                rnorm_prev = rnorm
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
