"""Discrete monotone operator on the P1 space.

A P1 field u has on triangle T the gradient B_T u, B_T the hat gradients
of T's corners.  With the flux at triangle barycenters (one-point
quadrature, exact for P1 fields when the flux has no x-dependence)
<A u, v> = sum_T |T| a(x_T, B_T u) . B_T v, so the residual is
sum_T B_T^T (|T| a(x_T, B_T u)) and its Jacobian sum_T |T| B_T^T J_T B_T.
One kernel evaluates every residual, gradient and pairing on triangles
stored by their corners' node ids: B_T u is a gather and exact
differences, B_T^T one bincount over the node ids.  It runs on the
triangles that touch a node where u is nonzero, or on a solve's
``FreeBlock``: the triangles with a corner in F and a corner outside E,
the only ones on which a field with u = s on E and u = 0 outside F can
have a nonzero gradient, so the block residual is exact at every node
and the report reads its capacities from the solve's last one.  A block's
Jacobian is one more bincount, of element matrices straight into LAPACK
band storage on a block of bandwidth at most BAND_MAX, whatever its size
(only the lower band when the flux's Jacobian is symmetric), else into
its CSR stencil pattern, the one format that GMRES, the multigrid cycle
and CG multiply in; no scipy object is built for a banded block.  The
block also decides, once, whether its Newton steps take GMRES
(``FreeBlock.krylov``).  A
triangle whose corners all hold one value has gradient (+0, +0) or
(-0, -0) and every flux gives a(x, 0) = 0 exactly, so leaving it out
drops only exact zeros from each sum.  Bincounts sum in a fixed order, so
identical inputs give bitwise identical outputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInput
from .flux import Flux, eval_flux, eval_flux_smoothed, flux_jacobian
from .mesh import Mesh, touched_triangles

# A cell's upper triangle, its corners taken as (n11, n01, n00), is its
# lower one (n00, n10, n11) reflected through the cell's centre.  So h times
# the hat gradients g_a of the corners are _GRADIENTS or minus them, corner
# a's direction from corner b in the 7-point stencil (SW, S, W, self, E, N,
# NE: 0 to 6) is _DIRECTIONS[3a + b] or 6 minus it, and on both shapes the
# weights |T| g_a[c] g_b[d] of J's entry 2c + d in element entry 3a + b,
# exact halves as |T| = h^2 / 2, are _WEIGHTS
_GRADIENTS = np.array([(-1, 0), (1, -1), (0, 1)], dtype=float)
_DIRECTIONS = np.array([3, 2, 0, 4, 3, 1, 6, 5, 3])
_WEIGHTS = np.einsum("ac,bd->cdab", _GRADIENTS,
                     _GRADIENTS).reshape(4, 9) / 2.0
# The route of a free block's linear solves.  A block whose span (its
# bandwidth) is at most BAND_MAX is assembled as a band, which LAPACK
# factors, whatever its size; any other block is CSR.  An unbanded block
# of at least KRYLOV_MIN_NODES free nodes takes GMRES steps on a multigrid
# cycle; a smaller one, too wide for a band (crosses and frames), takes
# SuperLU steps.  Band cost grows like n bw^2, so the cap is on bw alone.
# At 76 the N = 96 annulus and thin strips at N = 1024 band; wider caps
# lost to the Krylov path: flat-core at bw 100, p = 3 at bw 154 with twice
# the memory.  Sending the small unbanded blocks to GMRES as well lost:
# flat-core on the crosses at N = 96 and 128 stopped converging, and the
# linear fluxes lost their exact start (CHANGES.md).
BAND_MAX = 76
KRYLOV_MIN_NODES = 4096


def _check_field(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_nodes,):
        raise InvalidInput(
            f"field has {u.shape} values, mesh has {mesh.n_nodes} nodes")
    return u


def _grid_span(grid: np.ndarray) -> int:
    """The most places, in row-major order of grid's True entries, that a
    mesh edge between two of them spans; edges join [r, c] to [r, c + 1],
    [r + 1, c] and [r + 1, c + 1], in grid and in its transpose alike."""
    pos = np.cumsum(grid).reshape(grid.shape)
    # an edge with an end outside the mask spans a negative distance
    hi = np.where(grid, pos, -grid.size)
    lo = np.where(grid, pos, grid.size)
    return max(0, int((hi[:, 1:] - lo[:, :-1]).max()),
               int((hi[1:] - lo[:-1]).max()),
               int((hi[1:, 1:] - lo[:-1, :-1]).max()))


def _block_order(mesh: Mesh, free: np.ndarray) -> tuple[np.ndarray, int]:
    """The free nodes in grid row-major (node (i, j) at j (N+1) + i) or
    column-major order, whichever the free-free mesh edges span fewer places
    in (row-major on a tie), and that span: every block matrix's
    bandwidth."""
    side = mesh.n + 1
    grid = free.reshape(side, side)          # grid[j, i] is node (i, j)
    by_column, by_row = _grid_span(grid.T), _grid_span(grid)
    if by_column < by_row:
        # column-major position k = i side + j holds node j side + i
        k = np.flatnonzero(grid.T)
        return k % side * side + k // side, by_column
    return np.flatnonzero(free), by_row


class _Triangles:
    """The triangles of the mask ``tris`` (an entry per mesh triangle), the
    ``n_lower`` lower ones first: their ``corners``' node ids, an upper
    one's as (n11, n01, n00), and their barycenters, all from the ids of
    their cells."""

    def __init__(self, mesh: Mesh, tris: np.ndarray):
        n = mesh.n
        lower = np.flatnonzero(tris[0::2])
        cells = np.concatenate((lower, np.flatnonzero(tris[1::2])))
        self.n_lower = nl = len(lower)
        j = cells // n
        n00 = cells + j                          # j (N+1) + i
        # a lower triangle's corners are n00 + (0, 1, N + 2), an upper
        # one's n00 + (N + 2, N + 1, 0), filled a column at a time: a
        # broadcast add over rows of 3 took ten times as long
        self.corners = np.empty((len(cells), 3), dtype=np.intp)
        for c, (low, up) in enumerate(((0, n + 2), (1, n + 1), (n + 2, 0))):
            np.add(n00[:nl], low, out=self.corners[:nl, c])
            np.add(n00[nl:], up, out=self.corners[nl:, c])
        # x by column i from row 0 of mesh.bary_rows, y by row j from row
        # 2, rows 1 and 3 on upper triangles
        rows = np.empty((len(cells), 2), dtype=np.intp)
        np.subtract(cells, n * j, out=rows[:, 0])
        np.add(j, 2 * n, out=rows[:, 1])
        rows[nl:] += n
        self.barycenters = mesh.bary_rows.take(rows)


def _gradients(mesh: Mesh, tris: _Triangles, u: np.ndarray) -> np.ndarray:
    """B_T u on each of tris, shape (k, 2): the corner value differences
    (u_1 - u_0, u_2 - u_1) over h, over -h on upper triangles."""
    u0, u1, u2 = u.take(tris.corners).T
    g = np.empty((len(u0), 2))
    np.subtract(u1, u0, out=g[:, 0])
    np.subtract(u2, u1, out=g[:, 1])
    g[:tris.n_lower] /= mesh.h
    g[tris.n_lower:] /= -mesh.h
    return g


def _adjoint(mesh: Mesh, tris: _Triangles, a: np.ndarray) -> np.ndarray:
    """sum_T B_T^T |T| a_T at each node, a_T the rows of a: with w =
    |T| a_T / h = a_T h / 2, minus that on upper triangles, the corners get
    (-w_x, w_x - w_y, w_y), summed over node ids in triangle order."""
    w = a * (mesh.h / 2)
    w[tris.n_lower:] *= -1
    wx, wy = w.T
    c = np.stack((-wx, wx - wy, wy), axis=1)
    return np.bincount(tris.corners.ravel(), c.ravel(),
                       minlength=mesh.n_nodes)


class FreeBlock(_Triangles):
    """The triangles and free nodes of one solve of E in F, built per solve
    and not cached on the mesh: a suite visits many free sets on one mesh.
    ``e`` and ``f`` are the node masks of E and F, E inside F.

    The triangles are those with a corner in F and a corner outside E.
    Every other triangle has all its corners in E or all outside F, so a
    field that is s on E and 0 outside F has a zero gradient there: the
    block residual is the residual at every node, in E and outside F too,
    bitwise.  The triangles that touch a free node are not enough when E
    reaches the boundary of F: those that join E directly to the outside
    of F carry flux out of E.  They have no free corner, so they add
    nothing to the block's matrices.

    ``nodes`` lists the free nodes, F \\ E, in ``_block_order``, so the
    block of a full matrix k is k[nodes][:, nodes], and a corner's place
    is its node's position in ``nodes``, ``size`` (dropped) off the block.

    The route of the block's linear solves is decided here alone.  A
    block whose span bw (its bandwidth) is at most BAND_MAX, whatever its
    n free nodes, is banded: ``band`` is bw and its matrices are LAPACK
    band storage in Fortran order.  For a flux whose Jacobian is
    ``symmetric`` (its kind says so) the block is too, and ``lower`` is
    True: shape (bw + 1, n), entry (r, c) with r >= c in row r - c of
    column c, for band Cholesky.  Otherwise the general band, shape
    (3 bw + 1, n), entry (r, c) in row 2 bw + r - c of column c under bw
    rows left zero for the fill of LU's row interchanges.  ``keys`` sends
    entry (a, b) of each triangle's element matrix straight to the flat
    slot of (a's place, b's place), and an entry with a or b off the
    block, or above the diagonal of a lower band, to one trailing bin.
    Any other block has ``band`` None and the CSR pattern of ``pattern``:
    row r stores node r and its free stencil neighbours, columns sorted,
    and its data are bincount slots 7 r + d, d the direction of the column
    from node r; ``keys`` sends entry (a, b) to the slot of a's place and
    b's direction from a, which no stored entry reads when a or b is off
    the block.  The stencil is symmetric, so these are also the index
    arrays of the CSC pattern.  ``krylov`` is True for an unbanded block
    of at least KRYLOV_MIN_NODES free nodes, whose Newton steps take GMRES
    on a multigrid cycle; a smaller one is factored by SuperLU.  ``keys``
    is 72 bytes a triangle either way.  For the N = 256 annulus E = disk
    r 0.1, F = disk r 0.4 (62,626 triangles, 30,876 free nodes, CSR) a
    block takes 9.1 MB, 4.5 of it in ``keys``.  The N = 48 annulus of the
    same radii (2,332 triangles, 1,084 free nodes, bw 38, banded) takes
    0.27 MB, and each of its band matrices 0.34 MB as a lower band (1.0 MB
    as a general one), where CSR would take 0.09 MB.  The widest band, a
    0.9 x 0.074 strip at N = 1024 (137,654 triangles, 67,762 free nodes,
    bw 76), takes 16.0 MB, and each band matrix 41.7 MB lower or 124 MB
    general.
    """

    def __init__(self, mesh: Mesh, e: np.ndarray, f: np.ndarray,
                 symmetric: bool = False):
        super().__init__(mesh, touched_triangles(mesh, f)
                         & touched_triangles(mesh, ~e))
        w = mesh.n + 3                       # row width of the padded grid
        nodes, span = _block_order(mesh, f & ~e)
        n = nodes.size
        nodes.setflags(write=False)
        self.nodes, self.size = nodes, n
        # each node's place in the block, n off it, on the grid padded by a
        # ring of n so that no stencil step wraps to another row
        padded = np.full(w * w, n, dtype=np.intp)
        at = nodes + nodes // (w - 2) * 2 + w + 1
        padded[at] = np.arange(n)
        places = padded.reshape(w, w)[1:-1, 1:-1].ravel().take(self.corners)
        # a's place in each triangle's element entries 3 a + b
        place_a = np.repeat(places, 3, axis=1)
        self.band = span if span <= BAND_MAX else None
        self.lower = symmetric and self.band is not None
        self.krylov = self.band is None and n >= KRYLOV_MIN_NODES
        if self.band is not None:
            # (r, c) is row top + r - c of column c: flat slot
            # c (top + bw + 1) + top + r - c
            top = 0 if self.lower else 2 * span
            place_b = np.tile(places, 3)
            off = place_a == n
            off |= place_a < place_b if self.lower else place_b == n
            place_b *= top + span
            place_b += place_a
            place_b += top
            place_b[off] = n * (top + span + 1)
            self.keys = place_b.ravel()
            return
        # row r's columns by direction d, at slot 7 r + d: in order in a
        # row-major block, sorted by scipy with the slots in the others
        cols = padded.take(at[:, None] + [-w - 1, -w, -1, 0, 1, w, w + 1])
        found = np.flatnonzero(cols < n).astype(np.int32)
        self.pattern = sp.csr_matrix((found, cols.take(found), np.searchsorted(
            found, np.arange(0, 7 * n + 1, 7)).astype(np.int32)), (n, n))
        self.pattern.sort_indices()
        # b's direction from a is 6 minus a's direction from b
        place_a *= 7
        place_a[:self.n_lower] += 6 - _DIRECTIONS
        place_a[self.n_lower:] += _DIRECTIONS
        self.keys = place_a.ravel()


def residual(mesh: Mesh, flux: Flux, u: np.ndarray, eps: float = 0.0,
             block: Optional[FreeBlock] = None) -> np.ndarray:
    """r_i = <A u, phi_i> = sum_T |T| a(x_T, grad u|_T) . grad phi_i|_T at
    every node i.

    eps > 0 evaluates the smoothed flux instead (solver continuation only;
    reported capacities always use eps = 0).  The flux is evaluated only
    on the triangles that touch a node where u is nonzero; the others add
    exact zeros, so r is bitwise the sum over the whole mesh.  With
    ``block`` it is evaluated on the block's triangles, and for a field
    that is s on E and 0 outside F, as every iterate of a solve is, r is
    bitwise ``residual(mesh, flux, u, eps)``; the solver reads its free
    rows r[block.nodes].
    """
    u = _check_field(mesh, u)
    tris = block if block is not None \
        else _Triangles(mesh, touched_triangles(mesh, u != 0))
    a = eval_flux_smoothed(flux, tris.barycenters,
                           _gradients(mesh, tris, u), eps)
    return _adjoint(mesh, tris, a)


def pairing(mesh: Mesh, flux: Flux, u: np.ndarray, v: np.ndarray) -> float:
    """<A u, v> as a sum of |T| a(grad u) . grad v over the triangles that
    touch a node where u is nonzero (a(x, 0) = 0 on the others); equals
    dot(residual(u), v) to round-off.  The self-pairing v is u takes one
    gradient pass."""
    same = v is u
    u = _check_field(mesh, u)
    tris = _Triangles(mesh, touched_triangles(mesh, u != 0))
    grads_u = _gradients(mesh, tris, u)
    grads_v = grads_u if same else _gradients(mesh, tris,
                                              _check_field(mesh, v))
    a = eval_flux(flux, tris.barycenters, grads_u)
    return float(mesh.tri_area * np.sum(a * grads_v))


def _block_matrix(block: FreeBlock, jac: np.ndarray, shift: float = 0.0):
    """The block of sum_T |T| B_T^T (J_T + shift I) B_T, J_T the 2x2
    matrices in jac (changed in place): one bincount of the element
    matrices into the block's band storage or CSR pattern."""
    jac = jac.reshape(-1, 4)
    jac[:, ::3] += shift                        # the diagonal, 0 and 3
    # inf times a zero weight is NaN, as times the zero hat gradient
    # components that a sparse B stores
    with np.errstate(invalid="ignore"):
        elements = jac @ _WEIGHTS
    del jac                     # freed before the bincount's arrays exist
    return _scatter(block, elements.ravel())


def _scatter(block: FreeBlock, elements: np.ndarray):
    """The block matrix whose slots sum ``elements``, entry 3 a + b of
    each triangle's element matrix flat in triangle order: one bincount
    into the block's band storage or CSR pattern."""
    if block.band is not None:
        size = block.size * (block.band + 1 if block.lower
                             else 3 * block.band + 1)
        sums = np.bincount(block.keys, elements, minlength=size)
        return sums[:size].reshape(block.size, -1).T
    sums = np.bincount(block.keys, elements)
    matrix = block.pattern.copy()   # owns its index arrays, as products do
    matrix.data = sums[matrix.data]
    return matrix


def jacobian_matrix(mesh: Mesh, flux: Flux, u: np.ndarray, eps: float,
                    shift: float = 0.0, *, block: FreeBlock):
    """The block of the residual's Jacobian sum_T |T| B_T^T J_T B_T at u,
    the flux Jacobians J_T evaluated on the block's triangles only, in the
    block's storage: band array or CSR matrix.
    ``shift`` adds shift*I to each (a Levenberg-style floor for degenerate
    fluxes; the residual is never shifted, so the converged solution is
    unaffected)."""
    grads = _gradients(mesh, block, _check_field(mesh, u))
    return _block_matrix(block, flux_jacobian(flux, block.barycenters, grads,
                                              eps=eps), shift)


def p2_stiffness(mesh: Mesh, block: FreeBlock):
    """The block of the P1 stiffness matrix of the Laplacian on ``mesh``,
    sum_T |T| B_T^T B_T (the Jacobian of the p = 2 flux), in the block's
    storage: J_T = I on every triangle, so every element matrix is the
    one row of weights of J's entries 0 and 3."""
    return _scatter(block, np.tile(_WEIGHTS[0] + _WEIGHTS[3],
                                   len(block.corners)))
