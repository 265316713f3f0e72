"""Discrete monotone operator on the P1 space.

The P1 gradient operator B, one sparse matrix per mesh, has rows 2t and
2t+1 giving the x and y gradient of a field on triangle t.  With the flux
at triangle barycenters (one-point quadrature, exact for P1 fields when
the flux has no x-dependence) <A u, v> = sum_T |T| a(x_T, grad u|_T) .
grad v|_T = v^T B^T (|T| a(B u)), so the residual is B^T (|T| a(B u)) and
its Jacobian B^T D B, D the block diagonal of |T| times the 2x2 flux
Jacobians.  A solve's ``FreeBlock`` keeps B's rows for the triangles that
touch a free node and their free columns, in a grid or nested-dissection
order picked once.  Its Jacobian and p = 2 stiffness matrix are one
bincount of the triangles' element matrices, 2x2 matrices times constant
weights of the two triangle shapes, into its 7-point stencil pattern.
Sparse products and bincounts sum in a fixed order: identical inputs give
bitwise identical outputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInput
from .flux import Flux, eval_flux, eval_flux_smoothed, flux_jacobian
from .mesh import Mesh, touched_triangles

# A free block of n nodes whose bandwidth in a grid order is at most
# BAND_C n^(1/4) is factored as a band by LAPACK, others by SuperLU in
# dissection order.  Band LU costs about n bw^2, SuperLU's dissection order
# about n^1.5 on compact blocks: the fitted crossover sends compact blocks
# above about 5,000 nodes and thin wide shapes to SuperLU (CHANGES.md).
BAND_C = 9.5

# Per triangle shape s, lower (n00, n10, n11) then upper (n00, n11, n01): h
# times the hat gradients g_a of its corners; at 3a + b the direction of
# corner a from corner b in the 7-point stencil (SW, S, W, self, E, N, NE
# numbered 0 to 6); and in _WEIGHTS[s] the weights |T| g_a[c] g_b[d] of J's
# entries 2c + d in element entry 3a + b, |T| g_a . J g_b: exact halves on
# every mesh, as |T| = h^2 / 2
_GRADIENTS = np.array([[(-1, 0), (1, -1), (0, 1)], [(0, -1), (1, 0), (-1, 1)]],
                      dtype=float)
_DIRECTIONS = np.array([[3, 2, 0, 4, 3, 1, 6, 5, 3],
                        [3, 0, 1, 6, 3, 4, 5, 2, 3]])
_WEIGHTS = np.einsum("sac,sbd->scdab", _GRADIENTS,
                     _GRADIENTS).reshape(2, 4, 9) / 2.0


def _frozen(a: np.ndarray) -> np.ndarray:
    """Arrays shared by many solves must not be changed in place."""
    a.setflags(write=False)
    return a


def _gradient_operator(mesh: Mesh) -> sp.csr_matrix:
    """B, shape (2 ntri, n_nodes), cached on the mesh at first use: per
    cell, its two triangles' hat gradients _GRADIENTS / h.

    Threads sharing a fresh mesh may each build it; the builds are equal,
    so whichever lands in the cache serves them all.
    """
    key = "gradient_operator"
    if key not in mesh._cache:
        tri = mesh.triangles
        b = sp.csr_matrix(
            (np.tile((_GRADIENTS / mesh.h).transpose(0, 2, 1).ravel(),
                     mesh.n ** 2), np.repeat(tri, 2, axis=0).ravel(),
             np.arange(0, 6 * len(tri) + 1, 3)),
            shape=(2 * len(tri), mesh.n_nodes))
        for a in (b.data, b.indices, b.indptr):
            _frozen(a)
        mesh._cache[key] = b
    return mesh._cache[key]


def gradients(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Constant P1 gradient per triangle, shape (ntri, 2)."""
    return (_gradient_operator(mesh) @ u).reshape(-1, 2)


def _check_field(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_nodes,):
        raise InvalidInput(
            f"field has {u.shape} values, mesh has {mesh.n_nodes} nodes")
    return u


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(starts[k], starts[k] + lengths[k])."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _dissect(i0: int, i1: int, j0: int, j1: int, boxes: list):
    """Append the boxes of [i0, i1) x [j0, j1) to ``boxes`` in elimination
    order: both halves, then the grid line between them."""
    w, h = i1 - i0, j1 - j0
    if w * h <= 16:
        boxes.append((i0, i1, j0, j1))
    elif w >= h:
        mid = i0 + w // 2
        _dissect(i0, mid, j0, j1, boxes)
        _dissect(mid + 1, i1, j0, j1, boxes)
        boxes.append((mid, mid + 1, j0, j1))
    else:
        mid = j0 + h // 2
        _dissect(i0, i1, j0, mid, boxes)
        _dissect(i0, i1, mid + 1, j1, boxes)
        boxes.append((i0, i1, mid, mid + 1))


def _dissection_rank(mesh: Mesh) -> np.ndarray:
    """Position of each node in a nested-dissection order of the grid,
    cached on the mesh at first use.

    Edges join nodes at most one apart in i and in j, so every grid line
    separates the nodes on its two sides.  A box of grid indices is split
    at the middle line of its longer side; the two halves are numbered
    first and the separating line last, down to boxes of at most 16 nodes
    (George, SIAM J. Numer. Anal. 10, 1973).  Restricted to any free set
    the order is still a dissection order, so a free-free block assembled
    in it factors with little fill without a reordering.
    """
    key = "dissection_rank"
    if key not in mesh._cache:
        side = mesh.n + 1
        boxes = []
        _dissect(0, side, 0, side, boxes)
        i0, i1, j0, j1 = np.array(boxes).T
        heights = j1 - j0
        # one run of consecutive node indices per grid row of each box
        rows = _runs(j0, heights)
        order = _runs(rows * side + np.repeat(i0, heights),
                      np.repeat(i1 - i0, heights))
        rank = np.empty(mesh.n_nodes, dtype=np.int64)
        rank[order] = np.arange(order.size)
        mesh._cache[key] = _frozen(rank)
    return mesh._cache[key]


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


def _block_order(mesh: Mesh, free: np.ndarray) -> np.ndarray:
    """The free nodes in grid row-major (node (i, j) at j (N+1) + i) or
    column-major order, whichever the free-free mesh edges span fewer places
    in (row-major on a tie), when that span, the bandwidth of every block
    matrix, is at most BAND_C n^(1/4); else in the mesh's dissection order,
    whose rank is built only then."""
    side = mesh.n + 1
    grid = free.reshape(side, side)          # grid[j, i] is node (i, j)
    by_row, by_column = _grid_span(grid), _grid_span(grid.T)
    nodes = np.flatnonzero(free)
    if min(by_row, by_column) > BAND_C * nodes.size ** 0.25:
        return nodes[np.argsort(_dissection_rank(mesh)[nodes])]
    if by_column < by_row:
        # column-major position k = i side + j holds node j side + i
        k = np.flatnonzero(grid.T)
        return k % side * side + k // side
    return nodes


class FreeBlock:
    """The free triangles and free nodes of one solve, built per solve and
    not cached on the mesh: a suite visits many free sets on one mesh.

    ``nodes`` lists the free nodes in ``_block_order``, so the block of a
    full matrix k is k[nodes][:, nodes].  ``bt`` holds B's rows for the
    triangles with a free node and ``bf_t`` their transposed free columns.
    Block matrices have the CSC pattern of ``pattern``: column c stores
    node c and its free stencil neighbours, rows sorted, and its data are
    bincount slots 7 c + d, d the direction of the row from node c.
    ``keys`` sends entry (a, b) of each triangle's element matrix to the
    slot of b's place and a's direction from b, which no stored entry
    reads when a or b is off the block.
    """

    def __init__(self, mesh: Mesh, free: np.ndarray):
        w = mesh.n + 3                       # row width of the padded grid
        tris = np.flatnonzero(touched_triangles(mesh, free))
        nodes = _block_order(mesh, free)
        n, k = nodes.size, tris.size
        self.free, self.nodes = free, _frozen(nodes)
        self.barycenters = mesh.barycenters.take(tris, axis=0)
        b = _gradient_operator(mesh)
        columns = b.indices.reshape(-1, 6).take(tris, axis=0)
        data = b.data.reshape(-1, 6).take(tris, axis=0).ravel()
        starts = np.arange(0, 6 * k + 1, 3, dtype=np.int32)
        self.bt = sp.csr_matrix((data, columns.ravel(), starts),
                                (2 * k, mesh.n_nodes))
        # each node's place in the block, n off it, on the grid padded by a
        # ring of n so that no stencil step wraps to another row
        padded = np.full(w * w, n, dtype=np.int32)
        at = nodes + nodes // (w - 2) * 2 + w + 1
        padded[at] = np.arange(n, dtype=np.int32)
        columns = padded.reshape(w, w)[1:-1, 1:-1].ravel().take(columns)
        # bt's columns at their places, transposed: bf_t is its first n rows
        t = sp.csr_matrix((data, columns.ravel(), starts),
                          (2 * k, n + 1)).tocsc()
        self.bf_t = sp.csr_matrix((t.data, t.indices, t.indptr[:n + 1]),
                                  (n, 2 * k))
        # column c's rows by direction d, at slot 7 c + d: in order in a
        # row-major block, sorted by scipy with the slots in the others
        rows = padded.take(at[:, None] + [-w - 1, -w, -1, 0, 1, w, w + 1])
        found = np.flatnonzero(rows < n).astype(np.int32)
        self.pattern = sp.csc_matrix((found, rows.take(found), np.searchsorted(
            found, np.arange(0, 7 * n + 1, 7)).astype(np.int32)), (n, n))
        self.pattern.sort_indices()
        # the triangles with the lower ones first, the keys in that order
        self.by_shape = np.argsort(tris % 2 == 1, kind="stable")
        self.n_lower = k - np.count_nonzero(tris % 2)
        corners = 7 * columns.take(self.by_shape, axis=0)[:, None, :3]
        keys = np.repeat(_DIRECTIONS, (self.n_lower, k - self.n_lower), 0)
        self.keys = (keys.reshape(k, 3, 3) + corners).ravel()


def residual(mesh: Mesh, flux: Flux, u: np.ndarray, eps: float = 0.0,
             block: Optional[FreeBlock] = None) -> np.ndarray:
    """r = B^T (|T| a(x_T, B u)), that is r_i = <A u, phi_i>.

    eps > 0 evaluates the smoothed flux instead (solver continuation only;
    reported capacities always use eps = 0).  With ``block`` the flux is
    evaluated only on the triangles that touch free nodes and the result
    is r[block.nodes], bitwise equal to ``residual(...)[block.nodes]``.
    """
    u = _check_field(mesh, u)
    b = _gradient_operator(mesh)
    rows, x, cols_t = ((b, mesh.barycenters, b.T) if block is None
                       else (block.bt, block.barycenters, block.bf_t))
    grads = (rows @ u).reshape(-1, 2)
    if eps == 0.0:
        a = eval_flux(flux, x, grads)
    else:
        a = eval_flux_smoothed(flux, x, grads, eps)
    return cols_t @ (mesh.tri_area * a).ravel()


def pairing(mesh: Mesh, flux: Flux, u: np.ndarray, v: np.ndarray) -> float:
    """<A u, v> as a sum over triangles of |T| a(B u) . (B v); equals
    dot(residual(u), v) to round-off."""
    u = _check_field(mesh, u)
    v = _check_field(mesh, v)
    grads_u = gradients(mesh, u)
    grads_v = gradients(mesh, v)
    a = eval_flux(flux, mesh.barycenters, grads_u)
    return float(mesh.tri_area * np.sum(a * grads_v))


def _block_matrix(block: FreeBlock, jac: np.ndarray, shift: float = 0.0):
    """The block of sum_T |T| B_T^T (J_T + shift I) B_T, J_T the block
    triangles' 2x2 matrices in jac: one bincount of the element matrices
    into the block's pattern."""
    jac = jac.reshape(-1, 4).take(block.by_shape, axis=0)
    jac[:, ::3] += shift                        # the diagonal, 0 and 3
    elements, low = np.empty((len(jac), 9)), block.n_lower
    # inf times a zero weight is NaN, as times B's stored zero gradients
    with np.errstate(invalid="ignore"):
        np.matmul(jac[:low], _WEIGHTS[0], out=elements[:low])
        np.matmul(jac[low:], _WEIGHTS[1], out=elements[low:])
    del jac                     # freed before the bincount's arrays exist
    sums = np.bincount(block.keys, elements.ravel())
    matrix = block.pattern.copy()   # owns its index arrays, as products do
    matrix.data = sums[matrix.data]
    return matrix


def jacobian_matrix(mesh: Mesh, flux: Flux, u: np.ndarray, eps: float,
                    shift: float = 0.0, *, block: FreeBlock) -> sp.csc_matrix:
    """The block of the residual's Jacobian B^T D B at u, the flux Jacobians
    of D evaluated on the block's triangles only.  ``shift`` adds shift*I
    to each (a Levenberg-style floor for degenerate fluxes; the residual is
    never shifted, so the converged solution is unaffected)."""
    return _block_matrix(block, flux_jacobian(flux, block.barycenters, (
        block.bt @ _check_field(mesh, u)).reshape(-1, 2), eps=eps), shift)


def p2_stiffness(mesh: Mesh, block: FreeBlock) -> sp.csc_matrix:
    """The block of the P1 stiffness matrix of the Laplacian on ``mesh``,
    |T| B^T B (the Jacobian of the p = 2 flux)."""
    return _block_matrix(block, np.tile(np.eye(2), (len(block.by_shape), 1)))
