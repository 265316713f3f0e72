"""Discrete monotone operator on the P1 space.

Every assembly is a product with one sparse matrix per mesh: the P1
gradient operator B, whose rows 2t and 2t+1 give the x and y gradient of a
field on triangle t.  With the flux evaluated at triangle barycenters
(one-point quadrature, exact for P1 fields when the flux has no
x-dependence) the operator pairing is

    <A u, v> = sum_T |T| a(x_T, grad u|_T) . grad v|_T
             = v^T B^T (|T| a(B u)),

so the residual is B^T (|T| a(B u)) and its Jacobian B^T D B, with D the
block diagonal of |T| times the 2x2 flux Jacobians.  Sparse products sum
in a fixed order, so identical inputs give bitwise identical outputs.

A solve's ``FreeBlock`` keeps B's rows for the triangles that touch a free
node, and those rows restricted to the free nodes in a nested-dissection
order of the grid.  The solver's residuals and Jacobians evaluate the flux
on those triangles only, and the block's LU factor needs no fill-reducing
reordering.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInput
from .flux import Flux, eval_flux, eval_flux_smoothed, flux_jacobian
from .mesh import Mesh


def _frozen(a: np.ndarray) -> np.ndarray:
    """Arrays shared by many solves must not be changed in place."""
    a.setflags(write=False)
    return a


def _gradient_operator(mesh: Mesh) -> sp.csr_matrix:
    """B, shape (2 ntri, n_nodes), cached on the mesh at first use.

    Threads sharing a fresh mesh may each build it; the builds are equal,
    so whichever lands in the cache serves them all.
    """
    key = "gradient_operator"
    if key not in mesh._cache:
        tri = mesh.triangles
        pts = mesh.nodes[tri]  # (ntri, 3, 2)
        x = pts[:, :, 0]
        y = pts[:, :, 1]
        det = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
               - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
        gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                      axis=1) / det[:, None]
        gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                      axis=1) / det[:, None]
        b = sp.csr_matrix(
            (np.stack([gx, gy], axis=1).ravel(),
             np.repeat(tri, 2, axis=0).ravel(),
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


class FreeBlock:
    """The free triangles and free nodes of one solve.

    ``nodes`` lists the free nodes in the mesh's dissection order; block
    vectors and matrices follow it, so the block of a full matrix k is
    k[nodes][:, nodes].  ``bt`` holds B's rows for the triangles with at
    least one free node (every column), ``bf`` those rows restricted to
    the columns of ``nodes``, and ``bf_t`` its transpose.  Built per solve,
    not cached on the mesh: a suite visits many free sets on one mesh.
    """

    def __init__(self, mesh: Mesh, free: np.ndarray):
        nodes = np.flatnonzero(free)
        touched = free[mesh.triangles].any(axis=1)
        self.free = free
        self.nodes = _frozen(nodes[np.argsort(_dissection_rank(mesh)[nodes])])
        self.barycenters = mesh.barycenters[touched]
        self.bt = _gradient_operator(mesh)[np.repeat(touched, 2)]
        self.bf = self.bt[:, self.nodes]
        self.bf_t = self.bf.T.tocsr()


def _operators(mesh: Mesh, block: Optional[FreeBlock]):
    """(rows of B, their barycenters, transpose of the result columns) of
    an assembly over the whole mesh, or over a block's triangles and
    nodes."""
    if block is None:
        b = _gradient_operator(mesh)
        return b, mesh.barycenters, b.T
    return block.bt, block.barycenters, block.bf_t


def residual(mesh: Mesh, flux: Flux, u: np.ndarray, eps: float = 0.0,
             block: Optional[FreeBlock] = None) -> np.ndarray:
    """r = B^T (|T| a(x_T, B u)), that is r_i = <A u, phi_i>.

    eps > 0 evaluates the smoothed flux instead (solver continuation only;
    reported capacities always use eps = 0).  With ``block`` the flux is
    evaluated only on the triangles that touch free nodes and the result
    is r[block.nodes], bitwise equal to ``residual(...)[block.nodes]``.
    """
    u = _check_field(mesh, u)
    rows, x, cols_t = _operators(mesh, block)
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


def _columns(mesh: Mesh, block: Optional[FreeBlock]):
    """C and its transpose, both CSR: C = B, or the block's ``bf``."""
    if block is None:
        b = _gradient_operator(mesh)
        return b, b.T.tocsr()
    return block.bf, block.bf_t


def _csc(k_t: sp.csr_matrix) -> sp.csc_matrix:
    """The matrix whose transpose is k_t, as CSC with sorted indices: the
    same arrays, read by columns."""
    k = k_t.T
    k.sort_indices()
    return k


def jacobian_matrix(mesh: Mesh, flux: Flux, u: np.ndarray, eps: float,
                    shift: float = 0.0, block: Optional[FreeBlock] = None
                    ) -> sp.csc_matrix:
    """Sparse Jacobian C^T D C of the residual at u, with C = B and D the
    block diagonal of |T| times the 2x2 flux Jacobians.

    ``shift`` adds shift*I to each 2x2 flux Jacobian (a Levenberg-style
    conditioning floor for degenerate fluxes; the residual itself is never
    shifted, so the converged solution is unaffected).

    With ``block``, C is the block's ``bf``: the flux Jacobian is evaluated
    only on the triangles that touch free nodes and the result is the
    free-free matrix in ``block.nodes`` order, bitwise equal to
    ``jacobian_matrix(...)[block.nodes][:, block.nodes]``.
    """
    u = _check_field(mesh, u)
    rows, x, _ = _operators(mesh, block)
    jac = flux_jacobian(flux, x, (rows @ u).reshape(-1, 2), eps=eps)
    if shift != 0.0:
        jac = jac + shift * np.eye(2)
    # D^T in CSR: row 2t + c holds column c of triangle t's 2x2 block
    k = len(x)
    d_t = sp.csr_matrix(
        ((mesh.tri_area * jac).transpose(0, 2, 1).ravel(),
         np.repeat(np.arange(2 * k).reshape(k, 2), 2, axis=0).ravel(),
         np.arange(0, 4 * k + 1, 2)), shape=(2 * k, 2 * k))
    cols, cols_t = _columns(mesh, block)
    return _csc(cols_t @ (d_t @ cols))


def p2_stiffness(mesh: Mesh,
                 block: Optional[FreeBlock] = None) -> sp.csc_matrix:
    """P1 stiffness matrix of the Laplacian, |T| B^T B, or its block
    |T| bf^T bf (the Jacobian of the p = 2 flux)."""
    cols, cols_t = _columns(mesh, block)
    # the matrix is symmetric: it is its own transpose, as _csc expects
    return _csc(mesh.tri_area * (cols_t @ cols))
