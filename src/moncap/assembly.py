"""Discrete monotone operator on the P1 space.

The operator pairing is <A u, v> = sum_T |T| a(x_T, grad u|_T) . grad v|_T
with the flux evaluated at triangle barycenters (one-point quadrature,
exact for P1 fields when the flux has no x-dependence).  The residual
vector r_i = <A u, phi_i> is assembled by a fixed-order scatter, so
identical inputs give bitwise identical outputs.

Matrices are filled, not rebuilt: the mesh caches its CSR pattern and the
slot of each element-block entry in it, and one ``bincount`` per call sums
the blocks into the data array.  A solve's ``FreeBlock`` does the same for
the free-free block, from only the triangles that touch free nodes, with the
free nodes numbered in a nested-dissection order of the grid so that its LU
factor needs no fill-reducing reordering.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInput
from .flux import Flux, eval_flux, eval_flux_smoothed, flux_jacobian
from .mesh import Mesh


def _gradient_coefficients(mesh: Mesh) -> np.ndarray:
    """Per-triangle 2x3 matrices G with grad u|_T = G @ u[tri]."""
    key = "grad_coeff"
    if key not in mesh._cache:
        pts = mesh.nodes[mesh.triangles]  # (ntri, 3, 2)
        x = pts[:, :, 0]
        y = pts[:, :, 1]
        det = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
               - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
        gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                      axis=1) / det[:, None]
        gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                      axis=1) / det[:, None]
        mesh._cache[key] = np.stack([gx, gy], axis=1)  # (ntri, 2, 3)
    return mesh._cache[key]


class _Pattern(NamedTuple):
    indptr: np.ndarray    # CSR row pointers, (n_nodes + 1,)
    indices: np.ndarray   # CSR column indices, sorted within each row
    slots: np.ndarray     # (ntri, 9): CSR slot of each element-block entry


def _frozen(a: np.ndarray) -> np.ndarray:
    """Index arrays shared by many matrices must not be sorted in place."""
    a.setflags(write=False)
    return a


def gradients(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Constant P1 gradient per triangle, shape (ntri, 2)."""
    g = _gradient_coefficients(mesh)
    vals = u[mesh.triangles]  # (ntri, 3)
    return np.einsum("tck,tk->tc", g, vals)


def _check_field(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_nodes,):
        raise InvalidInput(
            f"field has {u.shape} values, mesh has {mesh.n_nodes} nodes")
    return u


def residual(mesh: Mesh, flux: Flux, u: np.ndarray,
             eps: float = 0.0) -> np.ndarray:
    """r_i = sum_T |T| a(x_T, grad u|_T) . grad phi_i|_T.

    eps > 0 evaluates the smoothed flux instead (solver continuation only;
    reported capacities always use eps = 0).
    """
    u = _check_field(mesh, u)
    g = _gradient_coefficients(mesh)
    grads = gradients(mesh, u)
    if eps == 0.0:
        a = eval_flux(flux, mesh.barycenters, grads)  # (ntri, 2)
    else:
        a = eval_flux_smoothed(flux, mesh.barycenters, grads, eps)
    contrib = mesh.tri_area * np.einsum("tc,tck->tk", a, g)  # (ntri, 3)
    r = np.zeros(mesh.n_nodes)
    for k in range(3):
        np.add.at(r, mesh.triangles[:, k], contrib[:, k])
    return r


def pairing(mesh: Mesh, flux: Flux, u: np.ndarray, v: np.ndarray) -> float:
    """<A u, v>; equals dot(residual(u), v) to round-off."""
    u = _check_field(mesh, u)
    v = _check_field(mesh, v)
    grads_u = gradients(mesh, u)
    grads_v = gradients(mesh, v)
    a = eval_flux(flux, mesh.barycenters, grads_u)
    return float(mesh.tri_area * np.sum(a * grads_v))


def jacobian_apply(mesh: Mesh, flux: Flux, u: np.ndarray, w: np.ndarray,
                   eps: float) -> np.ndarray:
    """Directional derivative of residual at u in direction w; linear in w."""
    u = _check_field(mesh, u)
    w = _check_field(mesh, w)
    g = _gradient_coefficients(mesh)
    grads_u = gradients(mesh, u)
    grads_w = gradients(mesh, w)
    jac = flux_jacobian(flux, mesh.barycenters, grads_u, eps=eps)  # (ntri,2,2)
    dg = np.einsum("tcd,td->tc", jac, grads_w)
    contrib = mesh.tri_area * np.einsum("tc,tck->tk", dg, g)
    out = np.zeros(mesh.n_nodes)
    for k in range(3):
        np.add.at(out, mesh.triangles[:, k], contrib[:, k])
    return out


def _pattern(mesh: Mesh) -> _Pattern:
    """CSR pattern of the P1 operator, cached on the mesh at first use.

    Threads sharing a fresh mesh may each build it; the builds are equal,
    so whichever lands in the cache serves them all (as for the gradient
    coefficients and the p=2 stiffness matrix).
    """
    key = "pattern"
    if key not in mesh._cache:
        n = mesh.n_nodes
        tri = mesh.triangles
        rows = np.repeat(tri, 3, axis=1).ravel()
        cols = np.tile(tri, (1, 3)).ravel()
        entries = rows * n + cols
        # np.unique(entries, return_inverse=True), from one stable sort
        order = np.argsort(entries, kind="stable")
        ordered = entries[order]
        first = np.empty(ordered.size, dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        keys = ordered[first]
        itype = np.int32 if max(n, keys.size) < 2 ** 31 else np.int64
        slots = np.empty(entries.size, dtype=itype)
        slots[order] = np.cumsum(first, dtype=itype) - 1
        indptr = np.zeros(n + 1, dtype=itype)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        mesh._cache[key] = _Pattern(
            _frozen(indptr), _frozen((keys % n).astype(itype)),
            _frozen(slots.reshape(-1, 9)))
    return mesh._cache[key]


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
    """Free-free block of the operator for one solve.

    ``nodes`` lists the free nodes in the mesh's dissection order; the
    block's rows and columns follow it, so the block of a matrix k is
    k[nodes][:, nodes], and vectors paired with its factor are gathered
    and scattered through ``nodes``.  Holds the triangles with at least one
    free node, a map from their element-block entries to the slots of the
    free-free CSC matrix (entries in a fixed row or column go to a spare
    slot that is dropped), and that matrix's index arrays.  Built per
    solve, not cached on the mesh: a suite visits many free sets on one
    mesh.
    """

    def __init__(self, mesh: Mesh, free: np.ndarray):
        pat = _pattern(mesh)
        nnz = pat.indices.size
        n = mesh.n_nodes
        ids = np.arange(1, nnz + 1, dtype=pat.slots.dtype)
        marker = sp.csr_matrix((ids, pat.indices, pat.indptr), shape=(n, n))
        nodes = np.flatnonzero(free)
        nodes = nodes[np.argsort(_dissection_rank(mesh)[nodes])]
        sub = marker[nodes][:, nodes].tocsc()
        self.free = free
        self.nodes = _frozen(nodes)
        self.shape = sub.shape
        self.indptr = _frozen(sub.indptr)
        self.indices = _frozen(sub.indices)
        # full-pattern CSR slot of each free-free CSC slot
        self.gather = sub.data - 1
        to_block = np.full(nnz, self.gather.size, dtype=pat.slots.dtype)
        to_block[self.gather] = np.arange(self.gather.size)
        self.tri_mask = free[mesh.triangles].any(axis=1)
        self.slots = to_block[pat.slots[self.tri_mask]].ravel()
        self.triangles = mesh.triangles[self.tri_mask]
        self.barycenters = mesh.barycenters[self.tri_mask]
        self.grad_coeff = _gradient_coefficients(mesh)[self.tri_mask]

    def _csc(self, data: np.ndarray) -> sp.csc_matrix:
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def take(self, k: sp.csr_matrix) -> sp.csc_matrix:
        """k[nodes][:, nodes] of a matrix assembled on the mesh pattern."""
        return self._csc(k.data[self.gather])

    def assemble(self, blocks: np.ndarray) -> sp.csc_matrix:
        data = np.bincount(self.slots, weights=blocks.ravel(),
                           minlength=self.gather.size + 1)
        return self._csc(data[:-1])


def _element_blocks(mesh: Mesh, g: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """block_kl = |T| g_k^T . jac . g_l, shape (ntri, 3, 3)."""
    return mesh.tri_area * (g.transpose(0, 2, 1) @ (jac @ g))


def _full_matrix(mesh: Mesh, blocks: np.ndarray) -> sp.csr_matrix:
    pat = _pattern(mesh)
    data = np.bincount(pat.slots.ravel(), weights=blocks.ravel(),
                       minlength=pat.indices.size)
    return sp.csr_matrix((data, pat.indices, pat.indptr),
                         shape=(mesh.n_nodes, mesh.n_nodes))


def jacobian_matrix(mesh: Mesh, flux: Flux, u: np.ndarray, eps: float,
                    shift: float = 0.0, block: Optional[FreeBlock] = None
                    ) -> sp.csr_matrix | sp.csc_matrix:
    """Assembled sparse Jacobian of the residual at u.

    ``shift`` adds shift*I to the per-triangle 2x2 flux Jacobian (a
    Levenberg-style conditioning floor for degenerate fluxes; the residual
    itself is never shifted, so the converged solution is unaffected).

    Without ``block`` the result is the full CSR matrix.  With it, the flux
    Jacobian is evaluated only on the triangles that touch free nodes and
    the result is the free-free CSC matrix in ``block.nodes`` order, bitwise
    equal to ``jacobian_matrix(...)[block.nodes][:, block.nodes]``.
    """
    u = _check_field(mesh, u)
    if block is None:
        g, tri, x = _gradient_coefficients(mesh), mesh.triangles, \
            mesh.barycenters
    else:
        g, tri, x = block.grad_coeff, block.triangles, block.barycenters
    grads_u = np.einsum("tck,tk->tc", g, u[tri])
    jac = flux_jacobian(flux, x, grads_u, eps=eps)
    if shift != 0.0:
        jac = jac + shift * np.eye(2)
    blocks = _element_blocks(mesh, g, jac)
    if block is None:
        return _full_matrix(mesh, blocks)
    return block.assemble(blocks)


def p2_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """P1 stiffness matrix of the Laplacian, cached on the mesh."""
    key = "p2_stiffness"
    if key not in mesh._cache:
        g = _gradient_coefficients(mesh)
        mesh._cache[key] = _full_matrix(
            mesh, _element_blocks(mesh, g, np.eye(2)))
    return mesh._cache[key]
