"""Reference assemblies for the tests, independent of the free-block
stencil kernel: whole-mesh matrices as scipy sparse products with the
mesh's P1 gradient operator B, and the stored pattern of a free block
read off the mesh's triangles."""

import numpy as np
import scipy.sparse as sp

from moncap.assembly import _gradient_operator
from moncap.flux import flux_jacobian


def _csc(k):
    k = k.tocsc()
    k.sort_indices()
    return k


def operator_reference(mesh, jac):
    """B^T D B over the whole mesh, D the block diagonal of |T| times the
    2x2 matrices jac, one per triangle."""
    b = _gradient_operator(mesh)
    k = len(jac)
    d = sp.csr_matrix(
        ((mesh.tri_area * jac).ravel(),
         np.repeat(np.arange(2 * k).reshape(k, 2), 2, axis=0).ravel(),
         np.arange(0, 4 * k + 1, 2)), shape=(2 * k, 2 * k))
    return _csc(b.T @ (d @ b))


def jacobian_reference(mesh, flux, u, eps, shift=0.0):
    """The residual's Jacobian B^T D B over the whole mesh, with the flux
    Jacobians (plus shift I) at the triangle barycenters."""
    b = _gradient_operator(mesh)
    jac = flux_jacobian(flux, mesh.barycenters, (b @ u).reshape(-1, 2),
                        eps=eps)
    return operator_reference(mesh, jac + shift * np.eye(2))


def p2_reference(mesh):
    """|T| B^T B over the whole mesh."""
    b = _gradient_operator(mesh)
    return _csc(mesh.tri_area * (b.T @ b))


def sub_block(k, nodes):
    """k[nodes][:, nodes] as CSC with sorted row indices."""
    return _csc(k[nodes][:, nodes])


def pattern_reference(mesh, nodes):
    """(indptr, indices) of a free block in ``nodes`` order: in each column
    the node itself and its free neighbours along mesh edges, sorted."""
    n = nodes.size
    place = np.full(mesh.n_nodes, -1)
    place[nodes] = np.arange(n)
    a = place[mesh.triangles.ravel()]
    b = place[mesh.triangles[:, [1, 2, 0]].ravel()]
    both = (a >= 0) & (b >= 0)
    rows = np.concatenate([a[both], b[both], np.arange(n)])
    cols = np.concatenate([b[both], a[both], np.arange(n)])
    k = _csc(sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                           shape=(n, n)))
    return k.indptr, k.indices
