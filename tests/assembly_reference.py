"""Reference meshes and assemblies for the tests, independent of the
triangle-corner kernels: the mesh's whole triangle and barycenter arrays,
the node-set helpers only tests use, the mesh's P1 gradient operator B as
a scipy sparse matrix, whole-mesh matrices as sparse products with it, and
the stored pattern of a free block read off the mesh's triangles.
``gradients`` and ``residual_reference`` are the exceptions: the kernel
run on every triangle of the mesh, as ``residual`` ran before it skipped
the triangles whose corners are all 0.  ``band_dense`` expands a banded
block's LAPACK band storage, general or lower, and ``band_storage`` builds
the general one from a sparse matrix.  ``min_weight`` and
``rerun_subadditivity_case`` read a capacitary measure and rerun an
archived subadditivity case, as only tests do.
``power_jacobian_reference`` and ``flat_core_jacobian_reference`` are the
flux Jacobian kernels as (k, 2, 2) broadcasts, whose bits the column-wise
kernels of ``moncap.flux`` keep."""

import numpy as np
import scipy.sparse as sp

from moncap.assembly import _adjoint, _check_field, _gradients, _Triangles
from moncap.errors import MeshMismatch
from moncap.flux import (_EYE, _core_excess, _overflowed, eval_flux_smoothed,
                         flux_jacobian)
from moncap.mesh import (NodeSet, _require_same_mesh, build_mesh,
                         touched_triangles)
from moncap.properties import _Cache, _subadditivity_record
from moncap.solver import SolverOptions


def triangles(mesh):
    """(2 N^2, 3) node ids: cell (i, j)'s lower triangle n00, n10, n11 at
    2 (j N + i), its upper n00, n11, n01 next."""
    n = mesh.n
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    n00 = (jj * (n + 1) + ii).ravel()
    n10, n01 = n00 + 1, n00 + (n + 1)
    n11 = n01 + 1
    tri = np.empty((2 * n * n, 3), dtype=np.int64)
    tri[0::2] = np.column_stack([n00, n10, n11])
    tri[1::2] = np.column_stack([n00, n11, n01])
    return tri


def barycenters(mesh):
    """(2 N^2, 2), the mean of each triangle's corners."""
    return mesh.nodes[triangles(mesh)].mean(axis=1)


def discrete_boundary(e, mesh):
    """Nodes of e sharing a triangle with a node outside e."""
    if e.mesh_id != mesh.mesh_id:
        raise MeshMismatch("node set does not belong to this mesh")
    near = np.zeros(mesh.n_nodes, dtype=bool)
    near[triangles(mesh)[touched_triangles(mesh, ~e.mask)]] = True
    return NodeSet(e.mask & near, f"boundary({e.name})", mesh.mesh_id)


def is_equal(a, b):
    _require_same_mesh(a, b)
    return bool(np.array_equal(a.mask, b.mask))


def union(a, b, name=None):
    _require_same_mesh(a, b)
    return NodeSet(a.mask | b.mask, name or f"({a.name})|({b.name})", a.mesh_id)


def difference(a, b, name=None):
    _require_same_mesh(a, b)
    return NodeSet(a.mask & ~b.mask, name or f"({a.name})-({b.name})", a.mesh_id)


def complement(a, name=None):
    return NodeSet(~a.mask, name or f"~({a.name})", a.mesh_id)


def min_weight(measure):
    """The least weight of a NodeMeasure on its carrier, 0 on an empty one."""
    if not measure.carrier.any():
        return 0.0
    return float(measure.weights[measure.carrier].min())


def rerun_subadditivity_case(case, n, fluxes):
    """Deficit (negative part of the margin) of an archived case on an
    N-cell mesh; used for the refinement-trend check."""
    cache = _Cache(build_mesh(n), SolverOptions())
    rec = _subadditivity_record(cache, fluxes, None, "rerun", case)
    return max(0.0, -rec["margin"])


# h times the hat gradients of the corners of a cell's lower (n00, n10,
# n11) and upper (n00, n11, n01) triangle
HAT_GRADIENTS = np.array([[(-1, 0), (1, -1), (0, 1)],
                          [(0, -1), (1, 0), (-1, 1)]], dtype=float)


def gradient_operator(mesh):
    """B, shape (2 ntri, n_nodes): rows 2t and 2t + 1 give the x and y
    gradient of a P1 field on triangle t."""
    tri = triangles(mesh)
    return sp.csr_matrix(
        (np.tile((HAT_GRADIENTS / mesh.h).transpose(0, 2, 1).ravel(),
                 mesh.n ** 2), np.repeat(tri, 2, axis=0).ravel(),
         np.arange(0, 6 * len(tri) + 1, 3)),
        shape=(2 * len(tri), mesh.n_nodes))


def all_triangles(mesh):
    """Every triangle of the mesh, lower ones first."""
    return _Triangles(mesh, np.ones(mesh.n_triangles, dtype=bool))


def gradients(mesh, u):
    """Constant P1 gradient per triangle, shape (ntri, 2), from the
    triangle-corner kernel."""
    g = _gradients(mesh, all_triangles(mesh), _check_field(mesh, u))
    # back to mesh order: cell c's lower triangle is 2c, its upper 2c + 1
    return g.reshape(2, -1, 2).transpose(1, 0, 2).reshape(-1, 2)


def residual_reference(mesh, flux, u, eps=0.0):
    """The residual with the flux evaluated on every triangle."""
    tris = all_triangles(mesh)
    grads = _gradients(mesh, tris, _check_field(mesh, u))
    return _adjoint(mesh, tris,
                    eval_flux_smoothed(flux, tris.barycenters, grads, eps))


def _csc(k):
    k = k.tocsc()
    k.sort_indices()
    return k


def operator_reference(mesh, jac):
    """B^T D B over the whole mesh, D the block diagonal of |T| times the
    2x2 matrices jac, one per triangle."""
    b = gradient_operator(mesh)
    k = len(jac)
    d = sp.csr_matrix(
        ((mesh.tri_area * jac).ravel(),
         np.repeat(np.arange(2 * k).reshape(k, 2), 2, axis=0).ravel(),
         np.arange(0, 4 * k + 1, 2)), shape=(2 * k, 2 * k))
    return _csc(b.T @ (d @ b))


def jacobian_reference(mesh, flux, u, eps, shift=0.0):
    """The residual's Jacobian B^T D B over the whole mesh, with the flux
    Jacobians (plus shift I) at the triangle barycenters."""
    b = gradient_operator(mesh)
    jac = flux_jacobian(flux, barycenters(mesh), (b @ u).reshape(-1, 2),
                        eps=eps)
    return operator_reference(mesh, jac + shift * np.eye(2))


def p2_reference(mesh):
    """|T| B^T B over the whole mesh."""
    b = gradient_operator(mesh)
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
    tri = triangles(mesh)
    a = place[tri.ravel()]
    b = place[tri[:, [1, 2, 0]].ravel()]
    both = (a >= 0) & (b >= 0)
    rows = np.concatenate([a[both], b[both], np.arange(n)])
    cols = np.concatenate([b[both], a[both], np.arange(n)])
    k = _csc(sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                           shape=(n, n)))
    return k.indptr, k.indices


def band_dense(ab, lower=False):
    """The dense matrix of the entries a banded block's storage ab holds,
    every other entry 0.  The general band has shape (3 bw + 1, n): entry
    (r, c) within bw of the diagonal from row 2 bw + r - c of column c.
    The ``lower`` band of a symmetric block has shape (bw + 1, n): entry
    (r, c) with 0 <= r - c <= bw from row r - c of column c."""
    n = ab.shape[1]
    bw = ab.shape[0] - 1 if lower else (ab.shape[0] - 1) // 3
    top = 0 if lower else 2 * bw
    r, c = np.indices((n, n))
    inside = (r - c <= bw) & (r - c >= (0 if lower else -bw))
    dense = np.zeros((n, n))
    dense[inside] = ab[top + r[inside] - c[inside], c[inside]]
    return dense


def band_storage(k, bw):
    """The LAPACK band storage of a sparse matrix k whose entries lie
    within bw of the diagonal, laid out as a banded block's: shape
    (3 bw + 1, n) in Fortran order, entry (r, c) in row 2 bw + r - c of
    column c."""
    k = k.tocoo()
    assert np.all(np.abs(k.row - k.col) <= bw)
    ab = np.zeros((3 * bw + 1, k.shape[1]), order="F")
    np.add.at(ab, (2 * bw + k.row - k.col, k.col), k.data)
    return ab


def power_jacobian_reference(p, xi, bxi, b, eps):
    """flux._power_jacobian as one broadcast over (k, 2, 2):
    fac B + fac2 (B xi)(B xi)^T, rows whose xi.B xi overflows rescaled."""
    if p == 2.0:
        return np.broadcast_to(b, xi.shape + (2,)).copy()
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
        jac[big] = (m ** (p - 2.0))[:, None, None] * power_jacobian_reference(
            p, xi[big] / m[:, None], bxi[big] / m[:, None], b, eps / m)
    return jac


def flat_core_jacobian_reference(flux, x, xi, eps):
    """flux._flat_core_jacobian as one broadcast over (k, 2, 2):
    g / r (I - hat hat^T) + dg hat hat^T, hat = xi / r."""
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
