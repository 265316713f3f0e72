import threading

import numpy as np
import pytest

from assembly_reference import (band_dense, barycenters, gradient_operator,
                                gradients, jacobian_reference,
                                operator_reference, p2_reference,
                                pattern_reference, residual_reference,
                                sub_block, triangles)
from moncap import assembly, solver
from moncap.assembly import (FreeBlock, _gradients, jacobian_matrix,
                             p2_stiffness, pairing, residual)
from moncap.errors import InvalidInput
from moncap.flux import (FLUX_KINDS, anisotropic_p, combine, flat_core_p,
                         is_symmetric, linear_matrix, p_laplacian,
                         s_transform, weighted_p_laplacian)
from moncap.mesh import (build_mesh, disk, rasterize, rect, shape_none,
                         shape_union)
from moncap.properties import default_flux_family

# one flux of each kind; a kind added to FLUX_KINDS needs an entry here
KIND_EXAMPLES = {
    "p_laplacian": p_laplacian(3.0),
    "weighted_p_laplacian": weighted_p_laplacian(3.0, 1.0, 2.0),
    "anisotropic_p": anisotropic_p(1.5, 2.0, 0.5),
    "linear_matrix": linear_matrix([[1.0, 0.5], [-0.5, 1.0]]),
    "flat_core_p": flat_core_p(2.0, 0.5),
    "s_transformed": s_transform(p_laplacian(3.0), -0.7),
    "weighted_sum": combine(p_laplacian(2.0),
                            linear_matrix([[1.0, 0.5], [-0.5, 1.0]]),
                            1.0, 0.5),
}


def rand_field(mesh, seed, scale=1.0):
    return np.random.default_rng(seed).normal(size=mesh.n_nodes) * scale


def whole(mesh):
    """The free block of every node; on the small meshes here it is in
    row-major order, so its matrices are the whole-mesh ones, in CSR under
    ``sparse_blocks``."""
    block = free_block(mesh, np.ones(mesh.n_nodes, dtype=bool))
    assert np.array_equal(block.nodes, np.arange(mesh.n_nodes))
    assert block.band is None
    return block


@pytest.fixture
def sparse_blocks(force_path):
    """Every block in CSR, whatever its span: the tests of its stencil
    pattern and sparse products."""
    force_path("superlu")


class TestResidual:
    def test_constant_field_zero_residual(self):
        m = build_mesh(6)
        for fl in (p_laplacian(3.0), weighted_p_laplacian(2.0, 1.0, 2.0),
                   flat_core_p(2.0, 0.5)):
            r = residual(m, fl, np.full(m.n_nodes, 3.7))
            assert np.all(r == 0.0)

    def test_unit_impulse_five_point_stencil(self):
        # the assembled p=2 stencil is (4; -1 at axis neighbors; 0 else),
        # independent of mesh size
        m = build_mesh(2, 1.0)
        u = np.zeros(m.n_nodes)
        center = m.n + 2                  # node (1, 1)
        u[center] = 1.0
        r = residual(m, p_laplacian(2.0), u)
        expected = np.zeros(9)
        expected[center] = 4.0
        for i, j in ((1, 0), (0, 1), (2, 1), (1, 2)):
            expected[j * (m.n + 1) + i] = -1.0
        assert np.allclose(r, expected, atol=1e-14)

    def test_linear_field_discretely_harmonic(self):
        m = build_mesh(7)
        u = 1.3 * m.nodes[:, 0] - 0.4 * m.nodes[:, 1]
        r = residual(m, p_laplacian(2.0), u)
        i = np.arange(m.n_nodes) % (m.n + 1)
        j = np.arange(m.n_nodes) // (m.n + 1)
        interior = (i > 0) & (i < m.n) & (j > 0) & (j < m.n)
        assert np.max(np.abs(r[interior])) <= 1e-13

    def test_residual_sums_to_zero(self):
        m = build_mesh(9)
        for seed in range(3):
            r = residual(m, p_laplacian(3.0), rand_field(m, seed))
            assert abs(r.sum()) <= 1e-12 * np.abs(r).sum()

    def test_homogeneity_p_laplacian(self):
        m = build_mesh(5)
        u = rand_field(m, 7)
        for p, s in [(2.0, 3.0), (3.0, -2.0), (1.5, 0.5)]:
            r1 = residual(m, p_laplacian(p), s * u)
            r2 = abs(s) ** (p - 2.0) * s * residual(m, p_laplacian(p), u)
            assert np.allclose(r1, r2, rtol=1e-12, atol=1e-15)

    def test_bitwise_deterministic(self):
        m = build_mesh(8)
        u = rand_field(m, 11)
        a = residual(m, p_laplacian(3.0), u)
        b = residual(m, p_laplacian(3.0), u)
        assert a.tobytes() == b.tobytes()


class TestPairing:
    def test_equals_residual_dot(self):
        m = build_mesh(6)
        fl = weighted_p_laplacian(3.0, 1.0, 2.0)
        u, v = rand_field(m, 1), rand_field(m, 2)
        lhs = pairing(m, fl, u, v)
        rhs = float(residual(m, fl, u) @ v)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pairing_with_constant_vanishes(self):
        m = build_mesh(6)
        u = rand_field(m, 3)
        assert pairing(m, p_laplacian(3.0), u, np.full(m.n_nodes, 5.0)) == 0.0

    def test_self_pairing_nonnegative(self):
        m = build_mesh(6)
        for fl in (p_laplacian(1.5), flat_core_p(2.0, 0.5),
                   linear_matrix([[1.0, 0.5], [-0.5, 1.0]])):
            for seed in range(5):
                assert pairing(m, fl, rand_field(m, seed),
                               rand_field(m, seed)) >= 0.0

    def test_monotone_pairing_difference(self):
        # <Au - Av, u - v> >= 0 on 100 random pairs
        m = build_mesh(5)
        fl = linear_matrix([[1.0, 0.5], [-0.5, 1.0]])
        fl2 = p_laplacian(3.0)
        for seed in range(100):
            u = rand_field(m, 2 * seed)
            v = rand_field(m, 2 * seed + 1)
            for flux in (fl, fl2):
                ru = residual(m, flux, u)
                rv = residual(m, flux, v)
                assert float((ru - rv) @ (u - v)) >= -1e-12


# every flux of the shipped family, an s-transformed and a weighted-sum one
NONZERO_FLUXES = default_flux_family() + [
    s_transform(p_laplacian(3.0), -0.7),
    combine(p_laplacian(2.0), linear_matrix([[1.0, 0.5], [-0.5, 1.0]]),
            1.0, 0.5)]


def potential_like(mesh, case):
    """A field shaped like a potential: s on E, 0 outside F, random
    values between on the free nodes."""
    e_r, f_r, s = {"annulus": (0.12, 0.38, 1.7), "f_is_e": (0.25, 0.25, -0.8),
                   "s_zero": (0.12, 0.38, 0.0),
                   "non_finite": (0.12, 0.38, 1.0)}[case]
    e = rasterize(disk(0.5, 0.5, e_r), mesh, "E").mask
    f = rasterize(disk(0.5, 0.5, f_r), mesh, "F").mask
    u = np.where(e, s, 0.0)
    free = np.flatnonzero(f & ~e)
    u[free] = s * np.random.default_rng(3).uniform(size=free.size)
    if case == "non_finite":
        u[free[len(free) // 2]] = np.inf
    return u, e, f


class TestNonzeroTriangles:
    """The residual evaluates the flux only on the triangles that touch a
    node where u is nonzero, and is still bitwise the residual over the
    whole mesh: the triangles it skips add exact zeros."""

    @pytest.mark.parametrize("eps", [0.0, 1e-6])
    @pytest.mark.parametrize("case", ["annulus", "f_is_e", "s_zero",
                                      "non_finite"])
    @pytest.mark.parametrize("flux", NONZERO_FLUXES,
                             ids=lambda f: f"{f.kind}-p{f.p}")
    def test_bitwise_whole_mesh_residual(self, flux, case, eps):
        m = build_mesh(16)
        u, e, f = potential_like(m, case)
        if case == "f_is_e":
            # no node is free: each nonzero triangle joins E to outside F
            assert np.array_equal(e, f)
        if case == "non_finite" and eps == 0.0:
            for evaluate in (residual, residual_reference):
                with pytest.raises(InvalidInput, match="non-finite"):
                    evaluate(m, flux, u, eps)
            return
        # the smoothed flux does not check its input: an infinite node
        # gives NaNs, bitwise the same on both paths
        with np.errstate(invalid="ignore", over="ignore"):
            got = residual(m, flux, u, eps)
            want = residual_reference(m, flux, u, eps)
        assert got.tobytes() == want.tobytes()


def smooth_field(mesh):
    """|grad u| stays within 2 +- 0.5 on every triangle: away from zero and
    from the flat core's radius, so every flux kind is smooth there."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return 0.3 + 1.6 * x + 1.2 * y + 0.04 * np.sin(2 * np.pi * x) \
        * np.cos(np.pi * y)


def central_difference(mesh, flux, u, w, eps, t):
    return (residual(mesh, flux, u + t * w, eps)
            - residual(mesh, flux, u - t * w, eps)) / (2.0 * t)


@pytest.mark.usefixtures("sparse_blocks")
class TestJacobianApply:
    """The assembled Jacobian applied to a direction w is the directional
    derivative of the residual at the same eps."""

    def test_zero_direction(self):
        m = build_mesh(5)
        k = jacobian_matrix(m, p_laplacian(3.0), rand_field(m, 1), 1e-8,
                            block=whole(m))
        assert np.all(k @ np.zeros(m.n_nodes) == 0.0)

    def test_p2_equals_residual_of_direction(self):
        m = build_mesh(6)
        u, w = rand_field(m, 2), rand_field(m, 3)
        k = jacobian_matrix(m, p_laplacian(2.0), u, 1e-8, block=whole(m))
        assert np.allclose(k @ w, residual(m, p_laplacian(2.0), w),
                           rtol=1e-14)

    def test_matches_residual_finite_difference(self):
        m = build_mesh(6)
        fl = p_laplacian(3.0)
        u = 0.5 + 0.3 * m.nodes[:, 0] + 0.2 * m.nodes[:, 1] \
            + 0.05 * np.sin(2 * np.pi * m.nodes[:, 0])
        w = rand_field(m, 4)
        jw = jacobian_matrix(m, fl, u, 1e-10, block=whole(m)) @ w
        fd = central_difference(m, fl, u, w, 0.0, 1e-6)
        scale = np.max(np.abs(jw))
        assert np.max(np.abs(jw - fd)) <= 1e-5 * scale

    def test_shift_adds_p2_stiffness(self):
        # shift*I on each 2x2 flux Jacobian adds shift times the p=2
        # stiffness matrix
        m = build_mesh(5)
        fl = p_laplacian(3.0)
        u = rand_field(m, 5)
        block = whole(m)
        k0 = jacobian_matrix(m, fl, u, 1e-6, block=block)
        k1 = jacobian_matrix(m, fl, u, 1e-6, shift=0.25, block=block)
        w = rand_field(m, 6)
        assert np.allclose(k1 @ w,
                           k0 @ w + 0.25 * (p2_stiffness(m, block) @ w),
                           rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("eps", [1e-10, 1e-6])
    @pytest.mark.parametrize("shift", [0.0, 1e-9])
    @pytest.mark.parametrize("kind", sorted(FLUX_KINDS))
    def test_matrix_matches_apply(self, kind, shift, eps):
        # the central difference with step 1e-5 at smooth points errs by
        # about 3e-9 of the product's largest entry (truncation; round-off
        # is about 1e-11), so the two must agree to 1e-7 of it; shift*I on
        # each 2x2 flux Jacobian adds shift times the p=2 stiffness matrix
        m = build_mesh(5)
        fl = KIND_EXAMPLES[kind]
        u, w = smooth_field(m), rand_field(m, 9)
        block = whole(m)
        k = jacobian_matrix(m, fl, u, eps, shift, block=block)
        expected = central_difference(m, fl, u, w, eps, 1e-5) \
            + shift * (p2_stiffness(m, block) @ w)
        got = k @ w
        assert np.max(np.abs(got - expected)) <= 1e-7 * np.max(np.abs(got))


@pytest.mark.usefixtures("sparse_blocks")
class TestStiffness:
    def test_p2_stiffness_matches_residual(self):
        m = build_mesh(6)
        k = p2_stiffness(m, whole(m))
        u = rand_field(m, 10)
        assert np.allclose(k @ u, residual(m, p_laplacian(2.0), u),
                           rtol=1e-12, atol=1e-14)

    def test_gradients_of_linear_field(self):
        m = build_mesh(4)
        u = 2.0 * m.nodes[:, 0] + 3.0 * m.nodes[:, 1]
        g = gradients(m, u)
        assert np.allclose(g, [2.0, 3.0], rtol=1e-13)
        for wrong in (u[:-1], np.append(u, 0.0)):
            with pytest.raises(InvalidInput, match="field has"):
                residual(m, p_laplacian(2.0), wrong)


def assert_same_compressed(a, b):
    assert a.format == b.format and a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()


# A block matrix sums the element entries of the reference's sparse
# products in another order, with |T| folded into exact weights: over
# these tests the two agree to within 4.5e-16 of the reference's largest
# entry, a bound of about 45 units in the last place
ROUND_OFF = 1e-14


def assert_close_block(got, ref, pattern):
    """got stores exactly the stencil pattern, and agrees with the
    reference block ref to round-off."""
    assert got.format == "csr" and got.shape == ref.shape
    assert np.array_equal(got.indptr, pattern[0])
    assert np.array_equal(got.indices, pattern[1])
    assert abs(got - ref).max() <= ROUND_OFF * abs(ref).max()


def pair_sets(mesh, e_shape, f_shape):
    """The node masks of E and F."""
    return (rasterize(e_shape, mesh, "E").mask,
            rasterize(f_shape, mesh, "F").mask)


def pair_free(mesh, e_shape, f_shape):
    e, f = pair_sets(mesh, e_shape, f_shape)
    return f & ~e


def free_block(mesh, free, symmetric=False):
    """The block of a free set as F with E empty: its triangles are those
    that touch a free node."""
    return FreeBlock(mesh, np.zeros_like(free), free, symmetric=symmetric)


def edge_masks(mesh, seed):
    """Random free masks with free nodes on all four edges of the square,
    among them (N, j) and (0, j + 1), which follow each other in row-major
    order: a stencil step east of i = N must not reach i = 0."""
    rng = np.random.default_rng(seed)
    side = mesh.n + 1
    i, j = np.arange(mesh.n_nodes) % side, np.arange(mesh.n_nodes) // side
    edge = (i == 0) | (i == mesh.n) | (j == 0) | (j == mesh.n)
    for frac in (0.1, 0.5, 0.9, 1.0):
        free = rng.random(mesh.n_nodes) < frac
        free[edge] |= rng.random(np.count_nonzero(edge)) < 0.5
        for jj in range(0, mesh.n, 3):
            free[jj * (mesh.n + 1) + mesh.n] = True
            free[(jj + 1) * (mesh.n + 1)] = True
        assert all(free[side_nodes].any() for side_nodes in
                   (i == 0, i == mesh.n, j == 0, j == mesh.n))
        yield free


def block_triangles(mesh, free):
    """The triangles with a free node, lower ones (even numbers) first."""
    tris = np.flatnonzero(free[triangles(mesh)].any(axis=1))
    return tris[np.argsort(tris % 2, kind="stable")]


@pytest.mark.usefixtures("sparse_blocks")
class TestFreeBlock:
    """The free block of a matrix is the reference's k[nodes][:, nodes] to
    round-off, stored in the stencil pattern, and the block residual is
    r[nodes] bit for bit, with ``nodes`` the free nodes in the block's grid
    order, built from only the triangles that touch free nodes."""

    def check(self, m, free, fl, u):
        block = free_block(m, free)
        assert block.band is None
        nodes = block.nodes
        assert np.array_equal(np.sort(nodes), np.flatnonzero(free))
        pattern = pattern_reference(m, nodes)
        for shift in (0.0, 1e-9):
            for eps in (1e-10, 1e-6):
                assert_close_block(
                    jacobian_matrix(m, fl, u, eps, shift, block=block),
                    sub_block(jacobian_reference(m, fl, u, eps, shift),
                              nodes), pattern)
        assert_close_block(p2_stiffness(m, block),
                           sub_block(p2_reference(m), nodes), pattern)
        for r_eps in (0.0, 1e-8):
            r = residual(m, fl, u, r_eps)
            assert residual(m, fl, u, r_eps, block=block)[nodes].tobytes() \
                == r[nodes].tobytes()
        tris = block_triangles(m, free)
        assert block.n_lower == np.count_nonzero(tris % 2 == 0)
        # an upper triangle (n00, n11, n01) is stored as (n11, n01, n00)
        corners = triangles(m)[tris]
        corners[tris % 2 == 1] = np.roll(corners[tris % 2 == 1], -1, axis=1)
        assert np.array_equal(block.corners, corners)
        # entry (a, b) of a triangle's element matrix goes to slot
        # 7 place(a) + d, d the direction of b from a in the stencil (SW,
        # S, W, self, E, N, NE), read off the corners' grid steps
        place = np.full(m.n_nodes, nodes.size)
        place[nodes] = np.arange(nodes.size)
        a = np.repeat(block.corners, 3, axis=1)
        b = np.tile(block.corners, 3)
        side = m.n + 1
        step = (b // side - a // side + 1) * 3 + b % side - a % side + 1
        direction = np.array([0, 1, -1, 2, 3, 4, -1, 5, 6])[step]
        assert np.all(direction >= 0)
        assert np.array_equal(block.keys.reshape(-1, 9),
                              7 * place[a] + direction)
        assert np.array_equal(block.barycenters, barycenters(m)[tris])
        want = (gradient_operator(m) @ u).reshape(-1, 2)[tris]
        got = _gradients(m, block, u)
        assert abs(got - want).max() <= ROUND_OFF * abs(want).max()

    @pytest.mark.parametrize("kind", sorted(FLUX_KINDS))
    def test_random_masks(self, kind):
        m = build_mesh(9)
        for free in edge_masks(m, 3):
            self.check(m, free, KIND_EXAMPLES[kind], rand_field(m, 4))

    @pytest.mark.parametrize("e_shape,f_shape", [
        (disk(0.5, 0.5, 0.1), disk(0.5, 0.5, 0.4)),
        # F reaches the outer boundary of the square
        (disk(0.2, 0.3, 0.1), rect(0.0, 0.0, 0.6, 1.0)),
        # F is the whole square
        (disk(0.5, 0.5, 0.2), rect(0.0, 0.0, 1.0, 1.0)),
    ])
    def test_rasterised_pairs(self, e_shape, f_shape):
        m = build_mesh(16)
        free = pair_free(m, e_shape, f_shape)
        assert free.any()
        for fl in (p_laplacian(3.0), flat_core_p(2.0, 0.5)):
            self.check(m, free, fl, rand_field(m, 5))

    def test_triangles_join_e_to_outside_f(self):
        # the block's triangles are those with a corner in F and a corner
        # outside E, some of which touch no free node: for a field that is
        # s on E and 0 outside F the block residual is then the residual at
        # every node, in E and outside F too
        m = build_mesh(24)
        e, f = pair_sets(m, disk(0.5, 0.5, 0.2), disk(0.55, 0.5, 0.25))
        block = FreeBlock(m, e, f)
        tri = triangles(m)
        tris = np.flatnonzero(f[tri].any(axis=1) & ~e[tri].all(axis=1))
        tris = tris[np.argsort(tris % 2, kind="stable")]
        assert len(tris) > len(block_triangles(m, f & ~e))
        assert np.array_equal(block.barycenters, barycenters(m)[tris])
        u = np.where(e, 1.3, 0.0)
        u[block.nodes] = np.random.default_rng(3).uniform(0.0, 1.3,
                                                          block.size)
        for fl in KIND_EXAMPLES.values():
            for r_eps in (0.0, 1e-8):
                assert residual(m, fl, u, r_eps, block=block).tobytes() \
                    == residual(m, fl, u, r_eps).tobytes()

    def test_columns_sorted_in_every_order(self):
        # an annulus and a cross two nodes wide take row-major order, a
        # strip wider than high column-major order; the blocks of all three
        # keep each row's columns sorted
        m = build_mesh(64)
        side = m.n + 1
        cross = shape_union(rect(0.0, 0.49, 1.0, 0.52),
                            rect(0.49, 0.0, 0.52, 1.0))
        places = {
            "annulus": (disk(0.5, 0.5, 0.1), disk(0.5, 0.5, 0.4),
                        lambda nodes: nodes),
            "strip": (shape_none(), rect(0.0, 0.45, 1.0, 0.55),
                      lambda nodes: nodes % side * side + nodes // side),
            "cross": (shape_none(), cross, lambda nodes: nodes),
        }
        for order, (e_shape, f_shape, place) in places.items():
            free = pair_free(m, e_shape, f_shape)
            block = free_block(m, free)
            assert block.band is None
            assert np.all(np.diff(place(block.nodes)) > 0), order
            u = rand_field(m, 3)
            fl = anisotropic_p(1.5, 2.0, 0.5)
            pattern = pattern_reference(m, block.nodes)
            for k, ref in (
                    (p2_stiffness(m, block), p2_reference(m)),
                    (jacobian_matrix(m, fl, u, 1e-8, 1e-9, block=block),
                     jacobian_reference(m, fl, u, 1e-8, 1e-9))):
                row = np.repeat(np.arange(k.shape[0]), np.diff(k.indptr))
                same = np.diff(row) == 0
                assert np.all(np.diff(k.indices)[same] > 0), order
                assert_close_block(k, sub_block(ref, block.nodes), pattern)

    def test_order_follows_mesh_edge_spans(self):
        # reference for _block_order: the most places a free-free triangle
        # edge spans in row-major and in column-major order pick the order.
        # That span is every block matrix's stored bandwidth: the pattern
        # stores exact zeros, here those of the flat core, where most
        # triangles are at small u and the unshifted Jacobian is zero
        rng = np.random.default_rng(8)
        m16, m64 = build_mesh(16), build_mesh(64)
        cross = shape_union(rect(0.0, 0.49, 1.0, 0.52),
                            rect(0.49, 0.0, 0.52, 1.0))
        cases = [(m16, rng.random(m16.n_nodes) < frac)
                 for frac in (0.1, 0.5, 0.9, 1.0)]
        # two nodes wide, the cross spans about a grid side in both orders
        cases.append((m64, pair_free(m64, shape_none(), cross)))
        for m, free in cases:
            tri = triangles(m)
            a, b = tri.ravel(), tri[:, [1, 2, 0]].ravel()
            both = free[a] & free[b]

            def span(order):
                position = np.empty(m.n_nodes, dtype=np.intp)
                position[order] = np.arange(order.size)
                return np.abs(position[a[both]]
                              - position[b[both]]).max(initial=0)
            side = m.n + 1
            nodes = np.flatnonzero(free)
            by_column = nodes[np.argsort(nodes % side * side + nodes // side)]
            row, column = span(nodes), span(by_column)
            want = by_column if column < row else nodes
            block = free_block(m, free)
            assert block.band is None and np.array_equal(block.nodes, want)
            for k in (p2_stiffness(m, block),
                      *(jacobian_matrix(m, flat_core_p(2.0, 0.5),
                                        rand_field(m, 9, 0.01), 0.0, shift,
                                        block=block)
                        for shift in (0.0, 1e-9))):
                row = np.repeat(np.arange(k.shape[0]), np.diff(k.indptr))
                assert np.abs(k.indices - row).max(initial=0) == span(want)

    def test_single_free_node(self):
        m = build_mesh(8)
        for i, j in ((4, 4), (0, 3), (8, 8)):
            free = np.zeros(m.n_nodes, dtype=bool)
            free[j * (m.n + 1) + i] = True
            self.check(m, free, p_laplacian(3.0), rand_field(m, 6))
            assert p2_stiffness(m, free_block(m, free)).shape == (1, 1)

    def test_infinite_flux_jacobian_entries(self, monkeypatch):
        # an infinite flux Jacobian entry times a zero component of a hat
        # gradient is NaN in the stencil kernel's weights as in the
        # reference's sparse products, which store B's zero components: the
        # two blocks have NaN and infinite entries in the same places, and
        # no RuntimeWarning escapes
        m = build_mesh(8)
        e, f = pair_sets(m, disk(0.5, 0.5, 0.1), disk(0.5, 0.5, 0.4))
        block = FreeBlock(m, e, f)
        assert block.band is None
        tris = block_triangles(m, f & ~e)
        rng = np.random.default_rng(5)
        for _ in range(5):
            jac = rng.normal(size=(2 * m.n ** 2, 2, 2))
            hit = rng.choice(jac.size, 6, replace=False)
            jac.reshape(-1)[hit] = np.inf * rng.choice([-1.0, 1.0], 6)
            monkeypatch.setattr(assembly, "flux_jacobian",
                                lambda flux, x, xi, eps: jac[tris])
            got = jacobian_matrix(m, p_laplacian(3.0), np.zeros(m.n_nodes),
                                  0.0, block=block).toarray()
            want = sub_block(operator_reference(m, jac),
                             block.nodes).toarray()
            assert np.isnan(got).any()
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.array_equal(np.isinf(got), np.isinf(want))
            finite = np.isfinite(want)
            assert np.array_equal(got[np.isinf(want)],
                                  want[np.isinf(want)])
            assert np.allclose(got[finite], want[finite], rtol=0.0,
                               atol=ROUND_OFF * np.abs(want[finite]).max())

    def test_fresh_mesh_shared_by_two_threads(self):
        # the suite's jobs=2 path shares one mesh between two threads
        m = build_mesh(24)
        fl = p_laplacian(3.0)
        u = rand_field(m, 7)
        free = pair_free(m, disk(0.5, 0.5, 0.1), disk(0.5, 0.5, 0.4))
        start = threading.Barrier(2)
        results = [None, None]

        def work(slot):
            start.wait()
            full = jacobian_reference(m, fl, u, 1e-8, 1e-9)
            block = jacobian_matrix(m, fl, u, 1e-8, 1e-9,
                                    block=free_block(m, free))
            results[slot] = (full, block, p2_reference(m))

        threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        (full_a, block_a, k2_a), (full_b, block_b, k2_b) = results
        for a, b in ((full_a, full_b), (k2_a, k2_b), (block_a, block_b)):
            assert_same_compressed(a, b)
        nodes = free_block(m, free).nodes
        assert np.array_equal(np.sort(nodes), np.flatnonzero(free))
        assert_close_block(block_a, sub_block(full_a, nodes),
                           pattern_reference(m, nodes))


def band_blocks(force_path, mesh, symmetric=False):
    """The annulus, strip and cross free sets of a mesh, each as a banded
    block, of a symmetric flux or not, and as a CSR block."""
    cross = shape_union(rect(0.0, 0.45, 1.0, 0.55), rect(0.45, 0.0, 0.55, 1.0))
    for e_shape, f_shape in ((disk(0.5, 0.5, 0.1), disk(0.5, 0.5, 0.4)),
                             (shape_none(), rect(0.0, 0.45, 1.0, 0.55)),
                             (shape_none(), cross)):
        free = pair_free(mesh, e_shape, f_shape)
        force_path("band")
        band = free_block(mesh, free, symmetric=symmetric)
        force_path("superlu")
        yield band, free_block(mesh, free)


class TestBandStorage:
    """A block of span at most BAND_MAX has matrices in LAPACK band
    storage filled by one bincount: bitwise the CSR block's entries, exact
    zeros everywhere else, and the same direct solve to round-off.  The
    block of a symmetric flux stores only its lower band."""

    @staticmethod
    def assert_same(band, csr, bw, lower=False):
        dense = csr.toarray()
        assert band.flags.f_contiguous
        if lower:
            assert band.shape == (bw + 1, csr.shape[0])
            dense = np.tril(dense)
        else:
            assert band.shape == (3 * bw + 1, csr.shape[0])
            # the bw rows of row-interchange fill hold exact zeros
            assert not np.any(band[:bw])
        # every slot outside the stencil holds an exact zero
        assert band_dense(band, lower).tobytes() == dense.tobytes()
        b = np.random.default_rng(1).standard_normal(csr.shape[0])
        # LAPACK factors the band in place, SuperLU the CSR block
        want = solver._direct_solve(csr, b)
        got = solver._direct_solve(band, b, lower)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("flux", NONZERO_FLUXES,
                             ids=lambda f: f"{f.kind}-p{f.p}")
    def test_bitwise_the_csr_block(self, flux, force_path):
        m = build_mesh(24)
        u = rand_field(m, 12)
        for band, csr in band_blocks(force_path, m, is_symmetric(flux)):
            assert band.band is not None and csr.band is None
            assert band.lower == is_symmetric(flux) and not csr.lower
            # the same nodes and corners: the same corner places
            assert np.array_equal(band.nodes, csr.nodes)
            assert band.corners.tobytes() == csr.corners.tobytes()
            for eps in (0.0, 1e-6):
                for shift in (0.0, 1e-9):
                    self.assert_same(
                        jacobian_matrix(m, flux, u, eps, shift, block=band),
                        jacobian_matrix(m, flux, u, eps, shift, block=csr),
                        band.band, band.lower)
            self.assert_same(p2_stiffness(m, band), p2_stiffness(m, csr),
                             band.band, band.lower)

    def test_storage_rule(self, monkeypatch):
        # banded when the span is at most BAND_MAX, whatever the size: the
        # N = 96 annulus (4,344 free nodes, span 76) bands at the cap and
        # not one below it, the N = 112 annulus (span 88) does not, and a
        # cross two nodes wide (256 free nodes) spans 66 places
        assert assembly.BAND_MAX == 76
        thin = shape_union(rect(0.0, 0.49, 1.0, 0.52),
                           rect(0.49, 0.0, 0.52, 1.0))
        for n, f_shape, e_shape, size, span in (
                (96, disk(0.5, 0.5, 0.4), disk(0.5, 0.5, 0.1), 4344, 76),
                (112, disk(0.5, 0.5, 0.4), disk(0.5, 0.5, 0.1), 5908, 88),
                (64, thin, shape_none(), 256, 66)):
            m = build_mesh(n)
            free = pair_free(m, e_shape, f_shape)
            assert np.count_nonzero(free) == size
            assert pattern_span(m, free) == span
            assert free_block(m, free).band == (span if span <= 76 else None)
            monkeypatch.setattr(assembly, "BAND_MAX", span)
            assert free_block(m, free).band == span
            monkeypatch.setattr(assembly, "BAND_MAX", span - 1)
            assert free_block(m, free).band is None
            monkeypatch.undo()

    def test_single_free_node_and_zero_block(self, force_path):
        m = build_mesh(8)
        free = np.zeros(m.n_nodes, dtype=bool)
        free[4 * (m.n + 1) + 4] = True
        for symmetric in (False, True):
            force_path("superlu")
            csr = free_block(m, free)
            force_path("band")
            block = free_block(m, free, symmetric=symmetric)
            assert block.band == 0 and csr.band is None
            self.assert_same(p2_stiffness(m, block), p2_stiffness(m, csr), 0,
                             block.lower)
        # a flat Jacobian without a floor is all zeros: singular, as in CSR
        block = next(band_blocks(force_path, m))[0]
        zero = jacobian_matrix(m, flat_core_p(2.0, 3.0), np.zeros(m.n_nodes),
                               0.0, block=block)
        assert not np.any(zero)
        with pytest.raises(RuntimeError):
            solver._direct_solve(zero, np.ones(zero.shape[1]))


SKEW = linear_matrix([[1.0, 0.5], [-0.5, 1.0]])
SYMMETRIC_FLUXES = [flux for flux in NONZERO_FLUXES if is_symmetric(flux)] + [
    s_transform(flat_core_p(2.0, 0.5), 1.3),
    combine(p_laplacian(3.0), weighted_p_laplacian(3.0, 1.0, 2.0), 1.0, 0.5),
    linear_matrix([[2.0, 0.5], [0.5, 1.0]])]


class TestSymmetricKinds:
    """A kind that declares its Jacobian symmetric gives symmetric free
    blocks, to round-off, at every field, eps and shift: the premise of
    storing their lower band only.  The skew matrix declares it not, and
    its block is not symmetric once F reaches the edge of the square."""

    def test_declarations(self):
        assert all(is_symmetric(f) for f in SYMMETRIC_FLUXES)
        assert not is_symmetric(SKEW)
        assert not is_symmetric(s_transform(SKEW, -0.7))
        assert not is_symmetric(combine(p_laplacian(2.0), SKEW, 1.0, 0.5))
        assert {f.kind for f in SYMMETRIC_FLUXES} == set(FLUX_KINDS)

    @pytest.mark.parametrize("flux", SYMMETRIC_FLUXES,
                             ids=lambda f: f"{f.kind}-p{f.p}")
    def test_blocks_are_symmetric(self, flux, force_path):
        m = build_mesh(24)
        for seed in (3, 4):
            u = rand_field(m, seed)
            for _, csr in band_blocks(force_path, m):
                for eps in (0.0, 1e-6):
                    for shift in (0.0, 1e-9):
                        k = jacobian_matrix(m, flux, u, eps, shift,
                                            block=csr)
                        gap = abs(k - k.T).max()
                        assert gap <= 1e-14 * abs(k).max()

    def test_skew_block_on_the_box_edge_is_not(self, force_path):
        m = build_mesh(24)
        strip = pair_free(m, shape_none(), rect(0.0, 0.45, 1.0, 0.55))
        force_path("superlu")
        block = free_block(m, strip)
        assert block.band is None
        assert strip[12 * (m.n + 1)] and strip[12 * (m.n + 1) + 24]
        k = jacobian_matrix(m, SKEW, rand_field(m, 3), 0.0, block=block)
        assert abs(k - k.T).max() >= 0.1 * abs(k).max()


def pattern_span(mesh, free):
    """The bandwidth of the stencil pattern of the block of free."""
    nodes = free_block(mesh, free).nodes
    indptr, indices = pattern_reference(mesh, nodes)
    col = np.repeat(np.arange(nodes.size), np.diff(indptr))
    return int(np.abs(indices - col).max(initial=0))
