import gc
import threading

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from moncap.assembly import (BAND_C, FreeBlock, _dissection_rank, gradients,
                             jacobian_matrix, p2_stiffness, pairing,
                             residual)
from moncap.flux import (FLUX_KINDS, anisotropic_p, combine, flat_core_p,
                         linear_matrix, p_laplacian, s_transform,
                         weighted_p_laplacian)
from moncap.mesh import (build_mesh, disk, rasterize, rect, shape_none,
                         shape_union)

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
        center = m.node_index(1, 1)
        u[center] = 1.0
        r = residual(m, p_laplacian(2.0), u)
        expected = np.zeros(9)
        expected[center] = 4.0
        for i, j in ((1, 0), (0, 1), (2, 1), (1, 2)):
            expected[m.node_index(i, j)] = -1.0
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


def smooth_field(mesh):
    """|grad u| stays within 2 +- 0.5 on every triangle: away from zero and
    from the flat core's radius, so every flux kind is smooth there."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return 0.3 + 1.6 * x + 1.2 * y + 0.04 * np.sin(2 * np.pi * x) \
        * np.cos(np.pi * y)


def central_difference(mesh, flux, u, w, eps, t):
    return (residual(mesh, flux, u + t * w, eps)
            - residual(mesh, flux, u - t * w, eps)) / (2.0 * t)


class TestJacobianApply:
    """The assembled Jacobian applied to a direction w is the directional
    derivative of the residual at the same eps."""

    def test_zero_direction(self):
        m = build_mesh(5)
        k = jacobian_matrix(m, p_laplacian(3.0), rand_field(m, 1), 1e-8)
        assert np.all(k @ np.zeros(m.n_nodes) == 0.0)

    def test_p2_equals_residual_of_direction(self):
        m = build_mesh(6)
        u, w = rand_field(m, 2), rand_field(m, 3)
        k = jacobian_matrix(m, p_laplacian(2.0), u, 1e-8)
        assert np.allclose(k @ w, residual(m, p_laplacian(2.0), w),
                           rtol=1e-14)

    def test_matches_residual_finite_difference(self):
        m = build_mesh(6)
        fl = p_laplacian(3.0)
        u = 0.5 + 0.3 * m.nodes[:, 0] + 0.2 * m.nodes[:, 1] \
            + 0.05 * np.sin(2 * np.pi * m.nodes[:, 0])
        w = rand_field(m, 4)
        jw = jacobian_matrix(m, fl, u, 1e-10) @ w
        fd = central_difference(m, fl, u, w, 0.0, 1e-6)
        scale = np.max(np.abs(jw))
        assert np.max(np.abs(jw - fd)) <= 1e-5 * scale

    def test_shift_adds_p2_stiffness(self):
        # shift*I on each 2x2 flux Jacobian adds shift times the p=2
        # stiffness matrix
        m = build_mesh(5)
        fl = p_laplacian(3.0)
        u = rand_field(m, 5)
        k0 = jacobian_matrix(m, fl, u, 1e-6)
        k1 = jacobian_matrix(m, fl, u, 1e-6, shift=0.25)
        w = rand_field(m, 6)
        assert np.allclose(k1 @ w, k0 @ w + 0.25 * (p2_stiffness(m) @ w),
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
        k = jacobian_matrix(m, fl, u, eps, shift)
        expected = central_difference(m, fl, u, w, eps, 1e-5) \
            + shift * (p2_stiffness(m) @ w)
        got = k @ w
        assert np.max(np.abs(got - expected)) <= 1e-7 * np.max(np.abs(got))


class TestStiffness:
    def test_p2_stiffness_matches_residual(self):
        m = build_mesh(6)
        k = p2_stiffness(m)
        u = rand_field(m, 10)
        assert np.allclose(k @ u, residual(m, p_laplacian(2.0), u),
                           rtol=1e-12, atol=1e-14)

    def test_gradients_of_linear_field(self):
        m = build_mesh(4)
        u = 2.0 * m.nodes[:, 0] + 3.0 * m.nodes[:, 1]
        g = gradients(m, u)
        assert np.allclose(g, [2.0, 3.0], rtol=1e-13)


def assert_same_csc(a, b):
    assert a.format == b.format == "csc"
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()


def pair_free(mesh, e_shape, f_shape):
    e = rasterize(e_shape, mesh, "E")
    f = rasterize(f_shape, mesh, "F")
    return f.mask & ~e.mask


def sub_block(k, nodes):
    # fancy indexing leaves row indices in no fixed order within a column;
    # the assembled blocks keep them sorted
    out = k[nodes][:, nodes].tocsc()
    out.sort_indices()
    return out


class TestFreeBlock:
    """The free block is k[nodes][:, nodes], and the block residual
    r[nodes], bit for bit, with ``nodes`` the free nodes in the block's
    grid or dissection order, built from only the triangles that touch
    free nodes."""

    def check(self, m, free, fl, u, eps=1e-8, shift=1e-9):
        k = jacobian_matrix(m, fl, u, eps, shift)
        block = FreeBlock(m, free)
        assert np.array_equal(np.sort(block.nodes), np.flatnonzero(free))
        got = jacobian_matrix(m, fl, u, eps, shift, block=block)
        assert_same_csc(got, sub_block(k, block.nodes))
        assert_same_csc(p2_stiffness(m, block),
                        sub_block(p2_stiffness(m), block.nodes))
        for r_eps in (0.0, eps):
            r = residual(m, fl, u, r_eps)
            assert residual(m, fl, u, r_eps, block=block).tobytes() \
                == r[block.nodes].tobytes()
        touching = free[m.triangles].any(axis=1)
        assert np.array_equal(block.barycenters, m.barycenters[touching])
        assert block.bt.shape == (2 * touching.sum(), m.n_nodes)
        assert block.bf.shape == (2 * touching.sum(), block.nodes.size)

    @pytest.mark.parametrize("kind", sorted(FLUX_KINDS))
    def test_random_masks(self, kind):
        m = build_mesh(9)
        rng = np.random.default_rng(3)
        for frac in (0.1, 0.5, 0.9, 1.0):
            free = rng.random(m.n_nodes) < frac
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

    def test_order_follows_mesh_edge_spans(self):
        # reference for _block_order: the most places a free-free triangle
        # edge spans in row-major and in column-major order pick the order.
        # That span bounds every block matrix's stored bandwidth: sparse
        # products drop exact zeros, so a matrix is only narrower.  Small u
        # puts most triangles in the flat core, where the unshifted
        # Jacobian is zero
        rng = np.random.default_rng(8)
        m16, m64 = build_mesh(16), build_mesh(64)
        cross = shape_union(rect(0.0, 0.49, 1.0, 0.52),
                            rect(0.49, 0.0, 0.52, 1.0))
        cases = [(m16, rng.random(m16.n_nodes) < frac)
                 for frac in (0.1, 0.5, 0.9, 1.0)]
        # two nodes wide, the cross bands in neither grid order
        cases.append((m64, pair_free(m64, shape_none(), cross)))
        for m, free in cases:
            a, b = m.triangles.ravel(), m.triangles[:, [1, 2, 0]].ravel()
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
            if min(row, column) > BAND_C * nodes.size ** 0.25:
                want = nodes[np.argsort(_dissection_rank(m)[nodes])]
            else:
                want = by_column if column < row else nodes
            block = FreeBlock(m, free)
            assert np.array_equal(block.nodes, want)
            for k in (p2_stiffness(m, block),
                      *(jacobian_matrix(m, flat_core_p(2.0, 0.5),
                                        rand_field(m, 9, 0.01), 0.0, shift,
                                        block=block)
                        for shift in (0.0, 1e-9))):
                col = np.repeat(np.arange(k.shape[1]), np.diff(k.indptr))
                assert np.abs(k.indices - col).max(initial=0) <= span(want)

    def test_single_free_node(self):
        m = build_mesh(8)
        for i, j in ((4, 4), (0, 3), (8, 8)):
            free = np.zeros(m.n_nodes, dtype=bool)
            free[m.node_index(i, j)] = True
            self.check(m, free, p_laplacian(3.0), rand_field(m, 6))
            assert p2_stiffness(m, FreeBlock(m, free)).shape == (1, 1)

    def test_fresh_mesh_shared_by_two_threads(self):
        # the suite's jobs=2 path shares one mesh, so its lazy caches may
        # be filled by two threads at once
        m = build_mesh(24)
        fl = p_laplacian(3.0)
        u = rand_field(m, 7)
        free = pair_free(m, disk(0.5, 0.5, 0.1), disk(0.5, 0.5, 0.4))
        start = threading.Barrier(2)
        results = [None, None]

        def work(slot):
            start.wait()
            full = jacobian_matrix(m, fl, u, 1e-8, 1e-9)
            block = jacobian_matrix(m, fl, u, 1e-8, 1e-9,
                                    block=FreeBlock(m, free))
            results[slot] = (full, block, p2_stiffness(m))

        threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        (full_a, block_a, k2_a), (full_b, block_b, k2_b) = results
        for a, b in ((full_a, full_b), (k2_a, k2_b)):
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert a.data.tobytes() == b.data.tobytes()
        assert_same_csc(block_a, block_b)
        nodes = FreeBlock(m, free).nodes
        assert np.array_equal(np.sort(nodes), np.flatnonzero(free))
        assert_same_csc(block_a, sub_block(full_a, nodes))


class TestDissectionOrder:
    @pytest.mark.parametrize("n", [2, 3, 7, 16, 33])
    def test_rank_is_a_permutation(self, n):
        m = build_mesh(n)
        rank = _dissection_rank(m)
        assert np.array_equal(np.sort(rank), np.arange(m.n_nodes))

    def test_built_once_per_mesh_at_first_use(self):
        # an annulus block bands in row-major order and needs no rank; a
        # cross two nodes wide does not band, and builds it
        m = build_mesh(64)
        FreeBlock(m, pair_free(m, disk(0.5, 0.5, 0.1), disk(0.5, 0.5, 0.4)))
        assert "dissection_rank" not in m._cache
        cross = shape_union(rect(0.0, 0.49, 1.0, 0.52),
                            rect(0.49, 0.0, 0.52, 1.0))
        FreeBlock(m, pair_free(m, shape_none(), cross))
        rank = m._cache["dissection_rank"]
        assert not rank.flags.writeable
        FreeBlock(m, pair_free(m, disk(0.5, 0.5, 0.1), cross))
        assert _dissection_rank(m) is rank

    def test_build_leaves_no_garbage_cycles(self):
        # cycles left per fresh mesh wait for a full collection, which let
        # the peak RSS of repeated N = 256 solves creep upwards
        gc.collect()
        gc.disable()
        try:
            _dissection_rank(build_mesh(16))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_first_separator_is_numbered_last(self):
        # the middle grid line splits the square first, so it closes the
        # order: every other node is eliminated before it
        m = build_mesh(16)
        rank = _dissection_rank(m)
        mid = [m.node_index(8, j) for j in range(17)]
        assert sorted(rank[mid]) == list(range(m.n_nodes - 17, m.n_nodes))

    def test_less_fill_than_colamd(self):
        # the block in dissection order, factored without reordering,
        # fills less than COLAMD's order of the same block in mask order
        m = build_mesh(128)
        free = pair_free(m, disk(0.5, 0.5, 0.12), disk(0.5, 0.5, 0.38))
        block = FreeBlock(m, free)
        k = jacobian_matrix(m, p_laplacian(3.0), rand_field(m, 11), 1e-10,
                            1e-9)

        def fill(a, spec):
            lu = spla.splu(a, permc_spec=spec)
            return lu.L.nnz + lu.U.nnz

        nd = fill(jacobian_matrix(m, p_laplacian(3.0), rand_field(m, 11),
                                  1e-10, 1e-9, block=block), "NATURAL")
        colamd = fill(k[free][:, free].tocsc(), "COLAMD")
        assert nd < 0.85 * colamd
