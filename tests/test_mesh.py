import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assembly_reference import (barycenters, complement, difference,
                                discrete_boundary, is_equal, triangles, union)
from moncap.assembly import _Triangles
from moncap.errors import IncompatiblePair, InvalidInput, MeshMismatch
from moncap.mesh import (NodeSet, build_mesh, disk, halfplane, intersect,
                         is_subset, mask_to_rle, node_area, node_diameter,
                         rasterize, rect, shape_all, shape_complement,
                         shape_difference, shape_from_json, shape_intersect,
                         shape_none, shape_union, touched_triangles,
                         validate_pair)


class TestBuildMesh:
    def test_n2_counts(self):
        m = build_mesh(2, 1.0)
        assert m.n_nodes == 9
        assert len(triangles(m)) == 8
        assert m.tri_area == pytest.approx(0.125, abs=0)

    def test_node_index_row_major(self):
        m = build_mesh(4)
        k = int(np.argmin(np.sum((m.nodes - [0.5, 0.5]) ** 2, axis=1)))
        assert k == 2 * (m.n + 1) + 2 == 12
        i, j = np.meshgrid(np.arange(5), np.arange(5))
        assert np.array_equal(m.nodes[j * (m.n + 1) + i],
                              np.stack((i * m.h, j * m.h), axis=-1))

    @pytest.mark.parametrize("n", [2, 3, 8, 17])
    def test_total_area(self, n):
        m = build_mesh(n, 1.0)
        assert len(triangles(m)) * m.tri_area == pytest.approx(1.0,
                                                               rel=1e-14)

    def test_right_triangles_with_leg_h(self):
        m = build_mesh(5, 2.0)
        pts = m.nodes[triangles(m)]
        for tri in pts[:10]:
            d = [np.linalg.norm(tri[i] - tri[j])
                 for i, j in ((0, 1), (1, 2), (0, 2))]
            d.sort()
            assert d[0] == pytest.approx(m.h, rel=1e-12)
            assert d[1] == pytest.approx(m.h, rel=1e-12)
            assert d[2] == pytest.approx(m.h * np.sqrt(2), rel=1e-12)

    def test_interior_node_in_six_triangles(self):
        m = build_mesh(4)
        counts = np.zeros(m.n_nodes, dtype=int)
        np.add.at(counts, triangles(m).ravel(), 1)
        interior = np.ones(m.n_nodes, dtype=bool)
        i = np.arange(m.n_nodes) % 5
        j = np.arange(m.n_nodes) // 5
        interior &= (i > 0) & (i < 4) & (j > 0) & (j < 4)
        assert np.all(counts[interior] == 6)

    @pytest.mark.parametrize("mask", ["empty", "cell", "annulus", "whole"])
    @pytest.mark.parametrize("length", [1.0, 0.3, 2.5, 2.2e-93, 1e100])
    @pytest.mark.parametrize("n", [2, 3, 48])
    def test_triangles_from_ids_bitwise(self, n, length, mask):
        # a triangle subset's corners (an upper one's as n11, n01, n00),
        # lower ones first, and barycenters are the reference's rows, the
        # barycenters bitwise the mean of the corners' coordinates
        m = build_mesh(n, length)
        tris = np.zeros(2 * m.n ** 2, dtype=bool)
        if mask == "cell":
            tris[2 * (n * n // 2):][:2] = True
        elif mask == "annulus":
            e, f = (rasterize(disk(0.5 * length, 0.5 * length, r * length),
                              m).mask for r in (0.1, 0.4))
            tris = touched_triangles(m, f) & touched_triangles(m, ~e)
        elif mask == "whole":
            tris[:] = True
        ids = np.flatnonzero(tris)
        ids = ids[np.argsort(ids % 2, kind="stable")]
        want = triangles(m)[ids]
        upper = ids % 2 == 1
        want[upper] = want[upper][:, [1, 2, 0]]
        got = _Triangles(m, tris)
        assert got.n_lower == np.count_nonzero(~upper)
        assert got.corners.tobytes() == want.tobytes()
        assert got.barycenters.tobytes() == barycenters(m)[ids].tobytes()

    def test_deterministic_rebuild(self):
        a = build_mesh(6, 1.5)
        b = build_mesh(6, 1.5)
        assert a.mesh_id == b.mesh_id
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(triangles(a), triangles(b))

    def test_small_n_rejected(self):
        with pytest.raises(InvalidInput):
            build_mesh(1)


class TestRasterize:
    def test_disk_five_nodes(self):
        m = build_mesh(4)
        s = rasterize(disk(0.5, 0.5, 0.26), m)
        got = {tuple(np.round(p, 6)) for p in m.nodes[s.mask]}
        assert got == {(0.5, 0.5), (0.25, 0.5), (0.75, 0.5),
                       (0.5, 0.25), (0.5, 0.75)}

    def test_halfplane_closed_boundary(self):
        m = build_mesh(4)
        s = rasterize(halfplane("x", 0.25, "le"), m)
        assert s.count == 10  # i in {0, 1}

    def test_difference_all_all_empty(self):
        m = build_mesh(4)
        s = rasterize(shape_difference(shape_all(), shape_all()), m)
        assert s.count == 0

    @pytest.mark.parametrize("shape", [
        shape_union(disk(0.2, 0.3, 0.1),
                    shape_complement(rect(0.1, 0.1, 0.9, 0.9))),
        halfplane("y", 0.375, "ge"),
        shape_all(),
        shape_none(),
        shape_intersect(disk(0.5, 0.5, 0.4), halfplane("x", 0.5, "le"),
                        rect(0.0, 0.25, 1.0, 1.0)),
        shape_difference(rect(0.125, 0.125, 0.875, 0.875),
                         disk(0.5, 0.5, 0.25)),
    ], ids=lambda shape: shape.op)
    def test_json_roundtrip(self, shape):
        again = shape_from_json(shape.to_json())
        assert again == shape
        assert again.to_json() == shape.to_json()
        m = build_mesh(8)
        assert np.array_equal(rasterize(shape, m).mask,
                              rasterize(again, m).mask)

    def test_json_forms(self):
        assert halfplane("x", 0.25, "le").to_json() == {
            "halfplane": {"axis": "x", "threshold": 0.25, "side": "le"}}
        assert shape_difference(shape_all(), shape_none()).to_json() == {
            "difference": [{"all": {}}, {"none": {}}]}
        assert shape_complement(disk(0.5, 0.5, 0.1)).to_json() == {
            "complement": {"disk": {"cx": 0.5, "cy": 0.5, "r": 0.1}}}

    @pytest.mark.parametrize("obj,field,message", [
        ([1], "shape", "single-key object"),
        ({"disk": {}, "rect": {}}, "shape", "single-key object"),
        ({"ellipse": {}}, "shape", "unknown shape op 'ellipse'"),
        ({"union": {"all": {}}}, "shape.union", "takes a list of shapes"),
        ({"difference": [{"all": {}}]}, "shape.difference",
         "takes exactly two shapes"),
        ({"complement": {"disk": {"cx": 0.5, "cy": 0.5, "r": -1.0}}},
         "shape.complement.disk.r", "disk radius must be nonnegative"),
        ({"intersect": [{"all": {}}, {"halfplane": {
            "axis": "z", "threshold": 0.5, "side": "le"}}]},
         "shape.intersect[1].halfplane", "halfplane needs axis"),
        # primitive bodies are read as strictly as config values
        ({"disk": {"cx": 0.5, "cy": 0.5}}, "shape.disk",
         "missing required key 'r'"),
        ({"disk": {"cx": 0.5, "cy": 0.5, "r": 0.1, "zz": 1}}, "shape.disk",
         r"unknown keys \['zz'\]"),
        ({"disk": [0.5, 0.5, 0.1]}, "shape.disk", "disk must be an object"),
        ({"disk": {"cx": "0.5", "cy": 0.5, "r": 0.1}}, "shape.disk.cx",
         "expected a number, got '0.5'"),
        ({"rect": {"x0": 0.0, "y0": True, "x1": 1.0, "y1": 1.0}},
         "shape.rect.y0", "expected a number, got True"),
        ({"union": [{"all": {}}, {"disk": {
            "cx": float("nan"), "cy": 0.5, "r": 0.1}}]},
         "shape.union[1].disk.cx", "expected a number, got nan"),
        ({"halfplane": {"axis": "x", "threshold": float("inf"),
                        "side": "le"}},
         "shape.halfplane.threshold", "expected a number, got inf"),
        ({"none": {"r": 1.0}}, "shape.none", r"unknown keys \['r'\]"),
    ])
    def test_json_errors_name_their_path(self, obj, field, message):
        with pytest.raises(InvalidInput, match=message) as exc:
            shape_from_json(obj)
        assert exc.value.field == field

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_combinators_match_mask_algebra(self, seed):
        rng = np.random.default_rng(seed)
        m = build_mesh(6)

        def prim():
            k = rng.integers(0, 3)
            if k == 0:
                return disk(rng.uniform(0, 1), rng.uniform(0, 1),
                            rng.uniform(0, 0.5))
            if k == 1:
                x0, y0 = rng.uniform(0, 0.6, size=2)
                return rect(x0, y0, x0 + rng.uniform(0, 0.4),
                            y0 + rng.uniform(0, 0.4))
            return halfplane("x" if rng.random() < 0.5 else "y",
                             rng.uniform(0, 1),
                             "le" if rng.random() < 0.5 else "ge")

        a, b = prim(), prim()
        ma = rasterize(a, m).mask
        mb = rasterize(b, m).mask
        assert np.array_equal(rasterize(shape_union(a, b), m).mask, ma | mb)
        assert np.array_equal(rasterize(shape_intersect(a, b), m).mask,
                              ma & mb)
        assert np.array_equal(rasterize(shape_difference(a, b), m).mask,
                              ma & ~mb)
        assert np.array_equal(rasterize(shape_complement(a), m).mask, ~ma)


class TestSetAlgebra:
    def setup_method(self):
        self.m = build_mesh(6)
        self.a = rasterize(disk(0.3, 0.3, 0.2), self.m, "a")
        self.b = rasterize(disk(0.7, 0.7, 0.2), self.m, "b")

    def test_empty_subset_of_anything(self):
        empty = rasterize(shape_none(), self.m)
        assert is_subset(empty, self.a) is True
        assert is_subset(empty, self.b) is True
        assert is_subset(self.a, self.b) is False

    def test_disjoint_union_counts(self):
        assert union(self.a, self.b).count == self.a.count + self.b.count

    def test_intersect_with_complement_empty(self):
        assert intersect(self.a, complement(self.a)).count == 0

    def test_equal(self):
        assert is_equal(self.a, self.a)
        assert not is_equal(self.a, self.b)

    def test_mesh_mismatch_rejected(self):
        other = rasterize(disk(0.3, 0.3, 0.2), build_mesh(7))
        for op in (union, intersect, difference, is_subset, is_equal):
            with pytest.raises(MeshMismatch):
                op(self.a, other)

    def test_difference(self):
        d = difference(self.a, self.a)
        assert d.count == 0


class TestDiscreteBoundary:
    def test_single_node(self):
        m = build_mesh(6)
        mask = np.zeros(m.n_nodes, dtype=bool)
        mask[3 * (m.n + 1) + 3] = True
        e = NodeSet(mask, "one", m.mesh_id)
        assert np.array_equal(discrete_boundary(e, m).mask, mask)

    def test_all_nodes_has_empty_boundary(self):
        m = build_mesh(5)
        e = rasterize(shape_all(), m)
        assert discrete_boundary(e, m).count == 0

    def test_block_3x3_perimeter(self):
        m = build_mesh(8)
        e = rasterize(rect(3 / 8, 3 / 8, 5 / 8, 5 / 8), m)
        assert e.count == 9
        b = discrete_boundary(e, m)
        assert b.count == 8
        center = 4 * (m.n + 1) + 4
        assert not b.mask[center]

    def test_boundary_subset_and_empty(self):
        m = build_mesh(6)
        e = rasterize(disk(0.5, 0.5, 0.3), m)
        b = discrete_boundary(e, m)
        assert is_subset(b, e)
        empty = rasterize(shape_none(), m)
        assert discrete_boundary(empty, m).count == 0


class TestValidatePair:
    def setup_method(self):
        self.m = build_mesh(8)

    def test_empty_e_valid(self):
        e = rasterize(shape_none(), self.m, "E")
        f = rasterize(disk(0.5, 0.5, 0.3), self.m, "F")
        free = validate_pair(e, f, self.m)
        assert np.array_equal(free, f.mask)

    def test_e_not_inside_f_incompatible(self):
        e = rasterize(disk(0.5, 0.5, 0.2), self.m, "E")
        f = rasterize(disk(0.5, 0.5, 0.1), self.m, "F")
        with pytest.raises(IncompatiblePair):
            validate_pair(e, f, self.m)

    def test_e_equals_f_valid_no_free(self):
        e = rasterize(disk(0.5, 0.5, 0.2), self.m, "E")
        assert not validate_pair(e, e, self.m).any()


def _all_pairs_diameter(mesh, mask):
    """Brute-force diameter: the largest distance over every node pair."""
    pts = mesh.nodes[mask]
    d2 = [np.sum((pts - p) ** 2, axis=-1).max() for p in pts]
    return float(np.sqrt(max(d2, default=0.0)))


def _grid(n):
    return np.zeros((n + 1, n + 1), dtype=bool)


def _set_cells(n, cells):
    mask = _grid(n)
    for j, i in cells:
        mask[j, i] = True
    return mask


def _random_masks(n):
    rng = np.random.default_rng([n, 2024])
    masks = [rng.random((n + 1, n + 1)) < density
             for density in (0.02, 0.1, 0.5, 0.9) for _ in range(10)]
    # one random run per row: the row ends form a ragged outline
    for _ in range(10):
        mask = _grid(n)
        for j in range(n + 1):
            lo, hi = np.sort(rng.integers(0, n + 1, size=2))
            mask[j, lo:hi + 1] = rng.random() < 0.7
        masks.append(mask)
    return masks


# (j, i) masks on an (n+1) x (n+1) grid, row j at y = j h
DIAMETER_CASES = {
    "empty": lambda n: [_grid(n)],
    "singleton": lambda n: [_set_cells(n, [(j, i)])
                            for j, i in ((0, 0), (n, n), (n // 2, 1))],
    "row": lambda n: [_set_cells(n, [(j, i) for i in range(n + 1)])
                      for j in (0, n // 2, n)],
    "column": lambda n: [_set_cells(n, [(j, i) for j in range(n + 1)])
                         for i in (0, n // 2, n)],
    "diagonal": lambda n: [_set_cells(n, [(k, k) for k in range(n + 1)]),
                           _set_cells(n, [(k, n - k) for k in range(n + 1)])],
    "collinear": lambda n: [
        _set_cells(n, [(2 * k, k) for k in range(n // 2 + 1)]),
        _set_cells(n, [(k, 2 * k) for k in range(n // 2 + 1)]),
        _set_cells(n, [(0, 0), (0, n)]),
        _set_cells(n, [(0, 0), (n, 0), (n // 2, 0)])],
    "whole": lambda n: [np.ones((n + 1, n + 1), dtype=bool)],
    "random": _random_masks,
}


class TestMeasures:
    def test_node_area_all(self):
        m = build_mesh(4, 2.0)
        assert node_area(m, rasterize(shape_all(), m)) == pytest.approx(4.0)

    def test_node_area_grows_with_set(self):
        m = build_mesh(8)
        small = rasterize(disk(0.5, 0.5, 0.2), m)
        big = rasterize(disk(0.5, 0.5, 0.4), m)
        assert node_area(m, small) < node_area(m, big)

    @pytest.mark.parametrize("n", [2, 7, 16, 33])
    def test_touched_triangles_equal_vertex_gather(self, n):
        # the four grid slices give mask[triangles].any(axis=1) bit for bit,
        # on odd and even N, with masks that reach every edge of the square
        m = build_mesh(n)
        rng = np.random.default_rng(n)
        for frac in (0.0, 0.05, 0.3, 0.7, 1.0):
            mask = rng.random(m.n_nodes) < frac
            got = touched_triangles(m, mask)
            assert got.dtype == bool and got.shape == (2 * m.n ** 2,)
            assert np.array_equal(got, mask[triangles(m)].any(axis=1))

    def test_diameter(self):
        m = build_mesh(4)
        s = rasterize(rect(0.0, 0.0, 1.0, 0.0), m)  # bottom row
        assert node_diameter(m, s) == pytest.approx(1.0)
        empty = rasterize(shape_none(), m)
        assert node_diameter(m, empty) == 0.0

    def test_diameter_large_set_matches_all_pairs(self):
        m = build_mesh(32)
        s = rasterize(disk(0.5, 0.5, 0.4), m)
        assert s.count > 64
        d = node_diameter(m, s)
        assert d == _all_pairs_diameter(m, s.mask)
        assert 0.75 <= d <= 0.8 + 1e-9

    @pytest.mark.parametrize("case", sorted(DIAMETER_CASES))
    @pytest.mark.parametrize("n", [2, 3, 8, 48])
    def test_diameter_bitwise_all_pairs(self, n, case):
        for length in (1.0, 3.7):
            m = build_mesh(n, length)
            for mask in DIAMETER_CASES[case](n):
                got = node_diameter(m, NodeSet(mask.ravel(), case, m.mesh_id))
                assert got == _all_pairs_diameter(m, mask.ravel())


class TestRle:
    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random(rng.integers(1, 200)) < 0.4
        rle = mask_to_rle(mask)
        # runs alternate False, True, ... from the first
        runs = rle["runs"]
        decoded = np.repeat(np.arange(len(runs)) % 2 == 1, runs)
        assert rle["n"] == mask.size and sum(runs) == mask.size
        assert np.array_equal(decoded, mask)

    def test_known_encoding(self):
        mask = np.array([False, True, True, False])
        assert mask_to_rle(mask) == {"n": 4, "runs": [1, 2, 1]}
        mask = np.array([True, True])
        assert mask_to_rle(mask) == {"n": 2, "runs": [0, 2]}
        # a 2-D mask is encoded flattened, row by row
        mask = np.array([[True, False], [False, True]])
        assert mask_to_rle(mask) == {"n": 4, "runs": [0, 1, 2, 1]}
        assert mask_to_rle(np.zeros(0, dtype=bool)) == {"n": 0, "runs": []}
