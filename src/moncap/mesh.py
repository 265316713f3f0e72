"""Uniform P1 triangulation of a square and node-set management.

The square [0, L]^2 is cut into N x N cells, each split into two right
triangles along the diagonal of positive slope.  Node (i, j) sits at
(i L/N, j L/N) and has row-major index j*(N+1) + i.  This triangulation is
nonobtuse, so the assembled p=2 operator is an M-matrix and the discrete
comparison principle holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import IncompatiblePair, InvalidInput, MeshMismatch


@dataclass
class Mesh:
    n: int
    length: float
    nodes: np.ndarray        # ((N+1)^2, 2)
    triangles: np.ndarray    # (2 N^2, 3) node indices
    tri_area: float          # L^2 / (2 N^2), same for every triangle
    barycenters: np.ndarray  # (2 N^2, 2)
    mesh_id: str
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def h(self) -> float:
        return self.length / self.n

    def node_index(self, i: int, j: int) -> int:
        return j * (self.n + 1) + i


def build_mesh(n: int, length: float = 1.0) -> Mesh:
    """Deterministic uniform triangulation; n cells per side, n >= 2."""
    if n < 2:
        raise InvalidInput(f"need at least 2 cells per side, got {n}")
    if not (length > 0):
        raise InvalidInput("side length must be positive")
    n = int(n)
    coords = np.arange(n + 1) * (length / n)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ii = ii.ravel()
    jj = jj.ravel()
    n00 = jj * (n + 1) + ii
    n10 = n00 + 1
    n01 = n00 + (n + 1)
    n11 = n01 + 1
    lower = np.column_stack([n00, n10, n11])
    upper = np.column_stack([n00, n11, n01])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    # ((x0 + x1) + x2) / 3 per triangle, in the order and rounding of
    # nodes[triangles].mean(axis=1), from the 1-D coordinates of each cell
    c0, c1 = coords[:-1], coords[1:]
    low, high = ((c0 + c0) + c1) / 3, ((c0 + c1) + c1) / 3
    mid = ((c0 + c1) + c0) / 3
    bary = np.empty((n, n, 2, 2))             # (j, i, lower|upper, x|y)
    bary[:, :, 0, 0] = high[None, :]          # lower: n00, n10, n11
    bary[:, :, 0, 1] = low[:, None]
    bary[:, :, 1, 0] = mid[None, :]           # upper: n00, n11, n01
    bary[:, :, 1, 1] = high[:, None]
    barycenters = bary.reshape(2 * n * n, 2)
    tri_area = length * length / (2.0 * n * n)
    mesh_id = f"square-N{n}-L{length!r}"
    return Mesh(n=n, length=float(length), nodes=nodes, triangles=triangles,
                tri_area=tri_area, barycenters=barycenters, mesh_id=mesh_id)


# ---------------------------------------------------------------------------
# node sets


@dataclass
class NodeSet:
    mask: np.ndarray  # bool per node
    name: str
    mesh_id: str

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


def _require_same_mesh(a: NodeSet, b: NodeSet):
    if a.mesh_id != b.mesh_id:
        raise MeshMismatch(
            f"node sets live on different meshes: {a.mesh_id} vs {b.mesh_id}")


def union(a: NodeSet, b: NodeSet, name: Optional[str] = None) -> NodeSet:
    _require_same_mesh(a, b)
    return NodeSet(a.mask | b.mask, name or f"({a.name})|({b.name})", a.mesh_id)


def intersect(a: NodeSet, b: NodeSet, name: Optional[str] = None) -> NodeSet:
    _require_same_mesh(a, b)
    return NodeSet(a.mask & b.mask, name or f"({a.name})&({b.name})", a.mesh_id)


def difference(a: NodeSet, b: NodeSet, name: Optional[str] = None) -> NodeSet:
    _require_same_mesh(a, b)
    return NodeSet(a.mask & ~b.mask, name or f"({a.name})-({b.name})", a.mesh_id)


def complement(a: NodeSet, name: Optional[str] = None) -> NodeSet:
    return NodeSet(~a.mask, name or f"~({a.name})", a.mesh_id)


def is_subset(a: NodeSet, b: NodeSet) -> bool:
    _require_same_mesh(a, b)
    return bool(np.all(~a.mask | b.mask))


def is_equal(a: NodeSet, b: NodeSet) -> bool:
    _require_same_mesh(a, b)
    return bool(np.array_equal(a.mask, b.mask))


# ---------------------------------------------------------------------------
# shape expressions


@dataclass(frozen=True)
class ShapeExpr:
    """AST node for a geometric predicate over the square.

    op is one of: disk, rect, halfplane, all, none, union, intersect,
    difference, complement.  Primitive boundaries use closed inequalities so
    nodes lying exactly on them are inside.
    """

    op: str
    args: tuple = ()
    children: tuple = ()

    def to_json(self):
        if self.op in ("all", "none"):
            return {self.op: {}}
        if self.op == "disk":
            cx, cy, r = self.args
            return {"disk": {"cx": cx, "cy": cy, "r": r}}
        if self.op == "rect":
            x0, y0, x1, y1 = self.args
            return {"rect": {"x0": x0, "y0": y0, "x1": x1, "y1": y1}}
        if self.op == "halfplane":
            axis, threshold, side = self.args
            return {"halfplane": {"axis": axis, "threshold": threshold,
                                  "side": side}}
        if self.op in ("union", "intersect"):
            return {self.op: [c.to_json() for c in self.children]}
        if self.op == "difference":
            return {"difference": [c.to_json() for c in self.children]}
        if self.op == "complement":
            return {"complement": self.children[0].to_json()}
        raise InvalidInput(f"unknown shape op {self.op!r}")


def disk(cx: float, cy: float, r: float) -> ShapeExpr:
    if r < 0:
        raise InvalidInput("disk radius must be nonnegative")
    return ShapeExpr("disk", (float(cx), float(cy), float(r)))


def rect(x0: float, y0: float, x1: float, y1: float) -> ShapeExpr:
    return ShapeExpr("rect", (float(x0), float(y0), float(x1), float(y1)))


def halfplane(axis: str, threshold: float, side: str) -> ShapeExpr:
    if axis not in ("x", "y") or side not in ("le", "ge"):
        raise InvalidInput("halfplane needs axis in {x,y}, side in {le,ge}")
    return ShapeExpr("halfplane", (axis, float(threshold), side))


def shape_all() -> ShapeExpr:
    return ShapeExpr("all")


def shape_none() -> ShapeExpr:
    return ShapeExpr("none")


def shape_union(*children: ShapeExpr) -> ShapeExpr:
    return ShapeExpr("union", children=tuple(children))


def shape_intersect(*children: ShapeExpr) -> ShapeExpr:
    return ShapeExpr("intersect", children=tuple(children))


def shape_difference(a: ShapeExpr, b: ShapeExpr) -> ShapeExpr:
    return ShapeExpr("difference", children=(a, b))


def shape_complement(a: ShapeExpr) -> ShapeExpr:
    return ShapeExpr("complement", children=(a,))


def shape_from_json(obj) -> ShapeExpr:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InvalidInput(f"shape must be a single-key object, got {obj!r}")
    op, body = next(iter(obj.items()))
    if op == "disk":
        return disk(body["cx"], body["cy"], body["r"])
    if op == "rect":
        return rect(body["x0"], body["y0"], body["x1"], body["y1"])
    if op == "halfplane":
        return halfplane(body["axis"], body["threshold"], body["side"])
    if op == "all":
        return shape_all()
    if op == "none":
        return shape_none()
    if op == "union":
        return shape_union(*[shape_from_json(c) for c in body])
    if op == "intersect":
        return shape_intersect(*[shape_from_json(c) for c in body])
    if op == "difference":
        if len(body) != 2:
            raise InvalidInput("difference takes exactly two shapes")
        return shape_difference(shape_from_json(body[0]), shape_from_json(body[1]))
    if op == "complement":
        return shape_complement(shape_from_json(body))
    raise InvalidInput(f"unknown shape op {op!r}")


def _eval_shape(shape: ShapeExpr, pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    op = shape.op
    if op == "disk":
        cx, cy, r = shape.args
        return (x - cx) ** 2 + (y - cy) ** 2 <= r * r
    if op == "rect":
        x0, y0, x1, y1 = shape.args
        return (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)
    if op == "halfplane":
        axis, threshold, side = shape.args
        v = x if axis == "x" else y
        return v <= threshold if side == "le" else v >= threshold
    if op == "all":
        return np.ones(len(pts), dtype=bool)
    if op == "none":
        return np.zeros(len(pts), dtype=bool)
    if op == "union":
        out = np.zeros(len(pts), dtype=bool)
        for c in shape.children:
            out |= _eval_shape(c, pts)
        return out
    if op == "intersect":
        out = np.ones(len(pts), dtype=bool)
        for c in shape.children:
            out &= _eval_shape(c, pts)
        return out
    if op == "difference":
        a, b = shape.children
        return _eval_shape(a, pts) & ~_eval_shape(b, pts)
    if op == "complement":
        return ~_eval_shape(shape.children[0], pts)
    raise InvalidInput(f"unknown shape op {op!r}")


def rasterize(shape: ShapeExpr, mesh: Mesh, name: str = "set") -> NodeSet:
    """Nodes whose coordinates satisfy the shape predicate."""
    return NodeSet(_eval_shape(shape, mesh.nodes), name, mesh.mesh_id)


# ---------------------------------------------------------------------------
# boundary extraction and pair validation


def _node_tri_counts(mesh: Mesh, tri_mask: np.ndarray) -> np.ndarray:
    """Per node, number of marked triangles containing it."""
    counts = np.zeros(mesh.n_nodes, dtype=np.int64)
    marked = mesh.triangles[tri_mask]
    np.add.at(counts, marked.ravel(), 1)
    return counts


def discrete_boundary(e: NodeSet, mesh: Mesh) -> NodeSet:
    """Nodes of e sharing a triangle with a node outside e."""
    if e.mesh_id != mesh.mesh_id:
        raise MeshMismatch("node set does not belong to this mesh")
    inside = e.mask[mesh.triangles]          # (ntri, 3)
    mixed = inside.any(axis=1) & ~inside.all(axis=1)
    touched = _node_tri_counts(mesh, mixed) > 0
    return NodeSet(e.mask & touched, f"boundary({e.name})", mesh.mesh_id)


@dataclass
class ValidatedPair:
    e: NodeSet
    f: NodeSet
    free_mask: np.ndarray          # nodes of F \ E (the solved-for nodes)
    constrained_mask: np.ndarray   # E nodes plus F-complement nodes
    touches_outer_boundary: bool   # F meets the edge of the square: natural
                                   # zero-flux condition there, not an error


def outer_boundary_mask(mesh: Mesh) -> np.ndarray:
    i = np.arange(mesh.n_nodes) % (mesh.n + 1)
    j = np.arange(mesh.n_nodes) // (mesh.n + 1)
    return (i == 0) | (i == mesh.n) | (j == 0) | (j == mesh.n)


def validate_pair(e: NodeSet, f: NodeSet, mesh: Mesh) -> ValidatedPair:
    """Check the discrete compatibility E subset-of F.

    Raises IncompatiblePair when E has nodes outside F; downstream that is
    reported as capacity +infinity.
    """
    _require_same_mesh(e, f)
    if e.mesh_id != mesh.mesh_id:
        raise MeshMismatch("node sets do not belong to this mesh")
    if not is_subset(e, f):
        raise IncompatiblePair(
            f"{e.name} is not contained in {f.name}; capacity is +infinity",
            e_name=e.name, f_name=f.name)
    free = f.mask & ~e.mask
    touches = bool(np.any(f.mask & outer_boundary_mask(mesh)))
    return ValidatedPair(e=e, f=f, free_mask=free,
                         constrained_mask=~free,
                         touches_outer_boundary=touches)


def node_area(mesh: Mesh, s: NodeSet) -> float:
    """Area of the triangles touching the set: the support of fields
    vanishing outside it.  Used for the discrete L1/Lq norms of b1, b2."""
    if s.mesh_id != mesh.mesh_id:
        raise MeshMismatch("node set does not belong to this mesh")
    touched = s.mask[mesh.triangles].any(axis=1)
    return float(np.count_nonzero(touched)) * mesh.tri_area


def _row_ends(rows: np.ndarray) -> np.ndarray:
    """Mask of the first and last marked entry of each row."""
    ends = np.zeros_like(rows)
    hit = np.flatnonzero(rows.any(axis=1))
    ends[hit, np.argmax(rows[hit], axis=1)] = True
    ends[hit, rows.shape[1] - 1 - np.argmax(rows[hit, ::-1], axis=1)] = True
    return ends


def node_diameter(mesh: Mesh, s: NodeSet) -> float:
    """Euclidean diameter of the node set (0 for empty or singleton).

    A vertex of the convex hull of a grid node set is the first or last
    node of both its row and its column, so only such nodes are compared.
    """
    side = mesh.n + 1
    rows = s.mask.reshape(side, side)
    pts = mesh.nodes[(_row_ends(rows) & _row_ends(rows.T).T).ravel()]
    if len(pts) < 2:
        return 0.0
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


# ---------------------------------------------------------------------------
# export helpers


def mask_to_rle(mask: np.ndarray) -> dict:
    """Run-length encoding of the flattened mask, alternating runs starting
    with False."""
    flat = np.asarray(mask, dtype=bool).ravel()
    n = flat.size
    if n == 0:
        return {"n": 0, "runs": []}
    changes = np.flatnonzero(np.diff(flat.astype(np.int8))) + 1
    bounds = np.concatenate([[0], changes, [n]])
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs = [0] + runs
    return {"n": int(n), "runs": [int(r) for r in runs]}


def nodeset_to_image(s: NodeSet, mesh: Mesh) -> np.ndarray:
    """(N+1) x (N+1) uint8 image, 255 inside the set, row 0 at y=0."""
    side = mesh.n + 1
    return (s.mask.reshape(side, side) * np.uint8(255))
