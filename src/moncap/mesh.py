"""Uniform P1 triangulation of a square and node-set management.

The square [0, L]^2 is cut into N x N cells, each split into two right
triangles along the diagonal of positive slope.  Node (i, j) sits at
(i L/N, j L/N) and has row-major index j*(N+1) + i.  Cell c = j N + i has
corners n00 = j*(N+1) + i, n10 = n00 + 1, n01 = n00 + N + 1 and
n11 = n00 + N + 2; its lower triangle (n00, n10, n11) is triangle 2c and
its upper one (n00, n11, n01) triangle 2c + 1.  The grid is the mesh: no
triangle's corners or barycenter are stored, they follow from its id.
This triangulation is nonobtuse, so the assembled p=2 operator is an
M-matrix and the discrete comparison principle holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (IncompatiblePair, InvalidInput, MeshMismatch,
                     finite_number)


@dataclass
class Mesh:
    n: int
    length: float
    nodes: np.ndarray        # ((N+1)^2, 2)
    tri_area: float          # L^2 / (2 N^2), same for every triangle
    # (4, N): the barycenter x of a lower and of an upper triangle by cell
    # column i, then its y of a lower and of an upper one by cell row j
    bary_rows: np.ndarray
    mesh_id: str

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def h(self) -> float:
        return self.length / self.n


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
    # ((x0 + x1) + x2) / 3 per triangle, in the order and rounding of the
    # mean of its corners' coordinates: a lower triangle's is (high, low),
    # an upper one's (mid, high)
    c0, c1 = coords[:-1], coords[1:]
    low, high = ((c0 + c0) + c1) / 3, ((c0 + c1) + c1) / 3
    mid = ((c0 + c1) + c0) / 3
    tri_area = length * length / (2.0 * n * n)
    mesh_id = f"square-N{n}-L{length!r}"
    return Mesh(n=n, length=float(length), nodes=nodes, tri_area=tri_area,
                bary_rows=np.stack((high, mid, low, high)), mesh_id=mesh_id)


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


def _require_same_mesh(a: NodeSet, b: NodeSet):
    if a.mesh_id != b.mesh_id:
        raise MeshMismatch(
            f"node sets live on different meshes: {a.mesh_id} vs {b.mesh_id}")


def intersect(a: NodeSet, b: NodeSet, name: Optional[str] = None) -> NodeSet:
    _require_same_mesh(a, b)
    return NodeSet(a.mask & b.mask, name or f"({a.name})&({b.name})", a.mesh_id)


def is_subset(a: NodeSet, b: NodeSet) -> bool:
    _require_same_mesh(a, b)
    return bool(np.all(~a.mask | b.mask))


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
        op = _OPS[self.op]
        if not op.arity:
            return {self.op: dict(zip(op.keys, self.args))}
        body = [c.to_json() for c in self.children]
        return {self.op: body[0] if op.arity == 1 else body}


def disk(cx: float, cy: float, r: float) -> ShapeExpr:
    if r < 0:
        raise InvalidInput("disk radius must be nonnegative", "r")
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


def _halfplane_mask(x, y, axis, threshold, side):
    v = x if axis == "x" else y
    return v <= threshold if side == "le" else v >= threshold


class _Op(NamedTuple):
    build: Callable    # the constructor, from args or from children
    mask: Callable     # mask(x, y, *args, *child masks) of the nodes inside
    keys: tuple = ()   # a primitive's JSON keys, in ShapeExpr.args order
    arity: int = 0     # children: 1 one, 2 a list of two, -1 a list


_OPS = {
    "disk": _Op(disk, lambda x, y, cx, cy, r:
                (x - cx) ** 2 + (y - cy) ** 2 <= r * r, ("cx", "cy", "r")),
    "rect": _Op(rect, lambda x, y, x0, y0, x1, y1:
                (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1),
                ("x0", "y0", "x1", "y1")),
    "halfplane": _Op(halfplane, _halfplane_mask,
                     ("axis", "threshold", "side")),
    "all": _Op(shape_all, lambda x, y: np.ones(len(x), dtype=bool)),
    "none": _Op(shape_none, lambda x, y: np.zeros(len(x), dtype=bool)),
    "union": _Op(shape_union, lambda x, y, *masks: reduce(
        np.logical_or, masks, np.zeros(len(x), dtype=bool)), arity=-1),
    "intersect": _Op(shape_intersect, lambda x, y, *masks: reduce(
        np.logical_and, masks, np.ones(len(x), dtype=bool)), arity=-1),
    "difference": _Op(shape_difference, lambda x, y, a, b: a & ~b, arity=2),
    "complement": _Op(shape_complement, lambda x, y, a: ~a, arity=1),
}


def shape_from_json(obj, path: str = "shape") -> ShapeExpr:
    """The shape of {op: body}: a primitive's body holds exactly its keys,
    each a finite number but halfplane's axis and side names, a
    combinator's one shape or a list of them.  An error's field is the path
    at fault, path naming the whole shape."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InvalidInput(f"shape must be a single-key object, got {obj!r}",
                           path)
    name, body = next(iter(obj.items()))
    if name not in _OPS:
        raise InvalidInput(f"unknown shape op {name!r}", path)
    op, path = _OPS[name], f"{path}.{name}"
    if op.arity == 1:
        return op.build(shape_from_json(body, path))
    if op.arity:
        if not isinstance(body, list) or op.arity == 2 and len(body) != 2:
            want = ("exactly two shapes" if op.arity == 2
                    else "a list of shapes")
            raise InvalidInput(f"{name} takes {want}", path)
        return op.build(*(shape_from_json(c, f"{path}[{k}]")
                          for k, c in enumerate(body)))
    if not isinstance(body, dict):
        raise InvalidInput(f"{name} must be an object", path)
    unknown = set(body) - set(op.keys)
    if unknown:
        raise InvalidInput(f"unknown keys {sorted(unknown)}", path)
    missing = [key for key in op.keys if key not in body]
    if missing:
        raise InvalidInput(f"missing required key {missing[0]!r}", path)
    try:
        return op.build(*(body[k] if k in ("axis", "side")
                          else finite_number(body[k], k) for k in op.keys))
    except InvalidInput as exc:
        raise InvalidInput(str(exc), f"{path}.{exc.field}" if exc.field
                           else path) from exc


def _eval_shape(shape: ShapeExpr, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    masks = [_eval_shape(c, x, y) for c in shape.children]
    return _OPS[shape.op].mask(x, y, *shape.args, *masks)


def rasterize(shape: ShapeExpr, mesh: Mesh, name: str = "set") -> NodeSet:
    """Nodes whose coordinates satisfy the shape predicate."""
    x, y = mesh.nodes.T
    return NodeSet(_eval_shape(shape, x, y), name, mesh.mesh_id)


# ---------------------------------------------------------------------------
# triangle masks and pair validation


def touched_triangles(mesh: Mesh, mask: np.ndarray) -> np.ndarray:
    """Per mesh triangle, in id order, whether a corner is in mask, from
    four slices of the node grid: a cell's lower triangle is n00, n10, n11,
    its upper n00, n11, n01."""
    grid = mask.reshape(mesh.n + 1, mesh.n + 1)   # grid[j, i] is node (i, j)
    d = grid[:-1, :-1] | grid[1:, 1:]         # a cell's diagonal corners
    return np.stack([d | grid[:-1, 1:], d | grid[1:, :-1]], axis=-1).ravel()


def validate_pair(e: NodeSet, f: NodeSet, mesh: Mesh) -> np.ndarray:
    """Check the discrete compatibility E subset-of F and return the mask
    of the solved-for nodes, those of F not in E.

    Raises IncompatiblePair when E has nodes outside F; downstream that is
    reported as capacity +infinity.
    """
    _require_same_mesh(e, f)
    if e.mesh_id != mesh.mesh_id:
        raise MeshMismatch("node sets do not belong to this mesh")
    if not is_subset(e, f):
        raise IncompatiblePair(
            f"{e.name} is not contained in {f.name}; capacity is +infinity")
    return f.mask & ~e.mask


def node_area(mesh: Mesh, s: NodeSet) -> float:
    """Area of the triangles touching the set: the support of fields
    vanishing outside it.  Used for the discrete L1/Lq norms of b1, b2."""
    if s.mesh_id != mesh.mesh_id:
        raise MeshMismatch("node set does not belong to this mesh")
    return float(touched_triangles(mesh, s.mask).sum()) * mesh.tri_area


def node_diameter(mesh: Mesh, s: NodeSet) -> float:
    """Euclidean diameter of the node set (0 for empty or singleton).

    A vertex of the convex hull of a grid node set is the first or last
    node of its row, so only those nodes are compared: squared distances
    dx dx + dy dy of node coordinate differences, the all-pairs bits.
    """
    side = mesh.n + 1
    rows = s.mask.reshape(side, side)
    hit = np.flatnonzero(rows.any(axis=1))
    if hit.size == 0:
        return 0.0
    first = np.argmax(rows[hit], axis=1)
    last = side - 1 - np.argmax(rows[hit, ::-1], axis=1)
    start = hit * side
    x, y = mesh.nodes.take(np.concatenate((start + first, start + last)),
                           axis=0).T
    dx, dy = x[:, None] - x, y[:, None] - y
    return float(np.sqrt((dx * dx + dy * dy).max()))


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
