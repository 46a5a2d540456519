"""Square tilings and their subdivision into tricolored triangulations.

A square tiling is a dessin all of whose faces have four sides.  When
the corner graph is bipartite the two diagonals of every square can be
drawn, cutting each square into four triangles around a new center
vertex.  The result carries the tricolored structure: vertex labels
zero / one / infinity, edge colors blue / red / green matching the
label pair at the edge's ends, and a black/white checkerboard of faces
in which exactly the white triangles read zero -> one -> infinity
counterclockwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cartography import CellKind, Dessin, Violation, substitute


class Color(str, Enum):
    BLUE = "blue"
    GREEN = "green"
    RED = "red"


class Shade(str, Enum):
    BLACK = "black"
    WHITE = "white"


class VertexLabel(str, Enum):
    ZERO = "zero"
    ONE = "one"
    INFINITY = "infinity"


_LABEL_CYCLE = (VertexLabel.ZERO, VertexLabel.ONE, VertexLabel.INFINITY)
# Label codes are positions in _LABEL_CYCLE.  The end codes of an edge
# sum to 1 (zero-one), 2 (zero-infinity) or 3 (one-infinity), which
# indexes the canonical color of the edge.
_LABEL_CODE = {lab: i for i, lab in enumerate(_LABEL_CYCLE)}
_LABEL_OF_CODE = np.array(_LABEL_CYCLE, dtype=object)
_COLOR_OF_CODE_SUM = np.array([None, Color.BLUE, Color.RED, Color.GREEN],
                              dtype=object)
_SHADE_OF_WHITE = np.array([Shade.BLACK, Shade.WHITE], dtype=object)

# text -> member; a str-Enum member hashes and compares as its text, so
# the same lookup also maps each member to itself
_MEMBERS = {cls: {m.value: m for m in cls}
            for cls in (Color, Shade, VertexLabel)}


def _members(enum_cls, values) -> tuple:
    """``tuple(enum_cls(v) for v in values)`` by dict lookup; the enum
    constructor runs only to raise its usual error for a bad value."""
    values = tuple(values)
    if set(map(type, values)) == {enum_cls}:
        return values
    try:
        return tuple(map(_MEMBERS[enum_cls].__getitem__, values))
    except (KeyError, TypeError):
        return tuple(enum_cls(v) for v in values)


def label_codes(labels) -> np.ndarray:
    """Codes 0, 1, 2 of a sequence of VertexLabel members."""
    return np.fromiter(map(_LABEL_CODE.__getitem__, labels), np.intp,
                       len(labels))


class NotSquareTilingError(ValueError):
    """The dessin is not a tiling by combinatorial squares."""


class NonBipartiteError(ValueError):
    """The corner graph admits no 2-coloring; ``witness`` is an odd
    closed walk (vertex ids, first equal to last)."""

    def __init__(self, witness):
        self.witness = list(witness)
        super().__init__(
            f"corner graph has an odd closed walk through {self.witness}")


class InconsistentLabelsError(ValueError):
    """Adjacent corners carry equal labels."""


@dataclass(frozen=True)
class TricoloredDessin:
    """A triangulated dessin with per-edge colors, per-face shades and
    per-vertex labels, each indexed by the dense cell ids of ``base``."""

    base: Dessin
    edge_color: tuple[Color, ...]
    face_shade: tuple[Shade, ...]
    vertex_label: tuple[VertexLabel, ...]

    def __init__(self, base, edge_color, face_shade, vertex_label):
        base.require_valid()
        edge_color = _members(Color, edge_color)
        face_shade = _members(Shade, face_shade)
        vertex_label = _members(VertexLabel, vertex_label)
        for kind, arr, name in (
                (CellKind.EDGE, edge_color, "edge_color"),
                (CellKind.FACE, face_shade, "face_shade"),
                (CellKind.VERTEX, vertex_label, "vertex_label")):
            want = len(base.cell_arrays(kind).smallest)
            if len(arr) != want:
                raise ValueError(
                    f"{name} has {len(arr)} entries, expected {want}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "edge_color", edge_color)
        object.__setattr__(self, "face_shade", face_shade)
        object.__setattr__(self, "vertex_label", vertex_label)


def is_square_tiling(d: Dessin) -> bool:
    """Whether every face of the (valid) dessin has exactly four sides."""
    d.require_valid()
    return bool((d.cell_arrays(CellKind.FACE).size == 4).all())


def _require_square_tiling(d: Dessin) -> None:
    if not is_square_tiling(d):
        raise NotSquareTilingError("every face must have exactly 4 sides")


def corner_bipartition(d: Dessin) -> tuple[VertexLabel, ...]:
    """2-coloring of the corner graph of a square tiling.

    Deterministic: vertex 0 receives ``zero`` and colors propagate
    breadth-first, so the only other valid coloring is the global swap.
    Raises :class:`NonBipartiteError` with an odd closed walk otherwise.
    """
    _require_square_tiling(d)
    verts = d.cell_arrays(CellKind.VERTEX)
    n_vertices = len(verts.smallest)
    adj: list[list[int]] = [[] for _ in range(n_vertices)]
    x = d.cell_arrays(CellKind.EDGE).smallest
    for u, v in zip(verts.id[x].tolist(), verts.id[d._r1[x]].tolist()):
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * n_vertices
    parent = [-1] * n_vertices
    color[0] = 0
    queue = [0]
    i = 0
    while i < len(queue):
        u = queue[i]
        i += 1
        for v in adj[u]:
            if color[v] == -1:
                color[v] = 1 - color[u]
                parent[v] = u
                queue.append(v)
            elif color[v] == color[u]:
                raise NonBipartiteError(_odd_walk(parent, u, v))
    # the corner graph of a connected dessin is connected
    return tuple(
        VertexLabel.ZERO if c == 0 else VertexLabel.ONE for c in color)


def _odd_walk(parent, u, v):
    def chain(x):
        out = [x]
        while parent[out[-1]] != -1:
            out.append(parent[out[-1]])
        return out

    cu, cv = chain(u), chain(v)
    common = set(cu) & set(cv)
    iu = next(i for i, x in enumerate(cu) if x in common)
    iv = next(i for i, x in enumerate(cv) if x in common)
    # walk u -> lca -> v plus the closing edge (v, u); odd total length
    return cu[:iu + 1] + cv[:iv][::-1] + [u]


# Dart substitution tables (see cartography.substitute): entry i is the
# image (source, j) of new dart k*e + i, meaning k*source[e] + j.
_REFINE_RHO1 = (("rho1", 1), ("rho1", 0), ("rho2", 3), ("rho2_inv", 2))
_REFINE_RHO2 = (("e", 2), ("rho2", 0), ("e", 3), ("rho2_inv", 1))
_DIAGONAL_RHO1 = (("rho1", 0), ("rho2", 2), ("rho2_inv", 1))
_DIAGONAL_RHO2 = (("e", 1), ("e", 2), ("e", 0))


def refine_2x2(d: Dessin) -> Dessin:
    """Subdivide every square into a 2x2 block of squares.

    New darts per old dart e: 4e and 4e+1 are the first and second half
    of e, 4e+2 runs from the midpoint of e to the face center, 4e+3 from
    the center to the midpoint of the previous side.  The output is
    always corner-bipartite (corners and centers versus midpoints).
    """
    _require_square_tiling(d)
    return substitute(d, 4, _REFINE_RHO1, _REFINE_RHO2)


def _first_same_end_edge(d: Dessin, codes: np.ndarray):
    """Smallest dart of the first edge whose two ends carry equal
    per-vertex ``codes``, with its two vertex ids, or None."""
    vert_id = d.cell_arrays(CellKind.VERTEX).id
    x = d.cell_arrays(CellKind.EDGE).smallest
    u = vert_id[x]
    v = vert_id[d._r1[x]]
    same = np.flatnonzero(codes[u] == codes[v])
    if not len(same):
        return None
    i = same[0]
    return int(x[i]), int(u[i]), int(v[i])


def _edge(d: Dessin, x: int) -> tuple[int, int]:
    """The edge orbit read from its smallest dart x."""
    return (x, d.rho1[x])


def diagonal_subdivision(d: Dessin, labels) -> TricoloredDessin:
    """Cut every square along both diagonals.

    ``labels`` is a corner 2-coloring by {zero, one} as produced by
    :func:`corner_bipartition`.  Old sides keep their darts (3e), the
    half-diagonal from the endpoint of e to the face center is 3e+1, and
    the center back to the origin of e is 3e+2.  Face centers are
    labeled infinity, and colors and shades follow the canonical rule.
    """
    _require_square_tiling(d)
    labels = _members(VertexLabel, labels)
    verts = d.cell_arrays(CellKind.VERTEX)
    n_vertices = len(verts.smallest)
    if len(labels) != n_vertices:
        raise ValueError(
            f"labels has {len(labels)} entries, expected {n_vertices}")
    if VertexLabel.INFINITY in labels:
        raise InconsistentLabelsError("corner labels must be zero or one")
    codes = label_codes(labels)
    clash = _first_same_end_edge(d, codes)
    if clash is not None:
        x, u, v = clash
        raise InconsistentLabelsError(
            f"corners {u} and {v} of edge {_edge(d, x)} share label "
            f"{labels[u].value}")
    out = substitute(d, 3, _DIAGONAL_RHO1, _DIAGONAL_RHO2)
    # each new vertex read at its smallest dart 3e + r: the origin of e
    # (r = 0), the endpoint of e (r = 1) or a face center (r = 2)
    e, r = np.divmod(out.cell_arrays(CellKind.VERTEX).smallest, 3)
    corner = codes[verts.id[np.where(r == 0, e, d._r2[e])]]
    return tricolored_from_codes(
        out, np.where(r == 2, _LABEL_CODE[VertexLabel.INFINITY], corner))


def tricolored_from_labels(base: Dessin, vertex_label) -> TricoloredDessin:
    """Assemble the canonical tricolored structure over a triangulated
    dessin whose vertices already carry one label each.

    Every edge must join two distinct labels (its color is then forced)
    and every face must see all three labels; the face is white exactly
    when its counterclockwise boundary reads zero -> one -> infinity.
    """
    base.require_valid()
    vertex_label = _members(VertexLabel, vertex_label)
    want = len(base.cell_arrays(CellKind.VERTEX).smallest)
    if len(vertex_label) < want:
        raise ValueError(
            f"vertex_label has {len(vertex_label)} entries, expected {want}")
    return tricolored_from_codes(base, label_codes(vertex_label))


def tricolored_from_codes(base: Dessin, codes: np.ndarray) -> TricoloredDessin:
    """:func:`tricolored_from_labels` on per-vertex label codes (0 zero,
    1 one, 2 infinity)."""
    vertex_label = tuple(_LABEL_OF_CODE[codes].tolist())
    dart_code = codes[base.cell_arrays(CellKind.VERTEX).id]
    clash = _first_same_end_edge(base, codes)
    if clash is not None:
        x, u, _ = clash
        raise InconsistentLabelsError(
            f"edge {_edge(base, x)} joins two vertices labeled "
            f"{vertex_label[u].value}")
    x = base.cell_arrays(CellKind.EDGE).smallest
    colors = _COLOR_OF_CODE_SUM[dart_code[x] + dart_code[base._r1[x]]]
    faces = base.cell_arrays(CellKind.FACE)
    x = faces.smallest
    a = dart_code[x]
    b = dart_code[base._r2[x]]
    c = dart_code[base._r2[base._r2[x]]]
    wrong_size = faces.size != 3
    bad = np.flatnonzero(wrong_size | (a == b) | (b == c) | (a == c))
    if len(bad):
        i = int(bad[0])
        if wrong_size[i]:
            raise ValueError(
                f"face {i} has {faces.size[i]} sides, expected 3")
        raise InconsistentLabelsError(
            f"face {i} does not see all three labels")
    # three distinct labels read zero -> one -> infinity exactly when
    # the second follows the first in the cycle
    shades = _SHADE_OF_WHITE[((b - a) % 3 == 1).astype(np.intp)]
    return TricoloredDessin(base, colors.tolist(), shades.tolist(),
                            vertex_label)


def validate_tricoloring(t: TricoloredDessin) -> list[Violation]:
    """Check the tricolored invariants directly on the stored data.

    Reported: non-triangular faces, edges with a single endpoint
    (condition 1), vertices not seeing exactly two edge colors
    (condition 0), faces whose three edges are not pairwise differently
    colored (condition 2), checkerboard failures across an edge, and a
    color/label-pair correspondence that is not a bijection.  Any of the
    six color-to-label-pair bijections is accepted.
    """
    d = t.base
    out = []
    vert_id, edge_id, face_id = (d.cell_arrays(k).id.tolist()
                                 for k in CellKind)
    faces = d.cells(CellKind.FACE)
    for i, face in enumerate(faces):
        if len(face) != 3:
            out.append(Violation(
                "face-not-triangle", face[0],
                f"face {i} has {len(face)} sides"))
    if any(v.code == "face-not-triangle" for v in out):
        return out

    for i, edge in enumerate(d.cells(CellKind.EDGE)):
        u = vert_id[edge[0]]
        v = vert_id[d.rho1[edge[0]]]
        if u == v:
            out.append(Violation(
                "edge-loop", edge[0],
                f"edge {i} has both ends at vertex {u}"))

    for i, vert in enumerate(d.cells(CellKind.VERTEX)):
        seen = {t.edge_color[edge_id[x]] for x in vert}
        if len(seen) != 2:
            out.append(Violation(
                "vertex-color-count", vert[0],
                f"vertex {i} meets {len(seen)} edge colors, expected 2"))

    for i, face in enumerate(faces):
        cols = [t.edge_color[edge_id[x]] for x in face]
        if len(set(cols)) != 3:
            out.append(Violation(
                "face-colors-repeat", face[0],
                f"face {i} has edge colors "
                f"{[c.value for c in cols]}, expected all three"))

    for i, edge in enumerate(d.cells(CellKind.EDGE)):
        f1 = t.face_shade[face_id[edge[0]]]
        f2 = t.face_shade[face_id[d.rho1[edge[0]]]]
        if f1 == f2:
            out.append(Violation(
                "checkerboard", edge[0],
                f"edge {i} separates two {f1.value} faces"))

    pair_of_color: dict[Color, frozenset] = {}
    for i, edge in enumerate(d.cells(CellKind.EDGE)):
        u = t.vertex_label[vert_id[edge[0]]]
        v = t.vertex_label[vert_id[d.rho1[edge[0]]]]
        if u == v:
            continue  # already reported as edge-loop or fails below
        c = t.edge_color[edge_id[edge[0]]]
        pair = frozenset((u, v))
        if c not in pair_of_color:
            pair_of_color[c] = pair
        elif pair_of_color[c] != pair:
            out.append(Violation(
                "color-label-mismatch", edge[0],
                f"edge {i} is {c.value} but joins "
                f"{u.value}-{v.value} unlike other {c.value} edges"))
    pairs = list(pair_of_color.values())
    if len(set(pairs)) != len(pairs):
        out.append(Violation(
            "color-label-mismatch", None,
            "two colors join the same label pair"))
    return out
