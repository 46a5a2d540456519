"""Square tilings and their subdivision into tricolored triangulations.

A square tiling is a dessin all of whose faces have four sides.  When
the corner graph is bipartite the two diagonals of every square can be
drawn, cutting each square into four triangles around a new center
vertex.  The result carries the tricolored structure: vertex labels
zero / one / infinity, edge colors blue / red / green matching the
label pair at the edge's ends, and a black/white checkerboard of faces
in which exactly the white triangles read zero -> one -> infinity
counterclockwise.

A :class:`TricoloredDessin` stores one int8 code per cell, the position
of its member in the enum (zero 0, one 1, infinity 2; black 0, white 1;
blue 0, green 1, red 2).  The operators here and in :mod:`dessins.belyi`
read and write codes; the enum tuples are views built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cartography import (CellKind, Dessin, Violation, _frozen, _read_only,
                          substitute, tuple_view)


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


# members in code order: the code of a member is its position in its enum
_MEMBERS = {cls: tuple(cls) for cls in (Color, Shade, VertexLabel)}
# text -> code; a str-Enum member hashes and compares as its text, so
# the same lookup also maps each member to its code
_CODE = {cls: {m.value: i for i, m in enumerate(members)}
         for cls, members in _MEMBERS.items()}
# code -> text
_TEXT = {cls: tuple(m.value for m in members)
         for cls, members in _MEMBERS.items()}
# the label codes at the ends of an edge sum to 1 (zero-one), 2 (zero-
# infinity) or 3 (one-infinity): the index of its blue, red or green code
_COLOR_OF_CODE_SUM = np.array([-1, 0, 2, 1])


def _code_array(enum_cls, values) -> np.ndarray:
    """``values`` (an integer array, or a sequence of codes, members or
    text) as read-only int8 codes, shared when it already is such an
    array, with the enum's error for a bad one."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"
            and values.ndim == 1):
        values = tuple(values.tolist() if isinstance(values, np.ndarray)
                       else values)
        try:
            values = _frozen(np.fromiter(
                map(_CODE[enum_cls].__getitem__, values), np.int8,
                len(values)))
        except (KeyError, TypeError):
            if not set(map(type, values)) <= {int}:
                for v in values:
                    enum_cls(v)  # raises for the first bad entry
                raise
            values = np.array(values)
    bad = np.flatnonzero((values < 0) | (values >= len(enum_cls)))
    if len(bad):
        raise ValueError(
            f"{int(values[bad[0]])} is not a valid {enum_cls.__name__}")
    return _read_only(values, np.int8)


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
    per-vertex labels, each indexed by the dense cell ids of ``base``.

    Each coloring is given as codes, members or text and stored only as
    the int8 codes ``_edge_color``, ``_face_shade`` and ``_vertex_label``;
    the attributes without the underscore are enum-tuple views of them.
    """

    base: Dessin
    edge_color: tuple[Color, ...] = tuple_view("_edge_color", _MEMBERS[Color])
    face_shade: tuple[Shade, ...] = tuple_view("_face_shade", _MEMBERS[Shade])
    vertex_label: tuple[VertexLabel, ...] = tuple_view(
        "_vertex_label", _MEMBERS[VertexLabel])

    def __init__(self, base, edge_color, face_shade, vertex_label):
        base.require_valid()
        codes = {"edge_color": _code_array(Color, edge_color),
                 "face_shade": _code_array(Shade, face_shade),
                 "vertex_label": _code_array(VertexLabel, vertex_label)}
        object.__setattr__(self, "base", base)
        kinds = (CellKind.EDGE, CellKind.FACE, CellKind.VERTEX)
        for kind, (name, arr) in zip(kinds, codes.items()):
            want = len(base.cell_arrays(kind).smallest)
            if len(arr) != want:
                raise ValueError(
                    f"{name} has {len(arr)} entries, expected {want}")
            object.__setattr__(self, "_" + name, arr)


def is_square_tiling(d: Dessin) -> bool:
    """Whether every face of the (valid) dessin has exactly four sides."""
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
    n_vertices = len(d.cell_arrays(CellKind.VERTEX).smallest)
    adj: list[list[int]] = [[] for _ in range(n_vertices)]
    _, ends_u, ends_v = _edge_ends(d)
    for u, v in zip(ends_u.tolist(), ends_v.tolist()):
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
    return tuple(map(_MEMBERS[VertexLabel].__getitem__, color))


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


def _edge_ends(d: Dessin) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per edge: its smallest dart x and the vertex ids at x and rho1(x)."""
    vert_id = d.cell_arrays(CellKind.VERTEX).id
    x = d.cell_arrays(CellKind.EDGE).smallest
    return x, vert_id[x], vert_id[d._r1[x]]


def _first_same_end_edge(d: Dessin, codes: np.ndarray):
    """The first edge whose ends carry equal per-vertex ``codes``, as its
    orbit (x, rho1(x)) from its smallest dart, with its vertex ids."""
    x, u, v = _edge_ends(d)
    same = np.flatnonzero(codes[u] == codes[v])
    if not len(same):
        return None
    i = same[0]
    return (int(x[i]), int(d._r1[x[i]])), int(u[i]), int(v[i])


def diagonal_subdivision(d: Dessin, labels) -> TricoloredDessin:
    """Cut every square along both diagonals.

    ``labels`` is a corner 2-coloring by {zero, one} as produced by
    :func:`corner_bipartition`.  Old sides keep their darts (3e), the
    half-diagonal from the endpoint of e to the face center is 3e+1, and
    the center back to the origin of e is 3e+2.  Face centers are
    labeled infinity, and colors and shades follow the canonical rule.
    """
    _require_square_tiling(d)
    codes = _code_array(VertexLabel, labels)
    verts = d.cell_arrays(CellKind.VERTEX)
    n_vertices = len(verts.smallest)
    if len(codes) != n_vertices:
        raise ValueError(
            f"labels has {len(codes)} entries, expected {n_vertices}")
    if (codes == 2).any():
        raise InconsistentLabelsError("corner labels must be zero or one")
    clash = _first_same_end_edge(d, codes)
    if clash is not None:
        edge, u, v = clash
        raise InconsistentLabelsError(
            f"corners {u} and {v} of edge {edge} share label "
            f"{_TEXT[VertexLabel][codes[u]]}")
    out = substitute(d, 3, _DIAGONAL_RHO1, _DIAGONAL_RHO2)
    # each new vertex read at its smallest dart 3e + r: the origin of e
    # (r = 0), the endpoint of e (r = 1) or a face center (r = 2, code 2)
    e, r = np.divmod(out.cell_arrays(CellKind.VERTEX).smallest, 3)
    corner = codes[verts.id[np.where(r == 0, e, d._r2[e])]]
    return tricolored_from_labels(out, np.where(r == 2, 2, corner))


def tricolored_from_labels(base: Dessin, vertex_label) -> TricoloredDessin:
    """Assemble the canonical tricolored structure over a triangulated
    dessin whose vertices already carry one label each.

    Every edge must join two distinct labels (its color is then forced)
    and every face must see all three labels; the face is white exactly
    when its counterclockwise boundary reads zero -> one -> infinity.
    The labels may also be given as codes (0 zero, 1 one, 2 infinity).
    """
    base.require_valid()
    codes = _code_array(VertexLabel, vertex_label)
    want = len(base.cell_arrays(CellKind.VERTEX).smallest)
    if len(codes) < want:
        raise ValueError(
            f"vertex_label has {len(codes)} entries, expected {want}")
    clash = _first_same_end_edge(base, codes)
    if clash is not None:
        edge, u, _ = clash
        raise InconsistentLabelsError(
            f"edge {edge} joins two vertices labeled "
            f"{_TEXT[VertexLabel][codes[u]]}")
    _, u, v = _edge_ends(base)
    colors = _COLOR_OF_CODE_SUM[codes[u] + codes[v]]
    faces = base.cell_arrays(CellKind.FACE)
    dart_code = codes[base.cell_arrays(CellKind.VERTEX).id]
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
    # the second follows the first in the cycle; white is shade code 1
    shades = (b - a) % 3 == 1
    return TricoloredDessin(base, colors, shades.view(np.int8), codes)


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
    faces = d.cell_arrays(CellKind.FACE)
    bad = np.flatnonzero(faces.size != 3).tolist()
    if bad:
        return [Violation("face-not-triangle", int(faces.smallest[i]),
                          f"face {i} has {faces.size[i]} sides")
                for i in bad]
    out = []
    x, u, v = _edge_ends(d)
    for i in np.flatnonzero(u == v).tolist():
        out.append(Violation("edge-loop", int(x[i]),
                             f"edge {i} has both ends at vertex {u[i]}"))

    verts = d.cell_arrays(CellKind.VERTEX)
    dart_color = t._edge_color[d.cell_arrays(CellKind.EDGE).id]
    seen = np.zeros((len(verts.smallest), len(Color)), dtype=bool)
    seen[verts.id, dart_color] = True
    count = seen.sum(axis=1)
    for i in np.flatnonzero(count != 2).tolist():
        out.append(Violation(
            "vertex-color-count", int(verts.smallest[i]),
            f"vertex {i} meets {count[i]} edge colors, expected 2"))

    # edge colors of each face read from its smallest dart along rho2
    s = faces.smallest
    cols = dart_color[np.stack([s, d._r2[s], d._r2[d._r2[s]]], axis=1)]
    a, b, c = cols.T
    for i in np.flatnonzero((a == b) | (b == c) | (a == c)).tolist():
        out.append(Violation(
            "face-colors-repeat", int(s[i]),
            f"face {i} has edge colors "
            f"{[_TEXT[Color][k] for k in cols[i].tolist()]}, "
            "expected all three"))

    dart_shade = t._face_shade[faces.id]
    for i in np.flatnonzero(dart_shade[x] == dart_shade[d._r1[x]]).tolist():
        out.append(Violation(
            "checkerboard", int(x[i]),
            f"edge {i} separates two {_TEXT[Shade][dart_shade[x[i]]]} "
            "faces"))

    # a pair of distinct label codes is named by its sum (1, 2 or 3);
    # each color takes the pair of its first edge that joins two labels
    lu = t._vertex_label[u]
    lv = t._vertex_label[v]
    joins = np.flatnonzero(lu != lv)
    pair = lu + lv
    color = t._edge_color
    present, first = np.unique(color[joins], return_index=True)
    pair_of_color = np.zeros(len(Color), dtype=pair.dtype)
    pair_of_color[present] = pair[joins[first]]
    for i in joins[pair[joins] != pair_of_color[color[joins]]].tolist():
        c = _TEXT[Color][color[i]]
        out.append(Violation(
            "color-label-mismatch", int(x[i]),
            f"edge {i} is {c} but joins {_TEXT[VertexLabel][lu[i]]}-"
            f"{_TEXT[VertexLabel][lv[i]]} unlike other {c} edges"))
    pairs = pair_of_color[present]
    if len(np.unique(pairs)) != len(pairs):
        out.append(Violation(
            "color-label-mismatch", None,
            "two colors join the same label pair"))
    return out
