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
:func:`tricolored_from_labels` checks the labels it is given.  The
subdivisions do not: each new vertex takes the label of the cell it
lifts, so colors and shades are read off per-dart labels with no edge
or face cells, and tests compare them with the checked path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cartography import (CellKind, Dessin, Violation, _components, _darts,
                          _faces_of_size, _frozen, _read_only,
                          _require_face_size, _require_instance,
                          _require_length, _substitute, _Substitution,
                          tuple_view)


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
_COLOR_OF_CODE_SUM = np.array([-1, 0, 2, 1], np.int8)


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
        super().__init__()
        self.witness = list(witness)

    def __str__(self) -> str:
        return f"corner graph has an odd closed walk through {self.witness}"

    def __reduce__(self):
        return type(self), (self.witness,)


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
        _require_instance("base", base, Dessin)
        base.require_valid()  # an invalid base raises before a bad code
        self.__dict__.update(vars(_from_codes(
            base, _code_array(Color, edge_color),
            _code_array(Shade, face_shade),
            _code_array(VertexLabel, vertex_label))))

    def __reduce__(self):  # the arrays only: the views rebuild on use
        return _from_codes, (self.base, self._edge_color, self._face_shade,
                             self._vertex_label)


_CODINGS = ("edge_color", "face_shade", "vertex_label")


def _from_codes(base: Dessin, *codes) -> TricoloredDessin:
    """:func:`_held_codes` after checking only the counts of ``codes``,
    whose codes are in range, against the cells of ``base``, which raises
    if it is invalid.  rho1 pairs a valid dessin's darts into its edges."""
    counts = [base.n_darts // 2] + [
        len(base.cell_arrays(kind).smallest)
        for kind in (CellKind.FACE, CellKind.VERTEX)]
    for n, name, arr in zip(counts, _CODINGS, codes):
        _require_length(name, arr, n)
    return _held_codes(base, *codes)


def _held_codes(base: Dessin, *codes) -> TricoloredDessin:
    """The tricolored dessin over ``base`` holding the code arrays
    ``codes`` (edge colors, face shades, vertex labels), made read-only,
    checking none: every tricolored dessin takes its fields from here,
    after the count checks of :func:`_from_codes` or, for an operator's
    output, unchecked (:func:`_tricoloring`)."""
    t = object.__new__(TricoloredDessin)
    t.__dict__.update(zip(["_" + name for name in _CODINGS],
                          map(_frozen, codes)), base=base)
    return t


def is_square_tiling(d: Dessin) -> bool:
    """Whether every face of the (valid) dessin has exactly four sides;
    no face cells are built (``cartography._faces_of_size``)."""
    _require_instance("d", d, Dessin)
    return _faces_of_size(d, 4)


def _require_square_tiling(d: Dessin) -> None:
    if not is_square_tiling(d):
        raise NotSquareTilingError("every face must have exactly 4 sides")


def corner_bipartition(d: Dessin) -> tuple[VertexLabel, ...]:
    """2-coloring of the corner graph of a square tiling.

    Deterministic: vertex 0 receives ``zero``; the only other valid
    coloring is the global swap.  In the bipartite double cover, vertex
    v lifts to 2v and 2v + 1 and edge u-v to 2u-(2v + 1) and (2u + 1)-2v;
    the (connected) corner graph is bipartite exactly when 0 and 1 lie
    apart there, and v is colored as vertex 0 when 2v lies with 0.
    Raises :class:`NonBipartiteError` otherwise, with a shortest odd
    closed walk through vertex 0 as the witness.
    """
    _require_square_tiling(d)
    n_vertices = len(d.cell_arrays(CellKind.VERTEX).smallest)
    _, u, v = _edge_ends(d)
    lab = _components(2 * n_vertices, np.concatenate([2 * u, 2 * u + 1]),
                      np.concatenate([2 * v + 1, 2 * v]))
    if lab[1] == 0:
        raise NonBipartiteError(_odd_walk(n_vertices, u, v))
    return tuple(map(_MEMBERS[VertexLabel].__getitem__,
                     (lab[::2] != 0).tolist()))


def _odd_walk(n_vertices: int, u: np.ndarray, v: np.ndarray) -> list[int]:
    """A shortest odd closed walk through vertex 0 of the non-bipartite
    graph with edges u[i]-v[i]: breadth-first from vertex 0 to the first
    edge x-y whose ends lie at one depth d, then 0 -> x -> y -> 0 along
    the search tree, 2d + 1 steps.  An odd closed walk crosses such an
    edge, so none through vertex 0 is shorter."""
    ends = np.concatenate([u, v])
    order = np.argsort(ends, kind="stable")
    neighbours = np.concatenate([v, u])[order].tolist()
    first = np.searchsorted(ends[order], np.arange(n_vertices + 1)).tolist()
    parent = {0: 0}
    depth = {0: 0}
    queue = [0]
    for x in queue:
        for y in neighbours[first[x]:first[x + 1]]:
            if y not in depth:
                parent[y] = x
                depth[y] = depth[x] + 1
                queue.append(y)
            elif depth[y] == depth[x]:
                # x and y lie at one depth, so both reach 0 at one step
                walk_x, walk_y = [x], [y]
                while walk_x[-1]:
                    walk_x.append(parent[walk_x[-1]])
                    walk_y.append(parent[walk_y[-1]])
                return walk_x[::-1] + walk_y


# the two subdivisions of a square tiling (see cartography._Substitution)
_REFINE = _Substitution(
    rho1=(("rho1", 1), ("rho1", 0), ("rho2", 3), ("rho2_inv", 2)),
    rho2=(("e", 2), ("rho2", 0), ("e", 3), ("rho2_inv", 1)),
    vertices=(("vertex", "e"), ("edge", "e"), ("edge", "e"), ("face", "e")))
_DIAGONAL = _Substitution(
    rho1=(("rho1", 0), ("rho2", 2), ("rho2_inv", 1)),
    rho2=(("e", 1), ("e", 2), ("e", 0)),
    vertices=(("vertex", "e"), ("vertex", "rho1"), ("face", "e")))


def refine_2x2(d: Dessin) -> Dessin:
    """Subdivide every square into a 2x2 block of squares.

    New darts per old dart e: 4e and 4e+1 are the first and second half
    of e, 4e+2 runs from the midpoint of e to the face center, 4e+3 from
    the center to the midpoint of the previous side.  The output is
    always corner-bipartite (corners and centers versus midpoints).
    """
    _require_square_tiling(d)
    return _substitute(d, _REFINE)[0]


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
    _require_instance("d", d, Dessin)
    _require_square_tiling(d)
    codes = _code_array(VertexLabel, labels)
    verts = d.cell_arrays(CellKind.VERTEX)
    _require_length("labels", codes, len(verts.smallest))
    if (codes == 2).any():
        raise InconsistentLabelsError("corner labels must be zero or one")
    clash = _first_same_end_edge(d, codes)
    if clash is not None:
        edge, u, v = clash
        raise InconsistentLabelsError(
            f"corners {u} and {v} of edge {edge} share label "
            f"{_TEXT[VertexLabel][codes[u]]}")
    # the corners keep their labels, and each face center is infinity
    return _tricolored_substitution(d, _DIAGONAL,
                                    {"vertex": codes, "face": 2})


def _tricolored_substitution(d: Dessin, s: _Substitution,
                             label_of) -> TricoloredDessin:
    """The substitution ``s`` of ``d``, tricolored unchecked: the new
    vertex lifting a cell of ``d`` (``s.vertices``) takes the label code
    ``label_of`` gives that cell's kind, one code or one per cell id."""
    k = len(s.vertices)
    out, ids = _substitute(d, s)
    dart_label = np.empty(d.n_darts * k, np.int8)
    for i, column in enumerate(s.vertices):
        code = label_of[column[0]]
        dart_label[i::k] = code if isinstance(code, int) else code[ids[column]]
    return _tricoloring(
        out, dart_label, dart_label[out.cell_arrays(CellKind.VERTEX).smallest])


def _tricoloring(base: Dessin, dart_label, vertex_label) -> TricoloredDessin:
    """The triangulation ``base`` tricolored by ``dart_label``, one code
    per vertex and two at each edge, with ``vertex_label`` as given: each
    color is read at its edge's smallest dart x (x < rho1 x) and each
    shade at its triangle's (x < rho2 x, rho2^2 x): no cells are built."""
    darts, r1, r2 = _darts(base.n_darts), base._r1, base._r2
    x = (r1 > darts).nonzero()[0]
    colors = _COLOR_OF_CODE_SUM[dart_label[x] + dart_label[r1[x]]]
    x = ((r2 > darts) & (r2[r2] > darts)).nonzero()[0]
    # three distinct labels read zero -> one -> infinity exactly when
    # the second follows the first in the cycle; white is shade code 1
    shades = (dart_label[r2[x]] - dart_label[x]) % 3 == 1
    return _held_codes(base, colors, shades.astype(np.int8), vertex_label)


def tricolored_from_labels(base: Dessin, vertex_label) -> TricoloredDessin:
    """Assemble the canonical tricolored structure over a triangulated
    dessin whose vertices already carry one label each.

    Every edge must join two distinct labels (its color is then forced)
    and every face must be a triangle, which then sees all three labels;
    the face is white exactly when its counterclockwise boundary reads
    zero -> one -> infinity.
    The labels may also be given as codes (0 zero, 1 one, 2 infinity).
    """
    _require_instance("base", base, Dessin)
    # the vertex cells first: an invalid base raises before a bad code
    verts = base.cell_arrays(CellKind.VERTEX)
    codes = _code_array(VertexLabel, vertex_label)
    _require_length("vertex_label", codes, len(verts.smallest))
    clash = _first_same_end_edge(base, codes)
    if clash is not None:
        edge, u, _ = clash
        raise InconsistentLabelsError(
            f"edge {edge} joins two vertices labeled "
            f"{_TEXT[VertexLabel][codes[u]]}")
    _require_face_size(base, 3)
    return _tricoloring(base, codes[verts.id], codes)


def validate_tricoloring(t: TricoloredDessin) -> list[Violation]:
    """Check the tricolored invariants directly on the stored data.

    Reported: non-triangular faces, edges with a single endpoint
    (condition 1), vertices not seeing exactly two edge colors
    (condition 0), faces whose three edges are not pairwise differently
    colored (condition 2), checkerboard failures across an edge, and a
    color/label-pair correspondence that is not a bijection.  Any of the
    six color-to-label-pair bijections is accepted.
    """
    _require_instance("t", t, TricoloredDessin)
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
