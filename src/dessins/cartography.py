"""Oriented combinatorial maps ("dessins") as permutation pairs on darts.

A dessin on n darts is a pair of permutations (rho0, rho1) of
{0, ..., n-1}.  rho0 rotates a dart counterclockwise about its origin
vertex, rho1 reverses it, and the face walk rho2 is derived from the
relation rho2 rho1 rho0 = id (rightmost factor first), i.e.
rho2 = rho0^{-1} o rho1^{-1}.  Vertices, edges and faces are the orbits
of rho0, rho1 and rho2; rho2 moves a dart forward along the boundary of
the face lying to its left.

A dessin stores its permutations only as read-only numpy index
arrays; validation, cells and the dart substitutions
(:func:`_substitute`) work on those.  The tuples ``rho0``, ``rho1`` and
``rho2`` are views built from the arrays on first use and then kept.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np


class CellKind(str, Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    FACE = "face"


_GENERATOR = dict(zip(CellKind, ("_r0", "_r1", "_r2")))


@dataclass(frozen=True)
class CellIndex:
    """A cell of a dessin: its kind plus a dense id in 0..count-1."""

    kind: CellKind
    id: int


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or numpy integer, not a (numpy) bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _index(value, name: str, count: int) -> int:
    """``value`` as an id in 0..count-1 of a ``name`` ("dart" or a cell
    kind): an int or numpy integer, or a :class:`CellIndex` of that
    kind.  A bool, any other type or an id out of range raises
    ValueError."""
    # a plain int, the common case, is tested first
    if type(value) is not int:
        if isinstance(value, CellIndex):
            if value.kind != name:
                raise ValueError(f"expected a {name} cell, got {value.kind}")
            return _index(value.id, name, count)
        if not _is_integer(value):
            raise ValueError(f"{name} {value!r} is not an integer")
        value = int(value)
    if not 0 <= value < count:
        raise ValueError(f"{name} {value} out of range")
    return value


@dataclass(frozen=True)
class Violation:
    """One violated structural invariant, with an offending dart when
    one exists."""

    code: str
    dart: int | None
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class InvalidDessinError(ValueError):
    """Raised by operations that require a valid dessin."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def __reduce__(self):
        return type(self), (self.violations,)


class FaceDegreeMismatch(ValueError):
    """A face has the wrong number of sides for the requested structure."""


class Cells(NamedTuple):
    """Cells of one kind as arrays: ``id[x]`` is the dense cell id of
    dart x, and cell i has smallest dart ``smallest[i]`` and ``size[i]``
    darts.  Ids number the cells by their smallest dart."""

    id: np.ndarray
    smallest: np.ndarray
    size: np.ndarray


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _read_only(arr: np.ndarray, dtype) -> np.ndarray:
    """``arr`` as a read-only array of ``dtype``: ``arr`` itself when it
    already is one and owns its memory (the stored arrays of this
    package are), so objects can share it; otherwise a frozen copy.
    Only the owner of such an array could make it writable again."""
    if arr.dtype == dtype and arr.flags.owndata and not arr.flags.writeable:
        return arr
    return _frozen(arr.astype(dtype))


_ARANGE = _frozen(np.arange(0))


def _darts(n: int) -> np.ndarray:
    """0..n-1 as a read-only view of one module-level arange, rebuilt
    only for a larger n: dart-id scratch shared by every dessin and kept
    by none.  The global is read once, so a concurrent rebuild cannot
    shorten the view."""
    global _ARANGE
    arange = _ARANGE
    if len(arange) < n:
        arange = _ARANGE = _frozen(np.arange(n))
    return arange[:n]


def _inverse_or_none(p: np.ndarray) -> np.ndarray | None:
    """The inverse of the in-range index array ``p`` when it is a
    bijection, else None: scattered, so it is one exactly when every
    slot is written."""
    inv = np.full(len(p), -1, np.intp)
    inv[p] = _darts(len(p))
    return None if (inv < 0).any() else inv


def tuple_view(array_name: str, members=None) -> cached_property:
    """Cached property: attribute ``array_name`` as a tuple, each entry
    mapped through ``members`` when given, or None when it is None."""
    def view(self) -> tuple | None:
        values = getattr(self, array_name)
        if values is None:
            return None
        values = values.tolist()
        return tuple(values if members is None
                     else map(members.__getitem__, values))
    return cached_property(view)


def _require_instance(name: str, value, cls) -> None:
    """Raise TypeError, naming the argument, unless ``value`` is an
    instance of ``cls`` (a class or a tuple of classes)."""
    if not isinstance(value, cls):
        expected = " or ".join(c.__name__ for c in
                               (cls if isinstance(cls, tuple) else (cls,)))
        raise TypeError(f"{name} must be a {expected}, not "
                        f"{type(value).__name__}")


def _require_length(name: str, values, n: int) -> None:
    """Raise ValueError unless ``values`` has ``n`` entries."""
    if len(values) != n:
        raise ValueError(f"{name} has {len(values)} entries, expected {n}")


def _image_array(name: str, images, n: int) -> tuple[np.ndarray, bool]:
    """``images``, an integer array or a sequence of ints in 0..n-1, as a
    read-only index array, shared when it already is one, and whether
    ``images`` is a sequence of plain ints; the per-entry loop runs only
    to name the first bad entry when the whole-array check fails."""
    _require_length(name, images, n)
    arr, plain = None, False
    if isinstance(images, np.ndarray):
        if images.dtype.kind in "iu" and images.ndim == 1:
            arr = images
    elif set(map(type, images)) <= {int}:
        plain = True
        try:
            arr = _frozen(np.fromiter(images, np.intp, n))
        except OverflowError:
            pass
    # an empty array (n = 0) has no minimum, and no entry out of range
    if arr is not None and (not n or arr.min() >= 0 and arr.max() < n):
        return _read_only(arr, np.intp), plain
    if isinstance(images, np.ndarray):
        images = images.tolist()
    for i, y in enumerate(images):
        if not _is_integer(y):
            raise ValueError(f"{name}[{i}] is not an integer")
        if not 0 <= y < n:
            raise ValueError(f"{name}[{i}] = {y} out of range 0..{n - 1}")
    return _frozen(np.array([int(y) for y in images], dtype=np.intp)), False


def _permutation_array(images, n: int,
                       message: str) -> tuple[np.ndarray, np.ndarray]:
    """``images``, an integer array or a sequence of ints, as a read-only
    index array, and its inverse; ValueError(``message``) unless it is a
    permutation of 0..n-1."""
    if not isinstance(images, np.ndarray):
        images = tuple(images)
    try:
        arr = _image_array("images", images, n)[0]
    except ValueError:
        arr = None
    inv = None if arr is None else _inverse_or_none(arr)
    if inv is None:
        raise ValueError(message)
    return arr, inv


def _assemble(d: Dessin, n: int, r0: np.ndarray, r1: np.ndarray,
              **known) -> Dessin:
    """``d`` with ``n_darts`` = ``n`` (an int) and the read-only intp
    index arrays ``r0`` and ``r1``, in 0..n-1, checking none, and with
    the cached fields ``known``.  Every dessin takes its fields from
    here: the constructor after its checks, :func:`_substitute` and
    :func:`~dessins.document.parse` from arrays already in range."""
    d.__dict__.update(n_darts=n, _r0=r0, _r1=r1, **known)
    return d


def _cycle_minima(p: np.ndarray) -> np.ndarray:
    """Per element, the smallest element of its cycle under ``p``, by
    pointer doubling: after k rounds m[x] is the minimum over the 2^k
    elements x, p(x), ..., and a round that changes nothing means the
    windows already cover every cycle."""
    m = _darts(len(p))
    while True:
        m_next = m[p]
        np.minimum(m_next, m, out=m_next)
        if (m_next == m).all():
            return m
        m = m_next
        p = p[p]


def _cells_of(m: np.ndarray) -> Cells:
    """Cells from the per-element cycle minima ``m``: the cycles are
    numbered by their minima, scattered into a lookup by dart."""
    darts = _darts(len(m))
    smallest = (m == darts).nonzero()[0]
    lookup = np.empty(len(m), np.intp)
    lookup[smallest] = darts[:len(smallest)]
    ids = lookup[m]
    return Cells(_frozen(ids), _frozen(smallest), _frozen(np.bincount(ids)))


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per node of the graph on 0..n-1 with edges u[i]-v[i], the smallest
    node of its component: hook-and-jump (Shiloach & Vishkin, *J.
    Algorithms* 3, 1982), each round keeping only the edges that still
    join two roots."""
    lab = np.arange(n)
    while True:
        # each root under its smallest neighbouring root, both ways; a
        # plain scatter's last write would take a round per leaf of a star
        np.minimum.at(lab, u, v)
        np.minimum.at(lab, v, u)
        while True:
            jumped = lab[lab]
            if (jumped == lab).all():
                break
            lab = jumped
        u = lab[u]
        v = lab[v]
        apart = u != v
        if not apart.any():
            return lab
        u = u[apart]
        v = v[apart]


# Length K of the rho0 prefix that prunes start darts.  On the random
# origamis of 64-256 squares of the classify_surfaces benchmark (seeds
# 1-5), K = 2 kept all 1024 starts of one and all 512 of another; K = 4
# kept at most 10 starts of any.
_PREFIX_LEN = 4
# The prefix pass costs 0.2-0.3 ms at 512-1024 darts whatever it prunes,
# and a torus grid gains nothing from it: its darts form at most two
# automorphism orbits, so its best code improves at most once.  The pass
# therefore runs only once the search has improved its best code this
# many times, which a random origami does within a few starts.
_PREFIX_AFTER = 2


def _prefix_survivors(r0: np.ndarray, r1: np.ndarray, k: int) -> np.ndarray:
    """The start darts whose breadth-first relabeling (as in
    :attr:`Dessin.canonical_code`) has the smallest first k rho0 images,
    for the valid dessin with image arrays ``r0`` and ``r1``.

    Those images depend only on the first k dequeued darts, so all
    starts run in lockstep: row s of ``seen`` holds the darts start s
    has labeled, in label order, and a row leaves as soon as its rho0
    image exceeds the smallest one of that step.  A start that gives
    the code is never dropped."""
    k = min(k, len(r0))
    seen = np.full((len(r0), 2 * k + 1), -1, np.intp)
    seen[:, 0] = _darts(len(r0))
    count = np.ones(len(r0), np.intp)

    def label(y: np.ndarray) -> np.ndarray:
        # y is written at the row's next free slot first, so its first
        # match is its label, old or new; an unused slot is rewritten
        seen[_darts(len(y)), count] = y
        lab = (seen == y[:, None]).argmax(axis=1)
        count[:] += lab == count
        return lab

    for i in range(k):
        # dart i of a row is dequeued: the search is transitive, so a
        # row has labeled at least i + 1 darts while i < n
        x = seen[:, i]
        lab = label(r0[x])
        keep = np.flatnonzero(lab == lab.min())
        seen, count, x = seen[keep], count[keep], x[keep]
        label(r1[x])
    return seen[:, 0]


@dataclass(frozen=True)
class Dessin:
    """Immutable dessin; construction rejects malformed arrays, while
    group-theoretic defects (non-bijective entries, rho1 fixed points,
    intransitivity) are reported by :meth:`violations`.

    It stores only the index arrays ``_r0`` and ``_r1``; ``rho0``,
    ``rho1`` and ``rho2`` = rho0^{-1} o rho1^{-1} are tuple views, and a
    sequence of ints given instead of an integer array is kept as its
    view.
    """

    n_darts: int
    rho0: tuple[int, ...] = tuple_view("_r0")
    rho1: tuple[int, ...] = tuple_view("_r1")

    def __init__(self, n_darts: int, rho0, rho1):
        if not _is_integer(n_darts) or n_darts <= 0:
            raise ValueError("n_darts must be a positive integer")
        rho0, rho1 = (p if isinstance(p, np.ndarray) else tuple(p)
                      for p in (rho0, rho1))
        r0, plain0 = _image_array("rho0", rho0, n_darts)
        r1, plain1 = _image_array("rho1", rho1, n_darts)
        _assemble(self, int(n_darts), r0, r1)
        # numpy integers in a sequence are not kept: the view holds ints
        for name, images, plain in (("rho0", rho0, plain0),
                                    ("rho1", rho1, plain1)):
            if plain:
                self.__dict__[name] = images

    def __reduce__(self):  # the arrays only: the caches rebuild on use
        return type(self), (self.n_darts, self._r0, self._r1)

    rho2 = tuple_view("_r2")

    @cached_property
    def _r2(self) -> np.ndarray:
        """rho2 as an index array: rho2[x] = rho0^{-1}[rho1^{-1}[x]], set
        by validation from the inverses of its bijection check, or by
        :func:`_substitute` from its record's rho2 table."""
        bad = [v for v in self._violations
               if v.code.endswith("not-bijection")]
        if bad:
            raise InvalidDessinError(bad)
        return self.__dict__["_r2"]

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        n = self.n_darts
        darts = _darts(n)
        out = []
        inverses = []
        for name, p in (("rho0", self._r0), ("rho1", self._r1)):
            inverses.append(_inverse_or_none(p))
            if inverses[-1] is None:
                # the first dart whose image an earlier dart already has
                repeat = np.ones(n, dtype=bool)
                repeat[np.unique(p, return_index=True)[1]] = False
                out.append(Violation(
                    f"{name}-not-bijection", int(np.flatnonzero(repeat)[0]),
                    f"{name} is not a bijection"))
        bijective = not out
        if bijective:
            self.__dict__["_r2"] = _frozen(inverses[0][inverses[1]])
        del inverses
        r1 = self._r1
        if not any(v.code == "rho1-not-bijection" for v in out):
            for x in np.flatnonzero(r1 == darts).tolist():
                out.append(Violation(
                    "rho1-fixed-point", x,
                    f"rho1 has fixed point at dart {x}"))
            moved = np.flatnonzero(r1[r1] != darts)
            if len(moved):
                x = int(moved[0])
                out.append(Violation(
                    "rho1-not-involution", x,
                    f"rho1 squared moves dart {x}"))
        if bijective:
            # components of the vertex quotient joined along rho1; vertex
            # ids follow smallest darts, and vertex 0 holds dart 0
            verts = self._cell_arrays[CellKind.VERTEX] = _cells_of(
                _cycle_minima(self._r0))
            lab = _components(len(verts.smallest), verts.id, verts.id[r1])
            stray = verts.smallest[np.flatnonzero(lab)]
        else:
            # images only: one stack search from dart 0 along rho0, rho1
            images = self._r0.tolist(), r1.tolist()
            reached, stack = bytearray(n), [0]
            reached[0] = True
            while stack:
                x = stack.pop()
                for p in images:
                    if not reached[p[x]]:
                        reached[p[x]] = True
                        stack.append(p[x])
            stray = np.flatnonzero(~np.frombuffer(reached, np.bool_))
        if len(stray):
            dart = int(stray[0])
            out.append(Violation(
                "not-transitive", dart,
                f"dart {dart} is not reachable from dart 0"))
        return tuple(out)

    def violations(self) -> list[Violation]:
        """All violated dessin invariants, empty for a valid dessin.

        The check runs once per dessin; every call returns a fresh list.
        """
        return list(self._violations)

    def is_valid(self) -> bool:
        return not self._violations

    def require_valid(self) -> None:
        if self._violations:
            raise InvalidDessinError(self._violations)

    @cached_property
    def _cell_arrays(self) -> dict[CellKind, Cells]:
        """The arrays of :meth:`cell_arrays`: the vertex cells built by
        validation, or lifted by :func:`_substitute` as it builds the
        dessin, and the others per kind on demand."""
        return {}

    def cell_arrays(self, kind: CellKind) -> Cells:
        """Cells of ``kind`` as per-dart ids plus per-cell smallest
        dart and size, numbered as in :meth:`cells`."""
        kind = CellKind(kind)
        self.require_valid()
        cells = self._cell_arrays.get(kind)
        if cells is None:
            if kind == CellKind.EDGE:
                minima = np.minimum(_darts(self.n_darts), self._r1)
            else:
                minima = _cycle_minima(getattr(self, _GENERATOR[kind]))
            cells = self._cell_arrays[kind] = _cells_of(minima)
        return cells

    @cached_property
    def _cells(self) -> dict[CellKind, tuple[tuple[int, ...], ...]]:
        """The orbit tuples of :meth:`cells`, built per kind on demand."""
        return {}

    def cells(self, kind: CellKind) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of the darts under the generator of ``kind``.

        Orbits are in generator-cycle order starting from their smallest
        dart and are indexed by position, so ids are dense and stable:
        a view of :meth:`cell_arrays`, walked from each smallest dart.
        """
        kind = CellKind(kind)
        cells = self._cells.get(kind)
        if cells is None:
            c = self.cell_arrays(kind)
            # the generator's images as a list, so no tuple view is built
            p = getattr(self, _GENERATOR[kind]).tolist()
            cells = []
            for x, size in zip(c.smallest.tolist(), c.size.tolist()):
                cycle = []
                for _ in range(size):
                    cycle.append(x)
                    x = p[x]
                cells.append(tuple(cycle))
            cells = self._cells[kind] = tuple(cells)
        return cells

    def dart_cell(self, dart: int, kind: CellKind) -> CellIndex:
        """The cell of ``kind`` containing ``dart``."""
        kind = CellKind(kind)
        dart = _index(dart, "dart", self.n_darts)
        return CellIndex(kind, int(self.cell_arrays(kind).id[dart]))

    def genus(self) -> int:
        """Genus of the underlying closed oriented surface, from the
        Euler formula 2 - 2g = V - E + F."""
        v, e, f = (len(self.cell_arrays(k).smallest) for k in CellKind)
        # V - E + F is even, since rho2 rho1 rho0 = id and n = 2E
        return (2 - v + e - f) // 2

    def relabeled(self, sigma) -> "Dessin":
        """Conjugate by the dart relabeling ``sigma`` (old dart x becomes
        sigma[x])."""
        s, s_inv = _permutation_array(
            sigma, self.n_darts, "sigma must be a permutation of the darts")
        # new dart s[x] is sent to s[rho(x)]: s o rho o s^{-1}
        return Dessin(self.n_darts, s[self._r0][s_inv], s[self._r1][s_inv])

    @cached_property
    def _canonical(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], int]:
        """The canonical code and the automorphism count, from one
        pruned search over the start darts."""
        self.require_valid()
        n = self.n_darts
        rho0, rho1 = self.rho0, self.rho1
        # union-find over darts: its classes are the orbits of the group
        # generated by the automorphisms found so far, and each root is
        # the smallest dart of its class
        parent = list(range(n))
        size = [1] * n

        def extend(label, order, r0, r1, stop: int) -> None:
            # breadth-first relabeling: r0[i] and r1[i] are final as soon
            # as dart order[i] is dequeued
            for i in range(len(r0), stop):
                x = order[i]
                y = rho0[x]
                ly = label[y]
                if ly < 0:
                    ly = label[y] = len(order)
                    order.append(y)
                r0.append(ly)
                y = rho1[x]
                ly = label[y]
                if ly < 0:
                    ly = label[y] = len(order)
                    order.append(y)
                r1.append(ly)

        # the best run so far, kept as it stood when it won: its labels,
        # its order and its first len(b_r0) images; the first start's
        # win over the sentinel n is not an improvement
        b_r0, b_r1 = [n], []
        label = [-1] * n
        improvements = -1
        starts = deque(range(n))
        while starts:
            s = starts.popleft()
            # the darts of a class give one code, and the smallest dart
            # of the class of s, its root, was tried before s
            if parent[s] != s:
                continue
            label[s] = 0
            order = [s]
            # a challenger keeps no images until it ties or beats the best
            # on rho0; rho1 decides only a tie on all of rho0
            known = len(b_r0)
            for i in range(n):
                if i == known:
                    # doubling: a long tie extends the best in few calls
                    known = min(n, 2 * i + 1)
                    extend(b_label, b_order, b_r0, b_r1, known)
                x = order[i]
                y = rho0[x]
                ly = label[y]
                if ly < 0:
                    ly = label[y] = len(order)
                    order.append(y)
                y = rho1[x]
                if label[y] < 0:
                    label[y] = len(order)
                    order.append(y)
                if ly != b_r0[i]:
                    break
            if ly > b_r0[i]:
                for x in order:
                    label[x] = -1
                continue
            r1 = [label[rho1[x]] for x in order[:i + 1]]
            if ly < b_r0[i] or r1 < b_r1:
                # the challenger becomes the best as it stands at i
                b_r0[i:] = [ly]
                b_label, b_order, b_r1 = label, order, r1
                improvements += 1
                if improvements == _PREFIX_AFTER:
                    kept = _prefix_survivors(self._r0, self._r1, _PREFIX_LEN)
                    starts = deque(kept[kept > s].tolist())
            elif r1 == b_r1:
                # equal codes: b_order[k] -> order[k] is an automorphism
                for x, y in zip(b_order, order):
                    while parent[x] != x:  # path halving
                        parent[x] = x = parent[parent[x]]
                    while parent[y] != y:
                        parent[y] = y = parent[parent[y]]
                    if x != y:
                        if y < x:
                            x, y = y, x
                        parent[y] = x
                        size[x] += size[y]
            # a fresh list: the old one is the best's, or holds every dart
            label = [-1] * n
        extend(b_label, b_order, b_r0, b_r1, n)
        root = b_order[0]
        while parent[root] != root:
            root = parent[root]
        return (tuple(b_r0), tuple(b_r1)), size[root]

    @property
    def canonical_code(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Lexicographically smallest breadth-first relabeling of
        (rho0, rho1) over all starting darts.  Equal codes characterize
        isomorphic dessins.

        The relabeling from start dart s numbers darts in the order a
        breadth-first search from s first reaches them, following rho0
        before rho1 from each dart, and the code is the pair of relabeled
        image tuples, compared rho0 first.  The search streams the rho0
        images of each start and abandons it at the first position where
        it exceeds the best code so far; a start that falls below it
        there becomes the best as it stands, so only the final best runs
        to the end.  rho1 decides only a tie on all of rho0, and two
        starts with equal codes give an automorphism; the starts in one
        orbit of the automorphisms found so far give one code, so only
        the first of them is tried (McKay & Piperno, "Practical graph
        isomorphism II", 2014).  The starts that reach the code are one
        orbit of the automorphism group, and their number is
        :meth:`automorphism_count`, which the same search computes.

        Once the best code has improved twice, one numpy pass computes
        the first four relabeled rho0 images of every start in
        lockstep, and the search then skips each start whose four
        images exceed the smallest ones: such a start cannot give the
        code.  A dessin with few automorphism orbits of darts, such as
        a torus grid (at most two), never improves its best code twice
        and so never pays for the pass; a random origami reaches it
        within a few starts, and the pass usually leaves it a handful.
        """
        return self._canonical[0]

    def automorphism_count(self) -> int:
        """Order of the automorphism group: the number of start darts
        whose relabeling gives the canonical code.

        Automorphisms of a connected map act freely on the darts, so the
        count divides ``n_darts``, and the dessin is regular exactly when
        the count equals ``n_darts``.
        """
        return self._canonical[1]


def _faces_of_size(d: Dessin, k: int) -> bool:
    """Whether every face of the valid ``d`` has ``k`` sides, read off its
    face cells when built.  Otherwise rho2^k = id with no rho2^j, 0 < j <
    k, fixing a dart: k - 1 gathers and k compares, and no cells."""
    d.require_valid()
    if CellKind.FACE in d._cell_arrays:
        return bool((d.cell_arrays(CellKind.FACE).size == k).all())
    darts, power = _darts(d.n_darts), d._r2
    for _ in range(k - 1):
        if (power == darts).any():
            return False
        power = d._r2[power]
    return bool((power == darts).all())


def _require_face_size(d: Dessin, face_size: int) -> None:
    """Raise unless every face of the valid ``d`` has ``face_size`` sides."""
    if not _faces_of_size(d, face_size):
        size = d.cell_arrays(CellKind.FACE).size
        bad = np.flatnonzero(size != face_size)[0]
        raise FaceDegreeMismatch(
            f"face {bad} has {size[bad]} sides, expected {face_size}")


def from_rho1_rho2(rho1, rho2) -> Dessin:
    """The dessin with edge involution ``rho1`` and face permutation
    ``rho2``, given as index arrays: rho0 = rho1 o rho2^{-1}, which is
    rho2 rho1 rho0 = id for an involution rho1, scattered as
    rho0[rho2[x]] = rho1[x].  ``rho2`` must be a permutation: one that
    is not leaves a -1 in rho0, which the constructor rejects."""
    rho1 = np.asarray(rho1, dtype=np.intp)
    rho0 = np.full_like(rho1, -1)
    rho0[np.asarray(rho2, dtype=np.intp)] = rho1
    return Dessin(len(rho1), _frozen(rho0), rho1)


def _lifted_cells(d: Dessin, k: int, column, ids) -> Cells:
    """The vertex cells of a substitution of the valid ``d``, built with
    it: new dart k*e + i lies on the lift of the cell ``ids[c][e]`` of
    ``d``, c = ``column[i]`` = (kind, source), which holds source(e).  A
    cell's smallest dart is a gather of the input's smallest darts for
    source e, else one minimum over the input's darts, so no orbit of
    the output is walked.  Faces are not lifted: their 3- and 4-cycles
    take the generic kernel in a few rounds, while a long vertex cycle
    takes a doubling round per doubling of its length."""
    n = d.n_darts
    least = {}  # per kind, the smallest dart of each of its cells
    for i, (kind, src) in enumerate(column):
        cells = d.cell_arrays(kind)
        if src == "e":
            first = cells.smallest
        else:
            first = np.full(len(cells.smallest), n)
            np.minimum.at(first, ids[kind, src], _darts(n))
        first = k * first + i
        least[kind] = (np.minimum(least[kind], first) if kind in least
                       else first)
    minima = np.empty(n * k, np.intp)
    for i, (kind, src) in enumerate(column):
        minima[i::k] = least[kind][ids[kind, src]]
    return _cells_of(minima)


class _Substitution(NamedTuple):
    """A dart substitution, k = ``len(vertices)`` new darts per old dart
    e: entry i of ``rho1`` and ``rho2`` is a pair (src, j) sending new
    dart k*e + i to k*src[e] + j, src one of "e" (the identity), "rho1",
    "rho2" and "rho2_inv", and entry i of ``vertices`` the (kind, src)
    of the cell whose lift holds that dart's vertex.  Each record is an
    operator's constant that maps valid dessins to valid ones, unchecked."""

    rho1: tuple
    rho2: tuple
    vertices: tuple


def _substitute(d: Dessin, s: _Substitution) -> tuple[Dessin, dict]:
    """The substitution ``s`` of the valid ``d`` (InvalidDessinError
    otherwise), the permutation-triple calculus of Lando & Zvonkin,
    *Graphs on Surfaces and Their Applications* (2004), ch. 1: its tables
    give rho1 and rho2, and rho0 = rho1 o rho2^{-1} is scattered in
    place, each slot written once since rho2 is a permutation.  The
    result is valid by construction, so it is assembled from its arrays
    unchecked (:func:`_assemble`) and never validated.  It comes with
    the cell ids of ``d`` its vertex column reads, per (kind, src), the
    id array itself at e: its vertex cells are lifted from them at once
    (:func:`_lifted_cells`); it keeps nothing of ``d``."""
    d.require_valid()
    k = len(s.vertices)
    sources = {"rho1": d._r1, "rho2": d._r2,
               "rho2_inv": d._r1[d._r0]}  # rho2^{-1} = rho1 o rho0
    scaled = {src: k * p for src, p in sources.items()}
    scaled["e"] = k * _darts(d.n_darts)
    r1 = np.empty(d.n_darts * k, np.intp)  # owns its memory: shared
    r2 = np.empty_like(r1)
    for images, table in ((r1, s.rho1), (r2, s.rho2)):
        for i, (src, j) in enumerate(table):
            np.add(scaled[src], j, out=images[i::k])
    del scaled  # before the lift's scratch
    r0 = np.empty_like(r1)
    r0[r2] = r1  # rho0 = rho1 o rho2^{-1}: r2 is a permutation
    out = _assemble(object.__new__(Dessin), len(r1), _frozen(r0),
                    _frozen(r1), _r2=_frozen(r2), _violations=())
    ids = {(kind, src): d.cell_arrays(kind).id[sources.get(src, slice(None))]
           for kind, src in dict.fromkeys(s.vertices)}
    out._cell_arrays[CellKind.VERTEX] = _lifted_cells(d, k, s.vertices, ids)
    return out, ids


def is_isomorphic(d1: Dessin, d2: Dessin) -> bool:
    """Whether two valid dessins differ only by a relabeling of darts.

    Raises TypeError, naming the argument, when either is not a
    :class:`Dessin`, and :class:`InvalidDessinError` when either is not
    valid."""
    _require_instance("d1", d1, Dessin)
    _require_instance("d2", d2, Dessin)
    if d1.n_darts != d2.n_darts:
        d1.require_valid()
        d2.require_valid()
        return False
    return d1.canonical_code == d2.canonical_code
