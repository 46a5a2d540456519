"""Oriented combinatorial maps ("dessins") as permutation pairs on darts.

A dessin on n darts is a pair of permutations (rho0, rho1) of
{0, ..., n-1}.  rho0 rotates a dart counterclockwise about its origin
vertex, rho1 reverses it, and the face walk rho2 is derived from the
relation rho2 rho1 rho0 = id (rightmost factor first), i.e.
rho2 = rho0^{-1} o rho1^{-1}.  Vertices, edges and faces are the orbits
of rho0, rho1 and rho2; rho2 moves a dart forward along the boundary of
the face lying to its left.

A dessin stores its permutations only as read-only numpy index
arrays; validation, cells and the dart-substitution operators
(:func:`substitute`) work on those.  The tuples ``rho0``, ``rho1`` and
``rho2`` are views built from the arrays on first use and then kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import permutations as perms


class CellKind(str, Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    FACE = "face"


_GENERATOR = dict(zip(CellKind, ("rho0", "rho1", "rho2")))


@dataclass(frozen=True)
class CellIndex:
    """A cell of a dessin: its kind plus a dense id in 0..count-1."""

    kind: CellKind
    id: int


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


def inverse_array(p: np.ndarray) -> np.ndarray:
    """Inverse of a permutation given as an index array."""
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


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


def _image_array(name: str, images, n: int) -> np.ndarray:
    """``images``, an integer array or a sequence of ints in 0..n-1, as a
    read-only index array, shared when it already is one; the per-entry
    loop runs only to name the first bad entry when the whole-array
    check fails."""
    if len(images) != n:
        raise ValueError(f"{name} has {len(images)} entries, expected {n}")
    arr = None
    if isinstance(images, np.ndarray):
        if images.dtype.kind in "iu" and images.ndim == 1:
            arr = images
    elif set(map(type, images)) <= {int}:
        try:
            arr = _frozen(np.fromiter(images, np.intp, n))
        except OverflowError:
            pass
    # an empty array (n = 0) has no minimum, and no entry out of range
    if arr is not None and (not n or arr.min() >= 0 and arr.max() < n):
        return _read_only(arr, np.intp)
    if isinstance(images, np.ndarray):
        images = images.tolist()
    for i, y in enumerate(images):
        if not isinstance(y, int) or isinstance(y, bool):
            raise ValueError(f"{name}[{i}] is not an integer")
        if not 0 <= y < n:
            raise ValueError(f"{name}[{i}] = {y} out of range 0..{n - 1}")
    return _frozen(np.array([int(y) for y in images], dtype=np.intp))


def _permutation_array(images, n: int, message: str) -> np.ndarray:
    """``images``, an integer array or a sequence of ints, as a read-only
    index array; ValueError(``message``) unless it is a permutation of
    0..n-1."""
    if not isinstance(images, np.ndarray):
        images = tuple(images)
    try:
        arr = _image_array("images", images, n)
    except ValueError:
        arr = None
    if arr is None or not (np.bincount(arr, minlength=n) == 1).all():
        raise ValueError(message)
    return arr


def _cycle_minima(p: np.ndarray) -> np.ndarray:
    """Per element, the smallest element of its cycle under ``p``, by
    pointer doubling: after k rounds m[x] is the minimum over the 2^k
    elements x, p(x), ..., and a round that changes nothing means the
    windows already cover every cycle."""
    m = np.arange(len(p))
    while True:
        m_next = np.minimum(m, m[p])
        if np.array_equal(m_next, m):
            return m
        m = m_next
        p = p[p]


def _component_minima(f: np.ndarray, u: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """Per element, the smallest element of its connected component in
    the graph with edges u[i] -- v[i], by hook-and-jump.  ``f`` is a
    forest of pointers to roots with f[x] <= x (the identity, or orbit
    minima of one permutation).  Each round every root with an edge to
    a smaller root hooks under the smallest such root, then all
    pointers jump to their roots; it ends when no edge joins two
    roots."""
    while True:
        fu = f[u]
        fv = f[v]
        apart = fu != fv
        if not apart.any():
            return f
        f = f.copy()
        np.minimum.at(f, np.maximum(fu, fv)[apart], np.minimum(fu, fv)[apart])
        while True:
            ff = f[f]
            if np.array_equal(ff, f):
                break
            f = ff


def _cells_of(m: np.ndarray) -> Cells:
    """Cells from the per-element cycle minima ``m``."""
    is_min = m == np.arange(len(m))
    ids = (np.cumsum(is_min) - 1)[m]
    return Cells(_frozen(ids), _frozen(np.flatnonzero(is_min)),
                 _frozen(np.bincount(ids)))


@dataclass(frozen=True)
class Dessin:
    """Immutable dessin; construction rejects malformed arrays, while
    group-theoretic defects (non-bijective entries, rho1 fixed points,
    intransitivity) are reported by :meth:`violations`.

    It stores only the index arrays ``_r0`` and ``_r1``; ``rho0``,
    ``rho1`` and ``rho2`` = rho0^{-1} o rho1^{-1} are tuple views, and a
    sequence given instead of an integer array is kept as its view.
    """

    n_darts: int
    rho0: tuple[int, ...] = tuple_view("_r0")
    rho1: tuple[int, ...] = tuple_view("_r1")

    def __init__(self, n_darts: int, rho0, rho1):
        if not isinstance(n_darts, int) or n_darts <= 0:
            raise ValueError("n_darts must be a positive integer")
        rho0, rho1 = (p if isinstance(p, np.ndarray) else tuple(p)
                      for p in (rho0, rho1))
        r0 = _image_array("rho0", rho0, n_darts)
        r1 = _image_array("rho1", rho1, n_darts)
        object.__setattr__(self, "n_darts", n_darts)
        object.__setattr__(self, "_r0", r0)
        object.__setattr__(self, "_r1", r1)
        for name, images in (("rho0", rho0), ("rho1", rho1)):
            if isinstance(images, tuple):
                self.__dict__[name] = images

    rho2 = tuple_view("_r2")

    @cached_property
    def _r2(self) -> np.ndarray:
        """rho2 as an index array: rho2[x] = rho0^{-1}[rho1^{-1}[x]]."""
        bad = [v for v in self._violations
               if v.code.endswith("not-bijection")]
        if bad:
            raise InvalidDessinError(bad)
        return _frozen(inverse_array(self._r0)[inverse_array(self._r1)])

    @cached_property
    def _vertex_minima(self) -> np.ndarray:
        """Per dart, the smallest dart of its rho0 orbit."""
        return _frozen(_cycle_minima(self._r0))

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        n = self.n_darts
        darts = np.arange(n)
        out = []
        for name, p in (("rho0", self._r0), ("rho1", self._r1)):
            if not (np.bincount(p, minlength=n) == 1).all():
                # the first dart whose image an earlier dart already has
                repeat = np.ones(n, dtype=bool)
                repeat[np.unique(p, return_index=True)[1]] = False
                out.append(Violation(
                    f"{name}-not-bijection", int(np.flatnonzero(repeat)[0]),
                    f"{name} is not a bijection"))
        bijective = not out
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
            # components joined along rho1 from the vertex orbits
            stray = np.flatnonzero(
                _component_minima(self._vertex_minima, darts, r1))
        else:
            # images only: reachability from dart 0 along rho0 and rho1
            reached = np.zeros(n, dtype=bool)
            new = darts[:1]
            while len(new):
                reached[new] = True
                new = np.concatenate([self._r0[new], r1[new]])
                new = np.unique(new[~reached[new]])
            stray = np.flatnonzero(~reached)
        dart = int(stray[0]) if len(stray) else None
        if dart is not None:
            out.append(Violation(
                "not-transitive", dart,
                f"dart {dart} is not reachable from dart 0"))
        return tuple(out)

    @cached_property
    def _metric_checks(self) -> dict:
        """Metric consistency results kept by :mod:`dessins.metric`."""
        return {}

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
        """The arrays of :meth:`cell_arrays`, built per kind on demand."""
        return {}

    def cell_arrays(self, kind: CellKind) -> Cells:
        """Cells of ``kind`` as per-dart ids plus per-cell smallest
        dart and size, numbered as in :meth:`cells`."""
        kind = CellKind(kind)
        cells = self._cell_arrays.get(kind)
        if cells is None:
            self.require_valid()
            if kind == CellKind.VERTEX:
                minima = self._vertex_minima
            elif kind == CellKind.EDGE:
                minima = np.minimum(np.arange(self.n_darts), self._r1)
            else:
                minima = _cycle_minima(self._r2)
            cells = self._cell_arrays[kind] = _cells_of(minima)
        return cells

    @cached_property
    def _cells(self) -> dict[CellKind, tuple[tuple[int, ...], ...]]:
        """The orbit tuples of :meth:`cells`, built per kind on demand."""
        return {}

    def cells(self, kind: CellKind) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of the darts under the generator of ``kind``.

        Orbits are in generator-cycle order starting from their smallest
        dart and are indexed by position, so ids are dense and stable.
        """
        kind = CellKind(kind)
        cells = self._cells.get(kind)
        if cells is None:
            self.require_valid()
            generator = getattr(self, _GENERATOR[kind])
            cells = self._cells[kind] = perms.orbits(generator)
        return cells

    def dart_cell(self, dart: int, kind: CellKind) -> CellIndex:
        """The cell of ``kind`` containing ``dart``."""
        kind = CellKind(kind)
        if not 0 <= dart < self.n_darts:
            raise ValueError(f"dart {dart} out of range")
        return CellIndex(kind, int(self.cell_arrays(kind).id[dart]))

    def genus(self) -> int:
        """Genus of the underlying closed oriented surface, from the
        Euler formula 2 - 2g = V - E + F."""
        v, e, f = (len(self.cell_arrays(k).smallest) for k in CellKind)
        chi = v - e + f
        if chi % 2:
            raise InvalidDessinError([Violation(
                "odd-euler-characteristic", None,
                f"V - E + F = {chi} is odd")])
        return (2 - chi) // 2

    def relabeled(self, sigma) -> "Dessin":
        """Conjugate by the dart relabeling ``sigma`` (old dart x becomes
        sigma[x])."""
        s = _permutation_array(sigma, self.n_darts,
                               "sigma must be a permutation of the darts")
        # new dart s[x] is sent to s[rho(x)]: s o rho o s^{-1}
        s_inv = inverse_array(s)
        return Dessin(self.n_darts, s[self._r0][s_inv], s[self._r1][s_inv])

    @cached_property
    def _canonical(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], int]:
        """The canonical code and the automorphism count, from one
        pruned search over the start darts."""
        self.require_valid()
        n = self.n_darts
        rho0, rho1 = self.rho0, self.rho1
        label = [-1] * n
        # union-find over darts: its classes are the orbits of the group
        # generated by the automorphisms found so far
        parent = list(range(n))
        size = [1] * n
        evaluated = [False] * n  # per root: the class holds a tried start

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        best_r0: list[int] = []
        best_r1: list[int] = []
        best_order: list[int] = []
        for s in range(n):
            if evaluated[find(s)]:
                continue
            # breadth-first relabeling from s; r0[i] is final as soon as
            # dart order[i] is dequeued, so compare it on the fly
            label[s] = 0
            order = [s]
            r0 = []
            r1 = []
            tied = bool(best_order)
            larger = False
            for i in range(n):
                x = order[i]
                y = rho0[x]
                ly = label[y]
                if ly < 0:
                    ly = label[y] = len(order)
                    order.append(y)
                if tied and ly != best_r0[i]:
                    if ly > best_r0[i]:
                        larger = True
                        break
                    tied = False
                r0.append(ly)
                y = rho1[x]
                ly = label[y]
                if ly < 0:
                    ly = label[y] = len(order)
                    order.append(y)
                r1.append(ly)
            for x in order:
                label[x] = -1
            evaluated[find(s)] = True
            if larger:
                continue
            if not tied or r1 < best_r1:
                best_r0, best_r1, best_order = r0, r1, order
            elif r1 == best_r1:
                # equal codes: best_order[k] -> order[k] is an automorphism
                for x, y in zip(best_order, order):
                    x, y = find(x), find(y)
                    if x != y:
                        if size[x] < size[y]:
                            x, y = y, x
                        parent[y] = x
                        size[x] += size[y]
                        evaluated[x] = evaluated[x] or evaluated[y]
        return (tuple(best_r0), tuple(best_r1)), size[find(best_order[0])]

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
        it exceeds the best code so far.  Two starts with equal codes
        give an automorphism; the starts in one orbit of the
        automorphisms found so far give one code, so only the first of
        them is tried (McKay & Piperno, "Practical graph isomorphism
        II", 2014).  The starts that reach the code are one orbit of the
        automorphism group, and their number is
        :meth:`automorphism_count`, which the same search computes.
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


def from_rho1_rho2(rho1, rho2) -> Dessin:
    """The dessin with edge involution ``rho1`` and face permutation
    ``rho2``, given as index arrays: rho0 = rho1 o rho2^{-1}, which is
    rho2 rho1 rho0 = id for an involution rho1.  ``rho2`` must be a
    permutation; the result is validated like any dessin."""
    rho1 = np.asarray(rho1, dtype=np.intp)
    rho0 = rho1[inverse_array(np.asarray(rho2, dtype=np.intp))]
    return Dessin(len(rho1), rho0, rho1)


def substitute(d: Dessin, k: int, rho1_table, rho2_table) -> Dessin:
    """Replace every dart e of ``d`` by the k darts k*e .. k*e + k - 1.

    Entry i of each table is a pair (source, j): new dart k*e + i is
    sent to k*src[e] + j, where ``source`` names src among "e" (the
    identity), "rho1", "rho2" and "rho2_inv" of ``d``.  The tables give
    rho1 and rho2 of the result, and rho0 follows from
    :func:`from_rho1_rho2`.  This is the permutation-triple calculus of
    Lando & Zvonkin, *Graphs on Surfaces and Their Applications* (2004),
    ch. 1: refinements of a map are substitutions on its darts.
    """
    n = d.n_darts
    sources = {"e": np.arange(n), "rho1": d._r1, "rho2": d._r2,
               "rho2_inv": inverse_array(d._r2)}

    def expand(table) -> np.ndarray:
        out = np.empty((n, k), dtype=np.intp)
        for i, (src, j) in enumerate(table):
            out[:, i] = k * sources[src] + j
        return out.ravel()

    return from_rho1_rho2(expand(rho1_table), expand(rho2_table))


def is_isomorphic(d1: Dessin, d2: Dessin) -> bool:
    """Whether two valid dessins differ only by a relabeling of darts."""
    if d1.n_darts != d2.n_darts:
        d1.require_valid()
        d2.require_valid()
        return False
    return d1.canonical_code == d2.canonical_code
