"""Oriented combinatorial maps ("dessins") as permutation pairs on darts.

A dessin on n darts is a pair of permutations (rho0, rho1) of
{0, ..., n-1}.  rho0 rotates a dart counterclockwise about its origin
vertex, rho1 reverses it, and the face walk rho2 is derived from the
relation rho2 rho1 rho0 = id (rightmost factor first), i.e.
rho2 = rho0^{-1} o rho1^{-1}.  Vertices, edges and faces are the orbits
of rho0, rho1 and rho2; rho2 moves a dart forward along the boundary of
the face lying to its left.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import permutations as perms


class CellKind(str, Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    FACE = "face"


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


def _check_images(name: str, images, n: int) -> None:
    if len(images) != n:
        raise ValueError(f"{name} has {len(images)} entries, expected {n}")
    for i, y in enumerate(images):
        if not isinstance(y, int) or isinstance(y, bool):
            raise ValueError(f"{name}[{i}] is not an integer")
        if not 0 <= y < n:
            raise ValueError(f"{name}[{i}] = {y} out of range 0..{n - 1}")


@dataclass(frozen=True)
class Dessin:
    """Immutable dessin; construction rejects malformed arrays, while
    group-theoretic defects (non-bijective entries, rho1 fixed points,
    intransitivity) are reported by :meth:`violations`."""

    n_darts: int
    rho0: tuple[int, ...]
    rho1: tuple[int, ...]

    def __init__(self, n_darts: int, rho0, rho1):
        if not isinstance(n_darts, int) or n_darts <= 0:
            raise ValueError("n_darts must be a positive integer")
        rho0 = tuple(rho0)
        rho1 = tuple(rho1)
        _check_images("rho0", rho0, n_darts)
        _check_images("rho1", rho1, n_darts)
        object.__setattr__(self, "n_darts", n_darts)
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "rho1", rho1)

    @cached_property
    def rho2(self) -> tuple[int, ...]:
        """The derived face permutation rho0^{-1} o rho1^{-1}."""
        bad = [v for v in self._violations
               if v.code.endswith("not-bijection")]
        if bad:
            raise InvalidDessinError(bad)
        return perms.compose(perms.inverse(self.rho0), perms.inverse(self.rho1))

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        out = []
        for name, p in (("rho0", self.rho0), ("rho1", self.rho1)):
            if not perms.is_permutation(p):
                seen: dict[int, int] = {}
                dart = None
                for x, y in enumerate(p):
                    if y in seen:
                        dart = x
                        break
                    seen[y] = x
                out.append(Violation(
                    f"{name}-not-bijection", dart,
                    f"{name} is not a bijection"))
        rho1_bijective = not any(v.code == "rho1-not-bijection" for v in out)
        if rho1_bijective:
            for x in range(self.n_darts):
                if self.rho1[x] == x:
                    out.append(Violation(
                        "rho1-fixed-point", x,
                        f"rho1 has fixed point at dart {x}"))
            for x in range(self.n_darts):
                if self.rho1[self.rho1[x]] != x:
                    out.append(Violation(
                        "rho1-not-involution", x,
                        f"rho1 squared moves dart {x}"))
                    break
        if not perms.are_transitive((self.rho0, self.rho1), self.n_darts):
            reached = {0}
            stack = [0]
            while stack:
                x = stack.pop()
                for p in (self.rho0, self.rho1):
                    if p[x] not in reached:
                        reached.add(p[x])
                        stack.append(p[x])
            dart = min(set(range(self.n_darts)) - reached)
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

    def _generator(self, kind: CellKind) -> tuple[int, ...]:
        if kind == CellKind.VERTEX:
            return self.rho0
        if kind == CellKind.EDGE:
            return self.rho1
        if kind == CellKind.FACE:
            return self.rho2
        raise ValueError(f"unknown cell kind {kind!r}")

    @cached_property
    def _cells(self) -> dict[CellKind, tuple[tuple[int, ...], ...]]:
        self.require_valid()
        return {k: perms.orbits(self._generator(k)) for k in CellKind}

    @cached_property
    def _cell_ids(self) -> dict[CellKind, tuple[int, ...]]:
        out = {}
        for kind, orbs in self._cells.items():
            ids = [0] * self.n_darts
            for i, orb in enumerate(orbs):
                for x in orb:
                    ids[x] = i
            out[kind] = tuple(ids)
        return out

    def cells(self, kind: CellKind) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of the darts under the generator of ``kind``.

        Orbits are in generator-cycle order starting from their smallest
        dart and are indexed by position, so ids are dense and stable.
        """
        return self._cells[CellKind(kind)]

    def dart_cell(self, dart: int, kind: CellKind) -> CellIndex:
        """The cell of ``kind`` containing ``dart``."""
        kind = CellKind(kind)
        if not 0 <= dart < self.n_darts:
            raise ValueError(f"dart {dart} out of range")
        return CellIndex(kind, self._cell_ids[kind][dart])

    def genus(self) -> int:
        """Genus of the underlying closed oriented surface, from the
        Euler formula 2 - 2g = V - E + F."""
        v = len(self.cells(CellKind.VERTEX))
        e = len(self.cells(CellKind.EDGE))
        f = len(self.cells(CellKind.FACE))
        chi = v - e + f
        if chi % 2:
            raise InvalidDessinError([Violation(
                "odd-euler-characteristic", None,
                f"V - E + F = {chi} is odd")])
        return (2 - chi) // 2

    def relabeled(self, sigma) -> "Dessin":
        """Conjugate by the dart relabeling ``sigma`` (old dart x becomes
        sigma[x])."""
        sigma = tuple(sigma)
        if not perms.is_permutation(sigma) or len(sigma) != self.n_darts:
            raise ValueError("sigma must be a permutation of the darts")
        r0 = [0] * self.n_darts
        r1 = [0] * self.n_darts
        for x in range(self.n_darts):
            r0[sigma[x]] = sigma[self.rho0[x]]
            r1[sigma[x]] = sigma[self.rho1[x]]
        return Dessin(self.n_darts, r0, r1)

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


def is_isomorphic(d1: Dessin, d2: Dessin) -> bool:
    """Whether two valid dessins differ only by a relabeling of darts."""
    if d1.n_darts != d2.n_darts:
        d1.require_valid()
        d2.require_valid()
        return False
    return d1.canonical_code == d2.canonical_code
