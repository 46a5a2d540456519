"""Reference implementations used to pin expected values in tests.

Everything here is deliberately naive and structured differently from
the package (peeling sets instead of orbit machinery, table lookup by
solving the defining relation pointwise, the C library gamma instead of
quadrature), so agreement between the two is meaningful evidence.
"""

import math
from collections import deque
from fractions import Fraction


def orbit_count(images) -> int:
    remaining = set(range(len(images)))
    count = 0
    while remaining:
        x = next(iter(remaining))
        while x in remaining:
            remaining.remove(x)
            x = images[x]
        count += 1
    return count


def orbit_sizes(images) -> list[int]:
    remaining = set(range(len(images)))
    sizes = []
    while remaining:
        x = next(iter(remaining))
        size = 0
        while x in remaining:
            remaining.remove(x)
            x = images[x]
            size += 1
        sizes.append(size)
    return sorted(sizes, reverse=True)


def face_permutation(rho0, rho1) -> list[int]:
    """Solve rho2[rho1[rho0[x]]] = x pointwise (the defining relation
    with the rightmost factor acting first)."""
    n = len(rho0)
    rho2 = [None] * n
    for x in range(n):
        rho2[rho1[rho0[x]]] = x
    assert None not in rho2
    return rho2


def euler_genus(rho0, rho1) -> int:
    v = orbit_count(rho0)
    e = orbit_count(rho1)
    f = orbit_count(face_permutation(rho0, rho1))
    chi = v - e + f
    assert chi % 2 == 0
    return (2 - chi) // 2


def reachable_from_zero(perms_list, n) -> set:
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for p in perms_list:
                if p[x] not in seen:
                    seen.add(p[x])
                    nxt.append(p[x])
        frontier = nxt
    return seen


def start_codes(rho0, rho1) -> list:
    """The breadth-first relabeling code of (rho0, rho1) from every
    start dart, in start order.

    From a start, darts are labeled in the order a queue-driven search
    first meets them, trying rho0 before rho1 at each dart; the code is
    the pair of image tuples read in label order.  The canonical code is
    the minimum over all starts, and the starts reaching it are the
    images of one start under the automorphisms.
    """
    codes = []
    for start in range(len(rho0)):
        label = {start: 0}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in (rho0[x], rho1[x]):
                if y not in label:
                    label[y] = len(label)
                    queue.append(y)
        by_label = sorted(label, key=label.__getitem__)
        codes.append((tuple(label[rho0[x]] for x in by_label),
                      tuple(label[rho1[x]] for x in by_label)))
    return codes


def gamma_beta(a: float, b: float) -> float:
    """Euler beta via the C library gamma, independent of any
    quadrature."""
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def rational_map_exact(x: Fraction) -> Fraction:
    """The degree-6 map in plain Fraction arithmetic; poles forbidden."""
    x = Fraction(x)
    num = 4 * (x * x - x + 1) ** 3
    den = 27 * x * x * (1 - x) ** 2
    return num / den


def rational_map_derivative_exact(x: Fraction) -> Fraction:
    """d/dx of the degree-6 map via the quotient rule, exactly."""
    x = Fraction(x)
    num = (x * x - x + 1) ** 3
    dnum = 3 * (x * x - x + 1) ** 2 * (2 * x - 1)
    den = x * x * (1 - x) ** 2
    dden = 2 * x * (1 - x) ** 2 - 2 * x * x * (1 - x)
    return Fraction(4, 27) * (dnum * den - num * dden) / (den * den)


def fd_derivative(f, z: complex, h: float = 1e-6) -> complex:
    """Central finite difference."""
    return (f(z + h) - f(z - h)) / (2.0 * h)
