"""Reference implementations used to pin expected values in tests.

Everything here is deliberately naive and structured differently from
the package (peeling sets instead of orbit machinery, table lookup by
solving the defining relation pointwise, the C library gamma instead of
quadrature), so agreement between the two is meaningful evidence.
The one helper besides them, time_limit, bounds a call's wall time.
"""

import math
import signal
from collections import deque
from contextlib import contextmanager
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


def complex_power_scaled_integral(a: float, b: float, t: complex,
                                  jacobi, legendre) -> complex:
    """integral_0^1 s^(a-1) (1 - t*s)^(b-1) ds on the panel ladder of
    the package's quadrature, with the integrand as numpy's complex
    power instead of a modulus and an argument: the sum of each panel's
    2n-node values.  ``jacobi`` and ``legendre`` are the package's rules
    for the weights s^(a-1) and 1: nodes of the n- and 2n-node rules in
    one array, then the n and the 2n weights.  (1 - t*s)^(b-1) is taken
    in np.clongdouble (80-bit extended on x86-64): in complex128, t*s
    and the power can lose about 1e-14 relative for a large |t| and a b
    next to 0, the whole of the tests' bound."""
    import numpy as np

    def power(nodes):
        return (1.0 - np.clongdouble(t) * nodes) ** (b - 1.0)

    s, w, w2 = jacobi
    n = len(w)
    r = abs(t)
    s_edge = 1.0 if r <= 1.0 else 0.5 / r
    total = s_edge ** a * complex(w2 @ power(s_edge * s[n:]))
    s, w, w2 = legendre
    lo = s_edge
    while lo < 1.0:
        hi = min(2.0 * lo, 1.0)
        nodes = lo + (hi - lo) * s[n:]
        total += (hi - lo) * complex(
            w2 @ (nodes ** (a - 1.0) * power(nodes)))
        lo = hi
    return total


def list_summed_scaled_integral(a: float, b: float, t: complex,
                                n: int) -> complex:
    """The package's quadrature kernel (csmap._scaled_integral) written
    with each panel a closure that appends its value and error to
    per-call lists, added up left to right from 0 at the end: the
    reference the kernel must match bit for bit.  Each panel [lo, hi]
    runs at its scaled point lo*t on unscaled nodes.  The Gauss rules
    and the error class are the package's own."""
    import numpy as np

    from dessins.csmap import NonConvergenceError, _node_pair

    r = abs(t)
    s_edge = 1.0 if r <= 1.0 else 0.5 / r
    values = []
    errors = []

    def panel(p, w, w2, s, scale, weight=1.0):
        x, y = 1.0 - p.real * s, -p.imag * s
        modulus = weight * np.hypot(x, y) ** (b - 1.0)
        angle = (b - 1.0) * np.arctan2(y, x)
        re, im = modulus * np.cos(angle), modulus * np.sin(angle)
        fine = scale * complex(w2 @ re[n:], w2 @ im[n:])
        values.append(fine)
        errors.append(abs(fine - scale * complex(w @ re[:n], w @ im[:n])))

    s, w, w2 = _node_pair(n, a)
    panel(s_edge * t, w, w2, s, s_edge ** a)
    s, w, w2 = _node_pair(n, 1.0)
    lo = s_edge
    while lo < 1.0:
        hi = min(2.0 * lo, 1.0)
        x = 1.0 + (hi - lo) / lo * s
        panel(lo * t, w, w2, x, (hi - lo) / lo * lo ** a, x ** (a - 1.0))
        lo = hi
    # left to right from 0, as sum() adds before Python 3.12: from 3.12
    # on, sum() of floats is compensated, which the kernel is not
    total = err = 0
    for value, error in zip(values, errors):
        total = total + value
        err = err + error
    if err <= 1e-12 * max(abs(total), 1e-300):
        return total
    rel_err = err / max(abs(total), 1e-300)
    raise NonConvergenceError(
        f"estimated relative error {rel_err:.2e} of the quadrature at "
        f"node_count {n} exceeds 1e-12",
        stage="quadrature", evaluations=1, best_residual=rel_err)


# --- dart-by-dart subdivision operators and checks ------------------------
#
# The loops below build each new permutation one dart at a time from the
# dart-numbering conventions in the operators' docstrings, find orbits
# by walking cycles, and read labels and shades one cell at a time.
# Labels, colors and shades are plain strings.

LABEL_CYCLE = ("zero", "one", "infinity")
PAIR_COLOR = {
    frozenset(("zero", "one")): "blue",
    frozenset(("infinity", "zero")): "red",
    frozenset(("one", "infinity")): "green",
}


class LabelError(ValueError):
    """Stands for the package's InconsistentLabelsError."""


def cycles(images) -> list:
    """Cycles of a permutation, each read from its smallest element,
    ordered by that element."""
    seen = set()
    out = []
    for x in range(len(images)):
        if x in seen:
            continue
        cyc = [x]
        seen.add(x)
        y = images[x]
        while y != x:
            cyc.append(y)
            seen.add(y)
            y = images[y]
        out.append(tuple(cyc))
    return out


def cell_ids(images) -> list:
    ids = [None] * len(images)
    for i, cyc in enumerate(cycles(images)):
        for x in cyc:
            ids[x] = i
    return ids


def corner_edges(rho0, rho1) -> list:
    """The corner graph: per edge, the vertex ids at its smallest dart
    and at that dart's rho1 image."""
    vert_id = cell_ids(rho0)
    return [(vert_id[e[0]], vert_id[rho1[e[0]]]) for e in cycles(rho1)]


def corner_bipartition(rho0, rho1):
    """Corner labels of a square tiling by breadth-first search from
    vertex 0 ("zero") over adjacency lists, or None when an edge joins
    two corners of one color."""
    n = len(cycles(rho0))
    adj = [[] for _ in range(n)]
    for u, v in corner_edges(rho0, rho1):
        adj[u].append(v)
        adj[v].append(u)
    color = [None] * n
    color[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if color[v] is None:
                color[v] = 1 - color[u]
                queue.append(v)
            elif color[v] == color[u]:
                return None
    return [("zero", "one")[c] for c in color]


def odd_walk_length(rho0, rho1):
    """The least odd k for which a walk of length k in the corner graph
    goes from vertex 0 back to vertex 0, from the sets of vertices that
    walks of each length reach; None when there is none (a shortest
    such walk lifts to a path of at most 2V - 1 steps in the bipartite
    double cover)."""
    edges = corner_edges(rho0, rho1)
    edges += [(v, u) for u, v in edges]
    reach = {0}
    for k in range(1, 2 * len(cycles(rho0))):
        reach = {v for u, v in edges if u in reach}
        if k % 2 and 0 in reach:
            return k
    return None


def _rho0_from(r1, r2) -> list:
    """rho0 = rho1 o rho2^{-1}, solved pointwise."""
    r0 = [None] * len(r1)
    for x in range(len(r1)):
        r0[r2[x]] = r1[x]
    return r0


def refine_2x2(rho0, rho1) -> tuple:
    n = len(rho0)
    rho2 = face_permutation(rho0, rho1)
    rho2_inv = [None] * n
    for x, y in enumerate(rho2):
        rho2_inv[y] = x
    r1 = [0] * (4 * n)
    r2 = [0] * (4 * n)
    for e in range(n):
        r2[4 * e] = 4 * e + 2
        r2[4 * e + 2] = 4 * e + 3
        r2[4 * e + 3] = 4 * rho2_inv[e] + 1
        r2[4 * e + 1] = 4 * rho2[e]
        r1[4 * e] = 4 * rho1[e] + 1
        r1[4 * e + 1] = 4 * rho1[e]
        r1[4 * e + 2] = 4 * rho2[e] + 3
        r1[4 * e + 3] = 4 * rho2_inv[e] + 2
    return _rho0_from(r1, r2), r1


def tricolor(rho0, rho1, vertex_labels) -> tuple:
    """Edge colors and face shades forced by per-vertex labels; raises
    LabelError or ValueError with the package's messages."""
    vert_id = cell_ids(rho0)
    colors = []
    for edge in cycles(rho1):
        u = vertex_labels[vert_id[edge[0]]]
        v = vertex_labels[vert_id[rho1[edge[0]]]]
        if u == v:
            raise LabelError(f"edge {edge} joins two vertices labeled {u}")
        colors.append(PAIR_COLOR[frozenset((u, v))])
    shades = []
    for i, face in enumerate(cycles(face_permutation(rho0, rho1))):
        if len(face) != 3:
            raise ValueError(f"face {i} has {len(face)} sides, expected 3")
        seq = tuple(vertex_labels[vert_id[x]] for x in face)
        if set(seq) != set(LABEL_CYCLE):
            raise LabelError(f"face {i} does not see all three labels")
        k = seq.index("zero")
        shades.append("white" if seq[k:] + seq[:k] == LABEL_CYCLE
                      else "black")
    return colors, shades


def diagonal_subdivision(rho0, rho1, labels) -> tuple:
    """(rho0, rho1, vertex labels, edge colors, face shades) of the
    diagonal subdivision of a square tiling with corner labels."""
    n = len(rho0)
    vert_id = cell_ids(rho0)
    for edge in cycles(rho1):
        u, v = vert_id[edge[0]], vert_id[rho1[edge[0]]]
        if labels[u] == labels[v]:
            raise LabelError(f"corners {u} and {v} of edge {edge} share "
                             f"label {labels[u]}")
    rho2 = face_permutation(rho0, rho1)
    rho2_inv = [None] * n
    for x, y in enumerate(rho2):
        rho2_inv[y] = x
    r1 = [0] * (3 * n)
    r2 = [0] * (3 * n)
    for e in range(n):
        r2[3 * e] = 3 * e + 1
        r2[3 * e + 1] = 3 * e + 2
        r2[3 * e + 2] = 3 * e
        r1[3 * e] = 3 * rho1[e]
        r1[3 * e + 1] = 3 * rho2[e] + 2
        r1[3 * e + 2] = 3 * rho2_inv[e] + 1
    r0 = _rho0_from(r1, r2)
    out_labels = []
    for orbit in cycles(r0):
        e, r = divmod(orbit[0], 3)
        if r == 0:
            out_labels.append(labels[vert_id[e]])
        elif r == 1:
            out_labels.append(labels[vert_id[rho2[e]]])
        else:
            out_labels.append("infinity")
    return (r0, r1, out_labels) + tricolor(r0, r1, out_labels)


def barycentric_subdivide(rho0, rho1) -> tuple:
    """(rho0, rho1, vertex labels, edge colors, face shades) of the
    barycentric subdivision of a triangulation."""
    n = len(rho0)
    for i, face in enumerate(cycles(face_permutation(rho0, rho1))):
        if len(face) != 3:
            raise ValueError(f"face {i} has {len(face)} sides, expected 3")
    rho2 = face_permutation(rho0, rho1)
    rho2_inv = [None] * n
    for x, y in enumerate(rho2):
        rho2_inv[y] = x
    r1 = [0] * (6 * n)
    r2 = [0] * (6 * n)
    for e in range(n):
        r2[6 * e] = 6 * e + 2
        r2[6 * e + 2] = 6 * e + 5
        r2[6 * e + 5] = 6 * e
        r2[6 * e + 1] = 6 * rho2[e] + 4
        r2[6 * e + 4] = 6 * rho2_inv[e] + 3
        r2[6 * e + 3] = 6 * e + 1
        r1[6 * e] = 6 * rho1[e] + 1
        r1[6 * e + 1] = 6 * rho1[e]
        r1[6 * e + 2] = 6 * e + 3
        r1[6 * e + 3] = 6 * e + 2
        r1[6 * e + 4] = 6 * e + 5
        r1[6 * e + 5] = 6 * e + 4
    r0 = _rho0_from(r1, r2)
    by_remainder = {0: "infinity", 4: "infinity", 1: "one", 2: "one",
                    3: "zero", 5: "zero"}
    out_labels = [by_remainder[orbit[0] % 6] for orbit in cycles(r0)]
    return (r0, r1, out_labels) + tricolor(r0, r1, out_labels)


def dessin_violations(rho0, rho1) -> list:
    """(code, dart, message) of every violated invariant of in-range
    image arrays, in the package's report order."""
    n = len(rho0)
    out = []
    for name, p in (("rho0", rho0), ("rho1", rho1)):
        seen = set()
        for x, y in enumerate(p):
            if y in seen:
                out.append((f"{name}-not-bijection", x,
                            f"{name} is not a bijection"))
                break
            seen.add(y)
    if not any(code == "rho1-not-bijection" for code, _, _ in out):
        for x in range(n):
            if rho1[x] == x:
                out.append(("rho1-fixed-point", x,
                            f"rho1 has fixed point at dart {x}"))
        for x in range(n):
            if rho1[rho1[x]] != x:
                out.append(("rho1-not-involution", x,
                            f"rho1 squared moves dart {x}"))
                break
    reached = reachable_from_zero((rho0, rho1), n)
    if len(reached) < n:
        dart = min(set(range(n)) - reached)
        out.append(("not-transitive", dart,
                    f"dart {dart} is not reachable from dart 0"))
    return out


def tricoloring_violations(rho0, rho1, edge_colors, face_shades,
                           vertex_labels) -> list:
    """(code, dart, message) of every violated tricoloring invariant, in
    the package's report order, checked one cell at a time."""
    rho2 = face_permutation(rho0, rho1)
    vert_id, edge_id, face_id = cell_ids(rho0), cell_ids(rho1), cell_ids(rho2)
    edges, faces = cycles(rho1), cycles(rho2)
    out = []
    for i, face in enumerate(faces):
        if len(face) != 3:
            out.append(("face-not-triangle", face[0],
                        f"face {i} has {len(face)} sides"))
    if out:
        return out
    for i, edge in enumerate(edges):
        u, v = vert_id[edge[0]], vert_id[rho1[edge[0]]]
        if u == v:
            out.append(("edge-loop", edge[0],
                        f"edge {i} has both ends at vertex {u}"))
    for i, vert in enumerate(cycles(rho0)):
        seen = {edge_colors[edge_id[x]] for x in vert}
        if len(seen) != 2:
            out.append(("vertex-color-count", vert[0],
                        f"vertex {i} meets {len(seen)} edge colors, "
                        "expected 2"))
    for i, face in enumerate(faces):
        cols = [edge_colors[edge_id[x]] for x in face]
        if len(set(cols)) != 3:
            out.append(("face-colors-repeat", face[0],
                        f"face {i} has edge colors {cols}, "
                        "expected all three"))
    for i, edge in enumerate(edges):
        f1 = face_shades[face_id[edge[0]]]
        if f1 == face_shades[face_id[rho1[edge[0]]]]:
            out.append(("checkerboard", edge[0],
                        f"edge {i} separates two {f1} faces"))
    pair_of_color = {}
    for i, edge in enumerate(edges):
        u = vertex_labels[vert_id[edge[0]]]
        v = vertex_labels[vert_id[rho1[edge[0]]]]
        if u == v:
            continue
        c = edge_colors[edge_id[edge[0]]]
        pair = pair_of_color.setdefault(c, frozenset((u, v)))
        if pair != frozenset((u, v)):
            out.append(("color-label-mismatch", edge[0],
                        f"edge {i} is {c} but joins {u}-{v} unlike other "
                        f"{c} edges"))
    pairs = list(pair_of_color.values())
    if len(set(pairs)) != len(pairs):
        out.append(("color-label-mismatch", None,
                    "two colors join the same label pair"))
    return out


# The document format, read and written one token at a time with the
# enums as their text.
DOCUMENT_KEYS = ("format_version", "n_darts", "rho0", "rho1",
                 "lengths", "angles",
                 "edge_colors", "face_shades", "vertex_labels")
DOCUMENT_ENUMS = {"edge_colors": ("blue", "green", "red"),
                  "face_shades": ("black", "white"),
                  "vertex_labels": ("zero", "one", "infinity")}


class ParseError(ValueError):
    """Stands for the package's DocumentParseError."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def serialize_document(fields: dict) -> str:
    """Document text of ``fields`` (every key of DOCUMENT_KEYS, None for
    an absent block)."""
    lines = [f"format_version: {fields['format_version']}",
             f"n_darts: {fields['n_darts']}"]
    for key in DOCUMENT_KEYS[2:]:
        values = fields[key]
        if values is None:
            continue
        if key in ("lengths", "angles"):
            text = [repr(float(x)) for x in values]
        else:
            text = [str(x) for x in values]
        lines.append(f"{key}: " + " ".join(text))
    return "\n".join(lines) + "\n"


def _document_int(raw: str, line: int, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(line, f"{what}: not an integer: {raw!r}") from None


def _document_values(raw: str, line: int, key: str, n: int) -> tuple:
    parts = raw.split()
    if key in DOCUMENT_ENUMS:
        allowed = DOCUMENT_ENUMS[key]
        for i, p in enumerate(parts):
            if p not in allowed:
                raise ParseError(line, f"{key}[{i}]: {p!r} is not one of "
                                       f"{', '.join(allowed)}")
        return tuple(parts)
    if len(parts) != n:
        raise ParseError(line, f"{key}: expected {n} entries, "
                               f"got {len(parts)}")
    values = []
    for i, p in enumerate(parts):
        if key in ("lengths", "angles"):
            try:
                values.append(float(p))
            except ValueError:
                raise ParseError(
                    line, f"{key}[{i}]: not a number: {p!r}") from None
            continue
        v = _document_int(p, line, f"{key}[{i}]")
        if not 0 <= v < n:
            raise ParseError(line, f"{key}[{i}] = {v} out of range "
                                   f"0..{n - 1}")
        values.append(v)
    if key in ("lengths", "angles"):
        # each metric line must be an array that MetricData takes
        error = (metric_data_error(values, ()) if key == "lengths"
                 else metric_data_error((), values))
        if error:
            raise ParseError(line, error)
    return tuple(values)


def parse_document(text: str) -> dict:
    """The fields of a document (enums as text), or ParseError."""
    entries = {}
    lines = text.splitlines()
    for lineno, rawline in enumerate(lines, start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition(":")
        key = key.strip()
        if not sep:
            raise ParseError(lineno, f"expected 'key: value', "
                                     f"got {stripped!r}")
        if key not in DOCUMENT_KEYS:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in entries:
            raise ParseError(lineno, f"duplicate key {key!r}")
        entries[key] = (lineno, value.strip())
    fields = {}
    for key in DOCUMENT_KEYS[:4]:
        if key not in entries:
            raise ParseError(len(lines) + 1,
                             f"missing required key {key!r}")
        line, raw = entries[key]
        if key == "format_version":
            if raw != "1":
                raise ParseError(line, f"unsupported format_version "
                                       f"{raw!r}; this reader handles '1'")
            fields[key] = raw
        elif key == "n_darts":
            n = fields[key] = _document_int(raw, line, "n_darts")
            if n <= 0:
                raise ParseError(line, f"n_darts must be positive, got {n}")
        else:
            fields[key] = _document_values(raw, line, key, n)
    for block, name in ((DOCUMENT_KEYS[4:6], "metric"),
                        (DOCUMENT_KEYS[6:], "coloring")):
        present = [k for k in block if k in entries]
        if present and len(present) != len(block):
            missing = next(k for k in block if k not in entries)
            raise ParseError(entries[present[0]][0],
                             f"{name} block requires {missing!r} as well")
        for key in block:
            fields[key] = (_document_values(entries[key][1], entries[key][0],
                                            key, n)
                           if present else None)
    return fields


def metric_data_error(lengths, angles) -> str | None:
    """The message MetricData raises for these values, checked one entry
    at a time, or None when they are accepted."""
    for i, x in enumerate(map(float, lengths)):
        if not (x > 0.0 and math.isfinite(x)):
            return f"lengths[{i}] = {x} is not positive"
    for i, x in enumerate(map(float, angles)):
        if not 0.0 < x < 2.0 * math.pi:
            return f"angles[{i}] = {x} outside (0, 2*pi)"
    return None


@contextmanager
def time_limit(seconds: float):
    """Fail the enclosed block with TimeoutError once ``seconds`` of
    wall time have passed, so a non-terminating call cannot hang the
    suite."""
    def expire(signum, frame):
        raise TimeoutError(f"call ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
