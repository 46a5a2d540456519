"""Versioned text documents for dessins.

The format is line-oriented `key: value`, one key per line, with `#`
comments and blank lines permitted on input and dropped by the
canonical serializer:

    format_version: 1
    n_darts: 4
    rho0: 1 2 3 0
    rho1: 2 3 0 1
    lengths: 1.0 1.0 1.0 1.0
    angles: 1.5707963267948966 ...
    edge_colors: blue blue red green
    face_shades: white black
    vertex_labels: zero one infinity

`lengths` and `angles` form the metric block and must appear together;
`edge_colors`, `face_shades` and `vertex_labels` form the coloring
block, indexed by the dense orbit ids of the dessin (orbits ordered by
their smallest dart).  Unknown and duplicate keys are rejected.  All
parse errors carry the offending line number.

Each datum of a :class:`DessinDocument` has one owner.  The images
belong to the document's :class:`~dessins.cartography.Dessin`, built
with the document and returned by ``to_dessin()``; ``rho0`` and
``rho1`` are its tuples.  The metric block is read-only float arrays
and the coloring block int8 codes (the codes of :mod:`dessins.tiling`).
:func:`from_dessin` and :func:`from_tricolored` share the arrays of the
objects they are given, :func:`parse` reads image lines of ASCII digits
and single spaces with numpy and enum lines straight to codes, and
:meth:`DessinDocument.serialize` writes from the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartography import Dessin, _frozen, tuple_view
from .metric import MetricData, _floats, metric_violations
from .tiling import (_CODE, _MEMBERS, _TEXT, Color, Shade, TricoloredDessin,
                     VertexLabel, _code_array)

FORMAT_VERSION = "1"

_KEY_ORDER = ("format_version", "n_darts", "rho0", "rho1",
              "lengths", "angles",
              "edge_colors", "face_shades", "vertex_labels")
_METRIC_KEYS = ("lengths", "angles")
_COLOR_KEYS = ("edge_colors", "face_shades", "vertex_labels")
_COLOR_ENUMS = (Color, Shade, VertexLabel)


class DocumentParseError(ValueError):
    """Malformed document text; `line` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class DessinDocument:
    """The fields of a document.  The images are checked and held by the
    document's :class:`Dessin`, and ``rho0``/``rho1`` are its tuples;
    metric and coloring are given as arrays or sequences and stored as
    read-only arrays, with tuple views as fields, None when absent."""

    n_darts: int
    rho0: tuple[int, ...] = property(lambda self: self._dessin.rho0)
    rho1: tuple[int, ...] = property(lambda self: self._dessin.rho1)
    lengths: tuple[float, ...] | None = tuple_view("_lengths")
    angles: tuple[float, ...] | None = tuple_view("_angles")
    edge_colors: tuple[Color, ...] | None = tuple_view(
        "_edge_colors", _MEMBERS[Color])
    face_shades: tuple[Shade, ...] | None = tuple_view(
        "_face_shades", _MEMBERS[Shade])
    vertex_labels: tuple[VertexLabel, ...] | None = tuple_view(
        "_vertex_labels", _MEMBERS[VertexLabel])
    format_version: str = FORMAT_VERSION

    def __init__(self, n_darts: int, rho0, rho1, lengths=None, angles=None,
                 edge_colors=None, face_shades=None, vertex_labels=None,
                 format_version: str = FORMAT_VERSION):
        if (lengths is None) != (angles is None):
            raise ValueError("lengths and angles must be given together")
        colors = (edge_colors, face_shades, vertex_labels)
        given = [x is not None for x in colors]
        if any(given) and not all(given):
            raise ValueError("edge_colors, face_shades and vertex_labels "
                             "must be given together")
        stored = {"_dessin": Dessin(n_darts, rho0, rho1),
                  "n_darts": n_darts, "format_version": format_version}
        for key, values in zip(_METRIC_KEYS, (lengths, angles)):
            if values is not None:
                values = _floats(key, values)
                if len(values) != n_darts:
                    raise ValueError(f"{key} has {len(values)} entries, "
                                     f"expected {n_darts}")
            stored["_" + key] = values
        for key, cls, values in zip(_COLOR_KEYS, _COLOR_ENUMS, colors):
            stored["_" + key] = (None if values is None
                                 else _code_array(cls, values))
        for name, value in stored.items():
            object.__setattr__(self, name, value)

    @property
    def has_metric(self) -> bool:
        return self._lengths is not None

    @property
    def has_coloring(self) -> bool:
        return self._edge_colors is not None

    def to_dessin(self) -> Dessin:
        """The document's dessin: the same object on every call, so it
        is validated at most once."""
        return self._dessin

    def to_metric(self) -> MetricData | None:
        if not self.has_metric:
            return None
        return MetricData(self._lengths, self._angles)

    def to_tricolored(self) -> TricoloredDessin:
        if not self.has_coloring:
            raise ValueError("document has no coloring block")
        return TricoloredDessin(self._dessin, self._edge_colors,
                                self._face_shades, self._vertex_labels)

    def serialize(self) -> str:
        lines = [f"format_version: {self.format_version}",
                 f"n_darts: {self.n_darts}",
                 "rho0: " + _int_text(self._dessin._r0),
                 "rho1: " + _int_text(self._dessin._r1)]
        if self.has_metric:
            for key in _METRIC_KEYS:
                values = getattr(self, "_" + key).tolist()
                lines.append(f"{key}: " + " ".join(map(repr, values)))
        if self.has_coloring:
            for key, cls in zip(_COLOR_KEYS, _COLOR_ENUMS):
                codes = getattr(self, "_" + key).tolist()
                lines.append(f"{key}: "
                             + " ".join(map(_TEXT[cls].__getitem__, codes)))
        return "\n".join(lines) + "\n"


def _int_text(images: np.ndarray) -> str:
    """The entries of ``images`` (non-negative) in decimal, separated by
    single spaces, written in one byte buffer: one row per digit place
    plus a row of spaces, read column by column without the leading
    zeros."""
    width = len(str(int(images.max())))
    rows = np.empty((width + 1, len(images)), np.uint8)
    keep = np.ones((width + 1, len(images)), bool)
    rows[width] = ord(" ")
    rest = images.astype(np.uint64)
    for k in range(width - 1, -1, -1):
        rows[k] = rest % 10
        rest = rest // 10
        if k:
            keep[k - 1] = rest > 0
    rows[:width] += ord("0")
    return rows.T[keep.T][:-1].tobytes().decode("ascii")


def _from_parts(d: Dessin, m: MetricData | None,
                colors=(None, None, None)) -> DessinDocument:
    if m is not None and metric_violations(d, m):
        raise ValueError("metric does not fit the dessin")
    return DessinDocument(
        d.n_darts, d._r0, d._r1,
        None if m is None else m._lengths, None if m is None else m._angles,
        *colors)


def from_dessin(d: Dessin, m: MetricData | None = None) -> DessinDocument:
    return _from_parts(d, m)


def from_tricolored(t: TricoloredDessin,
                    m: MetricData | None = None) -> DessinDocument:
    return _from_parts(t.base, m,
                       (t._edge_color, t._face_shade, t._vertex_label))


def _parse_int(raw: str, line: int, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise DocumentParseError(line, f"{what}: not an integer: {raw!r}") \
            from None


def _ascii_ints(raw: str) -> np.ndarray | None:
    """The integers of ``raw`` when it is ASCII digits separated by
    single spaces, else None.  int() also takes signs, underscores,
    other whitespace and non-ASCII digits; such lines go to the loop."""
    if not raw or not raw.isascii() or "  " in raw:
        return None
    data = np.frombuffer(raw.encode("ascii"), np.uint8)
    if not (((data - ord("0")) < 10) | (data == ord(" "))).all():
        return None
    # a token too long for intp saturates, so it fails the range check
    return np.fromstring(raw, dtype=np.intp, sep=" ")


def _parse_images(raw: str, line: int, key: str, n: int) -> np.ndarray:
    images = _ascii_ints(raw)
    if images is not None and len(images) == n and images.max() < n:
        return _frozen(images)
    parts = raw.split()
    if len(parts) != n:
        raise DocumentParseError(
            line, f"{key}: expected {n} entries, got {len(parts)}")
    # the loop below names the first bad entry
    images = []
    for i, p in enumerate(parts):
        v = _parse_int(p, line, f"{key}[{i}]")
        if not 0 <= v < n:
            raise DocumentParseError(
                line, f"{key}[{i}] = {v} out of range 0..{n - 1}")
        images.append(v)
    return _frozen(np.array(images, dtype=np.intp))


def _parse_floats(raw: str, line: int, key: str, n: int) -> np.ndarray:
    parts = raw.split()
    if len(parts) != n:
        raise DocumentParseError(
            line, f"{key}: expected {n} entries, got {len(parts)}")
    try:
        return _floats(key, parts)
    except ValueError:
        pass
    # the loop below names the first bad entry
    for i, p in enumerate(parts):
        try:
            float(p)
        except ValueError:
            raise DocumentParseError(
                line, f"{key}[{i}]: not a number: {p!r}") from None


def _parse_codes(raw: str, line: int, key: str, enum_cls) -> np.ndarray:
    parts = raw.split()
    code = _CODE[enum_cls]
    try:
        return _frozen(np.fromiter(map(code.__getitem__, parts), np.int8,
                                   len(parts)))
    except KeyError:
        pass
    # the loop below names the first bad entry
    for i, p in enumerate(parts):
        if p not in code:
            allowed = ", ".join(_TEXT[enum_cls])
            raise DocumentParseError(
                line, f"{key}[{i}]: {p!r} is not one of {allowed}")


def parse(text: str) -> DessinDocument:
    entries: dict[str, tuple[int, str]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition(":")
        key = key.strip()
        if not sep:
            raise DocumentParseError(lineno, f"expected 'key: value', "
                                             f"got {stripped!r}")
        if key not in _KEY_ORDER:
            raise DocumentParseError(lineno, f"unknown key {key!r}")
        if key in entries:
            raise DocumentParseError(lineno, f"duplicate key {key!r}")
        entries[key] = (lineno, value.strip())

    def require(key: str) -> tuple[int, str]:
        if key not in entries:
            # missing keys have no line; report at end of input
            raise DocumentParseError(
                len(text.splitlines()) + 1, f"missing required key {key!r}")
        return entries[key]

    line, version = require("format_version")
    if version != FORMAT_VERSION:
        raise DocumentParseError(
            line, f"unsupported format_version {version!r}; "
                  f"this reader handles {FORMAT_VERSION!r}")
    line, raw_n = require("n_darts")
    n = _parse_int(raw_n, line, "n_darts")
    if n <= 0:
        raise DocumentParseError(line, f"n_darts must be positive, got {n}")
    line, raw = require("rho0")
    rho0 = _parse_images(raw, line, "rho0", n)
    line, raw = require("rho1")
    rho1 = _parse_images(raw, line, "rho1", n)

    def has_block(name: str, keys) -> bool:
        """Whether the block of ``keys`` is there; all or none must be."""
        present = [k for k in keys if k in entries]
        if present and len(present) != len(keys):
            missing = next(k for k in keys if k not in entries)
            raise DocumentParseError(
                entries[present[0]][0],
                f"{name} block requires {missing!r} as well")
        return bool(present)

    lengths = angles = None
    if has_block("metric", _METRIC_KEYS):
        line, raw = entries["lengths"]
        lengths = _parse_floats(raw, line, "lengths", n)
        line, raw = entries["angles"]
        angles = _parse_floats(raw, line, "angles", n)

    edge_colors = face_shades = vertex_labels = None
    if has_block("coloring", _COLOR_KEYS):
        edge_colors, face_shades, vertex_labels = (
            _parse_codes(entries[key][1], entries[key][0], key, cls)
            for key, cls in zip(_COLOR_KEYS, _COLOR_ENUMS))

    try:
        return DessinDocument(
            n_darts=n, rho0=rho0, rho1=rho1,
            lengths=lengths, angles=angles,
            edge_colors=edge_colors, face_shades=face_shades,
            vertex_labels=vertex_labels, format_version=version)
    except ValueError as exc:
        raise DocumentParseError(1, str(exc)) from None


def canonicalize(text: str) -> str:
    """Parse and re-serialize: the canonical form of a document."""
    return parse(text).serialize()
