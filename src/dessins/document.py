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
``rho1`` are its tuples.  The metric block likewise belongs to its
:class:`~dessins.metric.MetricData`, returned by ``to_metric()``, so a
document takes exactly the metric blocks that ``MetricData`` takes:
lengths positive and finite, angles in (0, 2*pi), no NaN.  The
coloring block is int8 codes (the codes of :mod:`dessins.tiling`).
:func:`from_dessin` and :func:`from_tricolored` hold the objects they
are given and share their arrays, checking only that a metric fits.

Image and enum lines have one writer, :func:`_joined`: each token and
its space is a row of a uint8 table whose unused places hold NUL, and
the line is the table's other bytes, decoded once; ``serialize`` joins
the lines and their keys into the one full-size string.  Image tables
are filled one digit place at a time, in the narrowest unsigned type
that holds the largest image, enum tables gathered from a fixed-width
bytes array of the texts.  :func:`parse` reads an image line with numpy
when it is ASCII digits and single spaces.  It reads an enum line by the
first byte of each token, and keeps those codes when writing them gives
back the line.  Any other line goes through the per-token loop, which
names the first bad entry.  A metric line goes through
:func:`~dessins.metric.metric_array`, and a value it rejects is a parse
error at that line, with its message.  Each image and coloring array is
checked once, at its line: the document and its dessin are assembled
from them unchecked, and the dessin is validated on first use.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass

import numpy as np

from .cartography import (Dessin, _assemble, _frozen, _require_length,
                          tuple_view)
from .metric import MetricData, metric_array, metric_violations
from .tiling import (_CODE, _MEMBERS, _TEXT, Color, Shade, TricoloredDessin,
                     VertexLabel, _code_array, _from_codes)

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
        self._message = message

    def __reduce__(self):
        return type(self), (self.line, self._message)


@dataclass(frozen=True)
class DessinDocument:
    """The fields of a document.  The images are checked and held by the
    document's :class:`Dessin`, and ``rho0``/``rho1`` are its tuples;
    the metric block is held as the :class:`MetricData` of ``lengths``
    and ``angles``, and the coloring block as read-only code arrays; the
    fields are tuple views of them, None when absent."""

    n_darts: int
    rho0: tuple[int, ...] = property(lambda self: self._dessin.rho0)
    rho1: tuple[int, ...] = property(lambda self: self._dessin.rho1)
    lengths: tuple[float, ...] | None = property(
        lambda self: None if self._metric is None else self._metric.lengths)
    angles: tuple[float, ...] | None = property(
        lambda self: None if self._metric is None else self._metric.angles)
    edge_colors: tuple[Color, ...] | None = tuple_view(
        "_edge_colors", _MEMBERS[Color])
    face_shades: tuple[Shade, ...] | None = tuple_view(
        "_face_shades", _MEMBERS[Shade])
    vertex_labels: tuple[VertexLabel, ...] | None = tuple_view(
        "_vertex_labels", _MEMBERS[VertexLabel])
    format_version: str = FORMAT_VERSION

    def __init__(self, n_darts: int, rho0, rho1, lengths=None, angles=None,
                 edge_colors=None, face_shades=None, vertex_labels=None):
        if (lengths is None) != (angles is None):
            raise ValueError("lengths and angles must be given together")
        colors = (edge_colors, face_shades, vertex_labels)
        given = [x is not None for x in colors]
        if any(given) and not all(given):
            raise ValueError("edge_colors, face_shades and vertex_labels "
                             "must be given together")
        d = Dessin(n_darts, rho0, rho1)
        m = None if lengths is None else MetricData(lengths, angles)
        if m is not None:
            for key, values in zip(_METRIC_KEYS, (m._lengths, m._angles)):
                _require_length(key, values, n_darts)
        self.__dict__.update(vars(_held(d, m, [
            None if values is None else _code_array(cls, values)
            for cls, values in zip(_COLOR_ENUMS, colors)])))

    def __reduce__(self):  # the arrays only: the views rebuild on use
        return _held, (self._dessin, self._metric, (
            self._edge_colors, self._face_shades, self._vertex_labels))

    @property
    def has_metric(self) -> bool:
        return self._metric is not None

    @property
    def has_coloring(self) -> bool:
        return self._edge_colors is not None

    def to_dessin(self) -> Dessin:
        """The document's dessin: the same object on every call, so it
        is validated at most once."""
        return self._dessin

    def to_metric(self) -> MetricData | None:
        """The document's metric, None when it has none: the same object
        on every call."""
        return self._metric

    def to_tricolored(self) -> TricoloredDessin:
        """The document's tricolored dessin.  Its codes were range-checked
        when the document was built; only their counts are checked here."""
        if not self.has_coloring:
            raise ValueError("document has no coloring block")
        return _from_codes(self._dessin, self._edge_colors, self._face_shades,
                           self._vertex_labels)

    def serialize(self) -> str:
        parts = [f"format_version: {self.format_version}\n"
                 f"n_darts: {self.n_darts}\nrho0: ",
                 _int_text(self._dessin._r0), "\nrho1: ",
                 _int_text(self._dessin._r1), "\n"]
        if self.has_metric:
            for key in _METRIC_KEYS:
                values = getattr(self._metric, "_" + key).tolist()
                parts += (f"{key}: ", " ".join(map(repr, values)), "\n")
        if self.has_coloring:
            for key, cls in zip(_COLOR_KEYS, _COLOR_ENUMS):
                parts += (f"{key}: ",
                          _enum_text(cls, getattr(self, "_" + key)), "\n")
        return "".join(parts)


def _joined(table: np.ndarray) -> str:
    """The non-NUL bytes of the uint8 array ``table``, one token and a
    space per row, without the last space, decoded once."""
    data = table.ravel()
    return codecs.ascii_decode(data[data != 0][:-1])[0]


def _int_text(images: np.ndarray) -> str:
    """The entries of ``images`` (non-negative) in decimal, separated by
    single spaces: a table of each entry's digits right-aligned, filled
    one digit place at a time in the narrowest unsigned type that holds
    the largest entry, with NUL in the leading places."""
    top = int(images.max())
    width = len(str(top))
    rows = np.empty((len(images), width + 1), np.uint8)
    rows[:, width] = ord(" ")
    rest = images.astype(np.uint16 if top < 2 ** 16 else
                         np.uint32 if top < 2 ** 32 else np.uint64)
    for k in range(width - 1, -1, -1):
        quotient = rest // 10
        digit = rest - 10 * quotient + ord("0")
        rows[:, k] = digit if k == width - 1 else digit * (rest > 0)
        rest = quotient
    return _joined(rows)


def _enum_tables(texts: tuple[str, ...]):
    """Per code of an enum, its text and a space, NUL-padded to the
    longest; and per byte, the code of the text starting with it, -1 for
    none.  The texts of each enum differ in their first letter (b/g/r,
    b/w, z/o/i); were two to share one, the rewrite check of
    _parse_codes would send lines with one to the loop."""
    tokens = np.array([f"{text} ".encode("ascii") for text in texts])
    first_byte_code = np.full(256, -1, np.int8)
    first_byte_code[[ord(text[0]) for text in texts]] = range(len(texts))
    return tokens, first_byte_code


_ENUM_TABLES = {cls: _enum_tables(_TEXT[cls]) for cls in _COLOR_ENUMS}


def _enum_text(enum_cls, codes: np.ndarray) -> str:
    tokens, _ = _ENUM_TABLES[enum_cls]
    return _joined(tokens[codes].view(np.uint8))


def _from_parts(d: Dessin, m: MetricData | None,
                colors=(None, None, None)) -> DessinDocument:
    """The document holding ``d``, ``m`` and the code arrays ``colors``
    themselves: none is checked or copied again, and what each has
    computed stays with it.  Only the fit of ``m`` to ``d`` is checked."""
    if m is not None and metric_violations(d, m):
        raise ValueError("metric does not fit the dessin")
    return _held(d, m, colors)


def _held(d: Dessin, m: MetricData | None, colors) -> DessinDocument:
    """The document holding ``d``, ``m`` and the code arrays ``colors``,
    made read-only, checking none: built, copied or unpickled, a document
    takes its fields from here, and a metric that does not fit comes
    back, as from :func:`parse`, for ``dessins validate`` to report."""
    doc = object.__new__(DessinDocument)
    doc.__dict__.update(zip(["_" + key for key in _COLOR_KEYS],
                            [None if arr is None else _frozen(arr)
                             for arr in colors]),
                        _dessin=d, n_darts=d.n_darts, _metric=m)
    return doc


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
        return metric_array(key, parts)
    except ValueError as exc:
        rule = str(exc)
    # the loop below names the first token that is not a number; when
    # every token is one, an entry broke the rule of the metric array
    for i, p in enumerate(parts):
        try:
            float(p)
        except ValueError:
            raise DocumentParseError(
                line, f"{key}[{i}]: not a number: {p!r}") from None
    raise DocumentParseError(line, rule)


def _parse_codes(raw: str, line: int, key: str, enum_cls) -> np.ndarray:
    data = raw.encode()
    if data:
        # each token's code from its first byte, taken only when the
        # codes write ``raw`` back exactly; a first byte of no
        # text gives -1, the last text, whose first byte differs
        _, first_byte_code = _ENUM_TABLES[enum_cls]
        chars = np.frombuffer(data, np.uint8)
        starts = np.concatenate(
            ([0], (chars[:-1] == ord(" ")).nonzero()[0] + 1))
        codes = first_byte_code[chars[starts]]
        if _enum_text(enum_cls, codes) == raw:
            return _frozen(codes)
    # any other line: the codes of its tokens, or the first bad token
    code = _CODE[enum_cls]
    codes = []
    for i, p in enumerate(raw.split()):
        if p not in code:
            allowed = ", ".join(_TEXT[enum_cls])
            raise DocumentParseError(
                line, f"{key}[{i}]: {p!r} is not one of {allowed}")
        codes.append(code[p])
    return _frozen(np.array(codes, np.int8))


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

    # each array was checked at its line; the dessin is validated on
    # first use
    return _held(_assemble(object.__new__(Dessin), n, rho0, rho1),
                 None if lengths is None else MetricData(lengths, angles),
                 (edge_colors, face_shades, vertex_labels))

