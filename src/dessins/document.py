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
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartography import CellKind, Dessin
from .metric import MetricData, metric_violations
from .tiling import (_CODE, _MEMBERS, Color, Shade, TricoloredDessin,
                     VertexLabel)

FORMAT_VERSION = "1"

_KEY_ORDER = ("format_version", "n_darts", "rho0", "rho1",
              "lengths", "angles",
              "edge_colors", "face_shades", "vertex_labels")
_METRIC_KEYS = ("lengths", "angles")
_COLOR_KEYS = ("edge_colors", "face_shades", "vertex_labels")


class DocumentParseError(ValueError):
    """Malformed document text; `line` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class DessinDocument:
    n_darts: int
    rho0: tuple[int, ...]
    rho1: tuple[int, ...]
    lengths: tuple[float, ...] | None = None
    angles: tuple[float, ...] | None = None
    edge_colors: tuple[Color, ...] | None = None
    face_shades: tuple[Shade, ...] | None = None
    vertex_labels: tuple[VertexLabel, ...] | None = None
    format_version: str = FORMAT_VERSION

    def __post_init__(self):
        if (self.lengths is None) != (self.angles is None):
            raise ValueError("lengths and angles must be given together")
        colors_given = [x is not None for x in
                        (self.edge_colors, self.face_shades,
                         self.vertex_labels)]
        if any(colors_given) and not all(colors_given):
            raise ValueError("edge_colors, face_shades and vertex_labels "
                             "must be given together")

    @property
    def has_metric(self) -> bool:
        return self.lengths is not None

    @property
    def has_coloring(self) -> bool:
        return self.edge_colors is not None

    def to_dessin(self) -> Dessin:
        return Dessin(self.n_darts, self.rho0, self.rho1)

    def to_metric(self) -> MetricData | None:
        if not self.has_metric:
            return None
        return MetricData(self.lengths, self.angles)

    def to_tricolored(self) -> TricoloredDessin:
        if not self.has_coloring:
            raise ValueError("document has no coloring block")
        return TricoloredDessin(self.to_dessin(), self.edge_colors,
                                self.face_shades, self.vertex_labels)

    def serialize(self) -> str:
        lines = [f"format_version: {self.format_version}",
                 f"n_darts: {self.n_darts}",
                 "rho0: " + " ".join(map(str, self.rho0)),
                 "rho1: " + " ".join(map(str, self.rho1))]
        if self.has_metric:
            lines.append("lengths: " + " ".join(repr(float(x))
                                                for x in self.lengths))
            lines.append("angles: " + " ".join(repr(float(x))
                                               for x in self.angles))
        if self.has_coloring:
            # a dict lookup per entry: Enum.value is a property, about
            # four times slower
            text = _ENUM_TEXT.__getitem__
            lines.append("edge_colors: "
                         + " ".join(map(text, self.edge_colors)))
            lines.append("face_shades: "
                         + " ".join(map(text, self.face_shades)))
            lines.append("vertex_labels: "
                         + " ".join(map(text, self.vertex_labels)))
        return "\n".join(lines) + "\n"


def from_dessin(d: Dessin, m: MetricData | None = None) -> DessinDocument:
    if m is not None and metric_violations(d, m):
        raise ValueError("metric does not fit the dessin")
    return DessinDocument(
        n_darts=d.n_darts, rho0=d.rho0, rho1=d.rho1,
        lengths=None if m is None else m.lengths,
        angles=None if m is None else m.angles)


def from_tricolored(t: TricoloredDessin,
                    m: MetricData | None = None) -> DessinDocument:
    base = from_dessin(t.base, m)
    return DessinDocument(
        n_darts=base.n_darts, rho0=base.rho0, rho1=base.rho1,
        lengths=base.lengths, angles=base.angles,
        edge_colors=t.edge_color, face_shades=t.face_shade,
        vertex_labels=t.vertex_label)


def _parse_int(raw: str, line: int, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise DocumentParseError(line, f"{what}: not an integer: {raw!r}") \
            from None


def _parse_images(raw: str, line: int, key: str, n: int) -> tuple[int, ...]:
    parts = raw.split()
    if len(parts) != n:
        raise DocumentParseError(
            line, f"{key}: expected {n} entries, got {len(parts)}")
    try:
        images = tuple(map(int, parts))
        if 0 <= min(images) and max(images) < n:
            return images
    except ValueError:
        pass
    # the loop below names the first bad entry
    images = []
    for i, p in enumerate(parts):
        v = _parse_int(p, line, f"{key}[{i}]")
        if not 0 <= v < n:
            raise DocumentParseError(
                line, f"{key}[{i}] = {v} out of range 0..{n - 1}")
        images.append(v)
    return tuple(images)


def _parse_floats(raw: str, line: int, key: str, n: int) -> tuple[float, ...]:
    parts = raw.split()
    if len(parts) != n:
        raise DocumentParseError(
            line, f"{key}: expected {n} entries, got {len(parts)}")
    values = []
    for i, p in enumerate(parts):
        try:
            values.append(float(p))
        except ValueError:
            raise DocumentParseError(
                line, f"{key}[{i}]: not a number: {p!r}") from None
    return tuple(values)


_ENUM_TEXT = {m: m.value for members in _MEMBERS.values()
              for m in members}


def _parse_enums(raw: str, line: int, key: str, enum_cls):
    parts = raw.split()
    try:
        return tuple(map(_MEMBERS[enum_cls].__getitem__,
                         map(_CODE[enum_cls].__getitem__, parts)))
    except KeyError:
        pass
    # the loop below names the first bad entry
    values = []
    for i, p in enumerate(parts):
        try:
            values.append(enum_cls(p))
        except ValueError:
            allowed = ", ".join(e.value for e in enum_cls)
            raise DocumentParseError(
                line, f"{key}[{i}]: {p!r} is not one of {allowed}") from None
    return tuple(values)


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

    present_metric = [k for k in _METRIC_KEYS if k in entries]
    if present_metric and len(present_metric) != len(_METRIC_KEYS):
        missing = next(k for k in _METRIC_KEYS if k not in entries)
        raise DocumentParseError(
            entries[present_metric[0]][0],
            f"metric block requires {missing!r} as well")
    lengths = angles = None
    if present_metric:
        line, raw = entries["lengths"]
        lengths = _parse_floats(raw, line, "lengths", n)
        line, raw = entries["angles"]
        angles = _parse_floats(raw, line, "angles", n)

    present_colors = [k for k in _COLOR_KEYS if k in entries]
    if present_colors and len(present_colors) != len(_COLOR_KEYS):
        missing = next(k for k in _COLOR_KEYS if k not in entries)
        raise DocumentParseError(
            entries[present_colors[0]][0],
            f"coloring block requires {missing!r} as well")
    edge_colors = face_shades = vertex_labels = None
    if present_colors:
        line, raw = entries["edge_colors"]
        edge_colors = _parse_enums(raw, line, "edge_colors", Color)
        line, raw = entries["face_shades"]
        face_shades = _parse_enums(raw, line, "face_shades", Shade)
        line, raw = entries["vertex_labels"]
        vertex_labels = _parse_enums(raw, line, "vertex_labels", VertexLabel)

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
