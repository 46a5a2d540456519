"""Command-line interface.

Exit codes: 0 success, 1 content failure (invalid document or failed
validation), 2 usage or I/O error.  All failures print a single
`code: message` line to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter

from . import document as doc
from .belyi import (InconsistentPassportError, barycentric_subdivide,
                    passport, riemann_hurwitz_genus)
from .cartography import CellKind, InvalidDessinError
from .csmap import (NAMED_SPECS, NonConvergenceError, OutsideImageError,
                    cs_map, named_spec, triangle_to_square)
from .metric import FaceDegreeMismatch, metric_violations
from .tiling import (InconsistentLabelsError, NonBipartiteError,
                     NotSquareTilingError, corner_bipartition,
                     diagonal_subdivision, refine_2x2,
                     validate_tricoloring)

USAGE_ERROR = 2
CONTENT_ERROR = 1


class _CliFailure(Exception):
    def __init__(self, code: str, message: str, exit_code: int):
        super().__init__(f"{code}: {message}")
        self.exit_code = exit_code


def _fail(code: str, message, exit_code: int = CONTENT_ERROR):
    raise _CliFailure(code, str(message), exit_code)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _fail("io-error", exc, USAGE_ERROR)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail("io-error", exc, USAGE_ERROR)


def _load(path: str) -> doc.DessinDocument:
    return doc.parse(_read_text(path))


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_complex(t: complex) -> str:
    if t.imag == 0.0:
        return _fmt(t.real)
    return f"{_fmt(t.real)}{'+' if t.imag >= 0 else '-'}{_fmt(abs(t.imag))}j"


def cmd_validate(args) -> int:
    d_doc = _load(args.file)
    dessin = d_doc.to_dessin()
    problems = [str(v) for v in dessin.violations()]
    valid = not problems
    if valid and d_doc.has_metric:
        problems += [str(v)
                     for v in metric_violations(dessin, d_doc.to_metric())]
    if valid and d_doc.has_coloring:
        try:
            problems += [str(v)
                         for v in validate_tricoloring(d_doc.to_tricolored())]
        except ValueError as exc:
            problems.append(f"coloring-shape: {exc}")
    for line in problems:
        print(line)
    if problems:
        return CONTENT_ERROR
    print("ok")
    return 0


def cmd_info(args) -> int:
    dessin = _load(args.file).to_dessin()
    nv, ne, nf = (len(dessin.cell_arrays(k).size) for k in CellKind)
    print(f"V={nv} E={ne} F={nf} genus={dessin.genus()}")
    hist = Counter(dessin.cell_arrays(CellKind.FACE).size.tolist())
    print("face-degrees: "
          + " ".join(f"{deg}:{cnt}" for deg, cnt in sorted(hist.items())))
    return 0


def cmd_refine(args) -> int:
    dessin = _load(args.file).to_dessin()
    refined = refine_2x2(dessin)
    _write_text(args.out, doc.from_dessin(refined).serialize())
    return 0


def cmd_subdivide(args) -> int:
    dessin = _load(args.file).to_dessin()
    try:
        labels = corner_bipartition(dessin)
    except NonBipartiteError:
        print("notice: corner graph not bipartite; auto-refined 2x2",
              file=sys.stderr)
        dessin = refine_2x2(dessin)
        labels = corner_bipartition(dessin)
    tri = diagonal_subdivision(dessin, labels)
    _write_text(args.out, doc.from_tricolored(tri).serialize())
    return 0


def cmd_barycentric(args) -> int:
    d_doc = _load(args.file)
    source = (d_doc.to_tricolored() if d_doc.has_coloring
              else d_doc.to_dessin())
    tri = barycentric_subdivide(source)
    _write_text(args.out, doc.from_tricolored(tri).serialize())
    return 0


def cmd_passport(args) -> int:
    d_doc = _load(args.file)
    if not d_doc.has_coloring:
        _fail("not-tricolored", "document has no coloring block")
    p = passport(d_doc.to_tricolored())
    print(f"degree: {p.degree}")
    print("over_zero: " + " ".join(map(str, p.over_zero)))
    print("over_one: " + " ".join(map(str, p.over_one)))
    print("over_infinity: " + " ".join(map(str, p.over_infinity)))
    print(f"genus: {riemann_hurwitz_genus(p)}")
    return 0


def cmd_map_eval(args) -> int:
    spec = named_spec(args.spec)
    n = args.grid
    if n < 1:
        _fail("bad-grid", "grid size must be at least 1", USAGE_ERROR)
    rows = []
    for j in range(n):
        y = 0.0 if n == 1 else -j / (n - 1)
        for i in range(n):
            x = 0.0 if n == 1 else i / (n - 1)
            t = complex(x, y)
            z = cs_map(spec, t)
            rows.append(f"{_fmt_complex(t)},{_fmt(z.real)},{_fmt(z.imag)}")
    _write_text(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_transform(args) -> int:
    lines = _read_text(args.file).splitlines()
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(",")
        if len(parts) != 2:
            _fail("bad-point",
                  f"line {lineno}: expected 'x,y', got {stripped!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            _fail("bad-point", f"line {lineno}: not numeric: {stripped!r}")
        if not (math.isfinite(x) and math.isfinite(y)):
            _fail("bad-point", f"line {lineno}: not finite: {stripped!r}")
        big = triangle_to_square(complex(x, y))
        rows.append(f"{_fmt(x)},{_fmt(y)},{_fmt(big.real)},{_fmt(big.imag)}")
    _write_text(args.out, "\n".join(rows) + "\n" if rows else "")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dessins",
        description="Square-tiled surfaces, tricolored subdivisions, "
                    "and their planar coordinate maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, with_out=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input document ('-' for stdin)")
        if with_out:
            p.add_argument("-o", "--out", default=None,
                           help="output path (default stdout)")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate,
        "check a document; print violations, exit 1 if any")
    add("info", cmd_info, "print V/E/F, genus, and face-degree histogram")
    add("refine", cmd_refine, "replace each square by a 2x2 block",
        with_out=True)
    add("subdivide", cmd_subdivide,
        "diagonal subdivision into a tricolored triangulation "
        "(auto-refines non-bipartite tilings)", with_out=True)
    add("barycentric", cmd_barycentric,
        "barycentric subdivision of a triangulated document",
        with_out=True)
    add("passport", cmd_passport,
        "print branching data and the Riemann-Hurwitz genus")

    p = sub.add_parser("map-eval",
                       help="sample a named coordinate map on a grid")
    p.add_argument("--spec", required=True,
                   choices=list(NAMED_SPECS))
    p.add_argument("--grid", type=int, required=True, metavar="N",
                   help="N x N grid on [0,1] x [0,-1]")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_map_eval)

    p = sub.add_parser("transform",
                       help="apply the triangle-to-square change of "
                            "coordinate to CSV points")
    p.add_argument("file", help="CSV of x,y rows ('-' for stdin)")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_transform)

    return parser


_FAILURE_CODES = [
    (doc.DocumentParseError, "parse-error", CONTENT_ERROR),
    (InvalidDessinError, "invalid-dessin", CONTENT_ERROR),
    (NotSquareTilingError, "not-square-tiling", CONTENT_ERROR),
    (NonBipartiteError, "non-bipartite", CONTENT_ERROR),
    (InconsistentLabelsError, "inconsistent-labels", CONTENT_ERROR),
    (FaceDegreeMismatch, "not-triangulated", CONTENT_ERROR),
    (InconsistentPassportError, "inconsistent-passport", CONTENT_ERROR),
    (OutsideImageError, "outside-image", CONTENT_ERROR),
    (NonConvergenceError, "no-convergence", CONTENT_ERROR),
    (ValueError, "error", CONTENT_ERROR),
]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as exc:
        print(exc, file=sys.stderr)
        return exc.exit_code
    except tuple(t for t, _, _ in _FAILURE_CODES) as exc:
        code, exit_code = next((c, x) for t, c, x in _FAILURE_CODES
                               if isinstance(exc, t))
        print(f"{code}: {exc}", file=sys.stderr)
        return exit_code


if __name__ == "__main__":
    sys.exit(main())
