"""subdivide_pipeline: one square-tiled surface per op through the chain
the CLI runs for `dessins subdivide | dessins passport` and
`dessins barycentric`, with no coordinate-map work.

The inputs are torus grids with even sides (corner graph bipartite),
grids with an odd side and seeded random origamis (both take the
auto-refine path), in a seeded order.  The sizes are fixed, so the
percentiles do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from dessins import belyi, catalog, cli, document, tiling
from dessins.cartography import InvalidDessinError

EVEN_GRIDS = ((4, 4), (4, 8), (8, 8), (8, 16), (16, 16), (16, 32))
ODD_GRIDS = ((3, 5), (5, 7), (7, 9), (11, 11))
ORIGAMI_SQUARES = (16, 32, 64, 128)
# surfaces up to this many squares also go through cli.main in the
# traced run
CLI_MAX_SQUARES = 64


@dataclass(frozen=True)
class Surface:
    label: str
    squares: int
    n_darts: int
    genus: int
    bipartite: bool | None  # None: not known in advance (origamis)
    text: str


@dataclass
class Result:
    genus: int
    refined: bool
    passport: belyi.Passport
    genus_diag: int
    text_diag: str
    reparsed_diag: document.DessinDocument
    passport_bary: belyi.Passport
    genus_bary: int
    text_bary: str


class SubdividePipeline:
    name = "subdivide_pipeline"
    unit = "squares"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.setup_times = {"catalog.build_s": 0.0}
        self.surfaces = [
            self._surface(f"grid {w}x{h}", w * h, 1, w % 2 == h % 2 == 0,
                          catalog.square_torus_grid, w, h)
            for w, h in EVEN_GRIDS + ODD_GRIDS]
        self.surfaces += [
            self._surface(f"origami {n}", n, None, None,
                          catalog.random_origami, n, rng)
            for n in ORIGAMI_SQUARES]
        rng.shuffle(self.surfaces)

    def _surface(self, label, squares, genus, bipartite, build, *args):
        start = perf_counter()
        d = build(*args)
        self.setup_times["catalog.build_s"] += perf_counter() - start
        return Surface(label, squares, d.n_darts,
                       d.genus() if genus is None else genus, bipartite,
                       document.from_dessin(d).serialize())

    def items(self):
        return self.surfaces

    def squares(self, s: Surface) -> int:
        return s.squares

    def kind(self, s: Surface) -> str:
        return "surface"

    def run(self, s: Surface, tr) -> Result:
        n = s.n_darts
        d_doc = tr.call("document.parse", n, document.parse, s.text)
        d = tr.call("document.to_dessin", n, d_doc.to_dessin)
        bad = tr.call("cartography.violations", n, d.violations)
        if bad:
            raise InvalidDessinError(bad)
        genus = tr.call("cartography.genus", n, d.genus)
        refined = False
        try:
            labels = tr.call("tiling.corner_bipartition", n,
                             tiling.corner_bipartition, d)
        except tiling.NonBipartiteError:
            refined = True
            d = tr.call("tiling.refine_2x2", n, tiling.refine_2x2, d)
            labels = tr.call("tiling.corner_bipartition", d.n_darts,
                             tiling.corner_bipartition, d)
        tri = tr.call("tiling.diagonal_subdivision", d.n_darts,
                      tiling.diagonal_subdivision, d, labels)
        m = tri.base.n_darts
        text_diag = tr.call(
            "document.serialize", m,
            tr.call("document.from_tricolored", m,
                    document.from_tricolored, tri).serialize)
        reparsed = tr.call("document.parse", m, document.parse, text_diag)
        tri = tr.call("document.to_tricolored", m, reparsed.to_tricolored)
        p = tr.call("belyi.passport", m, belyi.passport, tri)
        genus_diag = tr.call("belyi.riemann_hurwitz_genus", p.degree,
                             belyi.riemann_hurwitz_genus, p)
        bary = tr.call("belyi.barycentric_subdivide", m,
                       belyi.barycentric_subdivide, tri)
        k = bary.base.n_darts
        p_bary = tr.call("belyi.passport", k, belyi.passport, bary)
        genus_bary = tr.call("belyi.riemann_hurwitz_genus", p_bary.degree,
                             belyi.riemann_hurwitz_genus, p_bary)
        text_bary = tr.call(
            "document.serialize", k,
            tr.call("document.from_tricolored", k,
                    document.from_tricolored, bary).serialize)
        return Result(genus, refined, p, genus_diag, text_diag, reparsed,
                      p_bary, genus_bary, text_bary)

    def check(self, s: Surface, r: Result) -> str | None:
        if not r.genus == r.genus_diag == r.genus_bary == s.genus:
            return (f"{s.label}: genus {s.genus} became {r.genus}, "
                    f"{r.genus_diag}, {r.genus_bary}")
        if s.bipartite is not None and r.refined == s.bipartite:
            return f"{s.label}: refined={r.refined}"
        if set(r.passport.over_infinity) != {2}:
            return f"{s.label}: over_infinity {r.passport.over_infinity}"
        if r.passport_bary.degree != 6 * r.passport.degree:
            return (f"{s.label}: barycentric degree "
                    f"{r.passport_bary.degree} != 6 * {r.passport.degree}")
        if r.reparsed_diag.serialize() != r.text_diag:
            return f"{s.label}: subdivided document does not round-trip"
        if document.parse(r.text_bary).serialize() != r.text_bary:
            return f"{s.label}: barycentric document does not round-trip"
        return None

    def summary(self, r: Result):
        return (r.genus, r.refined, r.passport, r.genus_diag,
                hash(r.text_diag), r.passport_bary, r.genus_bary,
                hash(r.text_bary))

    def check_pass(self, items, results) -> dict[int, str]:
        return {}

    def tolerated(self, s: Surface, exc: Exception) -> bool:
        return False

    def traced_extras(self, tr, records, scratch: Path) -> dict[str, float]:
        """tiling.refine_share over the traced ops, then the smaller
        surfaces through cli.main on files, as a user would run them."""
        ops = tr.count("op")
        out = {"tiling.refine_share":
               tr.count("tiling.refine_2x2") / ops if ops else 0.0}
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            busy, calls = self._run_cli(Path(tmp))
        out["cli.main_s"] = busy
        out["cli.main_calls"] = calls
        return out

    def _run_cli(self, tmp: Path) -> tuple[float, int]:
        busy = 0.0
        calls = 0
        for i, s in enumerate(self.surfaces):
            if s.squares > CLI_MAX_SQUARES:
                continue
            src = tmp / f"{i}.dessin"
            dst = tmp / f"{i}.tri.dessin"
            src.write_text(s.text, encoding="utf-8")
            stdout = io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes = (cli.main(["subdivide", str(src), "-o", str(dst)]),
                         cli.main(["passport", str(dst)]))
            busy += perf_counter() - start
            calls += 2
            if codes != (0, 0) or f"genus: {s.genus}\n" not in stdout.getvalue():
                raise RuntimeError(
                    f"cli on {s.label}: exit codes {codes}, "
                    f"output {stdout.getvalue()!r}")
        return busy, calls
