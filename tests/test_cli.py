"""Command-line behavior: exit codes, pinned output shapes, and the
round trips between subcommands."""

import hashlib
import io
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from dessins.cartography import Dessin
from dessins.catalog import tetrahedron
from dessins.cli import main
from dessins.document import from_tricolored, parse
from dessins.tiling import TricoloredDessin, validate_tricoloring

FIXTURES = Path(__file__).parent / "fixtures"

TORUS = str(FIXTURES / "one_square_torus.dessin")
GRID = str(FIXTURES / "grid_2x2.dessin")
TETRA = str(FIXTURES / "tetrahedron.dessin")
OCTA = str(FIXTURES / "octahedron_tricolored.dessin")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def validated_sizes(monkeypatch):
    """The dart counts of the dessins whose invariants get checked."""
    sizes = []
    check = Dessin.__dict__["_violations"].func

    def counted(self):
        sizes.append(self.n_darts)
        return check(self)

    prop = cached_property(counted)
    prop.__set_name__(Dessin, "_violations")
    monkeypatch.setattr(Dessin, "_violations", prop)
    return sizes


@pytest.mark.parametrize("argv, n_darts", [
    (["validate", OCTA], 24),
    (["validate", TETRA], 12),
    (["info", GRID], 16),
    (["refine", TORUS], 4),
    (["subdivide", TORUS], 4),
    (["barycentric", OCTA], 24),
    (["barycentric", TETRA], 12),
    (["passport", OCTA], 24),
])
def test_document_dessin_checked_once(capsys, validated_sizes, argv,
                                      n_darts):
    """A command builds and checks the dessin of its document once,
    also when it needs it again as the base of the coloring."""
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert validated_sizes.count(n_darts) == 1


class TestValidate:
    def test_valid_document(self, capsys):
        code, out, err = run(capsys, ["validate", TORUS])
        assert code == 0
        assert out == "ok\n"
        assert err == ""

    def test_tricolored_document(self, capsys):
        code, out, _ = run(capsys, ["validate", OCTA])
        assert (code, out) == (0, "ok\n")

    def test_structural_violations_reported(self, capsys):
        code, out, err = run(capsys, ["validate",
                                      str(FIXTURES / "free_edge.dessin")])
        assert code == 1
        assert "fixed point" in out
        assert err == ""

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, ["validate",
                                      str(FIXTURES
                                          / "bad_out_of_range.dessin")])
        assert code == 1
        assert out == ""
        assert err.startswith("parse-error: line 4:")

    @pytest.mark.parametrize("command", ["info", "validate"])
    def test_metric_outside_its_range(self, capsys, command):
        # an infinite length is no MetricData, so no command reads it
        code, out, err = run(capsys, [command,
                                      str(FIXTURES / "bad_metric.dessin")])
        assert (code, out) == (1, "")
        assert err == "parse-error: line 5: lengths[0] = inf is not positive\n"

    def test_coloring_of_wrong_length(self, capsys, tmp_path):
        # the dessin is valid, but the coloring names 11 of its 12 edges
        text = Path(OCTA).read_text().replace(
            "red red green\n", "red red\n")
        src = tmp_path / "short.dessin"
        src.write_text(text)
        code, out, err = run(capsys, ["validate", str(src)])
        assert code == 1
        assert out == ("coloring-shape: edge_color has 11 entries, "
                       "expected 12\n")
        assert err == ""

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["validate", "no_such_file.dessin"])
        assert code == 2
        assert err.startswith("io-error:")

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", TORUS])
        assert info.value.code == 2


class TestInfo:
    def test_one_square_torus(self, capsys):
        code, out, _ = run(capsys, ["info", TORUS])
        assert code == 0
        assert out.splitlines() == ["V=1 E=2 F=1 genus=1",
                                    "face-degrees: 4:1"]

    def test_tetrahedron(self, capsys):
        code, out, _ = run(capsys, ["info", TETRA])
        assert code == 0
        assert out.splitlines() == ["V=4 E=6 F=4 genus=0",
                                    "face-degrees: 3:4"]

    def test_invalid_dessin_fails(self, capsys):
        code, _, err = run(capsys, ["info",
                                    str(FIXTURES / "free_edge.dessin")])
        assert code == 1
        assert err.startswith("invalid-dessin:")


class TestRefine:
    def test_quadruples_the_torus(self, capsys):
        code, out, _ = run(capsys, ["refine", TORUS])
        assert code == 0
        refined = parse(out)
        assert refined.n_darts == 16
        dessin = refined.to_dessin()
        assert dessin.is_valid()
        assert dessin.genus() == 1

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "refined.dessin"
        code, out, _ = run(capsys, ["refine", TORUS, "-o", str(target)])
        assert code == 0
        assert out == ""
        assert parse(target.read_text()).n_darts == 16

    def test_out_to_missing_directory_is_usage_error(self, capsys,
                                                     tmp_path):
        target = tmp_path / "missing" / "refined.dessin"
        code, out, err = run(capsys, ["refine", TORUS, "-o", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith("io-error:")


class TestSubdivide:
    def test_auto_refines_one_square_torus(self, capsys):
        # a single square glues to itself, so corners cannot be
        # 2-colored until the tiling is refined
        code, out, err = run(capsys, ["subdivide", TORUS])
        assert code == 0
        assert err == ("notice: corner graph not bipartite; "
                       "auto-refined 2x2\n")
        tri_doc = parse(out)
        tri = tri_doc.to_tricolored()
        assert len(tri.base.cells("face")) == 16
        assert validate_tricoloring(tri) == []

    def test_bipartite_grid_needs_no_notice(self, capsys):
        code, out, err = run(capsys, ["subdivide", GRID])
        assert code == 0
        assert err == ""
        tri = parse(out).to_tricolored()
        assert len(tri.base.cells("face")) == 16
        assert validate_tricoloring(tri) == []

    def test_rejects_non_square_tiling(self, capsys):
        code, _, err = run(capsys, ["subdivide", TETRA])
        assert code == 1
        assert err.startswith("not-square-tiling:")


class TestBarycentric:
    def test_tricolored_input(self, capsys):
        code, out, _ = run(capsys, ["barycentric", OCTA])
        assert code == 0
        tri = parse(out).to_tricolored()
        assert len(tri.base.cells("face")) == 48
        assert validate_tricoloring(tri) == []

    def test_plain_triangulation_input(self, capsys):
        code, out, _ = run(capsys, ["barycentric", TETRA])
        assert code == 0
        tri = parse(out).to_tricolored()
        assert len(tri.base.cells("face")) == 24

    def test_rejects_square_tiling(self, capsys):
        code, _, err = run(capsys, ["barycentric", TORUS])
        assert code == 1
        assert err.startswith("not-triangulated:")


class TestPassport:
    def test_octahedron(self, capsys):
        code, out, _ = run(capsys, ["passport", OCTA])
        assert code == 0
        assert out.splitlines() == [
            "degree: 4",
            "over_zero: 2 2",
            "over_one: 2 2",
            "over_infinity: 2 2",
            "genus: 0",
        ]

    def test_requires_coloring(self, capsys):
        code, _, err = run(capsys, ["passport", TORUS])
        assert code == 1
        assert err.startswith("not-tricolored:")

    def test_odd_incident_face_count(self, capsys, tmp_path):
        # three triangles meet at each vertex of a tetrahedron
        t = TricoloredDessin(tetrahedron(), [0] * 6, [0, 0, 1, 1], [0] * 4)
        path = tmp_path / "odd.dessin"
        path.write_text(from_tricolored(t).serialize())
        code, out, err = run(capsys, ["passport", str(path)])
        assert (code, out) == (1, "")
        assert err == "error: vertex 0 has odd incident face count\n"

    def test_subdivided_grid_passport(self, capsys, tmp_path):
        target = tmp_path / "tri.dessin"
        assert main(["subdivide", GRID, "-o", str(target)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, ["passport", str(target)])
        assert code == 0
        assert out.splitlines() == [
            "degree: 8",
            "over_zero: 4 4",
            "over_one: 4 4",
            "over_infinity: 2 2 2 2",
            "genus: 1",
        ]


class TestMapEval:
    def test_grid_three(self, capsys):
        code, out, _ = run(capsys, ["map-eval", "--spec", "square_cell",
                                    "--grid", "3"])
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 9
        assert rows[0] == "0,0,0"
        # t = 1 maps to i exactly under the unit-square normalization
        assert rows[2] == "1,0,1"
        for row in rows:
            assert len(row.split(",")) == 3

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, ["map-eval", "--spec", "triangle_coord",
                                   "--grid", "4"])
        _, second, _ = run(capsys, ["map-eval", "--spec", "triangle_coord",
                                    "--grid", "4"])
        assert first == second

    def test_grid_size_validated(self, capsys):
        code, _, err = run(capsys, ["map-eval", "--spec", "square_cell",
                                    "--grid", "0"])
        assert code == 2
        assert err.startswith("bad-grid:")

    def test_unknown_spec_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["map-eval", "--spec", "hexagon", "--grid", "2"])
        assert info.value.code == 2


class TestTransform:
    def test_fixed_points(self, capsys, tmp_path):
        src = tmp_path / "points.csv"
        src.write_text("# corners stay put\n0,0\n1,0\n\n0.5,-0.1\n")
        code, out, _ = run(capsys, ["transform", str(src)])
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 3
        x0, y0, bx0, by0 = map(float, rows[0].split(","))
        assert (x0, y0) == (0.0, 0.0)
        assert abs(bx0) <= 1e-9 and abs(by0) <= 1e-9
        x1, y1, bx1, by1 = map(float, rows[1].split(","))
        assert abs(bx1 - 1.0) <= 1e-9 and abs(by1) <= 1e-9

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0.5,-0.2\n"))
        code, out, _ = run(capsys, ["transform", "-"])
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_outside_image_fails(self, capsys, tmp_path):
        src = tmp_path / "points.csv"
        src.write_text("0.5,0.5\n")
        code, _, err = run(capsys, ["transform", str(src)])
        assert code == 1
        assert err.startswith("outside-image:")

    def test_malformed_row(self, capsys, tmp_path):
        src = tmp_path / "points.csv"
        src.write_text("0.5\n")
        code, _, err = run(capsys, ["transform", str(src)])
        assert code == 1
        assert err.startswith("bad-point: line 1:")

    def test_non_numeric_row(self, capsys, tmp_path):
        src = tmp_path / "points.csv"
        src.write_text("a,b\n")
        code, _, err = run(capsys, ["transform", str(src)])
        assert code == 1
        assert err == "bad-point: line 1: not numeric: 'a,b'\n"

    @pytest.mark.parametrize("row", ["nan,nan", "0.5,-inf", "inf,0"])
    def test_non_finite_row(self, capsys, tmp_path, row):
        src = tmp_path / "points.csv"
        src.write_text(f"0.5,-0.1\n{row}\n")
        code, _, err = run(capsys, ["transform", str(src)])
        assert code == 1
        assert err.startswith("bad-point: line 2: not finite")

    def test_no_convergence_line(self, capsys, tmp_path):
        # within 1e-8 of the image of t = 1 no double t meets the
        # residual promise; the stderr line keeps its exact form
        src = tmp_path / "points.csv"
        src.write_text("0.5,-0.1\n0.999999995684091,-7.893618444382483e-09\n")
        code, _, err = run(capsys, ["transform", str(src)])
        assert code == 1
        assert err == ("no-convergence: Newton iteration for "
                       "(0.999999995684091-7.893618444382483e-09j) "
                       "stalled at residual 3.58e-10\n")


# Per fixture and command: the exit code and the first 16 hex digits
# of the sha256 of stdout and of stderr.  "subdivide | info" runs info
# on the document that subdivide wrote.  Recorded before documents held
# their dessin and the CLI stopped checking validity itself.
CLI_DIGESTS = {
    'bad_out_of_range': {
        'validate': (1, 'e3b0c44298fc1c14', '2ef2b1d9757e7450'),
        'info': (1, 'e3b0c44298fc1c14', '2ef2b1d9757e7450'),
        'refine': (1, 'e3b0c44298fc1c14', '2ef2b1d9757e7450'),
        'subdivide': (1, 'e3b0c44298fc1c14', '2ef2b1d9757e7450'),
        'barycentric': (1, 'e3b0c44298fc1c14', '2ef2b1d9757e7450'),
        'passport': (1, 'e3b0c44298fc1c14', '2ef2b1d9757e7450'),
    },
    'free_edge': {
        'validate': (1, '826f836c2ee80d80', 'e3b0c44298fc1c14'),
        'info': (1, 'e3b0c44298fc1c14', 'caaa2c69936f13c0'),
        'refine': (1, 'e3b0c44298fc1c14', 'caaa2c69936f13c0'),
        'subdivide': (1, 'e3b0c44298fc1c14', 'caaa2c69936f13c0'),
        'barycentric': (1, 'e3b0c44298fc1c14', 'caaa2c69936f13c0'),
        'passport': (1, 'e3b0c44298fc1c14', '576d9cfa9cc1a3a2'),
    },
    'grid_2x2': {
        'validate': (0, 'dc51b8c96c2d745d', 'e3b0c44298fc1c14'),
        'info': (0, '780d16a05517c695', 'e3b0c44298fc1c14'),
        'refine': (0, 'cc4f1d7e9e3fdbee', 'e3b0c44298fc1c14'),
        'subdivide': (0, 'aa4a793f7b39c07d', 'e3b0c44298fc1c14'),
        'subdivide | validate': (0, 'dc51b8c96c2d745d', 'e3b0c44298fc1c14'),
        'subdivide | info': (0, '85bb68575c18f32c', 'e3b0c44298fc1c14'),
        'subdivide | barycentric': (0, '4f4fa0dce8f9295c', 'e3b0c44298fc1c14'),
        'subdivide | passport': (0, 'a8fd02c6a5d154b5', 'e3b0c44298fc1c14'),
        'barycentric': (1, 'e3b0c44298fc1c14', '3a894e82f4d88e7e'),
        'passport': (1, 'e3b0c44298fc1c14', '576d9cfa9cc1a3a2'),
    },
    'octahedron_tricolored': {
        'validate': (0, 'dc51b8c96c2d745d', 'e3b0c44298fc1c14'),
        'info': (0, 'c1d9e748630ed0bc', 'e3b0c44298fc1c14'),
        'refine': (1, 'e3b0c44298fc1c14', '0c8049afb9ce78d2'),
        'subdivide': (1, 'e3b0c44298fc1c14', '0c8049afb9ce78d2'),
        'barycentric': (0, '1f5c5d9e601e5775', 'e3b0c44298fc1c14'),
        'passport': (0, '5fe6d2350e59a683', 'e3b0c44298fc1c14'),
    },
    'one_square_torus': {
        'validate': (0, 'dc51b8c96c2d745d', 'e3b0c44298fc1c14'),
        'info': (0, '9a33be82ffd48c30', 'e3b0c44298fc1c14'),
        'refine': (0, 'f6317a6c41ff3038', 'e3b0c44298fc1c14'),
        'subdivide': (0, '6057af1ddc166bf5', '01ad93436a57813a'),
        'subdivide | validate': (0, 'dc51b8c96c2d745d', 'e3b0c44298fc1c14'),
        'subdivide | info': (0, '85bb68575c18f32c', 'e3b0c44298fc1c14'),
        'subdivide | barycentric': (0, '6af1ebf52a73b4c6', 'e3b0c44298fc1c14'),
        'subdivide | passport': (0, 'a8fd02c6a5d154b5', 'e3b0c44298fc1c14'),
        'barycentric': (1, 'e3b0c44298fc1c14', '3a894e82f4d88e7e'),
        'passport': (1, 'e3b0c44298fc1c14', '576d9cfa9cc1a3a2'),
    },
    'pillow_sphere': {
        'validate': (0, 'dc51b8c96c2d745d', 'e3b0c44298fc1c14'),
        'info': (0, 'f017ad1995e22ad4', 'e3b0c44298fc1c14'),
        'refine': (0, '112f04f8204e88e6', 'e3b0c44298fc1c14'),
        'subdivide': (0, '6dfca0788bcb22a0', 'e3b0c44298fc1c14'),
        'subdivide | validate': (0, 'dc51b8c96c2d745d', 'e3b0c44298fc1c14'),
        'subdivide | info': (0, 'c1d9e748630ed0bc', 'e3b0c44298fc1c14'),
        'subdivide | barycentric': (0, '7eb833ffd8c3ac3b', 'e3b0c44298fc1c14'),
        'subdivide | passport': (0, '5fe6d2350e59a683', 'e3b0c44298fc1c14'),
        'barycentric': (1, 'e3b0c44298fc1c14', '3a894e82f4d88e7e'),
        'passport': (1, 'e3b0c44298fc1c14', '576d9cfa9cc1a3a2'),
    },
    'tetrahedron': {
        'validate': (0, 'dc51b8c96c2d745d', 'e3b0c44298fc1c14'),
        'info': (0, 'c3378fb8de2e7113', 'e3b0c44298fc1c14'),
        'refine': (1, 'e3b0c44298fc1c14', '0c8049afb9ce78d2'),
        'subdivide': (1, 'e3b0c44298fc1c14', '0c8049afb9ce78d2'),
        'barycentric': (0, '268b41d6aa362289', 'e3b0c44298fc1c14'),
        'passport': (1, 'e3b0c44298fc1c14', '576d9cfa9cc1a3a2'),
    },
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("fixture", sorted(CLI_DIGESTS))
def test_output_bytes_pinned(capsys, tmp_path, fixture):
    """Every command on every fixture, and the commands that read a
    subdivided document on each subdivide output, print the bytes and
    exit with the code they did before."""
    got = {}

    def record(key, argv):
        code, out, err = run(capsys, argv)
        got[key] = (code, _digest(out), _digest(err))
        return code, out

    path = str(FIXTURES / f"{fixture}.dessin")
    for command in ("validate", "info", "refine", "subdivide", "barycentric",
                    "passport"):
        code, out = record(command, [command, path])
        if command == "subdivide" and code == 0:
            tri = tmp_path / "tri.dessin"
            tri.write_text(out)
            for then in ("validate", "info", "barycentric", "passport"):
                record(f"subdivide | {then}", [then, str(tri)])
    assert got == CLI_DIGESTS[fixture]


# Per spec and grid size: the first 16 hex digits of the sha256 of the
# `map-eval` CSV.  Recorded before the quadrature lost its panel
# splitting, which no grid point ever reached.  square_cell-64 was
# re-pinned when the panel integrand moved to real arithmetic: three of
# its rows are rounding ties, within 5e-17 of a midpoint of the 12th
# printed digit, and each changed that digit (rows 562, 1064 and 3666;
# two of the three now round as the 40-digit values do).
MAP_EVAL_DIGESTS = {
    ("square_cell", 16): "38390bd0c0fb1790",
    ("square_cell", 64): "74d1548de1732cbb",
    ("square_coord", 16): "c1133a27bab10b9e",
    ("square_coord", 64): "a8aa7f14607ea457",
    ("triangle_coord", 16): "43a6265279971c78",
    ("triangle_coord", 64): "1a7e5e0272dc2bb2",
}


@pytest.mark.parametrize("spec, grid", sorted(MAP_EVAL_DIGESTS))
def test_map_eval_bytes_pinned(capsys, spec, grid):
    code, out, err = run(capsys, ["map-eval", "--spec", spec,
                                  "--grid", str(grid)])
    assert (code, err) == (0, "")
    assert _digest(out) == MAP_EVAL_DIGESTS[spec, grid]


# In-image points of the triangle 0, 1, 1 - i/sqrt(3): corners, an
# edge, the interior, and points near the corners at t = 0 and t = 1.
TRANSFORM_POINTS = (
    "0,0\n1,0\n0.5,0\n0.25,-0.1\n0.5,-0.05\n0.5,-0.25\n0.6,-0.1\n"
    "0.7,-0.2\n0.8,-0.1\n0.85,-0.3\n0.9,-0.5\n0.95,-0.05\n0.999,-0.57\n"
    "1,-0.5\n0.39423,-0.20921\n0.001,-0.0005\n0.999999,-1e-07\n")
# next to the image of t = 1, where no double t meets the promise
TRANSFORM_STALL = "0.999999995684091,-7.893618444382483e-09\n"


@pytest.mark.parametrize("text, expected", [
    (TRANSFORM_POINTS, (0, "b3ebb4781b6d58bc", "e3b0c44298fc1c14")),
    (TRANSFORM_POINTS + TRANSFORM_STALL,
     (1, "e3b0c44298fc1c14", "bf36a51acceafc61")),
], ids=["in_image", "with_stall"])
def test_transform_bytes_pinned(capsys, tmp_path, text, expected):
    """The exit code and the digests of stdout and stderr, recorded
    before Newton lost its reseeding loop, which no point reached."""
    src = tmp_path / "points.csv"
    src.write_text(text)
    code, out, err = run(capsys, ["transform", str(src)])
    assert (code, _digest(out), _digest(err)) == expected


@pytest.mark.parametrize("path, code, first_lines", [
    ("tests/fixtures/one_square_torus.dessin", 0, ["V=1 E=2 F=1 genus=1"]),
    ("tests/fixtures/missing.dessin", 2, []),
])
def test_python_m_dessins(path, code, first_lines):
    """``python -m dessins`` runs the package's __main__ in a fresh
    interpreter, from the repository root."""
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "dessins", "info", path],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == code
    assert done.stdout.splitlines()[:1] == first_lines
    if code:
        assert done.stderr.startswith("io-error: ")
