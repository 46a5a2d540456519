"""Line-oriented document format: parsing, canonical serialization,
and positioned error reporting."""

import hashlib
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import catalog, cli
from dessins import document as document_module
from dessins import metric as metric_module
from dessins import tiling as tiling_module
from dessins.belyi import barycentric_subdivide
from dessins.cartography import InvalidDessinError
from dessins.document import (
    DessinDocument,
    DocumentParseError,
    FORMAT_VERSION,
    _int_text,
    from_dessin,
    from_tricolored,
    parse,
)
from dessins.metric import MetricData, equilateral_structure, square_structure
from dessins.tiling import (Color, NonBipartiteError, Shade, VertexLabel,
                            corner_bipartition, diagonal_subdivision,
                            refine_2x2)

import oracles

FIXTURES = Path(__file__).parent / "fixtures"

GOOD_FIXTURES = [
    "one_square_torus.dessin",
    "tetrahedron.dessin",
    "grid_2x2.dessin",
    "pillow_sphere.dessin",
    "octahedron_tricolored.dessin",
]


def make_text(**overrides) -> str:
    """A small valid document with selected lines replaced or dropped
    (value None).  Keys keep their position so line numbers stay
    predictable: 1 format_version, 2 n_darts, 3 rho0, 4 rho1."""
    fields = {
        "format_version": "1",
        "n_darts": "4",
        "rho0": "1 2 3 0",
        "rho1": "2 3 0 1",
    }
    fields.update(overrides)
    return "".join(f"{k}: {v}\n" for k, v in fields.items()
                   if v is not None)


class TestParsing:
    def test_minimal_document(self):
        d_doc = parse(make_text())
        assert d_doc.n_darts == 4
        assert d_doc.rho0 == (1, 2, 3, 0)
        assert d_doc.rho1 == (2, 3, 0, 1)
        assert d_doc.format_version == FORMAT_VERSION
        assert not d_doc.has_metric
        assert not d_doc.has_coloring
        assert d_doc.to_metric() is None

    def test_comments_and_blanks_ignored(self):
        text = ("# leading comment\n\nformat_version: 1\n"
                "\n  # indented comment\nn_darts: 4\n"
                "rho0: 1 2 3 0\nrho1: 2 3 0 1\n")
        assert parse(text) == parse(make_text())

    def test_whitespace_tolerant(self):
        text = ("  format_version :  1  \nn_darts:4\n"
                "rho0:  1  2 3 0\nrho1: 2 3 0 1")
        assert parse(text) == parse(make_text())

    def test_good_fixtures_parse(self):
        for name in GOOD_FIXTURES:
            d_doc = parse((FIXTURES / name).read_text())
            dessin = d_doc.to_dessin()
            assert dessin.is_valid(), name

    def test_metric_block(self):
        d_doc = parse((FIXTURES / "tetrahedron.dessin").read_text())
        assert d_doc.has_metric
        m = d_doc.to_metric()
        assert m.lengths == (1.0,) * 12
        assert m.angles == (math.pi / 3,) * 12

    def test_coloring_block(self):
        d_doc = parse((FIXTURES / "octahedron_tricolored.dessin").read_text())
        assert d_doc.has_coloring
        tri = d_doc.to_tricolored()
        assert len(tri.edge_color) == 12
        assert len(tri.face_shade) == 8
        assert len(tri.vertex_label) == 6

    def test_to_tricolored_requires_coloring(self):
        with pytest.raises(ValueError, match="no coloring block"):
            parse(make_text()).to_tricolored()

    def test_to_tricolored_checks_counts_not_codes(self, monkeypatch):
        # the codes were range-checked when the document was built
        t = catalog.octahedron_tricolored()
        d_doc = parse(from_tricolored(t).serialize())

        def no_second_check(*args):
            raise AssertionError("codes range-checked again")

        monkeypatch.setattr(tiling_module, "_code_array", no_second_check)
        tri = d_doc.to_tricolored()
        assert tri.edge_color == t.edge_color
        assert tri._vertex_label is d_doc._vertex_labels
        monkeypatch.undo()
        short = DessinDocument(
            t.base.n_darts, t.base.rho0, t.base.rho1,
            edge_colors=t._edge_color, face_shades=t._face_shade[:-1],
            vertex_labels=t._vertex_label)
        with pytest.raises(ValueError,
                           match="face_shade has 7 entries, expected 8"):
            short.to_tricolored()
        invalid = DessinDocument(4, (1, 0, 3, 2), (1, 0, 3, 2),
                                 edge_colors=[0, 0], face_shades=[0] * 2,
                                 vertex_labels=[0] * 2)
        with pytest.raises(InvalidDessinError):
            invalid.to_tricolored()


class TestParseErrors:
    def error(self, text: str) -> DocumentParseError:
        with pytest.raises(DocumentParseError) as info:
            parse(text)
        return info.value

    def test_missing_colon(self):
        err = self.error("format_version 1\n")
        assert err.line == 1
        assert "key: value" in str(err)

    def test_unknown_key(self):
        err = self.error(make_text() + "flavor: mint\n")
        assert err.line == 5
        assert "unknown key 'flavor'" in str(err)

    def test_duplicate_key(self):
        err = self.error(make_text() + "rho0: 1 2 3 0\n")
        assert err.line == 5
        assert "duplicate key 'rho0'" in str(err)

    def test_missing_key_reported_at_end(self):
        err = self.error(make_text(rho1=None))
        assert err.line == 4
        assert "missing required key 'rho1'" in str(err)

    def test_unsupported_version(self):
        err = self.error(make_text(format_version="7"))
        assert err.line == 1
        assert "unsupported format_version '7'" in str(err)

    def test_bad_dart_count(self):
        assert self.error(make_text(n_darts="four")).line == 2
        assert "must be positive" in str(self.error(make_text(
            n_darts="0", rho0="", rho1="")))

    def test_wrong_entry_count(self):
        err = self.error(make_text(rho0="1 2 3"))
        assert err.line == 3
        assert "expected 4 entries, got 3" in str(err)

    def test_non_integer_entry(self):
        err = self.error(make_text(rho1="2 3 x 1"))
        assert err.line == 4
        assert "rho1[2]" in str(err)

    def test_out_of_range_entry_fixture(self):
        # fixture layout: comment, version, n_darts, rho0
        err = self.error((FIXTURES / "bad_out_of_range.dessin").read_text())
        assert err.line == 4
        assert "rho0[2] = 9 out of range 0..3" in str(err)

    def test_half_metric_block(self):
        err = self.error(make_text() + "lengths: 1 1 1 1\n")
        assert err.line == 5
        assert "requires 'angles'" in str(err)

    def test_bad_length_value(self):
        err = self.error(make_text()
                         + "lengths: 1 1 ? 1\nangles: 1 1 1 1\n")
        assert err.line == 5
        assert "lengths[2]" in str(err)

    @pytest.mark.parametrize("lengths, angles, message", [
        ("1 nan 1 NaN", "1 1 1 1",
         "line 5: lengths[1] = nan is not positive"),
        ("1 1 1 1", "1 1 -nan 1", "line 6: angles[2] = nan outside (0, 2*pi)"),
    ])
    def test_nan_metric_entry(self, lengths, angles, message):
        # the metric block is a MetricData, which takes no NaN
        err = self.error(make_text(lengths=lengths, angles=angles))
        assert str(err) == message

    def test_partial_coloring_block(self):
        err = self.error(make_text() + "edge_colors: blue blue\n")
        assert "coloring block requires" in str(err)

    def test_bad_color_value(self):
        text = (make_text()
                + "edge_colors: blue mauve\n"
                + "face_shades: white\n"
                + "vertex_labels: zero one\n")
        err = self.error(text)
        assert err.line == 5
        assert "'mauve' is not one of" in str(err)

    @pytest.mark.parametrize("rho0, message", [
        ("9 x 1 0", "rho0[0] = 9 out of range 0..3"),
        ("1 x 9 0", "rho0[1]: not an integer: 'x'"),
        ("1 2 -1 y", "rho0[2] = -1 out of range 0..3"),
        ("1 2 3 4", "rho0[3] = 4 out of range 0..3"),
        ("1 2 3 0.0", "rho0[3]: not an integer: '0.0'"),
    ])
    def test_first_bad_entry_named(self, rho0, message):
        err = self.error(make_text(rho0=rho0))
        assert err.line == 3
        assert str(err) == f"line 3: {message}"

    def test_first_bad_enum_named(self):
        text = (make_text()
                + "edge_colors: blue red\n"
                + "face_shades: white grey black\n"
                + "vertex_labels: zero one\n")
        assert str(self.error(text)) == (
            "line 6: face_shades[1]: 'grey' is not one of black, white")

    @pytest.mark.parametrize("text, expected", [
        ((FIXTURES / "free_edge.dessin").read_text(),
         ["rho1-fixed-point: rho1 has fixed point at dart 0",
          "rho1-not-involution: rho1 squared moves dart 1"]),
        (make_text(rho0="1 1 3 0"),
         ["rho0-not-bijection: rho0 is not a bijection"]),
        (make_text(rho0="1 0 3 2", rho1="1 0 3 2"),
         ["not-transitive: dart 2 is not reachable from dart 0"]),
    ], ids=["free_edge", "rho0_not_bijective", "two_components"])
    def test_structural_defects_parse_and_fail_validation(
            self, capsys, tmp_path, text, expected):
        # structural defects are a validation concern, not a parse error:
        # a parsed dessin is validated on first use, in the library and
        # in `dessins validate`, with the same report
        d = parse(text).to_dessin()
        assert [str(v) for v in d.violations()] == expected
        path = tmp_path / "defect.dessin"
        path.write_text(text)
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == expected


@st.composite
def accepted_documents(draw):
    """A document of a random dessin, given as sequences or as arrays,
    with or without a metric block of any lengths in (0, inf) and angles
    in (0, 2*pi), and a coloring block of any members, as many as the
    constructor takes."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = 2 * draw(st.integers(1, 12))
    d = catalog.random_dessin(n, rng)
    as_arrays = draw(st.booleans())
    fields = {"rho0": d.rho0, "rho1": d.rho1}
    if draw(st.booleans()):
        for key, top in (("lengths", math.inf), ("angles", 2 * math.pi)):
            fields[key] = draw(st.lists(
                st.floats(0.0, top, exclude_min=True, exclude_max=True),
                min_size=n, max_size=n))
    if draw(st.booleans()):
        for key, cls in (("edge_colors", Color), ("face_shades", Shade),
                         ("vertex_labels", VertexLabel)):
            members = draw(st.lists(st.sampled_from(list(cls)), max_size=n))
            fields[key] = ([list(cls).index(m) for m in members]
                           if as_arrays else members)
    if as_arrays:
        fields = {key: np.array(value) for key, value in fields.items()}
    return DessinDocument(n, **fields)


class TestSerialization:
    def test_round_trip_plain(self):
        d_doc = from_dessin(catalog.tetrahedron())
        assert parse(d_doc.serialize()) == d_doc

    def test_round_trip_with_metric(self):
        dessin = catalog.square_torus_grid(2, 2)
        d_doc = from_dessin(dessin, square_structure(dessin))
        again = parse(d_doc.serialize())
        assert again == d_doc
        # repr round-trips floats exactly
        assert again.angles == d_doc.angles

    def test_round_trip_tricolored(self):
        d_doc = from_tricolored(catalog.octahedron_tricolored())
        assert parse(d_doc.serialize()) == d_doc

    # parse then serialize gives a document's canonical text
    def test_canonicalize_idempotent_on_fixtures(self):
        for name in GOOD_FIXTURES:
            once = parse((FIXTURES / name).read_text()).serialize()
            assert parse(once).serialize() == once, name

    def test_canonicalize_drops_comments(self):
        text = "# hello\n" + make_text() + "# bye\n"
        assert "#" not in parse(text).serialize()

    def test_serialize_layout(self):
        text = from_dessin(catalog.one_square_torus()).serialize()
        assert text == ("format_version: 1\n"
                        "n_darts: 4\n"
                        "rho0: 1 2 3 0\n"
                        "rho1: 2 3 0 1\n")

    def test_serialize_tricolored_bytes(self):
        # pins the coloring lines, which are written from a member -> text
        # table rather than Enum.value
        text = from_tricolored(catalog.octahedron_tricolored()).serialize()
        assert text == (FIXTURES / "octahedron_tricolored.dessin").read_text()
        grid = catalog.square_torus_grid(4, 2)
        cover = barycentric_subdivide(
            diagonal_subdivision(grid, corner_bipartition(grid)))
        data = from_tricolored(cover).serialize().encode()
        assert len(data) == 7560
        assert hashlib.sha256(data).hexdigest() == (
            "6d0bea4ce4b0332bcdc5b617f7e051a459d0a9e68f0d4919ba10a422a3808144")

    def test_serialize_cover_bytes_at_benchmark_size(self):
        # the largest document of the subdivide_pipeline benchmark, whose
        # images are written in uint16 digits
        grid = catalog.square_torus_grid(16, 32)
        cover = barycentric_subdivide(
            diagonal_subdivision(grid, corner_bipartition(grid)))
        assert cover.base.n_darts == 36864
        data = from_tricolored(cover).serialize().encode()
        assert len(data) == 617866
        assert hashlib.sha256(data).hexdigest() == (
            "20ebe14cdb82ec7be423323339f82236aa99186e25e832433e7010ddfc3c6a73")

    @pytest.mark.parametrize("values", [
        [0], [9], [10], [0, 9, 10, 0],
        [10 ** k - 1 for k in range(1, 11)] + [10 ** k for k in range(10)],
        [65535, 0, 7],
        [65536, 0, 10],
        [2 ** 32 - 1, 0, 7],
        [2 ** 32, 0, 10 ** 18, 10 ** 18 - 1, 5],
    ])
    def test_int_text(self, values):
        # uint16 digits up to 2**16 - 1, uint32 up to 2**32 - 1, uint64
        # above
        assert _int_text(np.array(values, dtype=np.intp)) == (
            " ".join(map(str, values)).encode())

    def test_metric_must_fit(self):
        dessin = catalog.tetrahedron()
        wrong_size = MetricData((1.0,) * 4, (2.0,) * 4)
        with pytest.raises(ValueError, match="metric does not fit"):
            from_dessin(dessin, wrong_size)
        # dart 0 and its reverse must share a length
        uneven = MetricData((2.0,) + (1.0,) * 11, (1.0,) * 12)
        with pytest.raises(ValueError, match="metric does not fit"):
            from_dessin(dessin, uneven)

    def test_equilateral_metric_fits(self):
        dessin = catalog.tetrahedron()
        d_doc = from_dessin(dessin, equilateral_structure(dessin))
        assert d_doc.has_metric

    def test_format_version_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            DessinDocument(4, (1, 2, 3, 0), (2, 3, 0, 1), format_version="7")
        d_doc = DessinDocument(4, (1, 2, 3, 0), (2, 3, 0, 1))
        assert d_doc.format_version == FORMAT_VERSION == "1"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(accepted_documents())
    def test_every_accepted_document_round_trips(self, d_doc):
        text = d_doc.serialize()
        again = parse(text)
        assert again.serialize() == text
        assert again == d_doc


METRIC_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300,
                     2 * math.pi, 7.0, 1e308)))


def raised(make) -> str | None:
    """The message of the ValueError ``make()`` raises, None for none."""
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


class TestMetricBlockIsMetricData:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(METRIC_FLOATS, min_size=4, max_size=4),
           st.lists(METRIC_FLOATS, min_size=4, max_size=4), st.booleans())
    def test_one_accepted_set(self, lengths, angles, as_arrays):
        """The constructor and the reader take exactly the metric blocks
        that MetricData takes, and reject the others with its message,
        the reader at the line of the offending key."""
        expected = raised(lambda: MetricData(lengths, angles))
        given_values = ((np.array(lengths), np.array(angles)) if as_arrays
                        else (lengths, angles))
        assert raised(lambda: DessinDocument(
            4, (1, 2, 3, 0), (2, 3, 0, 1), *given_values)) == expected
        text = make_text(lengths=" ".join(map(repr, lengths)),
                         angles=" ".join(map(repr, angles)))
        if expected is None:
            d_doc = parse(text)
            assert d_doc.to_metric() is d_doc.to_metric()
            assert d_doc.to_metric() == MetricData(lengths, angles)
            assert d_doc == DessinDocument(4, (1, 2, 3, 0), (2, 3, 0, 1),
                                           *given_values)
        else:
            line = 5 if expected.startswith("lengths") else 6
            assert outcome(parse, text) == ("error", line,
                                            f"line {line}: {expected}")


    @pytest.mark.parametrize("tricolored", [False, True])
    def test_from_parts_hold_what_they_are_given(self, monkeypatch,
                                                 tricolored):
        """from_dessin and from_tricolored keep the MetricData, the
        Dessin and the code arrays they are given: no second range pass
        over the metric or the codes, no second Dessin, and the fit memo
        on the metric stays valid for the document's dessin."""
        t = catalog.octahedron_tricolored() if tricolored else None
        d = t.base if tricolored else catalog.square_torus_grid(2, 2)
        m = equilateral_structure(d) if tricolored else square_structure(d)
        passes = []
        real = metric_module.metric_array
        for module in (metric_module, document_module):
            monkeypatch.setattr(module, "metric_array",
                                lambda *args: passes.append(args[0])
                                or real(*args))
        for name in ("Dessin", "_code_array"):
            monkeypatch.setattr(document_module, name,
                                lambda *args, name=name: passes.append(name))
        d_doc = from_tricolored(t, m) if tricolored else from_dessin(d, m)
        assert d_doc.to_metric() is m
        assert d_doc.to_dessin() is d
        assert passes == []
        assert d_doc.angles == m.angles
        if tricolored:
            assert d_doc._edge_colors is t._edge_color
            assert d_doc._face_shades is t._face_shade
            assert d_doc._vertex_labels is t._vertex_label


class TestBlockPairing:
    def test_lengths_without_angles(self):
        with pytest.raises(ValueError, match="together"):
            DessinDocument(4, (1, 2, 3, 0), (2, 3, 0, 1),
                           lengths=(1.0,) * 4)

    @pytest.mark.parametrize("lengths", [np.array([1 + 5j] * 4),
                                         [1 + 5j] * 4])
    def test_complex_lengths(self, lengths):
        with pytest.raises(TypeError):
            DessinDocument(4, (1, 2, 3, 0), (2, 3, 0, 1),
                           lengths=lengths, angles=np.ones(4))

    def test_partial_coloring(self):
        with pytest.raises(ValueError, match="together"):
            DessinDocument(4, (1, 2, 3, 0), (2, 3, 0, 1),
                           edge_colors=("blue", "red"))

    def test_error_carries_line_attribute(self):
        err = DocumentParseError(17, "boom")
        assert err.line == 17
        assert str(err) == "line 17: boom"


def random_document(rng: random.Random):
    """A document of a random origami or grid, or of its diagonal or
    barycentric subdivision, with or without a metric (random lengths,
    equal on each edge, and random angles), together with its fields
    read off the objects it was built from (enums as text)."""
    if rng.random() < 0.5:
        d = catalog.random_origami(rng.randint(1, 8), rng)
    else:
        d = catalog.square_torus_grid(rng.randint(1, 5), rng.randint(1, 5))
    t = None
    if rng.random() < 0.6:
        try:
            labels = corner_bipartition(d)
        except NonBipartiteError:
            d = refine_2x2(d)
            labels = corner_bipartition(d)
        t = diagonal_subdivision(d, labels)
        if rng.random() < 0.4:
            t = barycentric_subdivide(t)
        d = t.base
    m = None
    if rng.random() < 0.5:
        edge_length = [rng.choice((1.0, 0.5, 1 / 3, rng.uniform(1e-3, 1e3)))
                       for _ in range(d.n_darts)]
        m = MetricData([edge_length[min(x, d.rho1[x])]
                        for x in range(d.n_darts)],
                       [rng.uniform(1e-9, 2 * math.pi - 1e-9)
                        for _ in range(d.n_darts)])
    fields = {"format_version": "1", "n_darts": d.n_darts,
              "rho0": d.rho0, "rho1": d.rho1,
              "lengths": None if m is None else m.lengths,
              "angles": None if m is None else m.angles}
    for key, colors in zip(("edge_colors", "face_shades", "vertex_labels"),
                           (None, None, None) if t is None else
                           (t.edge_color, t.face_shade, t.vertex_label)):
        fields[key] = None if colors is None else [c.value for c in colors]
    d_doc = from_dessin(d, m) if t is None else from_tricolored(t, m)
    return d_doc, fields


def fields_of(d_doc: DessinDocument) -> dict:
    fields = {key: getattr(d_doc, key) for key in oracles.DOCUMENT_KEYS}
    for key in oracles.DOCUMENT_ENUMS:
        if fields[key] is not None:
            fields[key] = tuple(c.value for c in fields[key])
    return fields


def outcome(read, text):
    """What ``read`` makes of ``text``: its fields, or the line and
    message of its parse error."""
    try:
        return read(text)
    except (DocumentParseError, oracles.ParseError) as exc:
        return ("error", exc.line, str(exc))


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
MUTATIONS = {
    "plus": lambda tok, n: "+" + tok,
    "leading zero": lambda tok, n: "0" + tok,
    "underscore": lambda tok, n: tok[0] + "_" + tok[1:] if len(tok) > 1
    else "1_" + tok,
    "arabic-indic": lambda tok, n: tok.translate(ARABIC_INDIC),
    "negative": lambda tok, n: "-" + tok,
    "out of range": lambda tok, n: str(n),
    "far out of range": lambda tok, n: "9" * 25,
    "many leading zeros": lambda tok, n: "0" * 30 + tok,
    "not a number": lambda tok, n: "x",
    "decimal": lambda tok, n: tok + ".0",
    "exponent": lambda tok, n: "1e400",
    "unknown enum": lambda tok, n: "mauve",
    # right first letter, wrong text
    "enum bleu": lambda tok, n: "bleu",
    "enum b": lambda tok, n: "b",
    "enum Blue": lambda tok, n: "Blue",
    "enum blues": lambda tok, n: "blues",
    "enum whitee": lambda tok, n: "whitee",
    "dropped": lambda tok, n: "",
    "doubled": lambda tok, n: tok + " " + tok,
}
SEPARATORS = ("\t", "  ", "\u00a0", "\u2003", " \t ")


class TestAgainstOracle:
    """The array-backed reader and writer against the token-by-token
    ones in tests/oracles.py."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32))
    def test_bytes_and_fields(self, seed):
        d_doc, fields = random_document(random.Random(seed))
        text = d_doc.serialize()
        assert text == oracles.serialize_document(fields)
        again = parse(text)
        assert fields_of(again) == oracles.parse_document(text)
        assert again == d_doc and hash(again) == hash(d_doc)
        assert repr(again) == repr(d_doc)
        assert again.serialize() == text

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32), st.sampled_from(sorted(MUTATIONS)),
           st.sampled_from(SEPARATORS), st.booleans())
    def test_mutated_tokens(self, seed, mutation, separator, split):
        """One token of one line mutated, or one separator replaced:
        equal fields or an equal error (line and message)."""
        rng = random.Random(seed)
        d_doc, _ = random_document(rng)
        lines = d_doc.serialize().splitlines()
        i = rng.randrange(1, len(lines))
        key, value = lines[i].split(": ")
        tokens = value.split(" ")
        j = rng.randrange(len(tokens))
        if split and j:
            value = " ".join(tokens[:j]) + separator + " ".join(tokens[j:])
        else:
            tokens[j] = MUTATIONS[mutation](tokens[j], d_doc.n_darts)
            value = " ".join(tokens)
        lines[i] = f"{key}: {value}"
        text = "\n".join(lines) + "\n"
        expected = outcome(oracles.parse_document, text)
        got = outcome(lambda x: fields_of(parse(x)), text)
        assert got == expected

    @pytest.mark.parametrize("key, token", [
        ("edge_colors", "bleu"), ("edge_colors", "b"),
        ("edge_colors", "Blue"), ("edge_colors", "blues"),
        ("face_shades", "whitee"), ("vertex_labels", "infinite"),
    ])
    def test_enum_tokens_with_a_known_first_letter(self, key, token):
        """A token whose first letter names a member but whose text is
        wrong fails the rewrite check; the loop names it."""
        lines = {"edge_colors": ["blue", "red", "green"],
                 "face_shades": ["white", "black"],
                 "vertex_labels": ["zero", "one", "infinity"]}
        lines[key][1] = token
        text = make_text(**{k: " ".join(v) for k, v in lines.items()})
        line = 5 + list(lines).index(key)
        allowed = {"edge_colors": "blue, green, red",
                   "face_shades": "black, white",
                   "vertex_labels": "zero, one, infinity"}[key]
        message = f"line {line}: {key}[1]: {token!r} is not one of {allowed}"
        assert outcome(parse, text) == ("error", line, message)
        assert outcome(oracles.parse_document, text) == ("error", line,
                                                         message)

    @pytest.mark.parametrize("rho0", [
        "+1 2 3 0", "01 2 3 0", "1_0 2 3 0", "١ 2 3 0", "1\t2 3 0",
        "1  2 3 0", "1 2 3 0 ", "-1 2 3 0", "1 2 3 4", "1 2 3",
        "1 2 3 0 0", "1 2 3 " + "9" * 25, "0" * 40 + "1 2 3 0",
    ])
    def test_tokens_that_int_accepts(self, rho0):
        text = make_text(rho0=rho0)
        got = outcome(lambda x: fields_of(parse(x)), text)
        assert got == outcome(oracles.parse_document, text)

    def test_arrays_are_read_only_and_shared(self):
        t = catalog.octahedron_tricolored()
        d_doc = from_tricolored(t)
        kept = d_doc.to_dessin()
        assert kept._r0 is t.base._r0 and kept._r1 is t.base._r1
        assert d_doc._edge_colors is t._edge_color
        again = parse(d_doc.serialize())
        assert again.to_dessin()._r0.dtype == np.intp
        assert again._edge_colors.dtype == np.int8
        assert again.to_metric() is None and again.lengths is None
        for arr in (again.to_dessin()._r0, again.to_dessin()._r1,
                    again._face_shades):
            assert not arr.flags.writeable
        tri = again.to_tricolored()
        assert tri.base is again.to_dessin()
        assert tri._vertex_label is again._vertex_labels

    def test_one_dessin_per_document(self):
        d_doc = parse((FIXTURES / "octahedron_tricolored.dessin").read_text())
        assert d_doc.to_dessin() is d_doc.to_dessin()
        assert d_doc.to_tricolored().base is d_doc.to_dessin()
        # the cached dessin takes no part in equality or hashing
        fresh = parse(d_doc.serialize())
        assert fresh == d_doc and hash(fresh) == hash(d_doc)

    def test_sequences_and_arrays_give_one_document(self):
        t = catalog.octahedron_tricolored()
        from_arrays = from_tricolored(t)
        from_sequences = DessinDocument(
            t.base.n_darts, list(t.base.rho0), t.base.rho1,
            edge_colors=[c.value for c in t.edge_color],
            face_shades=t.face_shade, vertex_labels=t._vertex_label.tolist())
        assert from_sequences == from_arrays
        assert from_sequences.serialize() == from_arrays.serialize()

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_darts": 0, "rho0": (), "rho1": ()},
         "n_darts must be a positive integer"),
        ({"n_darts": True, "rho0": (0,), "rho1": (0,)},
         "n_darts must be a positive integer"),
        ({"rho0": (1, 2, 3, 9)}, "rho0[3] = 9 out of range 0..3"),
        ({"rho1": (2, 3, 0)}, "rho1 has 3 entries, expected 4"),
        ({"edge_colors": ("blue", "mauve"), "face_shades": (),
          "vertex_labels": ()}, "'mauve' is not a valid Color"),
        ({"lengths": [1.0], "angles": [1.0]},
         "lengths has 1 entries, expected 4"),
        ({"lengths": [1.0, math.nan, 2.0, math.nan], "angles": [1.0] * 4},
         "lengths[1] = nan is not positive"),
        ({"lengths": np.ones(4), "angles": np.array([1.0, 1.0, math.nan, 1])},
         "angles[2] = nan outside (0, 2*pi)"),
        ({"lengths": np.ones((2, 2)), "angles": np.ones(4)},
         "lengths must be a 1-D array, got shape (2, 2)"),
    ])
    def test_malformed_fields_raise(self, kwargs, message):
        args = {"n_darts": 4, "rho0": (1, 2, 3, 0), "rho1": (2, 3, 0, 1)}
        args.update(kwargs)
        with pytest.raises(ValueError, match=re.escape(message)):
            DessinDocument(**args)
