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

from dessins import catalog
from dessins.belyi import barycentric_subdivide
from dessins.document import (
    DessinDocument,
    DocumentParseError,
    FORMAT_VERSION,
    canonicalize,
    from_dessin,
    from_tricolored,
    parse,
)
from dessins.metric import MetricData, equilateral_structure, square_structure
from dessins.tiling import (NonBipartiteError, corner_bipartition,
                            diagonal_subdivision, refine_2x2)

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

    def test_free_edge_fixture_parses_but_fails_validation(self):
        # structural defects are a validation concern, not a parse error
        d_doc = parse((FIXTURES / "free_edge.dessin").read_text())
        codes = [v.code for v in d_doc.to_dessin().violations()]
        assert "rho1-fixed-point" in codes


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

    def test_canonicalize_idempotent_on_fixtures(self):
        for name in GOOD_FIXTURES:
            once = canonicalize((FIXTURES / name).read_text())
            assert canonicalize(once) == once, name

    def test_canonicalize_drops_comments(self):
        text = "# hello\n" + make_text() + "# bye\n"
        assert "#" not in canonicalize(text)

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


class TestBlockPairing:
    def test_lengths_without_angles(self):
        with pytest.raises(ValueError, match="together"):
            DessinDocument(4, (1, 2, 3, 0), (2, 3, 0, 1),
                           lengths=(1.0,) * 4)

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
        assert again._lengths is None and again.lengths is None
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
        ({"rho0": (1, 2, 3, 9)}, "rho0[3] = 9 out of range 0..3"),
        ({"rho1": (2, 3, 0)}, "rho1 has 3 entries, expected 4"),
        ({"edge_colors": ("blue", "mauve"), "face_shades": (),
          "vertex_labels": ()}, "'mauve' is not a valid Color"),
        ({"lengths": [1.0], "angles": [1.0]},
         "lengths has 1 entries, expected 4"),
        ({"lengths": np.ones((2, 2)), "angles": np.ones(4)},
         "lengths must be a 1-D array, got shape (2, 2)"),
    ])
    def test_malformed_fields_raise(self, kwargs, message):
        args = {"n_darts": 4, "rho0": (1, 2, 3, 0), "rho1": (2, 3, 0, 1)}
        args.update(kwargs)
        with pytest.raises(ValueError, match=re.escape(message)):
            DessinDocument(**args)
