"""One storage per object: a Dessin keeps only its index arrays, a
TricoloredDessin only its int8 codes and a DessinDocument only arrays.
Objects built from integer arrays and from sequences are equal,
malformed arrays raise the messages of the equal lists, the operators
never build the tuple views, and the vectorised checks match their loop
references."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import permutations as perms
from dessins.belyi import barycentric_subdivide, passport
from dessins.cartography import CellKind, Dessin, Violation
from dessins.catalog import (octahedron_tricolored, pillow_sphere,
                             random_origami, square_torus_grid)
from dessins.document import from_tricolored, parse
from dessins.metric import MetricData, metric_violations
from dessins.tiling import (Color, Shade, TricoloredDessin, VertexLabel,
                            corner_bipartition, diagonal_subdivision,
                            refine_2x2, validate_tricoloring)

import oracles

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)
INT_DTYPES = (np.intp, np.int64, np.int32, np.int8, np.uint16)
DESSIN_VIEWS = {"rho0", "rho1", "rho2"}
COLORING_VIEWS = {"edge_color", "face_shade", "vertex_label"}
DOCUMENT_VIEWS = {"rho0", "rho1", "lengths", "angles", "edge_colors",
                  "face_shades", "vertex_labels"}


@st.composite
def image_lists(draw):
    """n and two in-range image lists: a random dessin (possibly not
    transitive) or two arbitrary maps."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = 2 * draw(st.integers(1, 12))
    if draw(st.booleans()):
        return (n, list(perms.random_permutation(n, rng)),
                list(perms.random_fixed_point_free_involution(n, rng)))
    return (n, [rng.randrange(n) for _ in range(n)],
            [rng.randrange(n) for _ in range(n)])


def subdivided(rng):
    """The diagonal subdivision of a refined random origami, sometimes
    followed by the barycentric subdivision."""
    d = refine_2x2(random_origami(rng.randint(1, 6), rng))
    t = diagonal_subdivision(d, corner_bipartition(d))
    return barycentric_subdivide(t) if rng.random() < 0.3 else t


def texts(members):
    return [m.value for m in members]


def listed(violations):
    return [(v.code, v.dart, v.message) for v in violations]


class TestDessinStorage:
    @PROPERTY
    @given(image_lists(), st.sampled_from(INT_DTYPES))
    def test_arrays_and_sequences_give_one_dessin(self, case, dtype):
        n, rho0, rho1 = case
        a0 = np.array(rho0, dtype=dtype)
        a = Dessin(n, a0, np.array(rho1, dtype=dtype))
        s = Dessin(n, rho0, rho1)
        assert a == s
        assert hash(a) == hash(s)
        assert repr(a) == repr(s)
        assert a.rho0 == s.rho0 == tuple(rho0)
        assert a.rho1 == s.rho1 == tuple(rho1)
        assert a.violations() == s.violations()
        if s.is_valid():
            assert a.rho2 == s.rho2
            assert a.canonical_code == s.canonical_code
        # the caller's array is copied, not frozen or aliased
        assert a0.flags.writeable
        assert not a._r0.flags.writeable and a._r0 is not a0

    def test_frozen_array_shared(self):
        owned = np.array([1, 0], dtype=np.intp)
        owned.setflags(write=False)
        assert Dessin(2, owned, owned)._r0 is owned
        # a read-only view of writable memory is copied
        view = np.array([1, 0], dtype=np.intp)[:]
        view.setflags(write=False)
        assert Dessin(2, view, view)._r0 is not view

    def test_views_are_tuples_of_ints(self):
        d = square_torus_grid(2, 3)
        assert DESSIN_VIEWS.isdisjoint(d.__dict__)
        for name in DESSIN_VIEWS:
            view = getattr(d, name)
            assert type(view) is tuple
            assert {type(x) for x in view} == {int}
            assert getattr(d, name) is view

    def test_sequence_kept_as_its_view(self):
        rho0 = (1, 2, 3, 0)
        d = Dessin(4, rho0, [2, 3, 0, 1])
        assert d.rho0 is rho0
        assert d.rho1 == (2, 3, 0, 1)

    def test_immutable(self):
        d = Dessin(2, np.array([1, 0]), np.array([1, 0]))
        with pytest.raises(AttributeError):
            d.rho0 = (0, 1)
        with pytest.raises(AttributeError):
            d.n_darts = 4
        with pytest.raises(ValueError):
            d._r0[0] = 0

    @pytest.mark.parametrize("bad", [
        np.array([True, False]),
        np.array([1.0, 0.0]),
        np.array([0.5, 1.0]),
        np.array([1, 0, 0]),
        np.array([1]),
        np.array([1, 2]),
        np.array([-1, 0]),
        np.array([2 ** 40, 0]),
        np.array([2 ** 63, 0], dtype=np.uint64),
        np.array([[1, 0]]),
    ], ids=lambda a: f"{a.dtype}{a.tolist()}")
    def test_malformed_array_raises_as_its_list(self, bad):
        def message(images):
            with pytest.raises(ValueError) as exc:
                Dessin(2, (1, 0), images)
            return str(exc.value)

        assert message(bad) == message(bad.tolist())
        assert message(bad).startswith("rho1")


class TestTricoloredStorage:
    @PROPERTY
    @given(st.integers(0, 2 ** 32), st.sampled_from(INT_DTYPES))
    def test_codes_members_and_text_give_one_coloring(self, seed, dtype):
        rng = random.Random(seed)
        base = subdivided(rng).base
        members = [
            [rng.choice(list(cls)) for _ in base.cell_arrays(kind).smallest]
            for cls, kind in ((Color, CellKind.EDGE), (Shade, CellKind.FACE),
                              (VertexLabel, CellKind.VERTEX))]
        codes = [np.array([list(type(m[0])).index(x) for x in m],
                          dtype=dtype) for m in members]
        by_codes = TricoloredDessin(base, *codes)
        by_members = TricoloredDessin(base, *members)
        by_text = TricoloredDessin(base, *(texts(m) for m in members))
        by_code_lists = TricoloredDessin(base, *(c.tolist() for c in codes))
        for t in (by_codes, by_text, by_code_lists):
            assert t == by_members
            assert hash(t) == hash(by_members)
            assert repr(t) == repr(by_members)
            assert [t.edge_color, t.face_shade, t.vertex_label] == \
                [tuple(m) for m in members]
            assert validate_tricoloring(t) == validate_tricoloring(by_members)

    @pytest.mark.parametrize("bad", [
        np.array([True] * 12),
        np.array([0.0] * 12),
        np.array([0] * 11 + [3]),
        np.array([-1] + [0] * 11),
        np.array([0] * 11 + [2 ** 40]),
        np.array([0] * 11),
        np.array([0] * 13),
    ], ids=lambda a: f"{a.dtype}-{len(a)}-{a[-1]}")
    def test_malformed_codes_raise_as_their_list(self, bad):
        t = octahedron_tricolored()

        def message(colors):
            with pytest.raises(ValueError) as exc:
                TricoloredDessin(t.base, colors, t.face_shade, t.vertex_label)
            return str(exc.value)

        assert message(bad) == message(bad.tolist())

    def test_out_of_range_code_message(self):
        t = octahedron_tricolored()
        with pytest.raises(ValueError, match="^2 is not a valid Shade$"):
            TricoloredDessin(t.base, t.edge_color, [0] * 7 + [2],
                             t.vertex_label)
        with pytest.raises(ValueError, match="'purple' is not a valid Color"):
            TricoloredDessin(t.base, ["purple"] * 12, t.face_shade,
                             t.vertex_label)

    def test_operators_build_no_tuple_view(self):
        d = refine_2x2(square_torus_grid(3, 3))
        t = diagonal_subdivision(d, corner_bipartition(d))
        passport(t)
        out = barycentric_subdivide(t)
        passport(out)
        assert validate_tricoloring(out) == []
        for dessin in (d, t.base, out.base):
            assert DESSIN_VIEWS.isdisjoint(dessin.__dict__)
        for tri in (t, out):
            assert COLORING_VIEWS.isdisjoint(tri.__dict__)
        # a view is built on first use and then kept
        assert out.face_shade.count(Shade.WHITE) == len(out.face_shade) // 2
        assert "face_shade" in out.__dict__

    def test_document_pipeline_builds_no_tuple_view(self):
        d = refine_2x2(square_torus_grid(3, 3))
        t = diagonal_subdivision(d, corner_bipartition(d))
        d_doc = parse(from_tricolored(t).serialize())
        tri = d_doc.to_tricolored()
        out_doc = from_tricolored(barycentric_subdivide(tri))
        text = out_doc.serialize()
        for doc in (d_doc, out_doc):
            assert DOCUMENT_VIEWS.isdisjoint(doc.__dict__)
        assert DESSIN_VIEWS.isdisjoint(tri.base.__dict__)
        assert COLORING_VIEWS.isdisjoint(tri.__dict__)
        assert parse(text) == out_doc


class TestValidateTricoloringMatchesLoops:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32))
    def test_random_corruptions(self, seed):
        rng = random.Random(seed)
        t = subdivided(rng)
        colors = texts(t.edge_color)
        shades = texts(t.face_shade)
        labels = texts(t.vertex_label)
        for values, cls in ((colors, Color), (shades, Shade),
                            (labels, VertexLabel)):
            for _ in range(rng.choice((0, 1, 2, 5, 20))):
                values[rng.randrange(len(values))] = \
                    rng.choice(list(cls)).value
        broken = TricoloredDessin(t.base, colors, shades, labels)
        d = t.base
        assert listed(validate_tricoloring(broken)) == \
            oracles.tricoloring_violations(d.rho0, d.rho1, colors, shades,
                                           labels)

    def test_non_triangle_faces(self):
        d = pillow_sphere()
        args = (["blue"] * 4, ["white", "black"], ["zero", "one"] * 2)
        got = validate_tricoloring(TricoloredDessin(d, *args))
        assert got and listed(got) == \
            oracles.tricoloring_violations(d.rho0, d.rho1, *args)

    def test_edge_loops(self):
        d = Dessin(6, (5, 3, 4, 2, 0, 1), (3, 4, 5, 0, 1, 2))
        args = (["blue", "red", "green"], ["white", "black"], ["zero"])
        got = validate_tricoloring(TricoloredDessin(d, *args))
        assert "edge-loop" in {v.code for v in got}
        assert listed(got) == \
            oracles.tricoloring_violations(d.rho0, d.rho1, *args)


@PROPERTY
@given(st.integers(0, 2 ** 32))
def test_metric_violations_match_loop(seed):
    rng = random.Random(seed)
    d = random_origami(rng.randint(1, 8), rng)
    lengths = [1.0] * d.n_darts
    for _ in range(rng.randint(0, 4)):
        lengths[rng.randrange(d.n_darts)] = rng.choice((0.5, 2.0))
    expected = [
        Violation("length-not-edge-constant", x,
                  f"lengths differ on dart {x} and its reverse {d.rho1[x]}")
        for x in range(d.n_darts) if lengths[x] != lengths[d.rho1[x]]]
    m = MetricData(lengths, [1.0] * d.n_darts)
    assert metric_violations(d, m) == expected
