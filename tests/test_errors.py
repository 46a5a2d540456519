"""Every exception class the package exports survives pickling, as a
process pool that returns the error needs: same type, same message and
same data attributes.  An argument of the wrong type raises TypeError
naming it."""

import pickle
import random

import pytest

import dessins
from dessins import (SQUARE_CELL, CsMapSpec, Dessin, Passport,
                     QuadratureConfig, barycentric_subdivide,
                     complete_beta, corner_bipartition, cs_map,
                     cs_map_derivative, diagonal_subdivision, image_triangle,
                     incomplete_cs_integral, invert_cs_map, refine_2x2,
                     riemann_hurwitz_genus)
from dessins.belyi import passport
from dessins.cartography import is_isomorphic
from dessins.catalog import (one_square_torus, random_dessin, random_origami,
                             square_torus_grid, tetrahedron)
from dessins.document import DocumentParseError, parse
from dessins.metric import (chart_transition, cone_angle,
                            equilateral_structure, face_closure_residual,
                            metric_violations, square_structure)
from dessins.tiling import (TricoloredDessin, is_square_tiling,
                            tricolored_from_labels, validate_tricoloring)

# per exception class, a call that raises it
RAISERS = {
    "CutCrossingError": lambda: cs_map(SQUARE_CELL, 2.0),
    "FaceDegreeMismatch": lambda: barycentric_subdivide(one_square_torus()),
    "InconsistentLabelsError": lambda: diagonal_subdivision(
        square_torus_grid(2, 2), ["zero"] * 4),
    "InconsistentPassportError": lambda: riemann_hurwitz_genus(
        Passport(2, (1,), (2,), (2,))),
    "InvalidDessinError": lambda: Dessin(
        4, (1, 0, 3, 2), (1, 0, 3, 2)).require_valid(),
    "NonBipartiteError": lambda: corner_bipartition(one_square_torus()),
    "NonConvergenceError": lambda: cs_map(
        SQUARE_CELL, 0.5 - 0.5j, QuadratureConfig(node_count=2)),
    "NotSquareTilingError": lambda: refine_2x2(tetrahedron()),
    "OutsideImageError": lambda: invert_cs_map(SQUARE_CELL, 5 + 5j),
    "DocumentParseError": lambda: parse("format_version: 1\nbogus\n"),
}

ATTRIBUTES = ("violations", "line", "witness", "stage", "evaluations",
              "best_residual")


def test_every_exported_exception_has_a_case():
    exported = {name for name in dessins.__all__
                if isinstance(getattr(dessins, name), type)
                and issubclass(getattr(dessins, name), Exception)}
    assert exported | {"DocumentParseError"} == set(RAISERS)


@pytest.mark.parametrize("name", sorted(RAISERS))
def test_round_trips_through_pickle(name):
    cls = (DocumentParseError if name == "DocumentParseError"
           else getattr(dessins, name))
    with pytest.raises(cls) as info:
        RAISERS[name]()
    error = info.value
    assert type(error) is cls
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    present = [a for a in ATTRIBUTES if hasattr(error, a)]
    assert [getattr(copy, a) for a in present] \
        == [getattr(error, a) for a in present]


TETRAHEDRON = tetrahedron()
METRIC = equilateral_structure(TETRAHEDRON)

# per entry point, a call with an argument of the wrong type, and the
# TypeError message that names it
WRONG_TYPES = [
    (lambda: refine_2x2(None), "d must be a Dessin, not NoneType"),
    (lambda: diagonal_subdivision(None, []),
     "d must be a Dessin, not NoneType"),
    (lambda: barycentric_subdivide(None),
     "t must be a TricoloredDessin or Dessin, not NoneType"),
    (lambda: corner_bipartition(None), "d must be a Dessin, not NoneType"),
    (lambda: is_square_tiling(None), "d must be a Dessin, not NoneType"),
    (lambda: tricolored_from_labels(None, []),
     "base must be a Dessin, not NoneType"),
    (lambda: TricoloredDessin(None, [], [], []),
     "base must be a Dessin, not NoneType"),
    (lambda: square_structure(None), "d must be a Dessin, not NoneType"),
    (lambda: equilateral_structure(None), "d must be a Dessin, not NoneType"),
    (lambda: metric_violations(None, METRIC),
     "d must be a Dessin, not NoneType"),
    (lambda: metric_violations(TETRAHEDRON, None),
     "m must be a MetricData, not NoneType"),
    (lambda: cone_angle(TETRAHEDRON, None, 0),
     "m must be a MetricData, not NoneType"),
    (lambda: chart_transition(TETRAHEDRON, None, 0, ()),
     "m must be a MetricData, not NoneType"),
    # iterated, a str was read one character per token
    (lambda: chart_transition(TETRAHEDRON, METRIC, 0, "rho1"),
     "word must be a sequence of tokens, not str"),
    (lambda: chart_transition(TETRAHEDRON, METRIC, 0, b"rho1"),
     "word must be a sequence of tokens, not bytes"),
    (lambda: face_closure_residual(TETRAHEDRON, None, 0),
     "m must be a MetricData, not NoneType"),
    (lambda: cone_angle(None, METRIC, 0), "d must be a Dessin, not NoneType"),
    (lambda: cone_angle(METRIC, METRIC, 0),
     "d must be a Dessin, not MetricData"),
    (lambda: riemann_hurwitz_genus(None),
     "p must be a Passport, not NoneType"),
    (lambda: validate_tricoloring(tetrahedron()),
     "t must be a TricoloredDessin, not Dessin"),
    (lambda: passport(tetrahedron()),
     "t must be a TricoloredDessin, not Dessin"),
    (lambda: is_isomorphic(tetrahedron(), None),
     "d2 must be a Dessin, not NoneType"),
    (lambda: cs_map(None, 0.3), "spec must be a CsMapSpec, not NoneType"),
    (lambda: invert_cs_map("square_cell", 0.3),
     "spec must be a CsMapSpec, not str"),
    (lambda: image_triangle(None), "spec must be a CsMapSpec, not NoneType"),
    (lambda: cs_map_derivative(None, 0.3),
     "spec must be a CsMapSpec, not NoneType"),
    # 0 was taken for the default config, as `cfg or DEFAULT_CONFIG`
    (lambda: cs_map(SQUARE_CELL, 0.3, cfg=48),
     "cfg must be a QuadratureConfig or NoneType, not int"),
    (lambda: incomplete_cs_integral(0.25, 0.25, 0.3, cfg=0),
     "cfg must be a QuadratureConfig or NoneType, not int"),
    (lambda: complete_beta(0.25, 0.25, cfg=0),
     "cfg must be a QuadratureConfig or NoneType, not int"),
    # complex() parses text, so "1j" was stored and broke every map call
    (lambda: CsMapSpec(0.25, 0.25, "1j"),
     "prefactor must be a Number, not str"),
    (lambda: CsMapSpec(0.25, 0.25, b"1j"),
     "prefactor must be a Number, not bytes"),
    # a catalog size was compared, or handed to range(), unchecked
    (lambda: square_torus_grid("2", 2), "width must be an integer, not str"),
    (lambda: square_torus_grid(None, 2),
     "width must be an integer, not NoneType"),
    (lambda: square_torus_grid(2.0, 2), "width must be an integer, not float"),
    (lambda: random_dessin(4.0, random.Random(0)),
     "n_darts must be an integer, not float"),
    # True was taken for one square
    (lambda: random_origami(True, random.Random(0)),
     "n_squares must be an integer, not bool"),
]


@pytest.mark.parametrize("call, message", WRONG_TYPES,
                         ids=[m for _, m in WRONG_TYPES])
def test_wrong_type_raises_type_error(call, message):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message
