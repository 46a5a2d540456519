"""Parameters of the public callables whose settings are constants: a
value no caller sets is not a parameter."""

import inspect

import pytest

from dessins import catalog, csmap
from dessins.document import DessinDocument
from dessins.metric import AffineChart

PARAMETERS = [
    (csmap.invert_cs_map, ["spec", "z"]),
    (csmap.triangle_to_square, ["z"]),
    (csmap.image_triangle, ["spec"]),
    (csmap.cs_map_derivative, ["spec", "t"]),
    (catalog.random_origami, ["n_squares", "rng"]),
    (catalog.random_dessin, ["n_darts", "rng"]),
    (DessinDocument, ["n_darts", "rho0", "rho1", "lengths", "angles",
                      "edge_colors", "face_shades", "vertex_labels"]),
    (AffineChart.is_identity, ["self"]),
]


@pytest.mark.parametrize("func, params", PARAMETERS,
                         ids=[f.__qualname__ for f, _ in PARAMETERS])
def test_parameters(func, params):
    assert list(inspect.signature(func).parameters) == params
