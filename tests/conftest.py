"""Shared fixtures: the worked ideals used across the test suite."""

import pytest
from hypothesis import settings

from reembed.parse import parse_poly, parse_ring

# One fixed, derandomized profile for every property test: each run draws
# the same inputs.
settings.register_profile("derandomized", derandomize=True, max_examples=150,
                          deadline=None, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def ring_xyz():
    return parse_ring("ring x, y, z;")


@pytest.fixture(scope="session")
def ring_xyzw():
    return parse_ring("ring x, y, z, w;")


# A plane curve hidden in ten bulky generators of QQ[x,y,z]; the reduced
# elimination basis collapses to two small elements.
CURVE10_TEXT = [
    "x*y^2 + 1/2y^3 - 1/2y^2*z - x^2 - 1/2x*y - y^2 + 1/2x*z + x",
    "y^2*z^2 + 3y^3 - 4y^2*z - x*z^2 - 3x*y + 4x*z",
    "y^3*z - x*y*z - y^2*z + x*z",
    "y^4 - x*y^2 - y^3 + x*y",
    "x^2*y^2 - x^3",
    "x^3 + 1/2x^2*y + x*y^2 + 1/2y^3 - 1/2x^2*z - 1/2y^2*z - x^2 - y^2",
    "x^2*z^2 + y^2*z^2 + 3x^2*y + 3y^3 - 4x^2*z - 4y^2*z",
    "x^2*y*z + y^3*z - x^2*z - y^2*z",
    "x^2*y^2 + y^4 - x^2*y - y^3",
    "x^4 + x^2*y^2",
]


@pytest.fixture(scope="session")
def curve10(ring_xyz):
    return [parse_poly(s, ring_xyz) for s in CURVE10_TEXT]


# A surface that is the graph of two functions over QQ[z,w].
GRAPH_SURFACE_TEXT = [
    "w^2 + x - y + 3z",
    "z*w^2 + w^3 + y",
    "w^3 - x*z + y*z - 3z^2 + y",
]


@pytest.fixture(scope="session")
def graph_surface(ring_xyzw):
    return [parse_poly(s, ring_xyzw) for s in GRAPH_SURFACE_TEXT]


# A curve in 4-space isomorphic to the affine line.
TWISTED_CURVE_TEXT = [
    "x - y - w^2",
    "x + y - z^2",
    "z + w + z^3",
]


@pytest.fixture(scope="session")
def twisted_curve(ring_xyzw):
    return [parse_poly(s, ring_xyzw) for s in TWISTED_CURVE_TEXT]


# Two independent linear forms in 4 indeterminates whose fan has 5 cells.
FAN24_TEXT = ["x + y - z + 4w", "x - y - z"]


@pytest.fixture(scope="session")
def fan24(ring_xyzw):
    return [parse_poly(s, ring_xyzw) for s in FAN24_TEXT]
