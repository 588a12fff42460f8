"""Shared fixtures: the worked three-generator ideal and string helpers."""

import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from f5gb.algebra import PolynomialRing
from f5gb.cli import parse_polynomial

# hypothesis still caches the literals it scans from src/ (they seed its
# draws, so editing a constant there can change the examples); keep that
# cache out of the source tree
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "f5gb-hypothesis"))

# every property test draws the same examples on every run and writes no
# example database
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def poly(ring, text):
    return parse_polynomial(ring, text)


def polys(ring, *texts):
    return [parse_polynomial(ring, t) for t in texts]


@pytest.fixture
def xyzt():
    return PolynomialRing(32003, ("x", "y", "z", "t"))


@pytest.fixture
def appendix_system(xyzt):
    """The worked example: three homogeneous generators over F_32003."""
    return polys(xyzt, "y*z^3 - x^2*t^2", "x*z^2 - y^2*t", "x^2*y - z^2*t")


APPENDIX_RAW_BASIS = [
    "y*z^3 - x^2*t^2",
    "x^2*y - z^2*t",
    "x*z^2 - y^2*t",
    "x*y^3*t - z^4*t",
    "z^6*t - y^5*t^2",
    "y^3*z*t - x^3*t^2",
    "z^5*t - x^4*t^2",
    "y^5*t^2 - x^4*z*t^2",
    "x^5*t^2 - y^2*z^3*t^2",
    "y^6*t^2 - x*y^2*z*t^4",
]

# the same eight polynomials as the published reduced basis, in ascending
# head-monomial order (the canonical sequence interreduce produces)
APPENDIX_REDUCED_BASIS = [
    "x*z^2 - y^2*t",
    "x^2*y - z^2*t",
    "y*z^3 - x^2*t^2",
    "y^3*z*t - x^3*t^2",
    "x*y^3*t - z^4*t",
    "z^5*t - x^4*t^2",
    "y^5*t^2 - x^4*z*t^2",
    "x^5*t^2 - z^2*t^5",
]
