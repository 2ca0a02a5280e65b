"""Property tests for the gin read off the hyperplane cut, on random
constructions in P^3 to P^5, some after a change of coordinates: `gin`
gives the same ideal, seeds and entry bound as the full-variable gin of
`reference.py`, and the general hyperplane section read off the gin has
the Hilbert values of the drawn sections of `reference.py`; and for the
gin's certificate, the Eliahou-Kervaire numerator of random Borel
closures in 2 to 6 variables is the pivot recursion's."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from extremalcurves.cohomology import detect_hilbert_polynomial, general_section_values  # noqa: E402
from extremalcurves.construct import construct_curve, random_construction_input  # noqa: E402
from extremalcurves.gin import gin  # noqa: E402
from extremalcurves.monomials import ek_numerator  # noqa: E402
from reference import borel_closure, change_coordinates, drawn_section_values, full_variable_gin  # noqa: E402

SETTINGS = settings(max_examples=30, derandomize=True, deadline=None, database=None)


@st.composite
def constructions(draw, dmax=6, amax=2):
    """A seeded random construction over QQ, half the time in the
    coordinates of a small unit lower-triangular change."""
    n, d, a = draw(st.integers(3, 5)), draw(st.integers(3, dmax)), draw(st.integers(0, amax))
    I = construct_curve(random_construction_input(n, d, a, random.Random(draw(st.integers(0, 10**6)))))
    if draw(st.booleans()):
        m = [[int(i == j) + draw(st.integers(-2, 2)) * (j < i) for j in range(n + 1)] for i in range(n + 1)]
        I = change_coordinates(I, m)
    return I


@SETTINGS
@given(constructions(), st.integers(0, 2**63 - 1))
def test_gin_from_the_cut_is_the_full_variable_gin(I, seed):
    assert gin(I, seed) == full_variable_gin(I, seed)


@SETTINGS
@given(constructions(dmax=7, amax=3), st.integers(0, 2**63 - 1))
def test_section_read_off_the_gin_is_the_drawn_section(I, seed):
    d, _ = detect_hilbert_polynomial(I.initial_ideal())
    assert general_section_values(gin(I, seed).ideal, d) == drawn_section_values(I, d, seed)


@st.composite
def borel_closures(draw):
    """The Borel closure of one to three monomials of degree 1 to 5 in 2 to
    6 variables."""
    nvars = draw(st.integers(2, 6))
    monomial = st.lists(st.integers(0, nvars - 1), min_size=1, max_size=5).map(
        lambda idx: tuple(idx.count(i) for i in range(nvars))
    )
    return borel_closure(nvars, draw(st.lists(monomial, min_size=1, max_size=3)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(borel_closures())
def test_eliahou_kervaire_numerator_is_the_pivot_recursion(ideal):
    assert ek_numerator(ideal) == ideal.hilbert_numerator()
