"""The dual rows in the field against the integer rows with a multiplier
each that they replaced (`reference.integer_dual`, and the graph basis
whose units carry the multipliers, `reference.MultiplierGraphBasis`), on
the non-ACM curves among random constructions in P^3 to P^5 over QQ,
Z/32003 and Z/7 and among the ex45 and ex46 catalog points with n <= 4
and d <= 7: the Rao dual and the graph basis of the last dual map build
the same engines element by element, keys and coefficients, and each row
of the map before reduces to zero modulo the kernel exactly when its
integer row does under the oracle.  Rows whose denominators differ,
where a graph unit left at 1 would take the kernel of another map, occur
among the draws.  CI runs this module under two string-hash seeds."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, find, given, settings, strategies as st  # noqa: E402

from extremalcurves.construct import (  # noqa: E402
    construct_curve,
    extremal_curve_ideal,
    non_extremal_witness,
    random_construction_input,
)
from extremalcurves.formulas import max_genus  # noqa: E402
from extremalcurves.ideals import Ideal  # noqa: E402
from extremalcurves.modules import GraphBasis, PresentedModule  # noqa: E402
from extremalcurves.ring import QQ, PolyRing, Polynomial, PrimeField  # noqa: E402
from reference import MultiplierGraphBasis, denominator_lcms, integer_dual, reduce  # noqa: E402

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None, database=None)
FIELDS = [QQ, PrimeField(32003), PrimeField(7)]
POINTS = st.tuples(st.integers(3, 5), st.integers(3, 6), st.integers(0, 3), st.integers(0, 10**6), st.sampled_from(FIELDS))


def non_acm_resolution(n, d, a, seed, field):
    """The resolution of a seeded random construction cast to field, or
    None when the curve is ACM or a denominator vanishes there."""
    I = construct_curve(random_construction_input(n, d, a, random.Random(seed)))
    ring = PolyRing(I.ring.nvars, field)
    try:
        res = Ideal(ring, [Polynomial(ring, g.terms) for g in I.gens]).resolution()
    except ZeroDivisionError:
        return None
    return res if res.length == n else None


def elements(module):
    return [(g.keys, g.coeffs, g.deg) for g in module.engine.basis]


def assert_matches_the_integer_rows(res):
    ring = res.ring
    n = ring.n
    twists = [-w for w in res.twists[n]]
    rows, multipliers = integer_dual(res, n - 1)
    assert elements(PresentedModule(ring, twists, res.dual(n - 1))) == elements(PresentedModule(ring, twists, rows))
    graph = GraphBasis(res.dual(n - 1), twists, ring)
    oracle = MultiplierGraphBasis(rows, twists, ring, multipliers)
    assert elements(graph) == elements(oracle)
    images, integer_images = res.dual(n - 2), integer_dual(res, n - 2)[0]
    assert [not reduce(graph, v) for v in images] == [not reduce(oracle, v) for v in integer_images]


@SETTINGS
@given(POINTS)
@example((4, 5, 1, 1, QQ))
def test_field_rows_build_the_engines_of_the_integer_rows(point):
    res = non_acm_resolution(*point)
    hypothesis.assume(res is not None)
    assert_matches_the_integer_rows(res)


def test_field_rows_on_the_non_acm_catalog():
    ideals = [extremal_curve_ideal(n, d, max_genus(n, d) - a) for n in (3, 4) for d in range(2, 8) for a in range(4)]
    ideals += [non_extremal_witness(4, a, d).ideal for d in range(4, 8) for a in range(1, 4)]
    checked = 0
    for I in ideals:
        res = I.resolution()
        if res.length == I.ring.n:
            assert_matches_the_integer_rows(res)
            checked += 1
    assert checked >= 20


def test_rows_with_unequal_denominators_are_drawn():
    # the property above meets rows whose denominators differ: a graph unit
    # left at 1 on such rows would take the kernel of another map
    def unequal(point):
        res = non_acm_resolution(*point)
        return res is not None and len(set(denominator_lcms(res.dual(point[0] - 1)))) > 1

    find(POINTS, unequal, settings=SETTINGS)
