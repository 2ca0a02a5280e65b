"""h2 from the resolution's twists against the route it replaced
(`reference.presented_h2`: F*_{n-1}/im a as a presented module, less the
coimage of the last dual map), at every degree of the window, on random
constructions in P^3 to P^5 and on every ex45 and ex46 catalog point with
n <= 4 and d <= 7, ACM and non-ACM curves alike.  CI runs this module
under two string-hash seeds."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from extremalcurves.cohomology import CurveAnalysis  # noqa: E402
from extremalcurves.construct import (  # noqa: E402
    construct_curve,
    extremal_curve_ideal,
    non_extremal_witness,
    random_construction_input,
)
from extremalcurves.formulas import max_genus  # noqa: E402
from reference import presented_h2  # noqa: E402

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)


def h2_both_ways(I):
    c = CurveAnalysis(I)
    return c.dual.acm, c.h2, presented_h2(c.dual, c.degrees)


@SETTINGS
@given(st.integers(3, 5), st.integers(3, 6), st.integers(0, 3), st.integers(0, 10**6))
@example(3, 5, 0, 1)  # ACM
@example(4, 5, 1, 1)  # not ACM
def test_h2_from_the_twists_is_the_presented_route(n, d, a, seed):
    acm, h2, old = h2_both_ways(construct_curve(random_construction_input(n, d, a, random.Random(seed))))
    assert h2 == old
    # the Rao module is K[x0,x1]/(f, f_1, ..., f_{n-2}) shifted, zero exactly
    # when the forms f_t of degree a + n - 3 are constants
    assert acm == (n == 3 and a == 0)


def test_h2_from_the_twists_on_the_catalog():
    kinds = set()
    for n in (3, 4):
        for d in range(2, 8):
            for a in range(4):
                acm, h2, old = h2_both_ways(extremal_curve_ideal(n, d, max_genus(n, d) - a))
                assert h2 == old, ("ex45", n, d, a)
                kinds.add(acm)
    for d in range(4, 8):
        for a in range(1, 4):
            acm, h2, old = h2_both_ways(non_extremal_witness(4, a, d).ideal)
            assert h2 == old, ("ex46", 4, d, a)
            kinds.add(acm)
    assert kinds == {True, False}
