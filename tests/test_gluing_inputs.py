"""The ex45 and rem64 catalogs are gluing inputs: `construct_curve` of
`reference.ex45_input(n, d, a)` has the reduced Gröbner basis of
`extremal_curve_ideal(n, d, max_genus - a)`, and that of
`reference.rem64_input(n, a)` (d = 3, f = 0) the one of
`cubic_alternate_curve_ideal(n, a)`.  So rem64's Rao module is the
staircase count of (f_1, ..., f_{n-2}) in two variables, shifted by
a + n - 4, as for every construction.  The catalogs keep their explicit
generator lists: the bases agree, but the order `emit_ideal` writes the
generators in does not.  CI runs this module under two string-hash seeds."""

import pytest

from extremalcurves.cohomology import DualCohomology
from extremalcurves.construct import (
    ConstructionInput,
    construct_curve,
    cubic_alternate_curve_ideal,
    extremal_curve_ideal,
)
from extremalcurves.formulas import max_genus
from reference import ex45_input, rem64_input

EX45 = [(n, d, a) for n in range(3, 9) for d in range(3, 12) for a in range(7)]
REM64 = [(n, a) for n in range(5, 10) for a in range(1, 6)]


def staircase_dim(gens, k):
    """dim (K[x0,x1]/J)_k for J generated by the x0^p x1^q, (p, q) in gens."""
    return sum(1 for p in range(k + 1) if not any(p >= x and k - p >= y for x, y in gens))


def test_the_grids_are_378_and_25_points():
    assert (len(EX45), len(REM64)) == (378, 25)


def test_ex45_is_the_construction_of_its_input():
    for n, d, a in EX45:
        want = extremal_curve_ideal(n, d, max_genus(n, d) - a).groebner()
        assert construct_curve(ex45_input(n, d, a)).groebner() == want, (n, d, a)


def test_rem64_is_the_construction_of_its_input():
    for n, a in REM64:
        want = cubic_alternate_curve_ideal(n, a).groebner()
        assert construct_curve(rem64_input(n, a)).groebner() == want, (n, a)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_rem64_rao_dims_are_the_staircase_count(n):
    # M_j = dim (K[x0,x1]/(f_1, ..., f_{n-2}))_{j+a+n-4}, f = 0 dropped
    for a in range(1, 5):
        gens = [(0, a + n - 3)] + [(a + t - 1, n - 2 - t) for t in range(2, n - 1)]
        lo, hi = -a - n, a + n
        dims = DualCohomology(construct_curve(rem64_input(n, a))).rao_dims(lo, hi)
        assert dims == {j: staircase_dim(gens, j + a + n - 4) for j in range(lo, hi + 1)}, (n, a)
        assert any(dims.values()) and not dims[lo] and not dims[hi]


def test_an_exponent_off_by_one_in_f_is_another_curve():
    # the negative control: f = -x0 x1^(d+n-6) instead of -x1^(d+n-5), the
    # degree kept and the input still valid at a = 0, builds another ideal
    # at every point
    for n, d, a in EX45:
        if a:
            continue
        inp = ex45_input(n, d, a)
        x0, x1 = inp.f.ring.gen(0), inp.f.ring.gen(1)
        off = ConstructionInput(n=n, d=d, a=a, f_list=inp.f_list, f=-(x0 * x1 ** (d + n - 6)))
        assert construct_curve(off).groebner() != extremal_curve_ideal(n, d, max_genus(n, d)).groebner(), (n, d)
