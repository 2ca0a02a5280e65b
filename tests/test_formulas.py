import pytest

from extremalcurves.formulas import (
    BoundProfile,
    CurveSpec,
    bound_profile,
    default_window,
    expected_annihilator_degrees,
    expected_betti,
    expected_gin,
    expected_rao_hf,
    h1_bound,
    h2_bound,
    max_genus,
    rao_structure_excluded,
)
from extremalcurves.monomials import MonomialIdeal, ek_betti
from reference import max_index


class TestMaxGenus:
    def test_values(self):
        assert max_genus(3, 5) == 3
        assert max_genus(4, 4) == 0
        assert max_genus(4, 2) == -2

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            max_genus(3, 1)


class TestH1Bound:
    def test_plateau(self):
        assert h1_bound(3, 5, 0, 2) == 3

    def test_value_at_zero(self):
        assert h1_bound(4, 5, 1, 0) == 2

    def test_vanishing_boundary(self):
        assert h1_bound(3, 5, 0, -3) == 0

    def test_degree_two(self):
        assert h1_bound(4, 2, -3, 1) == 1

    def test_branch_agreement_grid(self):
        for n in range(3, 7):
            for d in range(3, 9):
                for a in range(5):
                    g = max_genus(n, d) - a
                    lo, hi = default_window(n, d, g)
                    for j in range(lo - 3, hi + 4):
                        v = h1_bound(n, d, g, j)
                        assert v >= 0

    def test_strictly_increasing_on_negatives(self):
        for n in range(3, 7):
            for d in range(3, 9):
                for a in range(5):
                    g = max_genus(n, d) - a
                    lo, _ = default_window(n, d, g)
                    prev = None
                    for j in range(lo, 1):
                        v = h1_bound(n, d, g, j)
                        if prev is not None and prev > 0:
                            assert v > prev
                        prev = v

    def test_inadmissible(self):
        with pytest.raises(ValueError):
            h1_bound(3, 4, 5, 0)


class TestH2Bound:
    def test_examples(self):
        assert h2_bound(3, 5, 0, 0) == 3
        assert h2_bound(5, 5, 0, -1) == 6
        assert h2_bound(4, 5, 0, -4) == 19
        assert h2_bound(3, 5, 0, 3) == 0

    def test_degree_two(self):
        assert h2_bound(4, 2, -3, 0) == 0
        with pytest.raises(ValueError):
            h2_bound(4, 2, -3, -1)

    def test_branch_agreement_grid(self):
        for d in range(3, 9):
            for a in range(5):
                g = max_genus(4, d) - a
                lo, hi = default_window(4, d, g)
                for j in range(lo - 3, hi + 4):
                    assert h2_bound(4, d, g, j) >= 0


class TestProfiles:
    def test_window_contains_support(self):
        for n in (3, 4, 5):
            for d in (3, 4, 5, 6):
                for a in (0, 1, 2, 3):
                    g = max_genus(n, d) - a
                    prof = bound_profile(n, d, g)
                    lo, hi = prof.window
                    assert prof.h1[0] == 0 and prof.h1[-1] == 0
                    assert prof.h2[-1] == 0

    def test_degree_two_h2_none(self):
        prof = bound_profile(4, 2, -3)
        lo, _ = prof.window
        assert prof.h2_at(lo) is None
        assert prof.h2_at(0) == 0


class TestCurveSpec:
    def test_defect(self):
        spec = CurveSpec(4, 5, 1)
        assert spec.a == 1

    def test_rejects_large_genus(self):
        with pytest.raises(ValueError):
            CurveSpec(4, 4, 1)

    def test_exclusion_flag(self):
        assert rao_structure_excluded(CurveSpec(4, 3, max_genus(4, 3) - 1))
        assert not rao_structure_excluded(CurveSpec(3, 3, max_genus(3, 3) - 1))
        assert not rao_structure_excluded(CurveSpec(4, 3, max_genus(4, 3)))


class TestExpectedGin:
    def test_space_quartic(self):
        spec = CurveSpec(3, 4, 0)
        got = expected_gin(spec)
        assert got == MonomialIdeal(
            4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)]
        )

    def test_absorption_at_maximal_genus(self):
        spec = CurveSpec(3, 5, 3)
        got = expected_gin(spec)
        assert got == MonomialIdeal(4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 4, 0, 0)])

    def test_first_summand(self):
        spec = CurveSpec(4, 5, 1)
        got = expected_gin(spec)
        expected = MonomialIdeal(
            5,
            [
                (2, 0, 0, 0, 0),
                (1, 1, 0, 0, 0),
                (1, 0, 1, 0, 0),
                (1, 0, 0, 1, 0),
                (0, 2, 0, 0, 0),
                (0, 1, 1, 0, 0),
                (0, 0, 5, 0, 0),
                (0, 0, 4, 1, 0),
            ],
        )
        assert got == expected

    def test_alternate_cubic(self):
        spec = CurveSpec(4, 3, max_genus(4, 3) - 1)
        got = expected_gin(spec, "d3-alternate")
        expected = MonomialIdeal(
            5,
            [
                (2, 0, 0, 0, 0),
                (1, 1, 0, 0, 0),
                (1, 0, 1, 0, 0),
                (0, 2, 0, 0, 0),
                (0, 1, 1, 0, 0),
                (0, 0, 2, 0, 0),
                (1, 0, 0, 2, 0),
            ],
        )
        assert got == expected

    def test_alternate_needs_corner(self):
        with pytest.raises(ValueError):
            expected_gin(CurveSpec(3, 4, 0), "d3-alternate")


class TestExpectedRao:
    def test_quintic_in_p4(self):
        spec = CurveSpec(4, 5, 1)
        dims = [expected_rao_hf(spec, j) for j in range(-1, 5)]
        assert dims == [1, 2, 1, 1, 1, 0]

    def test_space_quartic(self):
        spec = CurveSpec(3, 4, 0)
        dims = [expected_rao_hf(spec, j) for j in range(0, 3)]
        assert dims == [1, 1, 1]
        assert expected_rao_hf(spec, -1) == 0
        assert expected_rao_hf(spec, 3) == 0

    def test_maximal_genus_is_power_of_max_ideal(self):
        spec = CurveSpec(5, 4, max_genus(5, 4))
        # S/(x,y)^2 shifted by n-4 = 1: dims 1, 2 at j = -1, 0
        assert expected_rao_hf(spec, -1) == 1
        assert expected_rao_hf(spec, 0) == 2
        assert expected_rao_hf(spec, 1) == 0

    def test_matches_bound_everywhere(self):
        for n in (3, 4, 5):
            for d in (3, 4, 5, 6):
                for a in (0, 1, 2, 3):
                    g = max_genus(n, d) - a
                    spec = CurveSpec(n, d, g)
                    if rao_structure_excluded(spec):
                        continue
                    lo, hi = default_window(n, d, g)
                    for j in range(lo, hi + 1):
                        assert expected_rao_hf(spec, j) == h1_bound(n, d, g, j)

    def test_excluded_triple(self):
        with pytest.raises(ValueError):
            expected_rao_hf(CurveSpec(4, 3, max_genus(4, 3) - 1), 0)


class TestExpectedBetti:
    def test_p4_closed_form(self):
        # n = 4, a = 2 keeps the three twist families distinct:
        # alpha = (6, 9, 5), beta = (1, 2, 1), gamma = (1, 3, 3)
        spec = CurveSpec(4, 5, 0)
        table = expected_betti(spec)
        d, a, n = 5, 2, 4
        assert spec.a == a
        assert [table.get(i - 1, i + 1) for i in (1, 2, 3)] == [6, 9, 5]
        assert [table.get(i - 1, i + d - 1) for i in (1, 2, 3)] == [1, 2, 1]
        assert [table.get(i - 1, i + d + a - 2) for i in (1, 2, 3)] == [1, 3, 3]
        assert table.get(n - 1, n + 1) == n - 3
        assert table.get(n - 1, d + a + n - 2) == 1

    def test_p4_merged_twists_at_defect_one(self):
        # a = 1 merges the beta and gamma families into one column
        spec = CurveSpec(4, 5, 1)
        table = expected_betti(spec)
        d = 5
        assert [table.get(i - 1, i + d - 1) for i in (1, 2, 3)] == [2, 5, 4]

    def test_space_quartic_gin_mode(self):
        spec = CurveSpec(3, 4, 0)
        table = ek_betti(expected_gin(spec))
        assert table.get(0, 2) == 2
        assert table.get(0, 4) == 2
        assert table.get(1, 3) == 1
        assert table.get(1, 5) == 3
        assert table.get(2, 6) == 1

    def test_acm_space_quintic(self):
        # n = 3, a = 0, d = 5: two quadrics and one quartic, ideal pd 1
        spec = CurveSpec(3, 5, 3)
        table = expected_betti(spec)
        assert table.get(0, 2) == 2
        assert table.get(0, 4) == 1
        assert max_index(table) == 1

    def test_closed_matches_ek_grid(self):
        for n in (3, 4, 5):
            for d in (4, 5, 6):
                for a in (0, 1, 2, 3):
                    if not (d >= 5 or (d == 4 and a > 0)):
                        continue
                    spec = CurveSpec(n, d, max_genus(n, d) - a)
                    assert expected_betti(spec) == ek_betti(expected_gin(spec))

    def test_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            expected_betti(CurveSpec(3, 4, max_genus(3, 4)))


class TestExpectedAnnihilator:
    def test_with_defect(self):
        spec = CurveSpec(3, 4, 0)
        assert expected_annihilator_degrees(spec) == [1, 1, 1, 3]

    def test_zero_module(self):
        assert expected_annihilator_degrees(CurveSpec(3, 5, 3)) is None

    def test_maximal_genus_p4(self):
        spec = CurveSpec(4, 4, 0)
        # a = 0, n = 4: three linear forms plus two of degree n-3 = 1
        assert expected_annihilator_degrees(spec) == [1, 1, 1, 1, 1]


def staircase(n, d, a):
    """Minimal exponent pairs (p, q), for x0^p x1^q, of the ideal J of ex45's
    Rao module K[x0,x1]/J (shifted by a + n - 4): x1^(d+a+n-5) and the
    x0^(a+t) x1^(n-3-t) for t = 0..n-3."""
    gens = {(0, d + a + n - 5)} | {(a + t, n - 3 - t) for t in range(n - 2)}
    return sorted(g for g in gens if not any(h != g and h[0] <= g[0] and h[1] <= g[1] for h in gens))


class TestRaoAgainstTheConstruction:
    # the paper's closed forms against ex45's Rao module, a staircase count
    # in two variables, with no verdict: n = 3..8, d = 3..20, a = 0..6 outside
    # the excluded corner, far past what a verdict reaches
    GRID = [(n, d, a) for n in range(3, 9) for d in range(3, 21) for a in range(7)]

    def specs(self):
        out = [CurveSpec(n, d, max_genus(n, d) - a) for n, d, a in self.GRID]
        return [spec for spec in out if not rao_structure_excluded(spec)]

    def test_the_grid_is_726_points(self):
        assert len(self.specs()) == 726

    def test_expected_rao_hf_is_the_staircase_count(self):
        for spec in self.specs():
            n, d, a = spec.n, spec.d, spec.a
            gens = staircase(n, d, a)
            for j in range(-a - n, d + a + n):
                k = j + a + n - 4
                count = sum(1 for p in range(k + 1) if not any(p >= x and k - p >= y for x, y in gens))
                assert expected_rao_hf(spec, j) == count, (n, d, a, j)

    def test_annihilator_degrees_are_those_of_the_staircase(self):
        # the annihilator of the cyclic module is J + (x2, ..., xn); None
        # where J is the unit ideal and the module is zero
        for spec in self.specs():
            n, d, a = spec.n, spec.d, spec.a
            gens = staircase(n, d, a)
            want = None if (0, 0) in gens else sorted([1] * (n - 1) + [x + y for x, y in gens])
            assert expected_annihilator_degrees(spec) == want, (n, d, a)
