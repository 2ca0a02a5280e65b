import random

import pytest

from extremalcurves.monomials import (
    BettiTable,
    MonomialIdeal,
    _numerator,
    _trim,
    ek_betti,
    ek_numerator,
    is_strongly_stable,
)
from reference import alternating_numerator, borel_closure, hochster_betti_oracle, max_index, quotient_dims


def I(nvars, *gens):
    return MonomialIdeal(nvars, gens)


class TestHilbertNumerator:
    def test_plane_point_like(self):
        # (x^2, xy, y^3) in 2 variables: quotient dims 1,2,1 -> 1 - 2t^2 + t^4
        ideal = I(2, (2, 0), (1, 1), (0, 3))
        assert ideal.hilbert_numerator() == (1, 0, -2, 0, 1)
        assert quotient_dims(ideal, 4) == [1, 2, 1, 0, 0]

    def test_zero_ideal(self):
        assert I(3).hilbert_numerator() == (1,)

    def test_principal(self):
        assert I(3, (1, 0, 0)).hilbert_numerator() == (1, -1)

    def test_unit_ideal(self):
        ideal = I(3, (0, 0, 0), (1, 2, 0))
        assert ideal.gens == ((0, 0, 0),)
        assert ideal.hilbert_numerator() == ()
        assert quotient_dims(ideal, 3) == [ideal.quotient_dim(j) for j in range(4)] == [0, 0, 0, 0]

    def test_duplicated_and_non_minimal_generators(self):
        ideal = I(3, (1, 1, 0), (1, 1, 0), (2, 1, 0), (1, 1, 3), (0, 2, 0))
        assert ideal.gens == I(3, (1, 1, 0), (0, 2, 0)).gens
        # (xy, y^2) = y (x, y): 1 - 2t^2 + t^3
        assert ideal.hilbert_numerator() == (1, 0, -2, 1)
        assert tuple(_trim(_numerator(((1, 1, 0), (1, 1, 0), (2, 1, 0), (0, 2, 0))))) == (1, 0, -2, 1)

    def test_one_variable(self):
        assert I(1, (3,)).hilbert_numerator() == (1, 0, 0, -1)
        assert quotient_dims(I(1, (3,)), 4) == [1, 1, 1, 0, 0]

    def test_pure_powers(self):
        # a regular sequence: (1 - t^2)(1 - t^3)(1 - t)
        ideal = I(3, (2, 0, 0), (0, 3, 0), (0, 0, 1))
        assert ideal.hilbert_numerator() == (1, -1, -1, 0, 1, 1, -1)
        assert quotient_dims(ideal, 4) == [1, 2, 2, 1, 0]

    def test_quotient_dims_compute_the_numerator_once(self, monkeypatch):
        # the tracer wraps hilbert_numerator the same way: its count is the
        # computations plus the reads from outside the class
        calls = []
        compute = MonomialIdeal.hilbert_numerator

        def counting(self):
            calls.append(self._numerator)
            return compute(self)

        monkeypatch.setattr(MonomialIdeal, "hilbert_numerator", counting)
        for ideal in (I(3, (2, 0, 0), (1, 1, 0)), I(3, (0, 0, 0))):
            calls.clear()
            for j in range(-1, 12):
                ideal.quotient_dim(j)
            assert calls == [None]

    def test_matches_direct_count_random(self):
        rng = random.Random(5)
        for _ in range(30):
            nv = rng.randrange(2, 5)
            gens = [
                tuple(rng.randrange(4) for _ in range(nv)) for _ in range(rng.randrange(1, 5))
            ]
            gens = [g for g in gens if sum(g)]
            if not gens:
                continue
            ideal = I(nv, *gens)
            from itertools import product

            for j in range(7):
                direct = 0
                for m in product(range(j + 1), repeat=nv):
                    if sum(m) == j and not ideal.contains(m):
                        direct += 1
                assert ideal.quotient_dim(j) == direct


class TestStrongStability:
    def test_stable_example(self):
        assert is_strongly_stable(I(3, (2, 0, 0), (1, 1, 0), (0, 4, 0), (0, 3, 1)))

    def test_not_stable(self):
        assert not is_strongly_stable(I(3, (0, 2, 0)))

    def test_minimality(self):
        ideal = I(2, (2, 0), (2, 1))
        assert ideal.gens == ((2, 0),)


class TestEliahouKervaire:
    def test_three_generators(self):
        table = ek_betti(I(3, (2, 0, 0), (1, 1, 0), (0, 4, 0)))
        assert table.get(0, 2) == 2
        assert table.get(0, 4) == 1
        assert table.get(1, 3) == 1
        assert table.get(1, 5) == 1
        assert table.get(2, 6) == 0

    def test_with_last_variable(self):
        table = ek_betti(I(3, (2, 0, 0), (1, 1, 0), (0, 4, 0), (0, 3, 1)))
        assert table.get(0, 4) == 2  # x1^4 and x1^3*x2
        assert table.get(1, 5) == 1 + 2
        assert table.get(2, 6) == 1

    def test_single_variable(self):
        table = ek_betti(I(2, (1, 0)))
        assert table.items() == [((0, 1), 1)]

    def test_requires_stability(self):
        with pytest.raises(ValueError):
            ek_betti(I(2, (0, 2)))

    def test_numerator_of_a_stable_ideal(self):
        # 1 - (t^2 + t^2(1-t) + t^4(1-t) + t^4(1-t)^2), the pivot recursion's value
        ideal = I(3, (2, 0, 0), (1, 1, 0), (0, 4, 0), (0, 3, 1))
        assert ek_numerator(ideal) == ideal.hilbert_numerator() == (1, 0, -2, 1, -2, 3, -1)
        assert ek_numerator(I(3)) == I(3).hilbert_numerator() == (1,)
        assert ek_numerator(I(3, (0, 0, 0))) == I(3, (0, 0, 0)).hilbert_numerator() == ()

    def test_numerator_needs_stability(self):
        # negative control: (x1) in k[x0, x1] is not stable, and the formula
        # counts x1 * k[x1] where the ideal holds x1 * k[x0, x1]; this is
        # why the gin's certificate tests stability before it reads the
        # numerator
        ideal = I(2, (0, 1))
        assert not is_strongly_stable(ideal)
        assert ideal.hilbert_numerator() == (1, -1)
        assert ek_numerator(ideal) == (1, -1, 1)


class TestHochsterOracle:
    def test_agrees_with_ek(self):
        ideal = I(3, (2, 0, 0), (1, 1, 0), (0, 4, 0))
        assert hochster_betti_oracle(ideal) == ek_betti(ideal)

    def test_triangle_of_squarefree_quadrics(self):
        table = hochster_betti_oracle(I(3, (1, 1, 0), (0, 1, 1), (1, 0, 1)))
        assert table.get(0, 2) == 3
        assert table.get(1, 3) == 2
        assert max_index(table) == 1

    def test_principal(self):
        table = hochster_betti_oracle(I(3, (1, 2, 0)))
        assert table.items() == [((0, 3), 1)]

    def test_random_stable_agreement(self):
        rng = random.Random(17)
        done = 0
        while done < 30:
            nv = rng.randrange(2, 5)
            seeds = [
                tuple(rng.randrange(4) for _ in range(nv))
                for _ in range(rng.randrange(1, 4))
            ]
            seeds = [s for s in seeds if 0 < sum(s) <= 6]
            if not seeds:
                continue
            ideal = borel_closure(nv, seeds)
            assert is_strongly_stable(ideal)
            assert ek_betti(ideal) == hochster_betti_oracle(ideal)
            done += 1

    def test_alternating_sum_gives_numerator(self):
        ideal = I(3, (2, 0, 0), (1, 1, 0), (0, 4, 0), (0, 3, 1))
        table = ek_betti(ideal)
        assert alternating_numerator(table) == ideal.hilbert_numerator()


class TestHilbertAmbiguityPair:
    def test_same_hf_different_betti(self):
        # two-variable ideals with a = 2, b = 5, ambient chain n = 5:
        # x^2*(x,y)^2 + (y^5) versus x^2*(x,y)^2 + (x*y^4, y^6)
        a = I(2, (4, 0), (3, 1), (2, 2), (0, 5))
        b = I(2, (4, 0), (3, 1), (2, 2), (1, 4), (0, 6))
        assert a != b
        assert a.hilbert_numerator() == b.hilbert_numerator()
        assert hochster_betti_oracle(a) != hochster_betti_oracle(b)

    def test_pair_hilbert_values(self):
        a = I(2, (4, 0), (3, 1), (2, 2), (0, 5))
        assert quotient_dims(a, 6) == [1, 2, 3, 4, 2, 1, 0]


def test_betti_table_helpers():
    t = BettiTable({(0, 2): 2, (1, 3): 1})
    assert t.generator_degrees() == [2, 2]
    assert t.regularity() == 2
    assert t.get(5, 5) == 0
    assert bool(t)
