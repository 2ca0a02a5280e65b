import random

import pytest

from extremalcurves.monomials import (
    BettiTable,
    MonomialIdeal,
    ek_betti,
    is_strongly_stable,
)
from reference import hochster_betti_oracle


def I(nvars, *gens):
    return MonomialIdeal(nvars, gens)


class TestHilbertNumerator:
    def test_plane_point_like(self):
        # (x^2, xy, y^3) in 2 variables: quotient dims 1,2,1 -> 1 - 2t^2 + t^4
        ideal = I(2, (2, 0), (1, 1), (0, 3))
        assert ideal.hilbert_numerator() == (1, 0, -2, 0, 1)
        assert ideal.quotient_dims(4) == [1, 2, 1, 0, 0]

    def test_zero_ideal(self):
        assert I(3).hilbert_numerator() == (1,)

    def test_principal(self):
        assert I(3, (1, 0, 0)).hilbert_numerator() == (1, -1)

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


class TestHochsterOracle:
    def test_agrees_with_ek(self):
        ideal = I(3, (2, 0, 0), (1, 1, 0), (0, 4, 0))
        assert hochster_betti_oracle(ideal) == ek_betti(ideal)

    def test_triangle_of_squarefree_quadrics(self):
        table = hochster_betti_oracle(I(3, (1, 1, 0), (0, 1, 1), (1, 0, 1)))
        assert table.get(0, 2) == 3
        assert table.get(1, 3) == 2
        assert table.max_index() == 1

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
            closure = set()
            work = list(seeds)
            while work:
                u = work.pop()
                if u in closure:
                    continue
                closure.add(u)
                for j in range(nv):
                    if u[j]:
                        for i in range(j):
                            v = list(u)
                            v[j] -= 1
                            v[i] += 1
                            work.append(tuple(v))
            ideal = MonomialIdeal(nv, closure)
            assert is_strongly_stable(ideal)
            assert ek_betti(ideal) == hochster_betti_oracle(ideal)
            done += 1

    def test_alternating_sum_gives_numerator(self):
        ideal = I(3, (2, 0, 0), (1, 1, 0), (0, 4, 0), (0, 3, 1))
        table = ek_betti(ideal)
        assert table.alternating_numerator(3) == ideal.hilbert_numerator()


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
        assert a.quotient_dims(6) == [1, 2, 3, 4, 2, 1, 0]


def test_betti_table_helpers():
    t = BettiTable({(0, 2): 2, (1, 3): 1})
    assert t.generator_degrees() == [2, 2]
    assert t.regularity() == 2
    assert t.get(5, 5) == 0
    assert bool(t)
