import random

from extremalcurves.construct import extremal_curve_ideal
from extremalcurves.formulas import max_genus
from extremalcurves.groebner import buchberger
from extremalcurves.modules import (
    PresentedModule,
    free_resolution_from_gb,
    packed_vector,
)
from extremalcurves.packing import layout
from extremalcurves.monomials import BettiTable, MonomialIdeal, ek_betti
from extremalcurves.ring import PolyRing, Polynomial, PrimeField
from reference import alternating_numerator, basis_polys, is_artinian, mats, module_kernel, monomial, reduce, verify_resolution

R3 = PolyRing(3)
R4 = PolyRing(4)


def presented(ring, gen_degrees, relations):
    """PresentedModule of relations given as lists of Polynomials."""
    return PresentedModule(ring, gen_degrees, [packed_vector(ring, r) for r in relations])


def first_syzygies(gb):
    """Level 1 of the minimal resolution: the minimal generators and one
    vector over them per minimal first syzygy."""
    res = free_resolution_from_gb(gb)
    maps = mats(res)
    gens = [col[0] for col in maps[0]]
    return gens, (maps[1] if len(maps) > 1 else [])


class TestSyzygies:
    def test_koszul_relation(self):
        x0, x1, _ = R3.gens()
        gb = buchberger([x0, x1])
        gens, syz = first_syzygies(gb)
        assert gens == list(basis_polys(gb))
        assert len(syz) == 1
        assert tuple(syz[0]) in ((x1, -x0), (-x1, x0))
        # check it's a real syzygy
        assert sum((v * g for v, g in zip(syz[0], gens)), R3.zero) == R3.zero

    def test_stable_ideal_first_syzygies(self):
        x0, x1, _ = R3.gens()
        gb = buchberger([x0 * x0, x0 * x1, x1 ** 3])
        res = free_resolution_from_gb(gb)
        assert sorted(res.twists[2]) == [3, 4]

    def test_single_element_no_syzygies(self):
        x0 = R3.gen(0)
        gb = buchberger([x0 * x0])
        assert first_syzygies(gb) == ([x0 * x0], [])

    def test_syzygies_multiply_to_zero_random(self):
        rng = random.Random(31)
        for _ in range(8):
            ring = PolyRing(3)
            polys = []
            for _ in range(3):
                terms = [
                    (m, rng.randrange(-2, 3))
                    for m in ring.monomials_of_degree(rng.randrange(1, 3))
                    if rng.random() < 0.5
                ]
                p = Polynomial(ring, terms)
                if p:
                    polys.append(p)
            if len(polys) < 2:
                continue
            gb = buchberger(polys, ring)
            gens, syz = first_syzygies(gb)
            for v in syz:
                total = ring.zero
                for c, g in zip(v, gens):
                    total = total + c * g
                assert not total


class TestResolution:
    def test_koszul_shape(self):
        x0, x1, _ = R3.gens()
        gb = buchberger([x0, x1])
        res = free_resolution_from_gb(gb)
        assert [len(t) for t in res.twists] == [1, 2, 1]
        assert res.twists[1] == (1, 1)
        assert res.twists[2] == (2,)
        verify_resolution(res, gb)

    def test_gin_of_quartic_curve(self):
        # stable monomial ideal (x0^2, x0*x1, x1^4, x1^3*x2) in P^3:
        # 0 -> R(-6) -> R(-3)+R^3(-5) -> R^2(-2)+R^2(-4) -> I -> 0
        x0, x1, x2, x3 = R4.gens()
        gb = buchberger([x0 * x0, x0 * x1, x1 ** 4, x1 ** 3 * x2])
        res = free_resolution_from_gb(gb)
        verify_resolution(res, gb)
        table = res.betti_table()
        expected = BettiTable(
            {(0, 2): 2, (0, 4): 2, (1, 3): 1, (1, 5): 3, (2, 6): 1}
        )
        assert table == expected
        assert table == ek_betti(MonomialIdeal(4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)]))

    def test_resolution_matches_ek_random_stable(self):
        rng = random.Random(41)
        done = 0
        while done < 6:
            nv = rng.randrange(3, 5)
            seeds = [
                tuple(rng.randrange(3) for _ in range(nv))
                for _ in range(rng.randrange(1, 3))
            ]
            seeds = [s for s in seeds if 0 < sum(s) <= 4]
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
            ring = PolyRing(nv)
            ideal = MonomialIdeal(nv, closure)
            gens = [monomial(ring, m) for m in ideal.gens]
            gb = buchberger(gens, ring)
            res = free_resolution_from_gb(gb)
            verify_resolution(res, gb)
            assert res.betti_table() == ek_betti(ideal)
            done += 1

    def test_alternating_sum_matches_hilbert_numerator(self):
        x0, x1, x2 = R3.gens()
        gens = [x0 * x0 - x1 * x2, x0 * x1]
        gb = buchberger(gens)
        res = free_resolution_from_gb(gb)
        numerator = gb.initial_ideal().hilbert_numerator()
        assert alternating_numerator(res.betti_table()) == numerator

    def test_betti_tables_over_a_prime_field(self):
        # the ex45 curves in P^3 up to degree 5: Z/32003 gives the QQ table
        fp = PolyRing(4, PrimeField(32003))
        for d in range(2, 6):
            for a in range(1 if d == 2 else 0, 4):
                ideal = extremal_curve_ideal(3, d, max_genus(3, d) - a)
                over_q = free_resolution_from_gb(ideal.groebner())
                gens = [Polynomial(fp, g.terms) for g in ideal.gens]
                gb_p = buchberger(gens, fp)
                over_p = free_resolution_from_gb(gb_p)
                verify_resolution(over_p, gb_p)
                assert over_p.betti_table() == over_q.betti_table(), (d, a)

    def test_regularity(self):
        x0, x1, _ = R3.gens()
        res = free_resolution_from_gb(buchberger([x0, x1]))
        assert res.regularity() == 1


class TestKernel:
    def test_koszul_kernel(self):
        x0, x1, _ = R3.gens()
        cols = [[x0], [x1]]  # map R^2 -> R
        ker = module_kernel(cols, [0], R3)
        assert len(ker) == 1
        a, b = ker[0]
        assert a * x0 + b * x1 == R3.zero

    def test_kernel_into_quotient(self):
        # kernel of R^2 -> R/(x2), e_1 -> x0, e_2 -> x1: stack the modulus
        x0, x1, x2 = R3.gens()
        ker = module_kernel([[x0], [x1], [x2]], [0], R3)
        projected = [(v[0], v[1]) for v in ker]
        # x1*e_1 - x0*e_2 must appear among projections up to sign
        found = any(
            (a == x1 and b == -x0) or (a == -x1 and b == x0) for a, b in projected
        )
        assert found

    def test_zero_map_full_source(self):
        z = R3.zero
        ker = module_kernel([[z], [z]], [0], R3)
        vecs = {tuple(str(p) for p in v) for v in ker}
        assert ("1", "0") in vecs and ("0", "1") in vecs


class TestPresentedModule:
    def test_quotient_ring_hf(self):
        # R/(x0, x1^2) in 3 variables: dims 1, 2, 2, 2, ...
        x0, x1, _ = R3.gens()
        pm = presented(R3, [0], [[x0], [x1 * x1]])
        assert [pm.hf(j) for j in range(4)] == [1, 2, 2, 2]
        assert not pm.is_finite_length()

    def test_finite_length_and_mult(self):
        x0, x1, x2 = R3.gens()
        pm = presented(R3, [0], [[x0], [x1 * x1], [x2]])
        assert pm.is_finite_length()
        assert [pm.hf(j) for j in range(3)] == [1, 1, 0]
        m = pm.mult_matrix(1, 0)  # x1: degree 0 -> degree 1
        assert m == [{0: 1}]
        assert pm.mult_matrix(0, 0) == [{}]

    def test_zero_module_has_finite_length(self):
        pm = presented(R3, [0], [[R3.one]])
        assert [pm.hf(j) for j in range(4)] == [0, 0, 0, 0]
        assert pm.is_finite_length()
        assert is_artinian(MonomialIdeal(3, [(0, 0, 0)]))

    def test_relation_reduction(self):
        x0, x1, _ = R3.gens()
        pm = presented(R3, [0, 1], [[x0, R3.one.scale(-1)]])
        # the relation x0*e0 - e1 rewrites x0*e0 as e1 under POT
        rem = reduce(pm, {0: {layout(3).pack((1, 0, 0)): 1}})
        assert rem == {1: {0: 1}}
        # and the module is free of rank one: hf matches the ring
        assert [pm.hf(j) for j in range(4)] == [1, 3, 6, 10]
