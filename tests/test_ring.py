import random
from fractions import Fraction

import pytest

from extremalcurves.ring import (
    QQ,
    PolyRing,
    Polynomial,
    PrimeField,
    mono_mul,
    revlex_key,
)
from reference import coefficient, compare_revlex, mono_shift

R4 = PolyRing(4)  # K[x0..x3], ambient P^3


def mono(*e):
    return tuple(e)


class TestRevlex:
    def test_square_beats_mixed(self):
        # difference (1,-1,0,...), last nonzero negative
        assert compare_revlex(mono(2, 0, 0, 0), mono(1, 1, 0, 0)) == 1

    def test_variable_order(self):
        assert compare_revlex(mono(1, 0, 0, 0), mono(0, 1, 0, 0)) == 1

    def test_degree_refinement(self):
        assert compare_revlex(mono(2, 0, 0, 0), mono(1, 0, 0, 0)) == 1

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            compare_revlex((1, 0), (1, 0, 0))

    def test_order_properties_random(self):
        rng = random.Random(7)
        monos = [
            tuple(rng.randrange(4) for _ in range(4)) for _ in range(120)
        ]
        for _ in range(400):
            a, b, c = rng.choice(monos), rng.choice(monos), rng.choice(monos)
            # antisymmetry
            assert compare_revlex(a, b) == -compare_revlex(b, a)
            # transitivity
            if compare_revlex(a, b) >= 0 and compare_revlex(b, c) >= 0:
                assert compare_revlex(a, c) >= 0
            # multiplicativity
            if compare_revlex(a, b) == 1:
                assert compare_revlex(mono_mul(c, a), mono_mul(c, b)) == 1

    def test_key_agrees_with_compare(self):
        rng = random.Random(11)
        for _ in range(300):
            a = tuple(rng.randrange(4) for _ in range(4))
            b = tuple(rng.randrange(4) for _ in range(4))
            cmp = compare_revlex(a, b)
            keys = (revlex_key(a) > revlex_key(b)) - (revlex_key(a) < revlex_key(b))
            assert cmp == keys


def P(ring, *terms):
    return Polynomial(ring, terms)


class TestPolynomial:
    def test_product_difference_of_squares(self):
        x0, x1 = R4.gen(0), R4.gen(1)
        assert (x0 + x1) * (x0 - x1) == x0 * x0 - x1 * x1

    def test_multiplicative_identity(self):
        f = P(R4, (mono(1, 0, 3, 0), 1), (mono(0, 3, 0, 1), -1))
        assert f * R4.one == f

    def test_monomial_shift(self):
        f = P(R4, (mono(1, 0, 3, 0), 1), (mono(0, 3, 0, 1), -1))
        x2 = R4.gen(2)
        assert f * x2 == P(R4, (mono(1, 0, 4, 0), 1), (mono(0, 3, 1, 1), -1))

    def test_ring_mismatch(self):
        other = PolyRing(5)
        with pytest.raises(ValueError):
            R4.gen(0) * other.gen(0)

    def test_terms_canonical(self):
        f = P(R4, (mono(0, 1, 0, 0), 1), (mono(1, 0, 0, 0), 2), (mono(0, 1, 0, 0), -1))
        assert f.terms == ((mono(1, 0, 0, 0), Fraction(2)),)

    def test_ring_axioms_random_both_fields(self):
        for field in (QQ, PrimeField(32003)):
            ring = PolyRing(3, field)
            rng = random.Random(3)

            def rand_poly(deg):
                terms = [
                    (m, rng.randrange(-4, 5))
                    for m in ring.monomials_of_degree(deg)
                    if rng.random() < 0.6
                ]
                return Polynomial(ring, terms)

            for _ in range(25):
                f, g, h = rand_poly(2), rand_poly(2), rand_poly(3)
                assert (f * g) * h == f * (g * h)
                assert f * (g + h * ring.gen(0) * 0 + g) == f * g + f * g
                assert (f + g) * h == f * h + g * h

    def test_substitute_linear_permutation(self):
        x0, x1 = R4.gen(0), R4.gen(1)
        swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        f = x0 * x0 - x1 * R4.gen(2)
        assert f.substitute_linear(swap) == x1 * x1 - x0 * R4.gen(2)

    def test_homogeneity(self):
        f = P(R4, (mono(2, 0, 0, 0), 1), (mono(0, 1, 1, 0), 3))
        assert f.is_homogeneous()
        g = P(R4, (mono(2, 0, 0, 0), 1), (mono(0, 1, 0, 0), 3))
        assert not g.is_homogeneous()

    def test_prime_field_reduction(self):
        ring = PolyRing(2, PrimeField(7))
        f = Polynomial(ring, [((1, 0), 8), ((0, 1), 7)])
        assert f.terms == (((1, 0), 1),)

    def test_power(self):
        x0, x1 = R4.gen(0), R4.gen(1)
        cube = (x0 + x1) ** 3
        assert coefficient(cube, mono(2, 1, 0, 0)) == 3
        assert coefficient(cube, mono(3, 0, 0, 0)) == 1


def _in_field(field, c):
    """Whether c is a coefficient as the field keeps it: a nonzero Fraction
    over QQ, a nonzero int in [0, p) over GF(p)."""
    if field == QQ:
        return type(c) is Fraction and c != 0
    return type(c) is int and 0 < c < field.p


class TestCoefficients:
    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
    def test_every_operation_keeps_field_coefficients(self, field):
        ring = PolyRing(3, field)
        x0, x1, x2 = ring.gens()
        f = 3 * x0 - x1 * 5 + x2
        g = x0 * x1 - 2 * x2 * x2
        results = {
            "add": f + x1,
            "sub": f - 4 * x0,
            "neg": -f,
            "mul": f * g,
            "scale": f.scale(Fraction(2, 3)),
            "mono_shift": mono_shift(f, (1, 0, 2), -4),
            "pow": f**3,
        }
        for name, h in results.items():
            assert h, name
            assert all(_in_field(field, c) for _, c in h.terms), (name, h.terms)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
    def test_a_cancelling_product_drops_its_zero_terms(self, field):
        ring = PolyRing(3, field)
        x0, x1, _ = ring.gens()
        square = (x0 + x1) * (x0 - x1)
        assert [m for m, _ in square.terms] == [(2, 0, 0), (0, 2, 0)]
        if field != QQ:
            assert (x0 * (7 * x1)).terms == ()
            assert ((x0 + x1) * (x0 + 6 * x1)).terms == (((2, 0, 0), 1), ((0, 2, 0), 6))

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
    def test_scale_by_zero_is_zero(self, field):
        ring = PolyRing(3, field)
        f = ring.gen(0) - 2 * ring.gen(2)
        assert f.scale(0) == ring.zero and f.scale(0).terms == ()
        assert 0 * f == ring.zero
        assert mono_shift(f, (1, 1, 0), 0) == ring.zero

    def test_fractions_reduce_mod_p(self):
        ring = PolyRing(2, PrimeField(7))
        assert Polynomial(ring, [((1, 0), Fraction(1, 2))]).terms == (((1, 0), 4),)
        assert Polynomial(ring, [((1, 0), Fraction(-3, 5))]).terms == (((1, 0), 5),)
        assert ring.gen(0).scale(Fraction(1, 3)).terms == (((1, 0), 5),)
        with pytest.raises(ZeroDivisionError):
            Polynomial(ring, [((1, 0), Fraction(1, 14))])
        with pytest.raises(ZeroDivisionError):
            ring.gen(0).scale(Fraction(2, 7))

    def test_fields_are_immutable_and_cannot_be_deleted(self):
        f = R4.gen(0)
        with pytest.raises(AttributeError):
            f.terms = ()
        with pytest.raises(AttributeError):
            del f.terms
        with pytest.raises(AttributeError):
            del f.ring
        assert f.terms == ((mono(1, 0, 0, 0), 1),) and bool(f)


# psi_12 = 399165290221 * 798330580441 and psi_13 are strong pseudoprimes to
# every prime base 2..37, so Miller-Rabin on those bases passes them
PSEUDOPRIMES = [318665857834031151167461, 3317044064679887385961981]


class TestPrimeField:
    @pytest.mark.parametrize("p", PSEUDOPRIMES, ids=["psi12", "psi13"])
    def test_composites_past_the_proven_bound_are_refused(self, p):
        with pytest.raises(ValueError, match="proven only below psi_12 = 318665857834031151167461"):
            PrimeField(p)

    def test_a_large_prime_below_the_bound_builds(self):
        field = PrimeField(2**61 - 1)
        assert field.p == 2**61 - 1 and field.coerce(-1) == 2**61 - 2


class TestMonomialEnumeration:
    def test_count_and_order(self):
        ms = R4.monomials_of_degree(3)
        assert len(ms) == R4.dim_degree(3) == 20
        for a, b in zip(ms, ms[1:]):
            assert compare_revlex(a, b) == 1

    def test_degree_zero(self):
        assert R4.monomials_of_degree(0) == [(0, 0, 0, 0)]
