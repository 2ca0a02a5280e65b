import random

import pytest

from extremalcurves.construct import (
    ConstructionInput,
    DegenerateInputError,
    InfiniteCokernelError,
    construct_curve,
    cubic_alternate_curve_ideal,
    extremal_curve_ideal,
    non_extremal_witness,
    random_construction_input,
)
from extremalcurves.ideals import Ideal, is_saturated
from extremalcurves.oracle import oracle_ideal_dims
from extremalcurves.ring import PolyRing, PrimeField
from reference import binary_gcd, change_coordinates


class TestBinaryGcd:
    def test_coprime(self):
        R = PolyRing(4)
        x0, x1 = R.gen(0), R.gen(1)
        assert binary_gcd([x0 ** 3, x1 ** 2]).degree() == 0

    def test_common_factor(self):
        R = PolyRing(4)
        x0, x1 = R.gen(0), R.gen(1)
        g = binary_gcd([x0 * (x0 + x1), x0 * x1])
        assert g == x0

    def test_x1_factor(self):
        R = PolyRing(4)
        x0, x1 = R.gen(0), R.gen(1)
        g = binary_gcd([x1 * x1 * x0, x1 * (x0 + x1) * (x0 + x1)])
        assert g == x1

    def test_factor_common_only_mod_p(self):
        # x0^2 + 3*x1^2 = (x0 + 2*x1)(x0 + 5*x1) over Z/7, irreducible over QQ
        R = PolyRing(4, PrimeField(7))
        x0, x1 = R.gen(0), R.gen(1)
        assert binary_gcd([x0 + 2 * x1, x0 * x0 + 3 * x1 * x1]) == x0 + 2 * x1
        inp = ConstructionInput(3, 3, 1, (x0 + 2 * x1,), x0 * x0 + 3 * x1 * x1)
        with pytest.raises(InfiniteCokernelError):
            inp.validate()


class TestConstructCurve:
    def test_matches_catalog_quartic(self):
        # n=3, d=4, a=1 with forms x0 and x1^3 reproduces the explicit
        # catalog ideal up to sign: compare graded pieces through degree 8
        R = PolyRing(4)
        x0, x1 = R.gen(0), R.gen(1)
        inp = ConstructionInput(n=3, d=4, a=1, f_list=(x0,), f=x1 ** 3)
        built = construct_curve(inp)
        catalog = extremal_curve_ideal(3, 4, 0)
        built_dims = oracle_ideal_dims(list(built.gens), 8, R)
        catalog_dims = oracle_ideal_dims(list(catalog.gens), 8, R)
        assert built_dims == catalog_dims
        # the mixed generator may flip sign; x1 -> -x1 identifies the ideals
        flip = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert change_coordinates(built, flip) == Ideal(R, list(catalog.gens))

    def test_degenerate_rejected(self):
        R = PolyRing(5)
        x0 = R.gen(0)
        with pytest.raises(DegenerateInputError):
            ConstructionInput(n=4, d=4, a=0, f_list=(x0, x0), f=R.zero).validate()

    def test_forms_dependent_mod_p_rejected(self):
        # 3 * (x0^2 + 3*x1^2) = 3*x0^2 + 2*x1^2 mod 7: independent over QQ only
        R = PolyRing(5, PrimeField(7))
        x0, x1 = R.gen(0), R.gen(1)
        inp = ConstructionInput(n=4, d=4, a=1, f_list=(x0**2 + 3 * x1**2, 3 * x0**2 + 2 * x1**2), f=R.zero)
        with pytest.raises(DegenerateInputError):
            inp.validate()
        with pytest.raises(DegenerateInputError):
            construct_curve(inp)

    def test_common_factor_rejected(self):
        R = PolyRing(5)
        x0, x1 = R.gen(0), R.gen(1)
        with pytest.raises(InfiniteCokernelError):
            ConstructionInput(
                n=4, d=4, a=1, f_list=(x0 * x0, x0 * x1), f=x0 ** 4
            ).validate()

    def test_wrong_degree_rejected(self):
        R = PolyRing(4)
        x0 = R.gen(0)
        with pytest.raises(Exception):
            ConstructionInput(n=3, d=4, a=1, f_list=(x0 * x0,), f=R.zero).validate()

    def test_output_saturated_and_nondegenerate(self):
        R = PolyRing(5)
        x0, x1 = R.gen(0), R.gen(1)
        inp = ConstructionInput(
            n=4, d=3, a=0, f_list=(x0, x1), f=x1 ** 2
        )
        I = construct_curve(inp)
        assert is_saturated(I)
        assert I.dim_piece(1) == 0  # no linear forms

    def test_random_inputs_validate(self):
        rng = random.Random(99)
        for _ in range(5):
            inp = random_construction_input(4, 4, 1, rng)
            inp.validate()
            I = construct_curve(inp)
            assert I.dim_piece(1) == 0


class TestCatalogs:
    def test_space_quartic_generators(self):
        R = PolyRing(4)
        x0, x1, x2, x3 = R.gens()
        I = extremal_curve_ideal(3, 4, 0)
        displayed = Ideal(
            R,
            [x2 ** 4, x2 ** 3 * x3, x2 * x3, x3 ** 2, x0 * x2 ** 3 + x1 ** 3 * x3],
        )
        assert I == displayed
        # x2^3*x3 is redundant (divisible by x2*x3); the rest are minimal
        got = {str(g) for g in I.gens}
        assert got == {"x2^4", "x2*x3", "x3^2", "x0*x2^3 + x1^3*x3"}

    def test_degree_two_family(self):
        I = extremal_curve_ideal(3, 2, -1)  # genus 3 - n - a with a = 1
        got = {str(g) for g in I.gens}
        assert got == {"x2^2", "x2*x3", "x3^2", "x0*x2 + x1*x3"}

    def test_max_genus_specialization(self):
        # g_max(4, 3) = -1; a = 0 strips the x0 factor from the mixed generator
        I = extremal_curve_ideal(4, 3, -1)
        assert "x2^2 + x1*x3" in {str(g) for g in I.gens}

    def test_quartic_hilbert_value(self):
        R = PolyRing(4)
        I = extremal_curve_ideal(3, 4, 0)
        dims = oracle_ideal_dims(list(I.gens), 4, R)
        assert R.dim_degree(4) - dims[4] == 17  # 4*4 + 1

    def test_inadmissible(self):
        with pytest.raises(ValueError):
            extremal_curve_ideal(3, 4, 2)
        with pytest.raises(ValueError):
            extremal_curve_ideal(3, 2, 0)

    def test_alternate_cubic_shape(self):
        I = cubic_alternate_curve_ideal(5, 2)
        got = {str(g) for g in I.gens}
        assert "x0^3*x3 + x1^3*x4" in got
        assert "x0*x4 + x1*x5" in got
        assert "x2^2" in got

    def test_alternate_needs_n5(self):
        with pytest.raises(ValueError):
            cubic_alternate_curve_ideal(4, 1)


class TestNonExtremalWitness:
    def test_forms_shape(self):
        w = non_extremal_witness(4, 1, 4)
        assert len(w.input.f_list) == 2
        degs = {p.degree() for p in w.input.f_list}
        assert degs == {2}  # a + n - 3 = 2
        assert not w.input.f

    def test_validates(self):
        w = non_extremal_witness(4, 2, 4)
        w.input.validate()
        assert w.ideal.gens
