"""Cross-module invariants: the dual-route checks that tie the Gröbner
pipeline, the linear-algebra oracle, and the closed-form layer together."""

import random

from extremalcurves.cohomology import CurveAnalysis
from extremalcurves.construct import ConstructionInput, construct_curve
from extremalcurves.groebner import buchberger
from extremalcurves.ideals import Ideal, saturate
from extremalcurves.modules import free_resolution_from_gb
from extremalcurves.oracle import oracle_ideal_dims, oracle_quotient_dims
from extremalcurves.ring import PolyRing, Polynomial
from reference import alternating_numerator, ideal_dim, verify_resolution


def two_variable_quotient_dims(forms, jmax):
    """Hilbert function of S/(forms) for binary forms, by pure linear
    algebra in two variables."""
    ring = PolyRing(2)
    converted = []
    for f in forms:
        if not f:
            continue
        converted.append(Polynomial(ring, [((m[0], m[1]), c) for m, c in f.terms]))
    if not converted:
        return [j + 1 for j in range(jmax + 1)]
    return oracle_quotient_dims(converted, jmax, ring)


class TestRaoModuleAgainstTwoVariableData:
    def test_constructed_curve_rao_is_the_two_variable_module(self):
        # the deficiency module computed by duality must equal the
        # two-variable quotient, shifted by a + n - 4
        R = PolyRing(5)
        x0, x1 = R.gen(0), R.gen(1)
        n, d, a = 4, 4, 1
        inp = ConstructionInput(
            n=n, d=d, a=a,
            f_list=(x0 * x0, x0 * x1 + x1 * x1),
            f=x1 ** 4,
        )
        I = construct_curve(inp)
        m = CurveAnalysis(I).rao
        shift = a + n - 4
        dims = two_variable_quotient_dims(list(inp.f_list) + [inp.f], 12)
        for j in range(-4, 9):
            e = j + shift
            expected = dims[e] if 0 <= e <= 12 else 0
            assert m.dims.get(j, 0) == expected

    def test_witness_rao_with_zero_gluing_form(self):
        from extremalcurves.construct import non_extremal_witness

        w = non_extremal_witness(4, 2, 4)
        m = CurveAnalysis(w.ideal).rao
        shift = w.input.a + w.input.n - 4
        dims = two_variable_quotient_dims(list(w.input.f_list), 14)
        for j in range(-5, 10):
            e = j + shift
            expected = dims[e] if 0 <= e <= 14 else 0
            assert m.dims.get(j, 0) == expected


class TestConstructionOutputs:
    def test_saturated_fixed_point_sample(self):
        rng = random.Random(2024)
        from extremalcurves.construct import random_construction_input

        for (n, d, a) in [(3, 4, 1), (4, 3, 2)]:
            inp = random_construction_input(n, d, a, rng)
            I = construct_curve(inp)
            assert saturate(I) == I

    def test_resolution_series_identity_random(self):
        # alternating sum of twisted Hilbert numerators reproduces the
        # quotient's numerator
        rng = random.Random(77)
        for _ in range(6):
            ring = PolyRing(rng.randrange(3, 5))
            polys = []
            for _ in range(rng.randrange(2, 4)):
                deg = rng.randrange(1, 3)
                terms = [
                    (m, rng.randrange(-2, 3))
                    for m in ring.monomials_of_degree(deg)
                    if rng.random() < 0.5
                ]
                p = Polynomial(ring, terms)
                if p:
                    polys.append(p)
            if not polys:
                continue
            gb = buchberger(polys, ring)
            res = free_resolution_from_gb(gb)
            verify_resolution(res, gb)
            assert (
                alternating_numerator(res.betti_table())
                == gb.initial_ideal().hilbert_numerator()
            )

    def test_oracle_and_groebner_dims_on_random_ideals(self):
        rng = random.Random(13)
        for _ in range(6):
            ring = PolyRing(3)
            polys = []
            for _ in range(2):
                deg = rng.randrange(1, 4)
                terms = [
                    (m, rng.randrange(-3, 4))
                    for m in ring.monomials_of_degree(deg)
                    if rng.random() < 0.6
                ]
                p = Polynomial(ring, terms)
                if p:
                    polys.append(p)
            if not polys:
                continue
            lead = buchberger(polys, ring).initial_ideal()
            dims = oracle_ideal_dims(polys, 8, ring)
            assert dims == [ideal_dim(lead, j) for j in range(9)]
