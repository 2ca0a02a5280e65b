"""The verdict's shortcuts against the computations they replace: the depth
test for saturation, the Hilbert polynomial from the numerator, integer
coordinate changes, and a guard that a verdict needs no ideal quotient."""

import random
from fractions import Fraction

import pytest

from extremalcurves import ideals
from extremalcurves.cohomology import (
    NotACurveError,
    detect_hilbert_polynomial,
    verify_extremal,
)
from extremalcurves.construct import (
    cubic_alternate_curve_ideal,
    extremal_curve_ideal,
    non_extremal_witness,
)
from extremalcurves.formulas import max_genus
from extremalcurves.ideals import Ideal, intersect, is_saturated, quotient
from extremalcurves.ring import PolyRing, Polynomial, PrimeField


def _random_form(ring, degree, rng, density=0.5):
    terms = [
        (m, rng.randint(-3, 3))
        for m in ring.monomials_of_degree(degree)
        if rng.random() < density
    ]
    return Polynomial(ring, terms)


def _random_ideal(ring, rng, count, degree=2):
    gens = []
    while len(gens) < count:
        f = _random_form(ring, degree, rng, density=0.4)
        if f:
            gens.append(f)
    return Ideal(ring, gens)


def _quotient_test(I):
    return quotient(I, Ideal(I.ring, I.ring.gens())) == I


def _saturation_cases():
    rng = random.Random(20261018)
    cases = []
    for nvars, count in ((3, 2), (4, 2), (4, 3), (5, 3)):
        ring = PolyRing(nvars)
        I = _random_ideal(ring, rng, count)
        cases.append((f"random{nvars}v{count}", I))
        if nvars <= 4:
            m3 = Ideal(ring, [ring.monomial(m) for m in ring.monomials_of_degree(3)])
            cases.append((f"random{nvars}v{count}-cap-m3", intersect(I, m3)))
    for nvars in (3, 4):
        ring = PolyRing(nvars)
        powers = [ring.gen(i) ** 2 for i in range(nvars)]
        cases.append((f"m-primary{nvars}", Ideal(ring, powers + [_random_form(ring, 2, rng)])))
    ring = PolyRing(4)
    x0, x1, x2, x3 = ring.gens()
    cases.append(("twisted cubic", Ideal(ring, [x0 * x2 - x1 * x1, x0 * x3 - x1 * x2, x1 * x3 - x2 * x2])))
    cases.append(("embedded point", Ideal(ring, [x0 * x0, x1 * x2, x2 ** 3])))
    return cases


@pytest.mark.parametrize("label,I", _saturation_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_depth_test_equals_quotient_test(label, I):
    assert is_saturated(I) == _quotient_test(I)


def test_depth_test_sees_both_answers():
    verdicts = {is_saturated(I) for _, I in _saturation_cases()}
    assert verdicts == {True, False}


def _catalog_curves():
    out = []
    for n, d, a in ((3, 4, 1), (3, 5, 0), (3, 6, 2), (4, 5, 1), (3, 2, 1)):
        out.append(((n, d, max_genus(n, d) - a), extremal_curve_ideal(n, d, max_genus(n, d) - a)))
    w = non_extremal_witness(4, 1, 4)
    out.append(((4, 4, max_genus(4, 4) - 1), w.ideal))
    out.append(((5, 3, max_genus(5, 3) - 1), cubic_alternate_curve_ideal(5, 1)))
    return out


@pytest.mark.parametrize("spec,I", _catalog_curves(), ids=lambda v: str(v) if isinstance(v, tuple) else "")
def test_numerator_polynomial_equals_sampled_values(spec, I):
    _, d, g = spec
    assert detect_hilbert_polynomial(I) == (d, g)
    start = I.resolution().regularity() + 1
    for j in range(start, start + I.ring.nvars + 1):
        assert I.quotient_dim(j) == d * j + 1 - g


R4 = PolyRing(4)


@pytest.mark.parametrize(
    "gens",
    [
        [R4.gen(1), R4.gen(2), R4.gen(3)],  # a point
        [R4.gen(0) ** 2, R4.gen(1) ** 2, R4.gen(2) ** 2],  # a double point
        [R4.gen(3) ** 2],  # a surface
        [R4.gen(2) * R4.gen(3)],  # two planes
        [],  # all of P^3
        [R4.one],  # the unit ideal
        [R4.gen(i) ** 2 for i in range(4)],  # the empty scheme, m-primary
    ],
)
def test_numerator_rejects_non_curves(gens):
    with pytest.raises(NotACurveError):
        detect_hilbert_polynomial(Ideal(R4, gens))


def _naive_substitute(f, matrix):
    ring = f.ring
    images = [
        Polynomial(ring, [(ring.var_mono(j), matrix[i][j]) for j in range(ring.nvars)])
        for i in range(ring.nvars)
    ]
    out = ring.zero
    for m, c in f.terms:
        term = ring.from_scalar(c)
        for i, e in enumerate(m):
            term = term * images[i] ** e
        out = out + term
    return out


@pytest.mark.parametrize("field", [None, PrimeField(32003), PrimeField(7)], ids=["QQ", "Zp32003", "Zp7"])
def test_substitute_linear_equals_naive_product(field):
    rng = random.Random(7)
    for nvars in (2, 3, 4, 5):
        ring = PolyRing(nvars) if field is None else PolyRing(nvars, field)
        for trial in range(8):
            degree = rng.randint(0, 4)
            terms = []
            for k in range(degree + 1):  # mixed degrees exercise the scaling
                for m in ring.monomials_of_degree(k):
                    if rng.random() < 0.3:
                        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        terms.append((m, c if field is None else rng.randint(0, 50)))
            f = Polynomial(ring, terms)
            if trial % 2:
                matrix = [[rng.randint(-5, 5) for _ in range(nvars)] for _ in range(nvars)]
            else:
                matrix = [
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nvars)]
                    for _ in range(nvars)
                ]
            assert f.substitute_linear(matrix) == _naive_substitute(f, matrix)


def test_verdict_needs_no_quotient(monkeypatch):
    n, d, a = 3, 5, 1
    I = extremal_curve_ideal(n, d, max_genus(n, d) - a)

    def forbidden(*args, **kwargs):
        raise AssertionError("the verdict computed an ideal quotient")

    monkeypatch.setattr(ideals, "quotient", forbidden)
    monkeypatch.setattr(ideals, "saturate", forbidden)
    report = verify_extremal(Ideal(I.ring, list(I.gens)), seed=3)
    assert report.verdict == "extremal"
    assert report.planar_checked and report.planar_verdict
