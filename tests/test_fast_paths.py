"""The verdict's shortcuts against the computations they replace: the depth
test for saturation, the Hilbert polynomial from the numerator, integer
coordinate changes expanded straight into engine elements, full rank
against the determinant, and a guard that a verdict needs no ideal
quotient."""

import random
from fractions import Fraction
from math import lcm

import pytest

from extremalcurves import ideals
from extremalcurves.groebner import _to_engine, linear_images
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
from extremalcurves.packing import ExponentLimitError, layout
from extremalcurves.ring import PolyRing, Polynomial, PrimeField, clear_denominators
from reference import dense_rank, from_scalar


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
    assert detect_hilbert_polynomial(I.initial_ideal()) == (d, g)
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
        detect_hilbert_polynomial(Ideal(R4, gens).initial_ideal())


def _naive_substitute(f, matrix):
    ring = f.ring
    images = [
        Polynomial(ring, [(ring.var_mono(j), matrix[i][j]) for j in range(ring.nvars)])
        for i in range(ring.nvars)
    ]
    out = ring.zero
    for m, c in f.terms:
        term = from_scalar(ring, c)
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
    report = verify_extremal(Ideal(I.ring, list(I.gens)), seed=3).to_json_dict()
    assert report["verdict"] == "extremal"
    assert report["planar_subcurve"]["checked"] and report["planar_subcurve"]["verdict"]


def _random_matrix(nvars, rng, kind):
    """Integer matrices: generic, with a repeated or a zero row (singular),
    of rank one, or all multiples of 7 (zero over Z/7)."""
    matrix = [[rng.randint(-6, 6) for _ in range(nvars)] for _ in range(nvars)]
    if kind == "repeated":
        matrix[-1] = list(matrix[0])
    elif kind == "zero-row":
        matrix[rng.randrange(nvars)] = [0] * nvars
    elif kind == "rank-one":
        u = [rng.randint(-2, 2) for _ in range(nvars)]
        matrix = [[a * b for b in matrix[0]] for a in u]
    elif kind == "sevens":
        matrix = [[7 * v for v in row] for row in matrix]
    return matrix


def _expansion_cases(field, seed):
    """(polynomial, matrix) pairs: homogeneous forms in 3-5 variables with
    non-integer coefficients over QQ, residues over Z/7; some images
    vanish (x0 - x1 times a form when x0 and x1 share an image, rank one,
    zero rows, multiples of 7 over Z/7)."""
    rng = random.Random(seed)
    cases = []
    for trial in range(12):
        nvars = 3 + trial % 3
        ring = PolyRing(nvars) if field is None else PolyRing(nvars, field)
        degree = rng.randint(1, 4)
        terms = [
            (m, Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if field is None else rng.randint(0, 6))
            for m in ring.monomials_of_degree(degree)
            if rng.random() < 0.35
        ]
        f = Polynomial(ring, terms) or ring.monomial(ring.monomials_of_degree(degree)[0], 3)
        kind = ("generic", "repeated", "zero-row", "rank-one", "sevens")[trial % 5]
        matrix = _random_matrix(nvars, rng, kind)
        cases.append((f, matrix))
        if kind == "rank-one":  # (x0 - x1) * f vanishes once x0 and x1 share an image
            x0, x1 = ring.gen(0), ring.gen(1)
            row = matrix[0] if any(matrix[0]) else [1] * nvars
            cases.append(((x0 - x1) * f, [list(row), list(row)] + matrix[2:]))
    return cases


def _engine_list(p, ring):
    if not p:
        return []
    ep = _to_engine(p, layout(ring.nvars), getattr(ring.field, "p", 0))
    return [(ep.keys, ep.coeffs, ep.deg)]


def _as_lists(eps):
    return [(ep.keys, ep.coeffs, ep.deg) for ep in eps]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("field", [None, PrimeField(7)], ids=["QQ", "Zp7"])
def test_linear_images_equal_the_repacked_substitution(field, seed):
    vanished = 0
    for f, matrix in _expansion_cases(field, seed):
        ring = f.ring
        got = _as_lists(linear_images([f], matrix, ring))
        assert got == _engine_list(f.substitute_linear(matrix), ring)
        assert got == _engine_list(_naive_substitute(f, matrix), ring)
        vanished += not got
    assert vanished  # the vanishing images are covered


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("field", [None, PrimeField(7)], ids=["QQ", "Zp7"])
def test_dropped_last_column_equals_the_filtered_cut(field, seed):
    for f, matrix in _expansion_cases(field, seed):
        ring = f.ring
        target = PolyRing(ring.nvars - 1, ring.field)
        image = f.substitute_linear(matrix)
        cut = Polynomial(target, [(m[:-1], c) for m, c in image.terms if m[-1] == 0])
        got = linear_images([f], [row[:-1] for row in matrix], target)
        assert _as_lists(got) == _engine_list(cut, target)


def test_linear_images_keep_order_and_drop_zeros():
    ring = PolyRing(3)
    x0, x1, x2 = ring.gens()
    gens = [x0 * x1, x0 - x1, x2 ** 2]
    matrix = [[1, 2, 0], [1, 2, 0], [0, 1, 1]]  # x0 - x1 maps to zero
    got = _as_lists(linear_images(gens, matrix, ring))
    want = [e for g in gens for e in _engine_list(g.substitute_linear(matrix), ring)]
    assert got == want and len(got) == 2


def test_linear_images_enforce_the_exponent_limit():
    ring = PolyRing(3)
    with pytest.raises(ExponentLimitError):
        linear_images([ring.gen(0) ** 128], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], ring)


def _cofactor_det(matrix):
    if not matrix:
        return 1
    return sum(
        (-1) ** j * v * _cofactor_det([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j, v in enumerate(matrix[0])
        if v
    )


def test_full_rank_iff_cofactor_determinant_nonzero():
    rng = random.Random(11)
    matrices = [[], [[0]], [[5]], [[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]]]
    for size in range(1, 6):
        for kind in ("generic", "repeated", "zero-row", "rank-one", "sevens"):
            for _ in range(4):
                matrix = _random_matrix(size, rng, kind)
                if rng.random() < 0.5:  # zeros on the diagonal force row swaps
                    for i in range(size):
                        matrix[i][i] = 0
                matrices.append(matrix)
    full = [dense_rank(m) == len(m) for m in matrices]
    assert full == [_cofactor_det(m) != 0 for m in matrices]
    assert any(full) and not all(full)


def test_clear_denominators_scales_by_the_least_common_denominator():
    rng = random.Random(7)

    def entry():
        if rng.random() < 0.6:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        return rng.randint(-5, 5)

    for _ in range(40):
        matrix = [[entry() for _ in range(4)] for _ in range(rng.randint(0, 4))]
        rows, den = clear_denominators(matrix)
        assert den == lcm(*(Fraction(v).denominator for row in matrix for v in row))
        assert rows == [[den * v for v in row] for row in matrix]
        assert all(type(v) is int for row in rows for v in row)
