"""The shared integer helpers of `ring` against plain arithmetic: the packed
product `_addmul` against a product over exponent tuples, over Z and mod 7,
with terms that cancel to zero; `clear_denominators` and `strip_content`
against `Fraction` arithmetic, with negative leads and all-integer input;
and the engine's `_clear`, which is built on both."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from extremalcurves.groebner import _clear  # noqa: E402
from extremalcurves.packing import layout  # noqa: E402
from extremalcurves.ring import _addmul, clear_denominators, mono_mul, strip_content  # noqa: E402

SETTINGS = settings(max_examples=200, derandomize=True, deadline=None, database=None)
NVARS = 3
PACK = layout(NVARS).pack


def naive_product(f, g, modulus):
    """{exponent tuple: coefficient} of f * g, zero terms dropped."""
    out = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            m = mono_mul(mf, mg)
            out[m] = out.get(m, 0) + cf * cg
    if modulus:
        out = {m: c % modulus for m, c in out.items()}
    return {m: c for m, c in out.items() if c}


def packed(f):
    return {PACK(m): c for m, c in f.items()}


# few small exponents and small coefficients, so that products collide
POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * NVARS), st.integers(-3, 3), max_size=5)


@SETTINGS
@given(POLYS, POLYS, st.sampled_from([0, 7]), st.data())
def test_packed_product_matches_the_naive_product(f, g, modulus, data):
    if modulus:
        f = {m: c % modulus for m, c in f.items()}
        g = {m: c % modulus for m, c in g.items()}
    f = {m: c for m, c in f.items() if c}
    g = {m: c for m, c in g.items() if c}
    product = naive_product(f, g, modulus)
    assert _addmul({}, packed(f), packed(g), modulus) == packed(product)
    # an accumulator that cancels part of the product down to zero terms
    cancel = data.draw(st.sets(st.sampled_from(sorted(product)))) if product else set()
    extra = data.draw(POLYS)
    acc = {m: -c for m, c in product.items() if m in cancel}
    for m, c in extra.items():
        if m not in product:
            acc[m] = acc.get(m, 0) + c
    if modulus:
        acc = {m: c % modulus for m, c in acc.items()}
    acc = {m: c for m, c in acc.items() if c}
    expected = {m: c for m, c in product.items() if m not in cancel}
    expected.update({m: c for m, c in acc.items() if m not in product})
    got = _addmul(packed(acc), packed(f), packed(g), modulus)
    assert got == packed(expected)
    assert all(got.values())
    if modulus:
        assert all(0 < c < modulus for c in got.values())


def prime_factors(m):
    out, p = set(), 2
    while p * p <= m:
        while m % p == 0:
            out.add(p)
            m //= p
        p += 1
    return out | ({m} if m > 1 else set())


ENTRIES = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@SETTINGS
@given(st.lists(st.lists(ENTRIES, min_size=1, max_size=4), min_size=1, max_size=3))
def test_clear_denominators_matches_fraction_arithmetic(matrix):
    rows, den = clear_denominators(matrix)
    assert den >= 1
    assert [[Fraction(v) * den for v in row] for row in matrix] == rows
    assert all(type(v) is int for row in rows for v in row)
    # least: no proper divisor of den clears every entry
    for p in prime_factors(den):
        assert any((Fraction(v) * (den // p)).denominator != 1 for row in matrix for v in row)
    if all(isinstance(v, int) for row in matrix for v in row):
        assert (rows, den) == (matrix, 1)


@SETTINGS
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=6), st.integers(1, 12))
def test_strip_content_keeps_signs_and_leaves_a_primitive_vector(ints, factor):
    ints = [c * factor for c in ints]
    out, g = strip_content(ints)
    assert g >= 1 and [c * g for c in out] == ints
    assert [c < 0 for c in out] == [c < 0 for c in ints]
    assert gcd(*out) == (1 if any(ints) else 0)
    if any(ints):
        assert g == gcd(*ints)


@SETTINGS
@given(st.lists(ENTRIES.filter(bool), min_size=1, max_size=6))
def test_clear_gives_a_primitive_vector_with_a_positive_lead(coeffs):
    ep = _clear(list(range(len(coeffs))), coeffs, None, 0)
    assert ep.coeffs[0] > 0 and gcd(*ep.coeffs) == 1
    # a multiple of the input: the factor is read off the two leads
    scale = ep.coeffs[0] / Fraction(coeffs[0])
    assert [Fraction(c) for c in ep.coeffs] == [scale * Fraction(v) for v in coeffs]
