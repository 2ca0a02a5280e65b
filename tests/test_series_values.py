"""The window reader of a Hilbert series, `monomials.series_values` (nvars
running sums of the numerator's coefficients), against the per-degree
binomial sum it replaced (`reference.series_dim`), on drawn numerators:
negative and repeated exponents, numerators with N(1) = 0 (a factor 1 - t),
and the empty series, over windows below, across and above the support.
The negative control takes one running sum too few, which moves a value.
`PresentedModule.is_finite_length`, which reads n values from the top
exponent on, equals divisibility of N by (1-t)^n, and the (1-t)-division of
`detect_hilbert_polynomial` recovers the drawn factor.  CI runs this module
under two string-hash seeds."""

from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from extremalcurves.cohomology import NotACurveError, detect_hilbert_polynomial  # noqa: E402
from extremalcurves.modules import PresentedModule  # noqa: E402
from extremalcurves.monomials import series_values  # noqa: E402
from reference import series_dim  # noqa: E402

SETTINGS = settings(max_examples=200, derandomize=True, deadline=None, database=None)


def times_one_minus_t(terms, power):
    """The terms of (1-t)^power N, N given by its terms (k, c)."""
    for _ in range(power):
        terms = [(k, c) for k, c in terms] + [(k + 1, -c) for k, c in terms]
    return terms


@st.composite
def numerators(draw):
    """Terms (k, c) in any order with exponents from -6 to 8, repeats and
    zero coefficients allowed, at times multiplied by (1-t)^1..3 so that
    N(1) = 0; the empty series now and then."""
    terms = draw(st.lists(st.tuples(st.integers(-6, 8), st.integers(-5, 5)), max_size=6))
    terms = times_one_minus_t(terms, draw(st.integers(0, 3)))
    return draw(st.permutations(terms))


@st.composite
def windows(draw, terms):
    """(lo, hi) below, across or above the support of the terms, or empty."""
    ks = [k for k, _ in terms] or [0]
    low, top = min(ks), max(ks)
    where = draw(st.sampled_from(["below", "across", "above", "empty"]))
    if where == "below":
        hi = low - draw(st.integers(1, 4))
        return hi - draw(st.integers(0, 5)), hi
    if where == "above":
        lo = top + draw(st.integers(1, 4))
        return lo, lo + draw(st.integers(0, 5))
    if where == "empty":
        lo = draw(st.integers(low - 3, top + 3))
        return lo, lo - draw(st.integers(1, 2))
    return low - draw(st.integers(0, 4)), top + draw(st.integers(0, 6))


def combined(terms):
    """{k: c} with repeated exponents added up and zero coefficients left out."""
    out = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


@SETTINGS
@given(numerators(), st.integers(1, 5), st.data())
@example([], 3, None)
def test_the_window_is_the_per_degree_binomial_sum(terms, nvars, data):
    lo, hi = (-2, 4) if data is None else data.draw(windows(terms))
    got = series_values(iter(terms), nvars, lo, hi)
    assert got == [series_dim(terms, nvars, j) for j in range(lo, hi + 1)]


@SETTINGS
@given(numerators(), st.integers(1, 5), st.data())
def test_one_running_sum_too_few_moves_a_value(terms, nvars, data):
    # the negative control: N/(1-t)^(nvars-1) and N/(1-t)^nvars differ at
    # one past N's lowest exponent by N's lowest coefficient
    nonzero = combined(terms)
    hypothesis.assume(nonzero)
    low = min(nonzero)
    lo = low + 1 - data.draw(st.integers(0, 3))
    hi = low + 1 + data.draw(st.integers(0, 3))
    short = series_values(terms, nvars - 1, lo, hi)
    assert short != [series_dim(terms, nvars, j) for j in range(lo, hi + 1)]


def finite_length(terms, nvars):
    """`PresentedModule.is_finite_length` on a module with these series terms."""
    stand_in = SimpleNamespace(series=sorted(combined(terms).items()), ring=SimpleNamespace(nvars=nvars))
    return PresentedModule.is_finite_length(stand_in)


@SETTINGS
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6), st.integers(0, 5), st.integers(-3, 3), st.integers(1, 4))
def test_finite_length_is_divisibility_by_a_power_of_one_minus_t(coeffs, power, shift, nvars):
    # N = t^shift (1-t)^power P with P(1) != 0: the series is a Laurent
    # polynomial exactly when power >= nvars
    hypothesis.assume(sum(coeffs))
    terms = times_one_minus_t(list(enumerate(coeffs, shift)), power)
    assert finite_length(terms, nvars) == (power >= nvars)


def test_the_zero_series_has_finite_length():
    assert finite_length([], 3) and finite_length([(2, 1), (2, -1)], 3)


@SETTINGS
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6), st.integers(0, 4), st.integers(1, 5))
def test_detect_divides_out_the_drawn_power_of_one_minus_t(coeffs, power, nvars):
    # N = (1-t)^power P with P(1) = d != 0 is a curve's numerator exactly
    # when nvars - power = 2, with genus 1 - P(1) + P'(1)
    d = sum(coeffs)
    hypothesis.assume(d)
    numerator = [0] * (len(coeffs) + power)
    for k, c in times_one_minus_t(list(enumerate(coeffs)), power):
        numerator[k] += c
    lead = SimpleNamespace(nvars=nvars, hilbert_numerator=lambda: tuple(numerator))
    if nvars - power == 2:
        assert detect_hilbert_polynomial(lead) == (d, 1 - d + sum(i * c for i, c in enumerate(coeffs)))
    else:
        with pytest.raises(NotACurveError):
            detect_hilbert_polynomial(lead)
