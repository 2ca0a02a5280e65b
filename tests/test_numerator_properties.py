"""Property tests for `MonomialIdeal.hilbert_numerator` on random monomial
ideals in 1 to 5 variables: the numerator equals the pivot recursion with a
`MonomialIdeal` at every node (`reference.pivot_numerator`), the kernel
gives it from any generating set (duplicated and non-minimal generators
included), and the Hilbert function read off it counts the standard
monomials (`reference.quotient_dims`)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from extremalcurves.monomials import MonomialIdeal, _numerator, _trim  # noqa: E402
from reference import pivot_numerator, quotient_dims  # noqa: E402

SETTINGS = settings(max_examples=300, derandomize=True, deadline=None, database=None)


@st.composite
def generating_sets(draw):
    """(nvars, gens): up to eight exponent tuples with entries 0 to 4, some
    repeated, so the set is often not minimal and may hold the unit."""
    nvars = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars), max_size=8))
    return nvars, gens + draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else []


@SETTINGS
@given(generating_sets())
def test_numerator_is_the_pivot_recursion(case):
    nvars, gens = case
    ideal = MonomialIdeal(nvars, gens)
    expected = pivot_numerator(ideal.gens, nvars)
    assert ideal.hilbert_numerator() == expected
    assert tuple(_trim(_numerator(tuple(gens)))) == expected


@SETTINGS
@given(generating_sets())
def test_numerator_counts_the_standard_monomials(case):
    nvars, gens = case
    ideal = MonomialIdeal(nvars, gens)
    assert [ideal.quotient_dim(j) for j in range(9)] == quotient_dims(ideal, 8)
