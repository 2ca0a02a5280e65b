"""Word-parallel packed arithmetic against slot-by-slot references: the
lcm and degree of packed monomials in the engines' 8-bit slots and in the
16-bit slots of `MonomialIdeal`'s exponents from 128 to 32767, and the
packed minimalization and membership test of monomial ideals, whose
exponents have no packed limit."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from extremalcurves.monomials import MonomialIdeal  # noqa: E402
from extremalcurves.packing import MAXEXP, fit, layout  # noqa: E402
from reference import mono_divides, slot_degree, slot_lcm, tuple_minimal_generators  # noqa: E402

SETTINGS = settings(max_examples=200, derandomize=True, deadline=None, database=None)

SLOTS = (8, 16)  # the engines' width, and the width `fit` gives exponents 128..32767


def packed_pairs(data, slot):
    """(layout, a, b) with exponents weighted towards the ends of a slot:
    0, 1 and the limit."""
    lay = layout(data.draw(st.integers(1, 12)), slot)
    top = lay.limit
    exps = st.one_of(st.integers(0, top), st.sampled_from([0, 1, top - 1, top]))
    a, b = (data.draw(st.lists(exps, min_size=lay.nvars, max_size=lay.nvars)) for _ in range(2))
    return lay, lay.pack(a), lay.pack(b)


@SETTINGS
@given(st.data())
def test_lcm_matches_the_slot_loop(data):
    for slot in SLOTS:
        lay, a, b = packed_pairs(data, slot)
        assert lay.lcm(a, b) == slot_lcm(a, b, lay.nvars, slot)
        assert lay.lcm(b, a) == lay.lcm(a, b)


@SETTINGS
@given(st.data())
def test_degree_matches_the_slot_loop(data):
    for slot in SLOTS:
        lay, a, b = packed_pairs(data, slot)
        assert lay.degree(a) == slot_degree(a, lay.nvars, slot)
        assert lay.degree(lay.lcm(a, b)) == slot_degree(slot_lcm(a, b, lay.nvars, slot), lay.nvars, slot)


@pytest.mark.parametrize("nvars", [1, 2, 3, 5, 6, 8, 17])
def test_degree_is_exact_at_the_full_key(nvars):
    # the limit in every slot: a slot-wide multiply-sum would wrap
    for slot in SLOTS:
        lay = layout(nvars, slot)
        top = lay.pack([lay.limit] * nvars)
        assert lay.degree(top) == lay.limit * nvars
        assert lay.lcm(top, 0) == lay.lcm(0, top) == top
        assert lay.pack_fitted([lay.limit] * nvars) == top
    assert layout(nvars).limit == MAXEXP


def test_lcm_drops_bits_above_the_slots():
    # position-over-term keys carry their component above the slots
    a, b = 3 << 24 | 0x050102, 3 << 24 | 0x010703
    assert layout(3).lcm(a, b) == 0x050703


def test_fit_is_the_narrowest_byte_layout_holding_the_top():
    for top, slot in [(0, 8), (127, 8), (128, 16), (32767, 16), (32768, 24)]:
        assert fit(3, top).slot == slot and fit(3, top).limit >= top
    assert fit(3, 127) is layout(3)


@st.composite
def monomial_lists(draw):
    """Exponent tuples with duplicates, some above the packed limit."""
    nvars = draw(st.integers(1, 5))
    exps = st.one_of(st.integers(0, 4), st.integers(120, 300), st.sampled_from([127, 128, 255, 256, 1000]))
    gens = draw(st.lists(st.tuples(*[exps] * nvars), max_size=12))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=4))  # duplicates
    return nvars, gens


@SETTINGS
@given(monomial_lists())
def test_monomial_ideal_matches_the_tuple_minimalization(data):
    nvars, gens = data
    assert MonomialIdeal(nvars, gens).gens == tuple_minimal_generators(gens)
    assert MonomialIdeal(nvars, [list(m) for m in reversed(gens)]).gens == tuple_minimal_generators(gens)


@SETTINGS
@given(st.data())
def test_contains_matches_tuple_divisibility(draw):
    # ideals in slots of one, two and three bytes, queried at and past
    # their top exponent (a query is packed clamped to it), each generator
    # also with one exponent moved
    nvars = draw.draw(st.integers(1, 4))
    top = draw.draw(st.sampled_from([4, MAXEXP, 200, 40000]))
    exps = st.one_of(st.integers(0, 4), st.integers(max(0, top - 4), top))
    gens = draw.draw(st.lists(st.tuples(*[exps] * nvars), max_size=8))
    I = MonomialIdeal(nvars, gens)
    wide = st.sampled_from([128, 130, 255, 256, 65535, 65536, 10**6])
    past = st.one_of(exps, st.integers(top, top + 300), wide)
    queries = draw.draw(st.lists(st.tuples(*[past] * nvars), max_size=8))
    for g in gens:
        i = draw.draw(st.integers(0, nvars - 1))
        queries.append(g[:i] + (draw.draw(past),) + g[i + 1:])
    for m in queries:
        assert I.contains(m) == any(mono_divides(g, m) for g in gens)


def test_monomial_ideal_above_a_byte():
    # x^256 would alias x^0 in one byte; x^300 divides nothing smaller
    I = MonomialIdeal(2, [(256, 0), (0, 300), (300, 0), (0, 300), (255, 1)])
    assert I.gens == ((0, 300), (256, 0), (255, 1))
    assert I.contains((256, 5)) and not I.contains((255, 0))
