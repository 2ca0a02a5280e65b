"""The Hilbert series of a presented module against the slot-by-slot counts
it replaced, on random presented modules and graph bases over QQ, Z/32003
and Z/7: 1 to 3 slots with twists -2 to 2, about one zero relation or
column in five, multipliers or none, and powers of the variables among the
relations so that finite-length modules occur.  `hf` equals the number of
standard monomials and `reference.component_hf` (one `MonomialIdeal` per
slot), and `is_finite_length` equals the per-slot artinian test
(`reference.component_finite_length`).  The negative control drops one
slot's leads from the numerator, which moves a dimension; and neither
reader builds a `MonomialIdeal`."""

import copy
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from extremalcurves.modules import GraphBasis, PresentedModule, packed_vector  # noqa: E402
from extremalcurves.monomials import MonomialIdeal  # noqa: E402
from extremalcurves.ring import QQ, PolyRing, Polynomial, PrimeField, binom  # noqa: E402
from reference import component_finite_length, component_hf, slot_leads  # noqa: E402

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)
FIELDS = [QQ, PrimeField(32003), PrimeField(7)]


@st.composite
def forms(draw, ring, degree, max_terms=3):
    """A homogeneous form of the given degree with a few small terms (zero
    at times)."""
    if degree < 0:
        return ring.zero
    monos = ring.monomials_of_degree(degree)
    picked = draw(st.lists(st.sampled_from(monos), max_size=max_terms, unique=True))
    coeffs = draw(st.lists(st.integers(-5, 5).filter(bool), min_size=len(picked), max_size=len(picked)))
    return Polynomial(ring, list(zip(picked, coeffs)))


@st.composite
def vectors(draw, ring, twists, low):
    """A homogeneous vector over the slots of the given twists, of a degree
    from low to low + 2; zero about one time in five."""
    if draw(st.integers(0, 4)) == 0:
        return {}
    deg = low + draw(st.integers(0, 2))
    return packed_vector(ring, [draw(forms(ring, deg - w)) for w in twists])


@st.composite
def module_inputs(draw):
    """(ring, twists, relations) in 3 or 4 variables: 1 to 3 slots, 0 to 4
    random relations, and in some of the slots a power of every variable
    (all of them at times, which gives a module of finite length)."""
    ring = PolyRing(draw(st.integers(3, 4)), draw(st.sampled_from(FIELDS)))
    twists = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
    rels = [draw(vectors(ring, twists, max(twists))) for _ in range(draw(st.integers(0, 4)))]
    primary = draw(st.sampled_from(["none", "some", "all"]))
    for s, w in enumerate(twists):
        if primary == "all" or (primary == "some" and draw(st.booleans())):
            for i in range(ring.nvars):
                power = [0] * ring.nvars
                power[i] = draw(st.integers(1, 3))
                rels.append(packed_vector(ring, [ring.zero] * s + [Polynomial(ring, [(tuple(power), 1)])]))
    return ring, twists, rels


@st.composite
def graph_inputs(draw):
    """(ring, free twists, columns, multipliers): 1 to 3 columns, about one
    in five zero, with multipliers 1 to 4 or none."""
    ring = PolyRing(draw(st.integers(3, 4)), draw(st.sampled_from(FIELDS)))
    twists = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2))
    cols = [draw(vectors(ring, twists, max(twists))) for _ in range(draw(st.integers(1, 3)))]
    multipliers = draw(st.one_of(st.none(), st.lists(st.integers(1, 4), min_size=len(cols), max_size=len(cols))))
    return ring, twists, cols, multipliers


@st.composite
def modules(draw):
    """A presented module or a graph basis, with the inputs that rebuild it."""
    if draw(st.booleans()):
        ring, twists, rels = draw(module_inputs())
        return lambda: PresentedModule(ring, twists, rels)
    ring, twists, cols, multipliers = draw(graph_inputs())
    return lambda: GraphBasis(cols, twists, ring, multipliers)


def degrees(module):
    """The lowest twist - 2 to the highest twist + 6."""
    if not module.gen_degrees:
        return range(-2, 7)
    return range(min(module.gen_degrees) - 2, max(module.gen_degrees) + 7)


def drop_slot(module, s):
    """A copy of module whose series is read without the leads of slot s."""
    out = copy.copy(module)
    out.__dict__.pop("series", None)
    out.engine = copy.copy(module.engine)
    out.engine.by_slot = {k: v for k, v in module.engine.by_slot.items() if k != module.first + s}
    return out


@SETTINGS
@given(modules())
def test_hf_is_the_standard_monomial_count_and_the_slot_sum(build):
    module = build()
    for e in degrees(module):
        assert module.hf(e) == len(module.standard_basis(e)) == component_hf(module, e)


@SETTINGS
@given(modules())
def test_finite_length_is_the_per_slot_artinian_test(build):
    module = build()
    assert module.is_finite_length() == component_finite_length(module)


def test_finite_length_modules_occur():
    # the strategy reaches both answers: powers of every variable in every
    # slot give finite length
    seen = set()

    @SETTINGS
    @given(modules())
    def collect(build):
        seen.add(build().is_finite_length())

    collect()
    assert seen == {True, False}


@SETTINGS
@given(modules(), st.data())
def test_dropping_a_slots_leads_moves_a_dimension(build, data):
    # the negative control of the two tests above: a slot with leads has a
    # smaller piece than R(-w) in the lowest lead degree, and a free slot
    # has infinite length
    module = build()
    slots = [s for s, leads in enumerate(slot_leads(module)) if leads]
    hypothesis.assume(slots)
    s = data.draw(st.sampled_from(slots))
    fake = drop_slot(module, s)
    low = module.gen_degrees[s] + min(map(sum, slot_leads(module)[s]))
    assert any(fake.hf(e) != component_hf(module, e) for e in [*degrees(module), low])
    assert not fake.is_finite_length()


@SETTINGS
@given(modules())
def test_no_monomial_ideal_is_built(build):
    module = build()
    expected = [module.hf(e) for e in degrees(module)], module.is_finite_length()
    with mock.patch.object(MonomialIdeal, "__init__", side_effect=AssertionError("MonomialIdeal built")):
        fresh = build()
        assert ([fresh.hf(e) for e in degrees(fresh)], fresh.is_finite_length()) == expected


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_empty_and_free_modules(field):
    ring = PolyRing(3, field)
    empty = PresentedModule(ring, [], [])
    assert empty.series == []
    assert [empty.hf(e) for e in range(-2, 5)] == [0] * 7
    assert empty.is_finite_length()
    free = PresentedModule(ring, [0, 2], [])
    assert free.series == [(0, 1), (2, 1)]
    assert [free.hf(e) for e in range(-1, 5)] == [binom(e + 2, 2) + binom(e, 2) for e in range(-1, 5)]
    assert not free.is_finite_length()


def test_series_of_small_quotients():
    ring = PolyRing(3, QQ)
    x0, x1, x2 = ring.gens()
    # R/(x0, x1^2): (1 - t)(1 - t^2)
    pm = PresentedModule(ring, [0], [packed_vector(ring, [x0]), packed_vector(ring, [x1 * x1])])
    assert pm.series == [(0, 1), (1, -1), (2, -1), (3, 1)]
    assert not pm.is_finite_length()
    # (R/(x0, x1^2, x2))(-1) + (R/m)(1): t^-1 + t + t^2, finite length
    zero = ring.zero
    rels = [packed_vector(ring, [x, zero]) for x in (x0, x1 * x1, x2)]
    rels += [packed_vector(ring, [zero, x]) for x in (x0, x1, x2)]
    pm = PresentedModule(ring, [1, -1], rels)
    assert pm.series[0] == (-1, 1)
    assert [pm.hf(e) for e in range(-2, 5)] == [0, 1, 0, 1, 1, 0, 0]
    assert pm.is_finite_length()
