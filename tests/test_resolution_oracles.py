"""The resolution path against the code it replaced, and the maps it makes.

- `groebner.cancel_lead`, which pops the lead it cancels and tests the
  field once per call, against `reference.cancel_lead_reference`, which
  adds every term of the reducer and deletes the lead's zero: over QQ,
  Z/32003 and Z/7, in the engine's position-over-term keys and in the
  Schreyer frame's keys, with leads that are not units, so that the
  accumulator is rescaled (a != 1) over QQ.
- Every map that `ResolutionData` makes on its first read, its integer
  columns and scales and its dual rows, against the eager minimalization
  of `reference.eager_resolution`, read in a drawn order, on random ideals
  and random constructions.
- The maps a caller makes: the h1 probe makes the last map of a curve
  that is not ACM and no map of an ACM one; a verdict makes no map of an
  ACM curve either (its h2 reads the twists alone), and the last two, once
  each, of one that is not."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from extremalcurves import modules  # noqa: E402
from extremalcurves.cohomology import constructed_curve_probe, verify_extremal  # noqa: E402
from extremalcurves.construct import construct_curve, extremal_curve_ideal, random_construction_input  # noqa: E402
from extremalcurves.formulas import max_genus  # noqa: E402
from extremalcurves.groebner import _Engine, _EnginePoly, buchberger, cancel_lead  # noqa: E402
from extremalcurves.ideals import Ideal  # noqa: E402
from extremalcurves.modules import free_resolution_from_gb  # noqa: E402
from extremalcurves.packing import layout  # noqa: E402
from extremalcurves.ring import QQ, PolyRing, Polynomial, PrimeField  # noqa: E402
from reference import cancel_lead_reference, eager_resolution  # noqa: E402

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)
FIELDS = [QQ, PrimeField(32003), PrimeField(7)]


def _monomials(nvars, degree):
    """Exponent tuples of the given degree in nvars variables."""
    if nvars == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1) for rest in _monomials(nvars - 1, degree - e)]


def cancellation(rng):
    """(acc, lead, g, modulus) as a reduction step hands them to
    `cancel_lead`, and the name of their key layout: g's terms at distinct
    keys, its lead shifted onto lead by a monomial, and acc holding lead,
    terms at some of g's shifted keys (some of them the value that the
    step cancels) and terms of its own.  The keys are the engine's
    ("engine": a component above the monomial) or the Schreyer frame's
    ("frame": the image monomial above a rank); over QQ the leads' ratio is
    seldom a unit."""
    modulus = getattr(rng.choice(FIELDS), "p", 0)
    nvars = rng.randint(3, 4)
    lay = layout(nvars)
    if rng.random() < 0.5:  # position over term: a component above the slots
        unit = _Engine(PolyRing(nvars - 1)).unit(rng.randint(0, 2))
        key, up, name = (lambda m, r: unit | lay.pack(m)), 0, "engine"
    else:  # the Schreyer frame: the image monomial above three rank bits
        key, up, name = (lambda m, r: lay.pack(m) << 3 | r), 3, "frame"
    degree = rng.randint(1, 3)
    monos = _monomials(nvars, degree)
    keys = sorted({key(rng.choice(monos), rng.randint(0, 7)) for _ in range(rng.randint(1, 6))})

    def coeff():
        return rng.randint(1, modulus - 1) if modulus else rng.choice([-1, 1]) * rng.randint(1, 12)

    g = _EnginePoly(keys, [coeff() for _ in keys], degree)
    shift = lay.pack(rng.choice(_monomials(nvars, rng.randint(0, 2)))) << up
    lead = keys[0] + shift
    acc = {lead: coeff()}
    # the step takes x at a shifted key to a*x - b*c, with this ratio a/b
    a, b = (1, acc[lead] * pow(g.coeffs[0], -1, modulus)) if modulus else (g.coeffs[0], acc[lead])
    for k, c in zip(keys[1:], g.coeffs[1:]):
        pick = rng.choice(("none", "some", "cancel"))
        if pick == "some":
            acc[k + shift] = coeff()
        elif pick == "cancel" and b * c % a == 0:
            acc[k + shift] = b * c // a % modulus if modulus else b * c // a
    for _ in range(rng.randint(0, 3)):
        acc.setdefault(lead + rng.randint(1, 1 << 20), coeff())
    return acc, lead, g, modulus, name


@SETTINGS
@given(st.integers(0, 10**9))
def test_cancel_lead_matches_the_kernel_it_replaced(seed):
    acc, lead, g, modulus, _ = cancellation(random.Random(seed))
    assert cancel_lead(dict(acc), lead, g, modulus) == cancel_lead_reference(dict(acc), lead, g, modulus)


def test_the_drawn_steps_rescale_and_cancel():
    # the draws reach every branch of the kernel: each field and layout,
    # a != 1 (the accumulator rescaled), and a term cancelled and deleted
    seen = set()
    for seed in range(400):
        acc, lead, g, modulus, name = cancellation(random.Random(seed))
        out, a, b = cancel_lead(dict(acc), lead, g, modulus)
        assert (out, a, b) == cancel_lead_reference(dict(acc), lead, g, modulus)
        shift = lead - g.keys[0]
        cancelled = any(k + shift in acc and k + shift not in out for k in g.keys[1:])
        seen.update({("field", modulus, name), ("rescaled", a != 1), ("cancelled", cancelled)})
    fields = {("field", p, name) for p in (0, 32003, 7) for name in ("engine", "frame")}
    assert fields | {("rescaled", True), ("cancelled", True)} <= seen


@st.composite
def ideals(draw):
    """A few homogeneous forms of degree 2 or 3 in 3 to 5 variables over
    QQ, Z/32003 or Z/7, each of two to four small terms."""
    ring = PolyRing(draw(st.integers(3, 5)), draw(st.sampled_from(FIELDS)))
    gens = []
    for _ in range(draw(st.integers(2, 4))):
        monos = _monomials(ring.nvars, draw(st.integers(2, 3 if ring.nvars == 3 else 2)))
        picked = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=4, unique=True))
        gens.append(Polynomial(ring, [(m, draw(st.integers(-5, 5).filter(bool))) for m in picked]))
    return Ideal(ring, gens)


@st.composite
def constructions(draw):
    """A seeded random construction in P^3 to P^5, cast to QQ, Z/32003 or
    Z/7 (drawn again when a denominator vanishes there)."""
    n, d, a = draw(st.integers(3, 5)), draw(st.integers(3, 6)), draw(st.integers(0, 3))
    I = construct_curve(random_construction_input(n, d, a, random.Random(draw(st.integers(0, 10**6)))))
    ring = PolyRing(I.ring.nvars, draw(st.sampled_from(FIELDS)))
    try:
        return Ideal(ring, [Polynomial(ring, g.terms) for g in I.gens])
    except ZeroDivisionError:
        hypothesis.assume(False)


def assert_maps_match_the_eager_oracle(I, order):
    gb = I.groebner()
    res, eager = free_resolution_from_gb(gb), eager_resolution(gb)
    assert res.twists == eager.twists
    assert res.betti_table() == eager.betti_table() and res.regularity() == eager.regularity()
    for k in order:
        if k < res.length:
            assert res._map(k) == eager._map(k), k
            assert res.dual(k) == eager.dual(k), k
    assert sorted(res._maps) == sorted({k for k in order if k < res.length})


@SETTINGS
@given(ideals(), st.permutations(range(6)))
def test_lazy_maps_of_random_ideals_match_the_eager_oracle(I, order):
    assert_maps_match_the_eager_oracle(I, order)


@SETTINGS
@given(constructions(), st.permutations(range(6)))
def test_lazy_maps_of_random_constructions_match_the_eager_oracle(I, order):
    assert_maps_match_the_eager_oracle(I, order)


def made_maps(monkeypatch):
    """Record the index of every map a `ResolutionData` makes from its
    frame, in the order made."""
    made = []
    make = modules.ResolutionData._map

    def recorded(res, k):
        if k not in res._maps:
            made.append(k)
        return make(res, k)

    monkeypatch.setattr(modules.ResolutionData, "_map", recorded)
    return made


def test_the_probe_makes_the_last_map_of_a_curve_that_is_not_acm(monkeypatch):
    made = made_maps(monkeypatch)
    for n, d, a, seed in [(3, 5, 1, 11), (4, 4, 3, 0), (4, 5, 1, 13), (5, 4, 1, 15)]:
        made.clear()
        I = construct_curve(random_construction_input(n, d, a, random.Random(seed)))
        probe = constructed_curve_probe(I)
        assert I.resolution().length == n and any(probe["h1"])
        assert made == [n - 1], (n, d, a, seed)


def test_the_probe_makes_no_map_of_an_acm_curve(monkeypatch):
    made = made_maps(monkeypatch)
    for n, d, a in [(3, 4, 0), (3, 6, 0)]:  # n = 3, a = 0: random_probe's ACM points
        I = construct_curve(random_construction_input(n, d, a, random.Random(1)))
        probe = constructed_curve_probe(I)
        assert I.resolution().length == n - 1 and not any(probe["h1"])
    assert made == []


def test_a_verdict_makes_at_most_the_last_two_maps(monkeypatch):
    made = made_maps(monkeypatch)
    curves = [extremal_curve_ideal(n, d, max_genus(n, d) - a) for n, d, a in [(3, 5, 0), (3, 6, 1), (4, 5, 0)]]
    curves += [construct_curve(random_construction_input(4, 4, 3, random.Random(0)))]
    for I, acm in zip(curves, [True, False, False, False]):
        made.clear()
        verify_extremal(I)
        length = I.resolution().length
        assert length == I.ring.n - acm
        assert sorted(made) == ([] if acm else [length - 2, length - 1])
