"""Property tests for the packed module engine on random homogeneous data
in 3 to 5 variables over QQ and Z/7: resolutions, kernels, lifts and
presented modules, each against an independent check."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from extremalcurves.groebner import buchberger  # noqa: E402
from extremalcurves.modules import (  # noqa: E402
    GraphBasis,
    PresentedModule,
    free_resolution_from_gb,
    module_kernel,
)
from extremalcurves.oracle import GradedSpan  # noqa: E402
from extremalcurves.ring import QQ, PolyRing, Polynomial, PrimeField  # noqa: E402

SETTINGS = settings(max_examples=20, derandomize=True, deadline=None, database=None)
FIELDS = [QQ, PrimeField(7)]


@st.composite
def rings(draw):
    return PolyRing(draw(st.integers(3, 5)), draw(st.sampled_from(FIELDS)))


@st.composite
def forms(draw, ring, degree, min_terms=0, max_terms=3):
    """A homogeneous form of the given degree with a few small terms."""
    if degree < 0:
        return ring.zero
    monos = ring.monomials_of_degree(degree)
    picked = draw(st.lists(
        st.sampled_from(monos), min_size=min(min_terms, len(monos)), max_size=max_terms, unique=True
    ))
    coeffs = draw(st.lists(st.integers(-5, 5).filter(bool), min_size=len(picked), max_size=len(picked)))
    return Polynomial(ring, list(zip(picked, coeffs)))


@st.composite
def ideals(draw):
    ring = draw(rings())
    top = 3 if ring.nvars == 3 else 2
    gens = []
    for _ in range(draw(st.integers(2, 4 if ring.nvars < 5 else 3))):
        gens.append(draw(forms(ring, draw(st.integers(2, top)), min_terms=2, max_terms=4)))
    return ring, [g for g in gens if g]


@st.composite
def column_maps(draw):
    """Homogeneous columns of a map into F = R(-w_0) + ... + R(-w_{r-1}),
    with the degree of each column."""
    ring = draw(rings())
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    cols, degs = [], []
    for _ in range(draw(st.integers(2, 4))):
        deg = max(twists) + draw(st.integers(0, 2))
        cols.append([draw(forms(ring, deg - w, min_terms=1)) for w in twists])
        degs.append(deg)
    return ring, twists, cols, degs


def combine(ring, coeffs, cols):
    out = [ring.zero] * len(cols[0])
    for c, col in zip(coeffs, cols):
        out = [o + c * e for o, e in zip(out, col)]
    return out


@SETTINGS
@given(ideals())
def test_resolution_verifies_and_matches_the_numerator(data):
    ring, gens = data
    gb = buchberger(gens, ring)
    res = free_resolution_from_gb(gb)
    res.verify()
    assert res.length <= ring.nvars
    numerator = gb.initial_ideal().hilbert_numerator()
    assert res.betti_table().alternating_numerator(ring.nvars) == numerator


@SETTINGS
@given(column_maps())
def test_kernel_vectors_are_syzygies(data):
    ring, twists, cols, _ = data
    zero = [ring.zero] * len(twists)
    for vec in module_kernel(cols, twists, ring):
        assert combine(ring, vec, cols) == zero


@SETTINGS
@given(column_maps(), st.data())
def test_lift_reproduces_a_combination(data, draw):
    ring, twists, cols, degs = data
    top = max(degs) + draw.draw(st.integers(0, 1))
    coeffs = [draw.draw(forms(ring, top - d)) for d in degs]
    target = combine(ring, coeffs, cols)
    lifted = GraphBasis(cols, twists, ring).lift(target)
    assert lifted is not None
    assert combine(ring, lifted, cols) == target


@SETTINGS
@given(column_maps())
def test_presented_module_hf_matches_linear_algebra(data):
    ring, twists, cols, degs = data
    pm = PresentedModule(ring, twists, cols)
    for j in range(min(twists), max(degs) + 3):
        # rows: every monomial multiple of every relation landing in degree j
        span = GradedSpan(ring, [])
        index = {}
        rank = 0
        for col, d in zip(cols, degs):
            for m in ring.monomials_of_degree(j - d):
                row = {}
                for s, entry in enumerate(col):
                    for mm, c in entry.mono_shift(m).terms:  # integer coefficients
                        row[index.setdefault((s, mm), len(index))] = int(c)
                if row:
                    rank += span._insert(row)
        free = sum(ring.dim_degree(j - w) for w in twists)
        assert pm.hf(j) == free - rank
