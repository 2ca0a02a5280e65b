"""The graph basis, a presented module that the one Gröbner driver builds,
against the run it replaced (`reference.BatchGraphBasis`: every graph
element added, then the pairs completed), on random columns over QQ,
Z/32003 and Z/7 with zero columns, on columns of mostly single terms
(whose kernel generators are also checked to be syzygies), and on the
dual rows, in the field, that the h2 path reads: the same kernel (the kernel
generators of each reduce to zero in the other), the same coimage Hilbert
function, as many standard monomials as it counts, and the same
constructed curve ideals (each side on its own copy of the input);
dropping one kernel generator fails that check.  Then the ideal
arithmetic that runs on the graph basis, against oracles that do not
share it: intersections against inclusion-exclusion of the graded
dimensions of `oracle_ideal_dims` (pure linear algebra), quotients
against the route by exact division, and kernels of maps with zero
images and zero relations.  CI runs this module under two string-hash
seeds: the driver's insertion order must not hang on dict order."""

import copy
import hashlib
import random
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from extremalcurves import construct as construct_module  # noqa: E402
from extremalcurves.construct import (  # noqa: E402
    ConstructionError,
    ConstructionInput,
    construct_curve,
    random_construction_input,
)
from extremalcurves.groebner import _Engine, buchberger  # noqa: E402
from extremalcurves.ideals import Ideal, intersect, kernel_of_map, quotient  # noqa: E402
from extremalcurves.ideals import polynomial_vector  # noqa: E402
from extremalcurves.modules import GraphBasis, packed_vector  # noqa: E402
from extremalcurves.oracle import oracle_ideal_dims  # noqa: E402
from extremalcurves.ring import QQ, PolyRing, Polynomial, PrimeField  # noqa: E402
from reference import BatchGraphBasis, brute_force_standard_basis, contains, division_quotient, reduce  # noqa: E402

SETTINGS = settings(max_examples=20, derandomize=True, deadline=None, database=None)
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
def graph_inputs(draw):
    """Columns into F = R(-w_0) + ... + R(-w_{r-1}) in 3 to 5 variables,
    some of them zero."""
    ring = PolyRing(draw(st.integers(3, 5)), draw(st.sampled_from(FIELDS)))
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    cols = []
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.integers(0, 4)) == 0:
            cols.append({})
            continue
        deg = max(twists) + draw(st.integers(0, 2))
        cols.append(packed_vector(ring, [draw(forms(ring, deg - w)) for w in twists]))
    return ring, twists, cols


def assert_same_graph(a, b, top):
    """a and b hold one kernel, so each one's kernel generators reduce to
    zero in the other, and their coimages agree up to degree top; a's
    standard monomials are its order ideal's walk, as many as `hf`
    counts."""
    for x, y in ((a, b), (b, a)):
        for v in x.kernel_generators():
            assert reduce(y, v) == {}
    for e in range(min(a.gen_degrees) - 1, top + 1):
        assert a.hf(e) == b.hf(e)
        assert a.standard_basis(e) == brute_force_standard_basis(a, e)
        assert len(a.standard_basis(e)) == a.hf(e)


def without(graph, drop):
    """A copy of graph whose engine lacks its element drop."""
    out = copy.copy(graph)
    out.__dict__.pop("series", None)
    out._standard = {}
    out.engine = _Engine(graph.ring)
    for t, g in enumerate(graph.engine.basis):
        if t != drop:
            out.engine.add(g)
    return out


@SETTINGS
@given(graph_inputs())
def test_the_driver_graph_matches_the_batch_run(data):
    ring, twists, cols = data
    graph = GraphBasis(cols, twists, ring)
    batch = BatchGraphBasis(cols, twists, ring)
    assert_same_graph(graph, batch, max(graph.gen_degrees) + 3)


@st.composite
def monomial_columns(draw):
    """Columns of Polynomials into F = R(-w_0) + ... + R(-w_{r-1}) in 3 to
    5 variables whose entries are single terms three times in four (zero
    at times)."""
    ring = PolyRing(draw(st.integers(3, 5)), draw(st.sampled_from(FIELDS)))
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    cols = []
    for _ in range(draw(st.integers(2, 5))):
        deg = max(twists) + draw(st.integers(0, 2))
        size = draw(st.sampled_from((1, 1, 1, 2)))
        cols.append([draw(forms(ring, deg - w, max_terms=size)) for w in twists])
    return ring, twists, cols


@SETTINGS
@given(monomial_columns())
def test_monomial_heavy_graph_matches_the_batch_run(data):
    # the same kernel and coimage as the batch run, and each kernel
    # generator c a syzygy of the columns: sum c_t col_t = 0
    ring, twists, cols = data
    packed = [packed_vector(ring, c) for c in cols]
    graph = GraphBasis(packed, twists, ring)
    assert_same_graph(graph, BatchGraphBasis(packed, twists, ring), max(graph.gen_degrees) + 3)
    for v in graph.kernel_generators():
        coeffs = polynomial_vector(ring, v, len(cols))
        for s in range(len(twists)):
            assert not sum((c * col[s] for c, col in zip(coeffs, cols)), ring.zero)


@SETTINGS
@given(graph_inputs(), st.data())
def test_dropping_a_kernel_generator_fails_the_check(data, draw):
    # the negative control of `assert_same_graph`: no lead of the driver's
    # engine divides another in its component, so the dropped lead becomes
    # a standard monomial, or the dropped generator no longer reduces
    ring, twists, cols = data
    graph = GraphBasis(cols, twists, ring)
    eng = graph.engine
    kernel = [t for t, g in enumerate(eng.basis) if g.keys[0] >> eng.comp_shift >= graph.first]
    hypothesis.assume(kernel)
    drop = draw.draw(st.sampled_from(kernel))
    batch = BatchGraphBasis(cols, twists, ring)
    top = max(max(graph.gen_degrees) + 3, graph.engine.basis[drop].deg)
    with pytest.raises(AssertionError):
        assert_same_graph(without(graph, drop), batch, top)


@SETTINGS
@given(st.integers(3, 5), st.integers(3, 5), st.integers(0, 2), st.integers(0, 10**6), st.sampled_from(FIELDS))
def test_the_dual_rows_graph_matches_the_batch_run(n, d, a, seed, field):
    # the field rows of the dual map that `DualCohomology.coimage_b` takes
    # the coimage of
    I = construct_curve(random_construction_input(n, d, a, random.Random(seed)))
    ring = PolyRing(I.ring.nvars, field)
    res = Ideal(ring, [Polynomial(ring, g.terms) for g in I.gens]).resolution()
    hypothesis.assume(res.length == n)
    rows = res.dual(n - 1)
    twists = [-w for w in res.twists[n]]
    graph = GraphBasis(rows, twists, ring)
    assert_same_graph(graph, BatchGraphBasis(rows, twists, ring), max(graph.gen_degrees) + 3)


def in_field(inp, field):
    if field == QQ:
        return inp
    ring = PolyRing(inp.n + 1, field)
    return ConstructionInput(n=inp.n, d=inp.d, a=inp.a, f_list=tuple(Polynomial(ring, f.terms) for f in inp.f_list),
                             f=Polynomial(ring, inp.f.terms))


def outcome(inp):
    """The reduced Gröbner basis of the ideal constructed from a fresh copy
    of inp, or the class of the construction's error.  An input keeps the
    kernel of its first successful `validate`, so each run takes its own
    copy and makes its own graph basis."""
    inp = ConstructionInput(n=inp.n, d=inp.d, a=inp.a, f_list=inp.f_list, f=inp.f)
    try:
        return construct_curve(inp).groebner()
    except ConstructionError as err:
        return type(err)


@SETTINGS
@given(st.integers(3, 5), st.integers(3, 6), st.integers(0, 3), st.integers(0, 10**6), st.sampled_from(FIELDS))
def test_constructions_match_the_batch_graph(n, d, a, seed, field):
    inp = in_field(random_construction_input(n, d, a, random.Random(seed)), field)
    with mock.patch.object(construct_module, "GraphBasis", BatchGraphBasis):
        batch = outcome(inp)
    assert outcome(inp) == batch


def test_kernel_generator_bytes_are_pinned():
    # one graph with a zero column and field columns, over QQ and Z/7: the
    # driver's kernel generators in their order, under any string-hash seed
    digests = []
    for field in (QQ, PrimeField(7)):
        ring = PolyRing(3, field)
        x0, x1, x2 = ring.gens()
        cols = [[x0 * x1, x2], [x1 * x1, x0], [ring.zero, ring.zero], [x2 * x2 - x0 * x1, x1 + x2]]
        wanted = [[p * Fraction(1, m) for p in col] for col, m in zip(cols, [2, 1, 3, 1])]
        graph = GraphBasis([packed_vector(ring, c) for c in wanted], [0, 1], ring)
        gens = [sorted((s, sorted(e.items())) for s, e in v.items()) for v in graph.kernel_generators()]
        digests.append(hashlib.sha256(repr(gens).encode()).hexdigest())
    assert digests == [
        "5a7599223b75cf41b9c4620abc5211b45bce6a06f063f6650da07105749c5355",
        "297586808bd4a48bf573b533f1dc5e18e6f48e0adf57c0ada6a5e7975f3935df",
    ]


# ---------------------------------------------------------------------------
# ideal arithmetic against oracles outside the graph basis


@st.composite
def ideal_pairs(draw):
    """Two nonzero homogeneous ideals of 1 to 3 generators of degree 1 to 2
    in 3 or 4 variables."""
    ring = PolyRing(draw(st.integers(3, 4)), draw(st.sampled_from(FIELDS)))

    def ideal():
        gens = [draw(forms(ring, draw(st.integers(1, 2)))) for _ in range(draw(st.integers(1, 3)))]
        hypothesis.assume(any(gens))
        return Ideal(ring, gens)

    return ring, ideal(), ideal()


@SETTINGS
@given(ideal_pairs())
def test_intersection_dimensions_by_inclusion_exclusion(data):
    ring, I, J = data
    K = intersect(I, J)
    top = 5
    dims_i = oracle_ideal_dims(list(I.gens), top, ring)
    dims_j = oracle_ideal_dims(list(J.gens), top, ring)
    dims_sum = oracle_ideal_dims(list(I.gens + J.gens), top, ring)
    assert oracle_ideal_dims(list(K.gens), top, ring) == [a + b - c for a, b, c in zip(dims_i, dims_j, dims_sum)]


@SETTINGS
@given(ideal_pairs())
def test_quotients_match_the_division_route(data):
    ring, I, J = data
    Q = quotient(I, J)
    assert Q == division_quotient(I, J)
    gb = I.groebner()
    assert all(contains(gb, q * g) for q in Q.gens for g in J.gens)


@st.composite
def maps_with_zeros(draw):
    """Images and relations in 3 variables, zeros put in at drawn places;
    at times every image is zero."""
    ring = PolyRing(3, draw(st.sampled_from(FIELDS)))
    zero_map = draw(st.booleans())
    images = [ring.zero if zero_map else draw(forms(ring, draw(st.integers(1, 2)))) for _ in range(draw(st.integers(1, 3)))]
    relations = [draw(forms(ring, draw(st.integers(1, 2)))) for _ in range(draw(st.integers(0, 3)))]
    images.insert(draw(st.integers(0, len(images))), ring.zero)
    relations.insert(draw(st.integers(0, len(relations))), ring.zero)
    return ring, images, relations


@SETTINGS
@given(maps_with_zeros())
def test_kernels_of_maps_with_zero_entries(data):
    ring, images, relations = data
    ker = kernel_of_map(images, relations, ring)
    units = [[ring.one if s == t else ring.zero for s in range(len(images))] for t, p in enumerate(images) if not p]
    assert all(any(vec) for vec in ker)  # no zero vector
    assert all(u in ker for u in units)  # a zero image's unit comes out as it is
    if not any(images):
        assert ker == units  # the zero map: the full source
    live = [p for p in relations if p]
    gb = buchberger(live, ring) if live else None
    for vec in ker:
        h = ring.zero
        for c, p in zip(vec, images):
            h = h + c * p
        assert (not h) if gb is None else contains(gb, h)
