"""Property tests for the packed engine on random homogeneous data in 3 to
5 variables over QQ and Z/7: reduced bases, minimal generators,
resolutions (and, on random constructions, the frame's shortest-divisor
rule against the first divisor), kernels and the coimage a graph basis
reads off them, normal forms, presented modules (their Hilbert functions
and standard monomials) and the last-variable saturation, each against an
independent check; the one Gröbner driver against the add-then-complete
runs of `tests/reference.py` (reduced bases and capped leads, also over
Z/32003, and presented modules on the dual rows of random constructions),
with no lead of a driver's engine dividing another and a negative control
for that check; and the fraction-free
minimalization of resolutions, with the dual rows read from its integers,
against its field reference on random constructions in P^3 to P^5."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from extremalcurves import ideals as ideals_module  # noqa: E402
from extremalcurves.cohomology import DualCohomology  # noqa: E402
from extremalcurves.construct import construct_curve, random_construction_input  # noqa: E402
from extremalcurves.groebner import (  # noqa: E402
    _Engine,
    _run,
    _to_engine,
    buchberger,
    initial_monomials,
    minimal_basis,
)
from extremalcurves.modules import (  # noqa: E402
    GraphBasis,
    PresentedModule,
    free_resolution_from_gb,
    module_kernel,
    packed_vector,
)
from extremalcurves.monomials import MonomialIdeal  # noqa: E402
from extremalcurves.oracle import _insert, minimal_generators  # noqa: E402
from extremalcurves.packing import MAXEXP, ExponentLimitError, divides, layout  # noqa: E402
from extremalcurves.ring import QQ, PolyRing, Polynomial, PrimeField, mono_div, mono_divides  # noqa: E402
from reference import (  # noqa: E402
    BatchPresentedModule,
    alternating_numerator,
    batch_basis,
    batch_initial_monomials,
    brute_force_standard_basis,
    change_coordinates,
    contains,
    field_cols,
    field_resolution,
    first_divisor_resolution,
    mats,
    verify_resolution,
    with_resolution,
)

SETTINGS = settings(max_examples=20, derandomize=True, deadline=None, database=None)
FIELDS = [QQ, PrimeField(7)]
ALL_FIELDS = [QQ, PrimeField(32003), PrimeField(7)]
R3 = PolyRing(3)


@st.composite
def rings(draw, fields=FIELDS):
    return PolyRing(draw(st.integers(3, 5)), draw(st.sampled_from(fields)))


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
def padded_generators(draw, fields=FIELDS):
    """Forms of degree 1 to 3 with redundant members put in at drawn places:
    variable multiples, scalar multiples, sums of two members of one degree,
    and S-vectors of two members whose leads share a variable, which only
    the pairs of their own degree show redundant.  A redundant member may
    land before the member it came from, which then becomes the redundant
    one."""
    ring = draw(rings(fields))
    top = 3 if ring.nvars == 3 else 2
    gens = [
        draw(forms(ring, draw(st.integers(1, top)), min_terms=1, max_terms=3))
        for _ in range(draw(st.integers(2, 4)))
    ]
    for _ in range(draw(st.integers(1, 4))):
        f = draw(st.sampled_from(gens))
        kind = draw(st.sampled_from(("s-vector", "variable", "scalar", "sum")))
        mates = [g for g in gens if g.degree() == f.degree()]
        lcms = [(g, tuple(map(max, f.lead_monomial, g.lead_monomial))) for g in gens]
        # leads that share a variable, neither dividing the other
        near = [(g, w) for g, w in lcms
                if max(f.degree(), g.degree()) < sum(w) < min(f.degree() + g.degree(), top + 2)]
        if kind == "variable" and f.degree() < 3:
            extra = f * ring.gen(draw(st.integers(0, ring.nvars - 1)))
        elif kind == "sum":
            extra = f + draw(st.sampled_from(mates))
        elif kind == "s-vector" and near:
            g, w = draw(st.sampled_from(near))
            extra = (f.mono_shift(mono_div(w, f.lead_monomial), Fraction(1, f.lead_coeff))
                     - g.mono_shift(mono_div(w, g.lead_monomial), Fraction(1, g.lead_coeff)))
        else:
            extra = f * draw(st.integers(-3, 3).filter(bool))
        if extra:
            gens.insert(draw(st.integers(0, len(gens))), extra)
    return ring, gens


def assert_reduced(gb, gens):
    """Monic leads, none dividing another, no term of an element divisible
    by another element's lead, and every generator a member."""
    leads = [p.lead_monomial for p in gb.polys]
    for k, p in enumerate(gb.polys):
        assert p.lead_coeff == 1
        for m, _ in p.terms:
            assert not any(mono_divides(lead, m) for t, lead in enumerate(leads) if t != k)
    assert all(contains(gb, g) for g in gens)


@SETTINGS
@given(ideals())
def test_buchberger_basis_is_reduced(data):
    ring, gens = data
    assert_reduced(buchberger(gens, ring), gens)


@SETTINGS
@given(padded_generators())
def test_minimal_basis_keeps_the_oracle_subset(data):
    ring, gens = data
    kept, gb = minimal_basis(gens, ring)
    assert kept == minimal_generators(gens)
    assert gb == buchberger(kept, ring)
    assert_reduced(gb, gens)


def assert_no_dividing_leads(eng):
    """No lead of the engine divides another lead in its component."""
    for leads in eng.by_slot.values():
        for a, i in leads:
            assert not any(j != i and divides(a, b, eng.himask) for b, j in leads)


@SETTINGS
@given(padded_generators(ALL_FIELDS), st.integers(1, 4))
def test_the_driver_matches_the_batch_run(data, cap):
    # the one driver against the run that adds every generator and then
    # completes: the same reduced basis, the same leads up to the cap, and
    # none of the batch run's redundant leads
    ring, gens = data
    assert buchberger(gens, ring) == batch_basis(gens, ring)
    capped = initial_monomials(gens, cap, ring)
    assert all(sum(m) <= cap for m in capped.gens)
    assert capped.gens == tuple(m for m in batch_initial_monomials(gens, cap, ring).gens if sum(m) <= cap)
    assert initial_monomials(gens, None, ring) == batch_initial_monomials(gens, None, ring)
    for top in (None, cap):
        assert_no_dividing_leads(_run(gens, ring, top)[0])


def _insert_unreduced(ring, gens):
    """The driver with the top-reduction of its inputs taken out: each
    generator goes in as it is once the pairs below it are done."""
    eng = _Engine(ring)
    for e in sorted((_to_engine(g, eng.layout, eng.modulus) for g in gens if g), key=lambda e: e.deg):
        eng.complete(cap=e.deg, product=True)
        eng.add(e)
    eng.complete(product=True)
    return eng


@SETTINGS
@given(padded_generators(ALL_FIELDS))
@example((R3, [R3.gen(0) * R3.gen(1), R3.gen(0) ** 2 * R3.gen(1)]))
def test_leads_divide_without_the_top_reduction(data):
    # the negative control of `assert_no_dividing_leads`: without the
    # top-reduction an input whose lead another input's lead divides goes
    # in as it is, and the check sees it
    ring, gens = data
    leads = [g.lead_monomial for g in gens if g]
    hypothesis.assume(any(i != j and mono_divides(a, b) for i, a in enumerate(leads) for j, b in enumerate(leads)))
    with pytest.raises(AssertionError):
        assert_no_dividing_leads(_insert_unreduced(ring, gens))


@SETTINGS
@given(st.integers(3, 5), st.integers(3, 5), st.integers(0, 2), st.integers(0, 10**6), st.sampled_from(ALL_FIELDS))
def test_presented_modules_match_the_batch_run(n, d, a, seed, field):
    # the dual rows that `DualCohomology` presents, built by the one driver
    # and by the batch run: normal forms modulo a Gröbner basis are unique,
    # so the Hilbert function, standard monomials and multiplication maps
    # agree
    I = constructed_curve(n, d, a, seed, field)
    hypothesis.assume(I is not None)
    res, ring = I.resolution(), I.ring
    for k in range(max(res.length - 2, 0), res.length):
        twists = [-w for w in res.twists[k + 1]]
        rows = res.dual(k)[0]
        pm, batch = PresentedModule(ring, twists, rows), BatchPresentedModule(ring, twists, rows)
        assert_no_dividing_leads(pm.engine)
        for j in range(min(twists), min(twists) + 4):
            assert pm.hf(j) == batch.hf(j)
            assert pm.standard_basis(j) == batch.standard_basis(j)
            for var in range(ring.nvars):
                assert pm.mult_matrix(var, j) == batch.mult_matrix(var, j)


def integers(gb):
    return [(e.keys, e.coeffs) for e in gb.elems]


@SETTINGS
@given(ideals(), st.data())
def test_basis_equality_from_integers_matches_the_polynomials(ideal, data):
    # the other generators give the same ideal (reversed, rescaled, plus a
    # multiple), or drop one generator, or add one form
    ring, gens = ideal
    kind = data.draw(st.sampled_from(("same", "drop", "add")))
    if kind == "same":
        scalars = data.draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(gens), max_size=len(gens)))
        other = [g * c for g, c in zip(reversed(gens), scalars)] + [gens[0] * ring.gen(0)]
    elif kind == "drop":
        other = gens[1:]
    else:
        other = gens + [data.draw(forms(ring, 2, min_terms=1))]
    a, b = buchberger(gens, ring), buchberger(other, ring)
    # the integers are those of the monic polynomials, one vector each
    lay, modulus = layout(ring.nvars), getattr(ring.field, "p", 0)
    for gb in (a, b):
        assert integers(gb) == [(e.keys, e.coeffs) for e in (_to_engine(p, lay, modulus) for p in gb.polys)]
    assert (a == b) == (integers(a) == integers(b)) == (a.polys == b.polys)
    assert a != b or hash(a) == hash(b)
    if kind == "same":
        assert a == b


@SETTINGS
@given(padded_generators())
def test_minimal_basis_enforces_the_exponent_limit(data):
    # the oracle raises once it reaches the degree: alone, the generator
    # above the limit is its first degree
    ring, gens = data
    big = gens[-1] * ring.gen(0) ** MAXEXP
    with pytest.raises(ExponentLimitError):
        minimal_generators([big])
    with pytest.raises(ExponentLimitError):
        minimal_basis([big], ring)
    with pytest.raises(ExponentLimitError):
        minimal_basis(gens + [big], ring)


@st.composite
def ideals_with_last_variable_factors(draw):
    """Forms of degree 1 or 2 times powers x_last^0..2 of the last variable."""
    ring = draw(rings())
    last = ring.gen(ring.nvars - 1)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        f = draw(forms(ring, draw(st.integers(1, 2)), min_terms=1))
        gens.append(f * last ** draw(st.integers(0, 2)))
    return ring, gens


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
    verify_resolution(res, gb)
    assert res.length <= ring.nvars
    numerator = gb.initial_ideal().hilbert_numerator()
    assert alternating_numerator(res.betti_table()) == numerator


def constructed_curve(n, d, a, seed, field, matrix=None):
    """A seeded random construction cast to field (None when a denominator
    vanishes there), in the coordinates of matrix when given."""
    I = construct_curve(random_construction_input(n, d, a, random.Random(seed)))
    ring = PolyRing(I.ring.nvars, field)
    try:
        I = ideals_module.Ideal(ring, [Polynomial(ring, g.terms) for g in I.gens])
    except ZeroDivisionError:
        return None
    return I if matrix is None else change_coordinates(I, matrix)


@st.composite
def constructed_curves(draw):
    """Random constructions in P^3 to P^5 over QQ, Z/32003 or Z/7, some
    after a small change to dense coordinates.  Units are cancelled only
    in P^5 here."""
    n = draw(st.integers(3, 5))
    matrix = None
    if draw(st.booleans()):
        matrix = [[int(i == j) + draw(st.integers(-1, 1)) * (i < j) for j in range(n + 1)] for i in range(n + 1)]
    I = constructed_curve(
        n, draw(st.integers(3, 5)), draw(st.integers(0, 2)), draw(st.integers(0, 10**6)),
        draw(st.sampled_from([QQ, PrimeField(32003), PrimeField(7)])), matrix,
    )
    hypothesis.assume(I is not None)
    return I


def assert_matches_the_field_reference(I):
    # fraction-free columns with one scale each, against the same frame
    # made monic and minimalized in the field
    res = free_resolution_from_gb(I.groebner())
    ref = field_resolution(I.groebner())
    assert res.twists == ref.twists
    assert field_cols(res) == field_cols(ref)
    assert mats(res) == mats(ref)
    for k, level in enumerate(field_cols(res)):
        # the dual rows hold integers (residues mod p): each is its field
        # row times a positive multiplier, 1 mod p
        rows, multipliers = res.dual(k)
        assert len(rows) == len(res.twists[k]) and all(m > 0 for m in multipliers)
        assert all(type(v) is int for row in rows for e in row.values() for v in e.values())
        if I.ring.modulus:
            assert set(multipliers) <= {1}
        for r, (row, m) in enumerate(zip(rows, multipliers)):
            assert row == {c: {key: m * v for key, v in col[r].items()} for c, col in enumerate(level) if r in col}


@SETTINGS
@given(constructed_curves())
def test_integer_minimalization_matches_the_field_reference(I):
    assert_matches_the_field_reference(I)


@SETTINGS
@given(
    st.integers(3, 5), st.integers(3, 5), st.integers(0, 2), st.integers(0, 10**6),
    st.sampled_from([QQ, PrimeField(32003)]),
)
@example(5, 4, 1, 17, PrimeField(7))
def test_shortest_divisor_resolves_like_the_first_divisor(n, d, a, seed, field):
    # the frame's reducer rule moves only the tails: the first divisor in
    # index order gives the same twists, Betti table and Rao module
    I = constructed_curve(n, d, a, seed, field)
    hypothesis.assume(I is not None)
    gb, res = I.groebner(), I.resolution()
    verify_resolution(res, gb)
    first = first_divisor_resolution(gb)
    assert (first.twists, first.length) == (res.twists, res.length)
    assert first.betti_table() == res.betti_table()
    window = (-2, d + n)
    assert DualCohomology(with_resolution(I, first)).rao_dims(*window) == DualCohomology(I).rao_dims(*window)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(7)], ids=["QQ", "zp32003", "zp7"])
@pytest.mark.parametrize("n,d,a,seed", [(5, 4, 0, 0), (5, 5, 1, 0)])
def test_integer_minimalization_clears_with_non_unit_pivots(n, d, a, seed, field):
    # over QQ these cancel units u with u not dividing the cleared entry,
    # so the cleared column is scaled and its content stripped
    I = constructed_curve(n, d, a, seed, field)
    assert I is not None
    assert_matches_the_field_reference(I)


@SETTINGS
@given(ideals())
def test_lead_only_run_gives_the_initial_ideal(data):
    ring, gens = data
    assert initial_monomials(gens, None, ring) == buchberger(gens, ring).initial_ideal()


@SETTINGS
@given(column_maps())
def test_kernel_vectors_are_syzygies(data):
    ring, twists, cols, _ = data
    zero = [ring.zero] * len(twists)
    for vec in module_kernel(cols, twists, ring):
        assert combine(ring, vec, cols) == zero


@SETTINGS
@given(column_maps(), st.data())
def test_a_combination_of_the_relations_reduces_to_zero(data, draw):
    # normal forms are unique, so adding a combination of the relations to
    # any vector leaves its normal form unchanged; a wrong multiplier in
    # the reduction would rescale it
    ring, twists, cols, degs = data
    top = max(degs) + draw.draw(st.integers(0, 1))
    coeffs = [draw.draw(forms(ring, top - d)) for d in degs]
    target = combine(ring, coeffs, cols)
    other = [draw.draw(forms(ring, top - w)) for w in twists]
    pm = PresentedModule(ring, twists, [packed_vector(ring, c) for c in cols])
    assert pm.reduce(packed_vector(ring, target)) == {}
    shifted = [o + t for o, t in zip(other, target)]
    assert pm.reduce(packed_vector(ring, shifted)) == pm.reduce(packed_vector(ring, other))


@SETTINGS
@given(column_maps())
def test_presented_module_hf_matches_linear_algebra(data):
    ring, twists, cols, degs = data
    pm = PresentedModule(ring, twists, [packed_vector(ring, c) for c in cols])
    graph = GraphBasis([packed_vector(ring, c) for c in cols], twists, ring)
    for j in range(min(twists), max(degs) + 3):
        # rows: every monomial multiple of every relation landing in degree j
        pivots = {}
        index = {}
        rank = 0
        for col, d in zip(cols, degs):
            for m in ring.monomials_of_degree(j - d):
                row = {}
                for s, entry in enumerate(col):
                    for mm, c in entry.mono_shift(m).terms:  # integer coefficients
                        row[index.setdefault((s, mm), len(index))] = int(c)
                if row:
                    rank += _insert(pivots, row, getattr(ring.field, "p", 0))
        free = sum(ring.dim_degree(j - w) for w in twists)
        assert pm.hf(j) == free - rank
        # the coimage of the columns is their image: rank in every degree
        assert graph.hf(j) == rank


@SETTINGS
@given(column_maps(), st.data())
def test_the_graph_basis_reads_the_coimage_off_the_kernel(data, draw):
    # the coimage as the presented module of the kernel generators, which
    # runs Buchberger on them again: the same Hilbert function and normal
    # forms (normal forms modulo a Gröbner basis are unique)
    ring, twists, cols, degs = data
    graph = GraphBasis([packed_vector(ring, c) for c in cols], twists, ring)
    pm = PresentedModule(ring, degs, graph.kernel_generators())
    degrees = range(min(degs) - 1, max(degs) + 3)
    assert [graph.hf(j) for j in degrees] == [pm.hf(j) for j in degrees]
    top = max(degs) + draw.draw(st.integers(0, 1))
    vec = packed_vector(ring, [draw.draw(forms(ring, top - d)) for d in degs])
    assert graph.reduce(vec) == pm.reduce(vec)
    for v in graph.kernel_generators():
        assert graph.reduce(v) == {}


@st.composite
def presented_modules(draw):
    """Relations on one to three slots of twists -1 to 1, some of them
    zero in a slot, and at times one relation with a unit in a drawn slot,
    which kills that slot; returns the module and the killed slot."""
    ring = draw(rings())
    twists = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3))
    rels = []
    for _ in range(draw(st.integers(0, 4))):
        deg = max(twists) + draw(st.integers(0, 2))
        rels.append([draw(forms(ring, deg - w)) for w in twists])
    killed = draw(st.one_of(st.none(), st.integers(0, len(twists) - 1)))
    if killed is not None:
        # position over term: the lead sits in the lowest nonzero slot
        rel = [draw(forms(ring, twists[killed] - w)) if t > killed else ring.zero
               for t, w in enumerate(twists)]
        rel[killed] = ring.one * draw(st.integers(-5, 5).filter(bool))
        rels.append(rel)
    return PresentedModule(ring, twists, [packed_vector(ring, r) for r in rels]), killed


@SETTINGS
@given(presented_modules(), st.data())
def test_grown_standard_bases_match_the_brute_force(data, draw):
    pm, killed = data
    lowest = min(pm.gen_degrees)
    # in a drawn order, so a degree below the grown top is read back from
    # the memo; from two below the lowest generator, where there is none
    degrees = draw.draw(st.permutations(range(lowest - 2, max(pm.gen_degrees) + 5)))
    for e in degrees:
        assert pm.standard_basis(e) == brute_force_standard_basis(pm, e)
    if killed is not None:
        cs = pm.engine.comp_shift
        assert not any(k >> cs == killed for e in degrees for k in pm.standard_basis(e))


@pytest.mark.parametrize("twists", [(), (0,), (-3, 2)])
def test_standard_bases_stop_at_the_packed_limit(twists):
    # the walk raises before it makes a key past the limit, naming the
    # monomial degree, the target degree and the lowest twist; mult_matrix
    # names its target degree, as its own guard did
    ring = PolyRing(3)
    x = ring.gens()
    slots = range(len(twists))
    rels = [[x[i] ** 2 if t == s else ring.zero for t in slots] for s in slots for i in range(3)]
    pm = PresentedModule(ring, twists, [packed_vector(ring, r) for r in rels])
    lowest = min(twists, default=0)
    top = lowest + MAXEXP
    assert pm.standard_basis(top) == []
    assert pm.mult_matrix(0, top - 1) == []
    for degree in (top, top + 5):
        message = (
            rf"^monomial degree {degree + 1 - lowest} of a standard basis \(degree {degree + 1}, "
            rf"lowest twist {lowest}\) exceeds the packed limit {MAXEXP}$"
        )
        with pytest.raises(ExponentLimitError, match=message):
            pm.mult_matrix(0, degree)


@SETTINGS
@given(ideals_with_last_variable_factors())
def test_last_variable_saturation_is_one_division(data):
    # Bayer-Stillman: for a revlex basis, the initial ideal of
    # (J : x_last^infty) is in(J) with the last exponent set to 0, which is
    # what the hyperplane section's values are read off; the reference
    # iterates ideal quotients
    ring, gens = data
    last = ring.nvars - 1
    gb = buchberger(gens, ring)
    zeroed = MonomialIdeal(ring.nvars, [m[:last] + (0,) for m in gb.initial_ideal().gens])
    J = ideals_module.Ideal(ring, gens)
    x_last = ideals_module.Ideal(ring, [ring.gen(last)])
    for _ in range(ring.nvars + 4):
        K = ideals_module.quotient(J, x_last)
        if K == J:
            break
        J = K
    else:
        raise AssertionError("quotient chain did not stabilize")
    assert J.initial_ideal() == zeroed
