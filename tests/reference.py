"""Reference algorithms and views that the package does not run, kept for the
tests that compare the package against them or read through them: the
rank of a dense matrix (`dense_rank`, through `oracle.fraction_rank`) and
a binary form's dense coefficient vector, Euclid's
gcd of binary forms in the ring's field, the kernel of the line
construction as a graph Gröbner basis in all n+1 variables, the
minimalization of the Schreyer frame in field arithmetic (`Fraction`s over
QQ), coordinate changes of ideals and the dense invertible draw, the gin
read off the full images in all n+1 variables, the general hyperplane
section by drawn hyperplanes, the Schreyer step with the first divisor
in index order as its reducer and the resolution it gives, the field view
of a resolution's maps (its integer columns with their scales applied)
with the check that they form a minimal resolution of the ideal,
resolution maps as `Polynomial`s, the row-reduced graded
piece of an ideal, the ideal-file polynomial reader as a token list and a
term closure, the revlex comparison of exponent tuples, the Borel closure
and the Hochster Betti oracle for monomial ideals, the pivot recursion
for Hilbert numerators with a `MonomialIdeal` at every node, the standard
monomials of a presented module by listing every monomial of the degree,
its Hilbert function and finite-length test slot by slot (one
`MonomialIdeal` per slot, and the artinian test of a monomial ideal), the
commutation check of a Rao module's multiplication maps, its generators
and annihilator by the dense stacked-rank and Koszul route, and the
planar check of any plane given by linear forms, through the Gröbner
basis of the cut; the ideal, presented-module and graph-basis runs that
add every input and then complete the pairs, as the engine did before
its one driver; the ideal quotient by exact division of the generators
of each I ∩ (g) by g, with that division and the divisibility and
quotient of exponent tuples; and small reads
of package objects that only the tests make: the normal form and
membership of a Gröbner basis, the regularity, top index, generator
degrees and alternating numerator of a Betti table, the graded dimensions of a
monomial ideal by counting its standard monomials, constant and monomial
polynomials, and the coefficient of one monomial."""

import random
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from extremalcurves.cohomology import InternalCheckError, NotACurveError, detect_hilbert_polynomial, hyperplane_section
from extremalcurves.construct import _is_binary
from extremalcurves.gin import DEFAULT_ENTRY_BOUND, GinDisagreement, GinResult, mix_seed
from extremalcurves.groebner import (
    GroebnerBasis,
    _divide,
    _Engine,
    _EnginePoly,
    _monic,
    _primitive,
    _to_engine,
    buchberger,
    initial_monomials,
    linear_images,
)
from extremalcurves.idealfile import IdealFileError
from extremalcurves.ideals import Ideal, intersect, random_unipotent_matrix
from extremalcurves.modules import (
    GraphBasis,
    PresentedModule,
    ResolutionData,
    _pot_element,
    _minimalize,
    _packed_columns,
    _schreyer_frame,
    packed_vector,
    polynomial_vector,
)
from extremalcurves.monomials import BettiTable, MonomialIdeal, _poly_add_shift, _trim, is_strongly_stable
from extremalcurves.oracle import _insert, _poly_rows, fraction_rank
from extremalcurves.packing import divides, layout
from extremalcurves.ring import PolyRing, Polynomial, _addmul, binom, mono_degree, revlex_key


def mono_divides(a, b) -> bool:
    """True when the exponent tuple a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b for exponent tuples, assuming b | a."""
    return tuple(x - y for x, y in zip(a, b))


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g when g divides f, by long division on lead terms; raises
    otherwise."""
    ring = f.ring
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    q_terms = []
    r = f
    coerce = ring.field.coerce
    while r:
        lm, lc = r.lead_monomial, r.lead_coeff
        gm, gc = g.lead_monomial, g.lead_coeff
        if not mono_divides(gm, lm):
            raise ValueError("not an exact division")
        mono = mono_div(lm, gm)
        coeff = coerce(Fraction(lc) / gc)
        q_terms.append((mono, coeff))
        r = r - g.mono_shift(mono, coeff)
    return Polynomial(ring, q_terms)


def division_quotient(I: Ideal, J: Ideal) -> Ideal:
    """I : J by the route the package took before quotients were kernels:
    per generator g of J, the generators of I ∩ (g) divided exactly by g,
    and those ideals intersected."""
    ring = I.ring
    if not J.gens:
        return Ideal(ring, [ring.one])
    result = None
    for g in J.gens:
        part = intersect(I, Ideal(ring, [g]))
        cur = Ideal(ring, [divide_exact(h, g) for h in part.gens])
        result = cur if result is None else intersect(result, cur)
    return Ideal.minimal(ring, result.gens)


def dense_rank(matrix, modulus=0) -> int:
    """`oracle.fraction_rank` of a dense matrix (a list of rows of int or
    `Fraction` entries): each row made sparse, its zeros left out."""
    return fraction_rank([{c: v for c, v in enumerate(row) if v} for row in matrix], modulus)


def binary_coeff_vector(p: Polynomial, degree: int):
    """Coefficients of a binary form along x0^e * x1^(degree-e), e = 0..degree,
    in the ring's field."""
    out = [p.ring.field.coerce(0)] * (degree + 1)
    for m, c in p.terms:
        out[m[0]] = c
    return out


def _uni_gcd(a, b, fld):
    """Monic gcd of univariate coefficient lists (ascending powers) over the
    field `fld`, each new coefficient normalised by `fld.coerce`."""

    def strip(v):
        v = list(v)
        while v and not v[-1]:
            v.pop()
        return v

    a, b = strip(a), strip(b)
    while b:
        # a mod b
        r = list(a)
        while len(r) >= len(b) and any(r):
            if not r[-1]:
                r.pop()
                continue
            f = Fraction(r[-1]) / b[-1]
            off = len(r) - len(b)
            for i, c in enumerate(b):
                r[off + i] = fld.coerce(r[off + i] - f * c)
            r.pop()
        a, b = b, strip(r)
    if a:
        lead = a[-1]
        a = [fld.coerce(Fraction(c) / lead) for c in a]
    return a


def binary_gcd(forms):
    """Gcd of homogeneous binary forms (monic in x0); 1 for coprime input."""
    forms = [p for p in forms if p]
    if not forms:
        raise ValueError("gcd of zero forms")
    ring = forms[0].ring
    x1_power = None
    uni = None
    for p in forms:
        if not _is_binary(p) or not p.is_homogeneous():
            raise ValueError("binary homogeneous forms required")
        deg = p.degree()
        vec = binary_coeff_vector(p, deg)
        # strip the trailing x1 part: v1 = deg - top x0 power
        top = max(i for i, c in enumerate(vec) if c)
        v1 = deg - top
        x1_power = v1 if x1_power is None else min(x1_power, v1)
        uni = vec if uni is None else _uni_gcd(uni, vec, ring.field)
    gdeg = max((i for i, c in enumerate(uni) if c), default=0)
    terms = []
    for e, c in enumerate(uni):
        if c:
            m = [0] * ring.nvars
            m[0] = e
            m[1] = gdeg - e + x1_power
            terms.append((tuple(m), c))
    return Polynomial(ring, terms)


def graph_kernel_ideal(inp) -> Ideal:
    """The glued curve's ideal as the projection of the syzygies of the
    nonzero values and the line's ideal (x2, ..., xn), computed by one graph
    basis in all n+1 variables, plus u_0 = x2^(d-1) when f = 0."""
    inp.validate()
    n, d = inp.n, inp.d
    ring = inp.f_list[0].ring
    x = ring.gens()
    planar_gens = [x[2] ** (d - 1)] + [x[i] for i in range(3, n + 1)]
    values = [inp.f] + list(inp.f_list)
    live = [t for t, p in enumerate(values) if p]
    cols = [packed_vector(ring, [p]) for p in [values[t] for t in live] + x[2:]]
    lay, coerce = layout(ring.nvars), ring.field.coerce
    pack, unpack = lay.pack, lay.unpack
    shifts = [pack(planar_gens[t].lead_monomial) for t in live]
    gens = []
    for vec in GraphBasis(cols, [0], ring).kernel_generators():
        acc = {}
        for s, entry in vec.items():
            if s < len(live):  # the relations' components drop out
                for k, c in entry.items():
                    acc[k + shifts[s]] = coerce(acc.get(k + shifts[s], 0) + c)
        terms = [(unpack(k), acc[k]) for k in sorted(acc) if acc[k]]
        if terms:
            gens.append(Polynomial.from_sorted(ring, terms))
    if not inp.f:
        gens.append(planar_gens[0])
    return Ideal.minimal(ring, gens)


def field_packed_columns(elements, bits, decode, modulus):
    """Monic packed columns of Schreyer-keyed elements: the term at key
    (image << bits) | rank lands in row t at image minus the lead image of
    t, where decode[rank] = (t, lead image)."""
    mask = (1 << bits) - 1
    cols = []
    for e in elements:
        col = {}
        for k, c in zip(e.keys, _divide(e.coeffs, e.coeffs[0], modulus)):
            t, img = decode[k & mask]
            col.setdefault(t, {})[(k >> bits) - img] = c
        cols.append(col)
    return cols


def field_minimalize(twists, cols, modulus):
    """Cancel unit entries level by level from the back, in the field.

    At each level the first column holding a unit, at its lowest unit row,
    is the pivot: every other column is cleared at that row, and the pivot
    row and column split off as a trivial summand."""
    live = [[True] * len(t) for t in twists]
    for k in range(len(cols) - 1, -1, -1):
        rows, tops, level = twists[k], twists[k + 1], cols[k]
        for j, pivot in enumerate(level):
            if not live[k + 1][j]:
                continue
            i = min((r for r in pivot if rows[r] == tops[j]), default=None)
            if i is None:
                continue
            inv = _divide([-1], pivot[i][0], modulus)[0]
            for jp, col in enumerate(level):
                q = col.pop(i, None) if jp != j and live[k + 1][jp] else None
                if q:
                    factor = {key: c * inv for key, c in q.items()}
                    for r, e in pivot.items():
                        if r != i and not _addmul(col.setdefault(r, {}), factor, e, modulus):
                            del col[r]
            live[k + 1][j] = live[k][i] = False
    index = [{old: new for new, old in enumerate(o for o, a in enumerate(lv) if a)} for lv in live]
    twists = [tuple(w for w, a in zip(t, lv) if a) for t, lv in zip(twists, live)]
    cols = [
        [{index[k][r]: e for r, e in col.items() if r in index[k]} for col, a in zip(level, live[k + 1]) if a]
        for k, level in enumerate(cols)
    ]
    while cols and not cols[-1]:
        cols.pop()
        twists.pop()
    return twists, cols


def field_resolution(gb) -> ResolutionData:
    """`modules.free_resolution_from_gb` with the frame's columns made
    monic in the field and minimalized there."""
    ring = gb.ring
    if not gb.elems:
        return ResolutionData(ring, [(0,)], [], [])
    modulus = ring.modulus
    levels = _schreyer_frame(gb)
    twists = [(0,)] + [tuple(e.deg for e in elements) for elements, _, _ in levels]
    cols = [field_packed_columns(*level, modulus) for level in levels]
    return field_resolution_data(ring, *field_minimalize(twists, cols, modulus))


def first_divisor_step(eng):
    """`modules._schreyer_step` with the reducer rule it had before the
    shortest divisor: each step of an S-pair's reduction uses the first
    element, in index order, whose lead divides (`_Engine.find_reducer`).
    Any divisor gives a syzygy with the same Schreyer lead, so the frame's
    leads and twists are those of the package; only the tails differ."""
    lay, modulus, basis, bits = eng.layout, eng.modulus, eng.basis, eng.rank_bits
    mask = (1 << bits) - 1
    leads = [g.keys[0] for g in basis]
    order = sorted(range(len(basis)), key=lambda t: (leads[t] & mask, t))
    rank = [0] * len(basis)
    for r, t in enumerate(order):
        rank[t] = r
    new_bits = len(basis).bit_length()
    decode = [(t, leads[t] >> bits) for t in order]
    chosen = []
    for i, li in enumerate(leads):
        img = li >> bits
        cands = []
        for lj, j in eng.by_slot[li & mask]:
            if j > i:
                w = lay.lcm(img, lj >> bits)
                cands.append((lay.degree(w - img), img - w, j, w))
        kept = []
        for _, nq, j, w in sorted(cands):
            if not any(divides(k, -nq, lay.himask) for k in kept):
                kept.append(-nq)
                chosen.append((i, j, w))
    lam = [g.coeffs[0] for g in basis]
    new = []
    for i, j, w in chosen:
        acc, a, b = eng.spair(i, j, (w << bits) | (leads[i] & mask))
        trace = []
        while acc:
            lead = min(acc)
            t = eng.find_reducer(lead)
            if t is None:
                raise AssertionError("S-pair of a Gröbner basis failed to reduce to zero")
            acc, a_s, b_s = eng.cancel_lead(acc, lead, basis[t])
            trace.append((lead, t, a_s, b_s))
        terms = {}
        mult = 1
        for lead, t, a_s, b_s in reversed(trace):
            key = ((lead >> bits) << new_bits) | rank[t]
            terms[key] = terms.get(key, 0) - b_s * mult * lam[t]
            mult *= a_s
        terms[(w << new_bits) | rank[i]] = mult * a * lam[i]
        terms[(w << new_bits) | rank[j]] = -mult * b * lam[j]
        if modulus:
            terms = {k: c % modulus for k, c in terms.items()}
        keys = sorted(k for k, c in terms.items() if c)
        new.append(_EnginePoly(keys, _primitive([terms[k] for k in keys], modulus), lay.degree(w)))
    new.sort(key=lambda e: (-e.deg, e.keys[0]))
    return new, new_bits, decode


def first_divisor_frame(gb):
    """`modules._schreyer_frame` with `first_divisor_step` for each level."""
    ring = gb.ring
    eng = _Engine(ring, rank_bits=0)
    for e in gb.elems:
        eng.add(e)
    levels = [(eng.basis, 0, [(0, 0)])]
    while True:
        new, bits, decode = first_divisor_step(eng)
        if not new:
            break
        levels.append((new, bits, decode))
        eng = _Engine(ring, rank_bits=bits)
        for e in new:
            eng.add(e)
    return levels


def first_divisor_resolution(gb) -> ResolutionData:
    """`modules.free_resolution_from_gb` on the frame of `first_divisor_step`:
    the resolution as the package made it before the shortest divisor."""
    ring = gb.ring
    if not gb.elems:
        return ResolutionData(ring, [(0,)], [], [])
    levels = first_divisor_frame(gb)
    twists = [(0,)] + [tuple(e.deg for e in elements) for elements, _, _ in levels]
    cols, scales = zip(*(_packed_columns(*level, ring.modulus) for level in levels))
    return ResolutionData(ring, *_minimalize(twists, list(cols), scales, ring.modulus))


def with_resolution(I: Ideal, res: ResolutionData) -> Ideal:
    """A copy of the ideal whose Gröbner basis is I's and whose resolution
    is res, for the verdict code to read."""
    J = Ideal(I.ring, I.gens)
    J._gb, J._resolution = I.groebner(), res
    return J


def field_resolution_data(ring, twists, cols):
    """`ResolutionData` of maps whose columns hold field entries already
    (each column's scale is 1)."""
    return ResolutionData(ring, twists, cols, [[1] * len(level) for level in cols])


def _times(entry, scale, modulus):
    """The packed entry {key: integer} of a column with the given integer
    scale, in the field: divided by it over QQ (Fractions), times it mod p."""
    if modulus:
        return {key: c * scale % modulus for key, c in entry.items()}
    return {key: Fraction(c, scale) for key, c in entry.items()}


def field_level(res, k):
    """Map k of a `ResolutionData`, F_{k+1} -> F_k, with field coefficients:
    one packed column over F_k per basis element of F_{k+1}."""
    modulus = res.ring.modulus
    return [{r: _times(e, scale, modulus) for r, e in col.items()} for col, scale in zip(res._cols[k], res._scales[k])]


def field_cols(res):
    """Every map of a `ResolutionData` with field coefficients."""
    return [field_level(res, k) for k in range(len(res._cols))]


def verify_resolution(res, gb):
    """Every entry is homogeneous of the degree its twists give and no
    entry is a unit (minimality); consecutive maps compose to zero; and the
    complex resolves the ideal I whose reduced Gröbner basis is gb: the
    alternating sum of the twists' Hilbert functions is the Hilbert
    function of R/I in degrees 0 .. reg + n + 1, and the first map's
    entries generate I (their reduced Gröbner basis is gb)."""
    degree, modulus = layout(res.ring.nvars).degree, res.ring.modulus
    cols = field_cols(res)
    for k, level in enumerate(cols):
        rows, tops = res.twists[k], res.twists[k + 1]
        if len(level) != len(tops) or any(not 0 <= i < len(rows) for col in level for i in col):
            raise AssertionError("twist/matrix shape mismatch")
        for j, col in enumerate(level):
            image = {}
            for i, e in col.items():
                if any(degree(key) != tops[j] - rows[i] for key in e):
                    raise AssertionError(f"entry of the wrong degree at level {k}")
                if 0 in e:
                    raise AssertionError("scalar entry in a minimal resolution")
                for r, f in (cols[k - 1][i].items() if k else ()):
                    _addmul(image.setdefault(r, {}), e, f, modulus)
            if any(image.values()):
                raise AssertionError(f"composition at level {k} is nonzero")
    ring, quotient = res.ring, gb.initial_ideal()
    nvars = ring.nvars
    for j in range(res.regularity() + ring.n + 2):
        euler = sum((-1) ** k * binom(j - w + nvars - 1, nvars - 1) for k, t in enumerate(res.twists) for w in t if w <= j)
        if euler != quotient.quotient_dim(j):
            raise AssertionError(f"Euler characteristic differs from the Hilbert function of R/I in degree {j}")
    entries = [p for col in (mats(res)[0] if cols else ()) for p in col]
    if buchberger(entries, ring) != gb:
        raise AssertionError("the first map's entries generate another ideal")


def batch_engine(gens, ring, cap=None):
    """The add-then-complete run that the ideal engine made before its one
    driver: every nonzero generator added, in (degree, lead) order, then
    the pairs completed up to cap.  Generators above cap stay in."""
    eng = _Engine(ring)
    elems = [g if isinstance(g, _EnginePoly) else _to_engine(g, eng.layout, eng.modulus) for g in gens if g]
    for e in sorted(elems, key=lambda e: (e.deg, e.keys[0])):
        eng.add(e)
    eng.complete(cap=cap, product=True)
    return eng


def batch_leads(eng):
    """The elements of a completed batch engine whose lead no other lead
    divides (the earlier of two equal leads stays), sorted by lead."""
    basis, himask = eng.basis, eng.himask
    kept = [
        g for idx, g in enumerate(basis)
        if not any(
            k != idx and divides(h.keys[0], g.keys[0], himask)
            for k, h in enumerate(basis)
            if h.keys[0] != g.keys[0] or k < idx
        )
    ]
    return sorted(kept, key=lambda e: e.keys[0])


def batch_basis(gens, ring) -> GroebnerBasis:
    """The reduced basis of the batch run: its redundant leads dropped, and
    the rest interreduced against a copy that holds only them."""
    kept = batch_leads(batch_engine(gens, ring))
    red = _Engine(ring)
    for g in kept:
        red.add(g)
    out = []
    for g in kept:
        keys, coeffs, mult = red.normal_form(g.keys[1:], g.coeffs[1:])
        out.append(_EnginePoly([g.keys[0]] + keys, _monic([g.coeffs[0] * mult] + coeffs, ring.modulus), g.deg))
    return GroebnerBasis(ring, out)


def batch_initial_monomials(gens, cap, ring) -> MonomialIdeal:
    """The lead monomials of the capped batch run, redundant ones dropped:
    the generators above cap are among them."""
    unpack = layout(ring.nvars).unpack
    return MonomialIdeal(ring.nvars, [unpack(g.keys[0]) for g in batch_leads(batch_engine(gens, ring, cap))])


class BatchPresentedModule(PresentedModule):
    """A `PresentedModule` whose engine adds every nonzero relation, then
    completes the pairs: the batch run, redundant leads and all."""

    def __init__(self, ring, gen_degrees, relations):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        eng = _Engine(ring)
        for rel in relations:
            e = _pot_element(eng, rel)
            if e.keys:
                eng.add(e)
        eng.complete(self.gen_degrees)
        self.engine = eng
        self._standard = {}


class BatchGraphBasis(GraphBasis):
    """A `GraphBasis` made as before its one driver: every graph element
    added, in column order, then the pairs completed."""

    def __init__(self, cols, free_twists, ring, multipliers=None):
        self.ring = ring
        self.first = first = len(free_twists)
        eng = _Engine(ring)
        degs = []
        for t, col in enumerate(cols):
            found = {eng.layout.degree(next(iter(e))) + free_twists[s] for s, e in col.items()}
            if len(found) > 1:
                raise ValueError("inhomogeneous column")
            degs.append(found.pop() if found else 0)
            eng.add(_pot_element(eng, {**col, first + t: {0: multipliers[t] if multipliers else 1}}))
        eng.complete(list(free_twists) + degs)
        self.engine, self.gen_degrees, self._standard = eng, tuple(degs), {}


def slot_lcm(a, b, nvars, slot):
    """Componentwise max of packed monomials in slots of slot bits, one slot
    at a time."""
    mask = (1 << slot) - 1
    return sum(max((a >> (slot * i)) & mask, (b >> (slot * i)) & mask) << (slot * i) for i in range(nvars))


def slot_degree(key, nvars, slot):
    """Sum of the slot-bit slots of a packed monomial, one slot at a time."""
    mask = (1 << slot) - 1
    return sum((key >> (slot * i)) & mask for i in range(nvars))


def tuple_minimal_generators(gens):
    """Minimal generators of a monomial ideal by tuple divisibility, in
    descending revlex."""
    mins = []
    for m in sorted(set(map(tuple, gens)), key=lambda m: (sum(m), m)):
        if not any(mono_divides(g, m) for g in mins):
            mins = [g for g in mins if not mono_divides(m, g)]
            mins.append(m)
    return tuple(sorted(mins, key=revlex_key, reverse=True))


def compare_revlex(m1, m2) -> int:
    """Degree-refined reverse lexicographic comparison.

    Returns 1 when m1 > m2, -1 when m1 < m2, 0 on equality.  m1 > m2 when
    the last non-zero coordinate of the vector
    (a_0-b_0, ..., a_n-b_n, sum(b)-sum(a)) is negative; the appended degree
    slot makes higher total degree larger.
    """
    if len(m1) != len(m2):
        raise ValueError("monomials from different rings")
    d = mono_degree(m2) - mono_degree(m1)
    if d:
        return 1 if d < 0 else -1
    for a, b in zip(reversed(m1), reversed(m2)):
        if a != b:
            return 1 if a < b else -1
    return 0


def change_coordinates(I: Ideal, matrix) -> Ideal:
    """Substitute x_i -> sum_j matrix[i][j] x_j in every generator.  The
    matrix must be invertible over the ring's field: the images of the
    variables span the linear forms."""
    ring = I.ring
    if len(matrix) != ring.nvars or any(len(r) != ring.nvars for r in matrix):
        raise ValueError("matrix size does not match the ring")
    if dense_rank(matrix, ring.modulus) < ring.nvars:
        raise ValueError("singular coordinate change")
    return Ideal(ring, [g.substitute_linear(matrix) for g in I.gens])


def random_invertible_matrix(ring: PolyRing, rng, bound: int):
    """Seeded dense integer matrix with entries in [-bound, bound],
    invertible over the ring's field: the coordinate draw the gin made
    before it drew from the big Bruhat cell."""
    nvars, modulus = ring.nvars, ring.modulus
    for _ in range(100):
        matrix = [[rng.randint(-bound, bound) for _ in range(nvars)] for _ in range(nvars)]
        if dense_rank(matrix, modulus) == nvars:
            return matrix
    raise AssertionError("failed to draw an invertible matrix")


def full_variable_gin(I: Ideal, seed: int = 0) -> GinResult:
    """`gin.gin` with each candidate read off the full images g.I in all
    n+1 variables instead of the cut by x_n = 0: the same seeds, draws and
    cap, and no saturation requirement.  The certificate decides the same,
    with the candidate's numerator from the general pivot recursion
    (`MonomialIdeal.hilbert_numerator`) instead of Eliahou-Kervaire."""
    ring = I.ring
    if ring.modulus:
        raise ValueError("generic initial ideals need characteristic zero")
    if not I.gens:
        return GinResult(MonomialIdeal(ring.nvars, []), (seed, seed), DEFAULT_ENTRY_BOUND)
    base_numerator = I.initial_ideal().hilbert_numerator()
    reg = I.resolution().regularity()

    bound = DEFAULT_ENTRY_BOUND
    for attempt in range(3):
        seeds = (mix_seed(seed, attempt, 1), mix_seed(seed, attempt, 2))
        candidates = []
        for s in seeds:
            matrix = random_unipotent_matrix(ring, random.Random(s), bound)
            images = linear_images(I.gens, matrix, ring)
            candidates.append(initial_monomials(images, cap=reg, ring=ring))
        first, second = candidates
        if (
            first == second
            and first.hilbert_numerator() == base_numerator
            and is_strongly_stable(first)
        ):
            return GinResult(first, seeds, bound)
        bound *= 2
    raise GinDisagreement(f"no agreement after 3 rounds (last entry bound {bound})")


def drawn_section_values(I: Ideal, degree: int, seed: int = 0):
    """Hilbert values in degrees 0 to degree + 1 of the general hyperplane
    section of a curve of the given degree, by drawing hyperplanes
    (`cohomology.hyperplane_section`) instead of reading them off the gin:
    two independent draws must agree, and a third breaks a tie.  The
    curve's Hilbert values are derived once for all draws."""
    lead = I.initial_ideal()
    hvals = [lead.quotient_dim(j) for j in range(I.resolution().regularity() + 3)]

    def draw(k):
        return hyperplane_section(I, degree, hvals, seed=mix_seed(seed, k, 101))[0]

    first, second = draw(0), draw(1)
    if first == second:
        return first
    third = draw(2)
    if third in (first, second):
        return third
    raise InternalCheckError("hyperplane section values failed to stabilize over three draws")


def mats(res: ResolutionData):
    """The maps of a resolution as Polynomials: mats(res)[k][j][i] is the
    entry of column j of the k-th map at row i."""
    return tuple(
        tuple(tuple(polynomial_vector(res.ring, col, len(res.twists[k]))) for col in level)
        for k, level in enumerate(field_cols(res))
    )


class GradedPieceMatrix:
    """Matrix whose rows are all generator*monomial products in one degree."""

    def __init__(self, ring, rows, monomials, rank):
        self.ring = ring
        self.rows = rows  # list of dicts: packed key -> int
        self.monomials = monomials  # revlex-descending column labels
        self.rank = rank

    @property
    def shape(self):
        return (len(self.rows), len(self.monomials))


def graded_piece_basis(gens, j: int, ring: PolyRing | None = None) -> GradedPieceMatrix:
    """All products generator x monomial landing in degree j, row reduced.

    The row space equals the degree-j piece of the ideal; the rank is its
    dimension.  Empty matrix when j lies below every generator.
    """
    if ring is None:
        ring = gens[0].ring
    lay = layout(ring.nvars)
    lay.check(j)
    pack = lay.pack
    rows = []
    for d, row in _poly_rows([g for g in gens if g]):
        if d > j:
            continue
        for m in ring.monomials_of_degree(j - d):
            shift = pack(m)
            rows.append({k + shift: v for k, v in row.items()})
    pivots = {}
    rank = 0
    for row in rows:
        rank += _insert(pivots, dict(row), ring.modulus)
    return GradedPieceMatrix(ring, rows, ring.monomials_of_degree(j), rank)


def join(I):
    """Componentwise max of the generators of a monomial ideal (their lcm)."""
    out = [0] * I.nvars
    for g in I.gens:
        out = [max(a, b) for a, b in zip(out, g)]
    return tuple(out)


def _reduced_homology_dims(faces):
    """Reduced homology dimensions of a simplicial complex over Q.

    ``faces`` is the set of frozensets (including frozenset() when the
    empty face is present).  Returns dict dim -> rank, with dim -1 for the
    sphere of the empty complex convention.
    """
    if not faces:
        return {}
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(sorted(f))
    for fs in by_dim.values():
        fs.sort()
    top = max(by_dim)
    index = {d: {tuple(f): k for k, f in enumerate(fs)} for d, fs in by_dim.items()}

    def boundary_rank(d):
        # rank of d-th boundary map C_d -> C_{d-1}
        if d <= -1 or d not in by_dim or (d - 1) not in by_dim:
            return 0
        rows = []
        lower = index[d - 1]
        for f in by_dim[d]:
            vec = [0] * len(lower)
            for k in range(len(f)):
                face = tuple(f[:k] + f[k + 1 :])
                vec[lower[face]] = (-1) ** k
            rows.append(vec)
        return dense_rank(rows)

    ranks = {d: boundary_rank(d) for d in range(0, top + 1)}
    out = {}
    for d in range(-1, top + 1):
        dim_c = len(by_dim.get(d, []))
        h = dim_c - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if h:
            out[d] = h
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def pivot_numerator(gens, nvars, _memo=None):
    """`MonomialIdeal.hilbert_numerator` by the pivot recursion with a
    minimal `MonomialIdeal` for both I + (p) and I : p at every node,
    memoized per call (the package's numerator before it ran on plain
    exponent tuples); gens must be minimal, as `MonomialIdeal.gens` are."""
    if _memo is None:
        _memo = {}
    key = gens
    got = _memo.get(key)
    if got is not None:
        return got
    if not gens:
        result = (1,)
    else:
        supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
        disjoint = all(
            not (supports[i] & supports[j])
            for i in range(len(gens))
            for j in range(i + 1, len(gens))
        )
        if disjoint:
            acc = [1]
            for g in gens:
                factor = [0] * (mono_degree(g) + 1)
                factor[0] = 1
                factor[-1] -= 1
                acc = _poly_mul(acc, factor)
            result = tuple(_trim(acc))
        else:
            counts = [0] * nvars
            for s in supports:
                for i in s:
                    counts[i] += 1
            v = max(range(nvars), key=lambda i: counts[i])
            e = min(g[v] for g in gens if g[v])
            pivot = tuple(e if i == v else 0 for i in range(nvars))
            plus = MonomialIdeal(nvars, gens + (pivot,)).gens
            colon = MonomialIdeal(
                nvars,
                [tuple(max(gi - pi, 0) for gi, pi in zip(g, pivot)) for g in gens],
            ).gens
            acc = _poly_add_shift(
                pivot_numerator(plus, nvars, _memo), pivot_numerator(colon, nvars, _memo), e
            )
            result = tuple(_trim(acc))
    _memo[key] = result
    return result


def borel_closure(nvars: int, monomials) -> MonomialIdeal:
    """The smallest strongly stable monomial ideal containing the given
    exponent tuples: close under x_j -> x_i for i < j."""
    closure = set()
    work = [tuple(m) for m in monomials]
    while work:
        u = work.pop()
        if u in closure:
            continue
        closure.add(u)
        for j in range(nvars):
            if u[j]:
                for i in range(j):
                    v = list(u)
                    v[j] -= 1
                    v[i] += 1
                    work.append(tuple(v))
    return MonomialIdeal(nvars, closure)


def hochster_betti_oracle(I) -> BettiTable:
    """Betti numbers of any monomial ideal via upper Koszul complexes.

    For each exponent vector b below the join of the generators,
    beta_{i,b}(I) is the reduced homology in dimension i-1 of
    {S subset supp(b) : x^b / prod_{s in S} x_s in I}; summing over |b| = j
    gives beta_{i,j}.
    """
    table = BettiTable()
    if not I.gens:
        return table
    for b in product(*[range(e + 1) for e in join(I)]):
        if not I.contains(b):
            continue
        supp = [i for i, e in enumerate(b) if e]
        faces = set()
        for r in range(len(supp) + 1):
            for S in combinations(supp, r):
                quotient = tuple(e - 1 if i in S else e for i, e in enumerate(b))
                if I.contains(quotient):
                    faces.add(frozenset(S))
        deg = sum(b)
        for hdim, rank in _reduced_homology_dims(faces).items():
            table.add(hdim + 1, deg, rank)
    return table


def slot_leads(module):
    """The lead exponent tuples of each slot of a `PresentedModule`, read
    off its engine's `by_slot` from component `first` on."""
    eng = module.engine
    unpack = eng.layout.unpack
    return [[unpack(k) for k, _ in eng.by_slot.get(module.first + s, ())] for s in range(len(module.gen_degrees))]


def component_hf(module, degree):
    """`PresentedModule.hf` slot by slot: the sum over the slots s of
    dim [R/L_s]_(degree - w_s), one `MonomialIdeal` of the leads L_s per
    slot."""
    n = module.ring.nvars
    return sum(MonomialIdeal(n, leads).quotient_dim(degree - w) for leads, w in zip(slot_leads(module), module.gen_degrees))


def component_finite_length(module):
    """`PresentedModule.is_finite_length` slot by slot: every slot's lead
    ideal is artinian."""
    return all(is_artinian(MonomialIdeal(module.ring.nvars, leads)) for leads in slot_leads(module))


def is_artinian(ideal):
    """A monomial ideal contains a power of every variable (the unit ideal
    does)."""
    for i in range(ideal.nvars):
        if not any(all(e == 0 for k, e in enumerate(g) if k != i) for g in ideal.gens):
            return False
    return True


def brute_force_standard_basis(module, degree):
    """The standard monomials of a `PresentedModule` in a degree as its
    ascending POT keys: every monomial of the degree in each slot, tested
    against the slot's leads by tuple divisibility."""
    cs = module.engine.comp_shift
    pack = layout(module.ring.nvars).pack
    out = []
    for s, (leads, w) in enumerate(zip(slot_leads(module), module.gen_degrees)):
        for m in module.ring.monomials_of_degree(degree - w):  # ascending packed keys
            if not any(mono_divides(g, m) for g in leads):
                out.append((module.first + s) << cs | pack(m))
    return out


def _mat_mul(A, B):
    """The product of two matrices of sparse rows {column: value}."""
    if not A or not B:
        return []
    out = []
    for row in A:
        acc = {}
        for k, a in row.items():
            for c, b in B[k].items():
                acc[c] = acc.get(c, 0) + a * b
        out.append({c: x for c, x in acc.items() if x})
    return out


def multiplication_commutes(module) -> bool:
    """Whether x_w x_v = x_v x_w on every degree of a `FiniteLengthModule`."""
    degrees = sorted(module.dims)
    nv = max((v for v, _ in module.mult), default=-1) + 1
    for j in degrees:
        for v in range(nv):
            for w in range(v + 1, nv):
                a = _mat_mul(module.mult[(w, j + 1)], module.mult[(v, j)])
                b = _mat_mul(module.mult[(v, j + 1)], module.mult[(w, j)])
                if a != b:
                    return False
    return True


def dense_rao_structure(module):
    """(generator_count, generator_degrees, annihilator_degrees) of a
    `FiniteLengthModule`, as `cohomology.deficiency_module` found them
    before its maps were sparse: each multiplication map made a dense
    matrix, the stacked maps and the Koszul two-form map dense lists, and
    every rank a `dense_rank`."""
    dims = module.dims
    nvars = max((v for v, _ in module.mult), default=-1) + 1
    mult = {
        (v, j): [[row.get(c, 0) for c in range(dims.get(j, 0))] for row in rows]
        for (v, j), rows in module.mult.items()
    }
    ranks = {}
    for t, dim_here in dims.items():
        if dims.get(t - 1):
            rows = [[c for v in range(nvars) for c in mult[(v, t - 1)][r]] for r in range(dim_here)]
            ranks[t] = dense_rank(rows)
    gen_degrees = [j for j in sorted(dims) for _ in range(dims[j] - ranks.get(j, 0))]
    if len(gen_degrees) > 1 or not dims:
        return len(gen_degrees), gen_degrees, None
    j0, top = min(dims), max(dims)
    ann = []
    for t in range(j0 + 1, top + 3):
        dim_prev = dims.get(t - 1, 0)
        if not dim_prev:
            continue
        ncols = nvars * dim_prev
        ker_dim = ncols - ranks.get(t, 0)
        dim_prev2 = dims.get(t - 2, 0)
        b_cols = []
        for v in range(nvars):
            for w in range(v + 1, nvars):
                for b in range(dim_prev2):
                    col = [0] * ncols
                    for r in range(dim_prev):
                        col[v * dim_prev + r] += mult[(w, t - 2)][r][b]
                        col[w * dim_prev + r] -= mult[(v, t - 2)][r][b]
                    b_cols.append(col)
        h1 = ker_dim - dense_rank(b_cols)
        assert h1 >= 0, "negative Koszul homology dimension"
        ann.extend([t - j0] * h1)
    return len(gen_degrees), gen_degrees, sorted(ann)


def planar_subcurve_by_forms(I: Ideal, plane_forms, degree: int) -> bool:
    """True when the curve, of the given degree, meets the plane cut out by
    the given linear forms in a one-dimensional scheme of degree one less:
    the Hilbert polynomial of I + (forms), read off its own Gröbner basis.
    `cohomology.planar_subcurve_check` reads the plane x3 = ... = xn off
    in(I) instead."""
    ring = I.ring
    forms = list(plane_forms)
    if len(forms) != ring.n - 2:
        raise ValueError(f"a plane in P^{ring.n} needs {ring.n - 2} linear forms")
    rows = []
    for f in forms:
        if f.degree() != 1:
            raise ValueError("plane forms must be linear")
        rows.append([coefficient(f, ring.var_mono(i)) for i in range(ring.nvars)])
    if dense_rank(rows, ring.modulus) < len(forms):
        raise ValueError("dependent plane forms")
    try:
        section_degree, _ = detect_hilbert_polynomial(Ideal(ring, list(I.gens) + forms).initial_ideal())
    except NotACurveError:
        return False
    return section_degree == degree - 1


def normal_form(gb, f):
    """Full normal form of f modulo a `GroebnerBasis`; zero iff f is a member."""
    if f.ring != gb.ring:
        raise ValueError("polynomial from a different ring")
    if not f or not gb.elems:
        return f
    eng = _Engine(gb.ring)
    for e in gb.elems:
        eng.add(e)
    ep = _to_engine(f, eng.layout, eng.modulus)
    keys, coeffs, mult = eng.normal_form(ep.keys, ep.coeffs)
    # the engine element is ep.coeffs[0] / lead times f
    lead = f.terms[0][1]
    coeffs = _divide([c * lead for c in coeffs], ep.coeffs[0] * mult, eng.modulus)
    return Polynomial(gb.ring, zip(map(eng.layout.unpack, keys), coeffs))


def contains(gb, f) -> bool:
    """Membership of f in the ideal of a `GroebnerBasis`."""
    return not normal_form(gb, f)


def betti_regularity(table) -> int:
    """max(j - i) over the nonzero entries of a `BettiTable` (ideal
    convention), 0 when empty."""
    return max((j - i for i, j in table.entries), default=0)


def max_index(table) -> int:
    """The largest homological index of a `BettiTable`, -1 when empty."""
    return max((i for i, _ in table.entries), default=-1)


def generator_degrees(table):
    """Multiset of degrees of the minimal generators (index 0 row) of a
    `BettiTable`."""
    out = []
    for (i, j), r in sorted(table.entries.items()):
        if i == 0:
            out.extend([j] * r)
    return out


def alternating_numerator(table):
    """Hilbert numerator of R/I from a `BettiTable` of I:
    1 - sum (-1)^i b_{i,j} t^j, without trailing zeros."""
    top = max((j for _, j in table.entries), default=0)
    out = [0] * (top + 1)
    out[0] = 1
    for (i, j), r in table.entries.items():
        out[j] -= (-1) ** i * r
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def quotient_dims(ideal, jmax: int):
    """dim_K [R/I]_j of a `MonomialIdeal` for 0 <= j <= jmax, by counting
    the standard monomials: those of degree j that no generator divides."""
    out = []
    for j in range(jmax + 1):
        count = 0
        for factors in combinations_with_replacement(range(ideal.nvars), j):
            m = [0] * ideal.nvars
            for i in factors:
                m[i] += 1
            count += not any(mono_divides(g, m) for g in ideal.gens)
        out.append(count)
    return out


def ideal_dim(ideal, j: int) -> int:
    """dim_K I_j of a `MonomialIdeal`."""
    if j < 0:
        return 0
    return binom(j + ideal.nvars - 1, ideal.nvars - 1) - ideal.quotient_dim(j)


def from_scalar(ring, c) -> Polynomial:
    """The constant polynomial c of the ring."""
    return Polynomial(ring, [(tuple([0] * ring.nvars), c)])


def monomial(ring, m, c=1) -> Polynomial:
    """The term c·x^m of the ring."""
    if len(m) != ring.nvars:
        raise ValueError("wrong exponent tuple length")
    return Polynomial(ring, [(tuple(m), c)])


def coefficient(p, m):
    """The coefficient of the monomial m in the `Polynomial` p."""
    for mm, c in p.terms:
        if mm == m:
            return c
    return p.ring.field.coerce(0)


_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<var>x[0-9]+)|(?P<op>[-+*^]))")


def _tokenize(s: str, line_no: int):
    """Tokens of one ideal-file line, each (kind, value, 1-based column at
    the blanks before it); `\\s` takes Unicode blanks too."""
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise IdealFileError(
                    f"unexpected character {s[pos:].strip()[0]!r}", line_no, pos + 1
                )
            break
        if m.group("int"):
            out.append(("int", int(m.group("int")), m.start() + 1))
        elif m.group("var"):
            out.append(("var", int(m.group("var")[1:]), m.start() + 1))
        else:
            out.append(("op", m.group("op"), m.start() + 1))
        pos = m.end()
    return out


def tokenized_parse_polynomial(ring: PolyRing, s: str, line_no: int = 0) -> Polynomial:
    """The ideal-file polynomial reader as a token list and a term closure:
    the differential reference of `idealfile.parse_polynomial` on ASCII
    lines."""
    tokens = _tokenize(s, line_no)
    if not tokens:
        raise IdealFileError("empty polynomial", line_no)
    terms = []
    i = 0
    nv = ring.nvars

    def term(i, sign):
        coeff = sign
        expo = [0] * nv
        seen_factor = False
        while True:
            kind, val, col = tokens[i]
            if kind == "int":
                coeff *= val
            elif kind == "var":
                if val >= nv:
                    raise IdealFileError(
                        f"variable x{val} out of range for n={nv - 1}", line_no, col
                    )
                power = 1
                if i + 1 < len(tokens) and tokens[i + 1] == ("op", "^", tokens[i + 1][2]):
                    if i + 2 >= len(tokens) or tokens[i + 2][0] != "int":
                        raise IdealFileError("exponent expected after '^'", line_no, col)
                    power = tokens[i + 2][1]
                    i += 2
                expo[val] += power
            else:
                raise IdealFileError(f"unexpected {val!r}", line_no, col)
            seen_factor = True
            i += 1
            if i >= len(tokens) or tokens[i][0] == "op" and tokens[i][1] in "+-":
                break
            if tokens[i] == ("op", "*", tokens[i][2]):
                i += 1
                if i >= len(tokens):
                    raise IdealFileError("dangling '*'", line_no)
                continue
            raise IdealFileError(
                "juxtaposition is not allowed; use '*'", line_no, tokens[i][2]
            )
        if not seen_factor:
            raise IdealFileError("empty term", line_no)
        return i, tuple(expo), coeff

    sign = 1
    # optional leading sign
    while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
        if tokens[i][1] == "-":
            sign = -sign
        i += 1
    while True:
        if i >= len(tokens):
            raise IdealFileError("term expected", line_no)
        i, expo, coeff = term(i, sign)
        terms.append((expo, coeff))
        if i >= len(tokens):
            break
        sign = 1
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
    p = Polynomial(ring, terms)
    if not p.is_homogeneous():
        raise IdealFileError("non-homogeneous polynomial", line_no)
    return p
