"""Reference algorithms that the package no longer runs, kept for the
tests that compare the package against them: Euclid's gcd of binary forms
in the ring's field, the kernel of the line construction as a graph
Gröbner basis in all n+1 variables, and the minimalization of the Schreyer
frame in field arithmetic (`Fraction`s over QQ)."""

from extremalcurves.construct import _is_binary, binary_coeff_vector
from extremalcurves.groebner import _divide
from extremalcurves.ideals import Ideal
from extremalcurves.modules import GraphBasis, ResolutionData, _addmul, _schreyer_frame, packed_vector
from extremalcurves.packing import make_packer, make_unpacker
from extremalcurves.ring import Polynomial, mono_divides, revlex_key


def _uni_gcd(a, b, fld):
    """Monic gcd of univariate coefficient lists (ascending powers) over the
    field `fld`."""

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
            f = fld.div(r[-1], b[-1])
            off = len(r) - len(b)
            for i, c in enumerate(b):
                r[off + i] = fld.add(r[off + i], fld.neg(fld.mul(f, c)))
            r.pop()
        a, b = b, strip(r)
    if a:
        lead = a[-1]
        a = [fld.div(c, lead) for c in a]
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
    pack, unpack, fld = make_packer(ring.nvars), make_unpacker(ring.nvars), ring.field
    shifts = [pack(planar_gens[t].lead_monomial) for t in live]
    gens = []
    for vec in GraphBasis(cols, [0], ring).kernel_generators():
        acc = {}
        for s, entry in vec.items():
            if s < len(live):  # the relations' components drop out
                for k, c in entry.items():
                    acc[k + shifts[s]] = fld.add(acc.get(k + shifts[s], fld.zero), c)
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
    if not gb.polys:
        return ResolutionData(ring, [(0,)], [])
    modulus = getattr(ring.field, "p", 0)
    levels = _schreyer_frame(gb)
    twists = [(0,)] + [tuple(e.deg for e in elements) for elements, _, _ in levels]
    cols = [field_packed_columns(*level, modulus) for level in levels]
    return ResolutionData(ring, *field_minimalize(twists, cols, modulus))


def slot_lcm(a, b, nvars, slot=8):
    """Componentwise max of packed monomials, one slot at a time."""
    mask = (1 << slot) - 1
    return sum(max((a >> (slot * i)) & mask, (b >> (slot * i)) & mask) << (slot * i) for i in range(nvars))


def slot_degree(key, nvars, slot=8):
    """Sum of the slots of a packed monomial, one slot at a time."""
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
