"""Reference algorithms that the package no longer runs, kept for the
tests that compare the package against them: Euclid's gcd of binary forms
in the ring's field, and the kernel of the line construction as a graph
Gröbner basis in all n+1 variables."""

from extremalcurves.construct import _is_binary, binary_coeff_vector
from extremalcurves.ideals import Ideal
from extremalcurves.modules import GraphBasis, packed_vector
from extremalcurves.packing import make_packer, make_unpacker
from extremalcurves.ring import Polynomial


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
