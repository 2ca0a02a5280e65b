"""Graded free modules on the packed Gröbner engine: minimal free
resolutions by Schreyer syzygies, kernels by the graph trick, and
finitely presented modules.

A module term is one integer key, a packed monomial plus a component, with
the coefficients of ``groebner`` (primitive integers over QQ, residues mod
p).  Kernels and presented modules use position over term: the
component sits in the bits above the monomial, so ascending keys run from
the lowest component down through revlex.  A resolution level uses the
Schreyer order induced by the level below: the key is the image monomial
(the term times the lead image of its component) above a rank that orders
the components by their chains of lead components through the levels
below.  Syzygy levels are pruned to the pairs whose Schreyer lead is a
minimal generator of the per-component lead module, which keeps the tower
near-minimal before the exact unit-entry minimalization pass.  Outside
the engine an element is a packed vector {component: {packed monomial: field
coefficient}} of homogeneous nonzero entries: resolution maps stay packed
from the Schreyer step to the presented modules, and ``Polynomial`` vectors
appear only at the boundary (`module_kernel`).
Between the Schreyer step and the minimal resolution a column keeps the
engine's integers with one scale (its Schreyer lead coefficient inverted):
units cancel fraction-free, and field coefficients are made only for the
entries that survive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import packing
from .groebner import GroebnerBasis, _clear, _divide, _Engine, _EnginePoly, _primitive, _to_engine
from .monomials import BettiTable, MonomialIdeal
from .packing import MAXEXP, ExponentLimitError
from .ring import PolyRing, Polynomial, _addmul


# ---------------------------------------------------------------------------
# Schreyer resolution


def _schreyer_step(eng):
    """One syzygy level: pruned S-pair syzygies of a Gröbner basis.

    eng holds the level's elements, keyed (image << bits) | rank, with bits
    its rank_bits.  Returns (syzygies, their twists, new_bits, decode): the
    syzygies are keyed the same way over this level's elements with
    new_bits rank bits, sorted by descending Schreyer lead, and
    decode[rank] = (element index, its lead image).  Each syzygy is an
    integer multiple of the monic syzygy over the monic elements.
    """
    nv, modulus, basis, bits = eng.nvars, eng.modulus, eng.basis, eng.rank_bits
    mask = (1 << bits) - 1
    leads = [g.keys[0] for g in basis]
    # chains of lead components compare as (rank of the lead component, index)
    order = sorted(range(len(basis)), key=lambda t: (leads[t] & mask, t))
    rank = [0] * len(basis)
    for r, t in enumerate(order):
        rank[t] = r
    new_bits = len(basis).bit_length()
    decode = [(t, leads[t] >> bits) for t in order]
    plain = packing.high_mask(nv)

    chosen = []
    for i, li in enumerate(leads):
        # the pair (i, j), i < j, has its Schreyer lead at i: the images are
        # equal, and the chain ending in the smaller index wins the tie
        img = li >> bits
        cands = []
        for lj, j in eng.by_slot[li & mask]:
            if j > i:
                w = packing.lcm(img, lj >> bits, nv)
                q = w - img
                cands.append((packing.degree(q, nv), -q, j, w))
        # ascending revlex: a later lead monomial never divides an earlier one
        kept = []
        for _, nq, j, w in sorted(cands):
            if not any(packing.divides(k, -nq, plain) for k in kept):
                kept.append(-nq)
                chosen.append((i, j, w))

    lam = [g.coeffs[0] for g in basis]  # element == lam * monic element
    new = []
    for i, j, w in chosen:
        deg = packing.degree(w, nv)
        if deg > MAXEXP:
            raise ExponentLimitError(f"syzygy degree {deg} exceeds the packed limit {MAXEXP}")
        acc, a, b = eng.spair(i, j, (w << bits) | (leads[i] & mask))
        trace = []
        keys, _ = eng.top_reduce(acc, trace)
        if keys:
            raise AssertionError("S-pair of a Gröbner basis failed to reduce to zero")
        # mult * spair == sum of the traced multiples; over the monic elements
        # the syzygy is mult*a*lam_i at i, -mult*b*lam_j at j, minus the trace
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
        new.append(_EnginePoly(keys, _primitive([terms[k] for k in keys], modulus), deg))
    new.sort(key=lambda e: (-e.deg, e.keys[0]))  # packed keys compare within a degree
    return new, new_bits, decode


def _schreyer_frame(gb: GroebnerBasis):
    """The pruned Schreyer frame of R/I for a nonempty reduced basis: per
    level, (elements, rank bits, decode) as `_packed_columns` reads them,
    the basis itself first (one component, keys are monomials)."""
    ring = gb.ring
    eng = _Engine(ring, rank_bits=0)
    for p in gb.polys:
        eng.add(_to_engine(p, eng.pack, eng.modulus))
    levels = [(eng.basis, 0, [(0, 0)])]
    for _ in range(ring.nvars + 2):
        new, bits, decode = _schreyer_step(eng)
        if not new:
            return levels
        levels.append((new, bits, decode))
        eng = _Engine(ring, rank_bits=bits)
        for e in new:
            eng.add(e)
    raise AssertionError("resolution exceeded the variable-count bound")


def _packed_columns(elements, bits, decode, modulus):
    """Integer packed columns of Schreyer-keyed elements, with one scale
    per column: column times scale is the monic column over the field
    (scale 1/lead over QQ, the lead's inverse mod p).  The term at key
    (image << bits) | rank lands in row t at image minus the lead image of
    t, where decode[rank] = (t, lead image)."""
    mask = (1 << bits) - 1
    cols, scales = [], []
    for e in elements:
        col = {}
        for k, c in zip(e.keys, e.coeffs):
            t, img = decode[k & mask]
            col.setdefault(t, {})[(k >> bits) - img] = c
        cols.append(col)
        scales.append(pow(e.coeffs[0], -1, modulus) if modulus else Fraction(1, e.coeffs[0]))
    return cols, scales


class ResolutionData:
    """Graded free resolution of R/I: twists per level and the maps between
    consecutive levels (level 0 is R itself).  cols[k] holds the map F_{k+1}
    -> F_k as one packed column over F_k per basis element of F_{k+1}."""

    def __init__(self, ring, twists, cols):
        self.ring = ring
        self.twists = [tuple(t) for t in twists]
        self.cols = cols

    @property
    def length(self):
        return len(self.twists) - 1

    def betti_table(self) -> BettiTable:
        """Ideal-convention table: index i counts the i-th syzygies of the
        ideal, so level k of R/I contributes at index k-1."""
        table = BettiTable()
        for k in range(1, len(self.twists)):
            for w in self.twists[k]:
                table.add(k - 1, w, 1)
        return table

    def regularity(self) -> int:
        """reg of the ideal: max internal degree minus homological index."""
        return max(
            (w - (k - 1) for k in range(1, len(self.twists)) for w in self.twists[k]),
            default=0,
        )

    def verify(self):
        """Every entry is homogeneous of the degree its twists give and no
        entry is a unit (minimality); consecutive maps compose to zero."""
        nv, modulus = self.ring.nvars, getattr(self.ring.field, "p", 0)
        for k, level in enumerate(self.cols):
            rows, tops = self.twists[k], self.twists[k + 1]
            if len(level) != len(tops) or any(not 0 <= i < len(rows) for col in level for i in col):
                raise AssertionError("twist/matrix shape mismatch")
            for j, col in enumerate(level):
                image = {}
                for i, e in col.items():
                    if any(packing.degree(key, nv) != tops[j] - rows[i] for key in e):
                        raise AssertionError(f"entry of the wrong degree at level {k}")
                    if 0 in e:
                        raise AssertionError("scalar entry in a minimal resolution")
                    for r, f in (self.cols[k - 1][i].items() if k else ()):
                        _addmul(image.setdefault(r, {}), e, f, modulus)
                if any(image.values()):
                    raise AssertionError(f"composition at level {k} is nonzero")


def _minimalize(twists, cols, scales, modulus):
    """Cancel unit entries level by level from the back, on the integer
    columns of `_packed_columns`; the surviving entries come out in the
    field (Fractions over QQ, residues mod p).

    At each level the first column holding a unit, at its lowest unit row,
    is the pivot: every other column is cleared at that row, and the pivot
    row and column split off as a trivial summand (the basis elements they
    stand for die in both neighbouring maps).  Entries are homogeneous, so
    a unit sits only where the two twists agree, as the key 0.  Clearing
    makes no new unit in a column without one, so one pass over each level
    finds every pivot.  Clearing is fraction-free: with the unit u at the
    pivot row and q in the column there, the column becomes
    (u/g)*col - (q/g)*pivot, g = gcd(u, content of q), its scale is divided
    by u/g and its content moves into the scale (mod p, col - (q/u)*pivot
    with the scale kept)."""
    live = [[True] * len(t) for t in twists]
    for k in range(len(cols) - 1, -1, -1):
        rows, tops, level, scale = twists[k], twists[k + 1], cols[k], scales[k]
        for j, pivot in enumerate(level):
            if not live[k + 1][j]:
                continue
            i = min((r for r in pivot if rows[r] == tops[j]), default=None)
            if i is None:
                continue
            u = pivot[i][0]
            inv = -pow(u, -1, modulus) if modulus else None
            for jp, col in enumerate(level):
                q = col.pop(i, None) if jp != j and live[k + 1][jp] else None
                if not q:
                    continue
                if modulus:
                    factor = {key: c * inv for key, c in q.items()}
                else:
                    g = gcd(u, *q.values())
                    factor = {key: -c // g for key, c in q.items()}
                    a = u // g
                    if a != 1:
                        for e in col.values():
                            for key in e:
                                e[key] *= a
                        scale[jp] /= a
                for r, e in pivot.items():
                    if r != i and not _addmul(col.setdefault(r, {}), factor, e, modulus):
                        del col[r]
                if not modulus:
                    content = gcd(*(c for e in col.values() for c in e.values()))
                    if content > 1:
                        for e in col.values():
                            for key in e:
                                e[key] //= content
                        scale[jp] *= content
            live[k + 1][j] = live[k][i] = False
    index = [{old: new for new, old in enumerate(o for o, a in enumerate(lv) if a)} for lv in live]
    twists = [tuple(w for w, a in zip(t, lv) if a) for t, lv in zip(twists, live)]
    cols = [
        [
            {index[k][r]: _scaled(e, s, modulus) for r, e in col.items() if r in index[k]}
            for col, s, a in zip(level, scales[k], live[k + 1])
            if a
        ]
        for k, level in enumerate(cols)
    ]
    while cols and not cols[-1]:
        cols.pop()
        twists.pop()
    return twists, cols


def _scaled(entry, scale, modulus):
    """The packed entry {key: integer} times scale, in the field."""
    if modulus:
        return {key: c * scale % modulus for key, c in entry.items()}
    n, d = scale.numerator, scale.denominator
    if d == 1:
        return {key: Fraction(c * n) for key, c in entry.items()}
    return {key: Fraction(c * n, d) for key, c in entry.items()}


def free_resolution_from_gb(gb: GroebnerBasis) -> ResolutionData:
    """Minimal graded free resolution of R/I from a reduced Gröbner basis:
    iterated pruned Schreyer syzygies, then unit-entry cancellation."""
    ring = gb.ring
    if not gb.polys:
        return ResolutionData(ring, [(0,)], [])
    modulus = getattr(ring.field, "p", 0)
    levels = _schreyer_frame(gb)
    twists = [(0,)] + [tuple(e.deg for e in elements) for elements, _, _ in levels]
    cols, scales = zip(*(_packed_columns(*level, modulus) for level in levels))
    return ResolutionData(ring, *_minimalize(twists, list(cols), scales, modulus))


# ---------------------------------------------------------------------------
# kernels, presented modules (position over term)


def packed_vector(ring, vec):
    """Packed vector of a list of homogeneous Polynomials, zeros left out."""
    pack = packing.make_packer(ring.nvars)
    out = {}
    for s, p in enumerate(vec):
        if p:
            if not p.is_homogeneous():  # packed keys order one degree at a time
                raise ValueError("module entries must be homogeneous")
            out[s] = {pack(m): c for m, c in p.terms}
    return out


def polynomial_vector(ring, vec, rank):
    """The Polynomials in components 0 .. rank-1 of a homogeneous packed
    vector; ascending keys run down through revlex."""
    unpack = packing.make_unpacker(ring.nvars)
    out = [ring.zero] * rank
    for s, e in vec.items():
        out[s] = Polynomial.from_sorted(ring, [(unpack(k), e[k]) for k in sorted(e)])
    return out


def _pot_element(eng, vec, unit=None):
    """Engine element of a packed vector, plus a unit term in component
    unit when given."""
    cs = eng.comp_shift
    terms = sorted((s << cs | k, c) for s, e in vec.items() for k, c in e.items())
    if unit is not None:
        terms.append((unit << cs, 1))
    return _clear([k for k, _ in terms], [c for _, c in terms], None, eng.modulus)


def _pot_vector(eng, keys, coeffs, first, div):
    """Packed vector of the terms in components first and above, shifted
    down by first, with the coefficients divided by div."""
    cs = eng.comp_shift
    mmask = (1 << cs) - 1
    out = {}
    for k, c in zip(keys, _divide(coeffs, div, eng.modulus)):
        out.setdefault((k >> cs) - first, {})[k & mmask] = c
    return out


class GraphBasis:
    """Traced Gröbner data for a span of packed columns: their kernel.

    The graph elements (col_t, e_t) live in F + R^s; under position over
    term an element whose lead lies in the tracking part lies there
    entirely."""

    def __init__(self, cols, free_twists, ring):
        self.ring = ring
        self.rF = len(free_twists)
        eng = _Engine(ring)
        degs = []
        for t, col in enumerate(cols):
            found = {packing.degree(next(iter(e)), ring.nvars) + free_twists[s] for s, e in col.items()}
            if len(found) > 1:
                raise ValueError("inhomogeneous column")
            degs.append(found.pop() if found else 0)
            eng.add(_pot_element(eng, col, self.rF + t))
        self.twists = list(free_twists) + degs
        eng.complete(self.twists)
        self.engine = eng

    def kernel_generators(self):
        """Packed generators of the syzygy module of the columns, one component per column."""
        eng, rF = self.engine, self.rF
        return [
            _pot_vector(eng, g.keys, g.coeffs, rF, g.coeffs[0])
            for g in eng.basis
            if g.keys[0] >> eng.comp_shift >= rF
        ]


def module_kernel(cols, free_twists, ring) -> list:
    """Generators of {(c_t) : sum c_t * cols_t = 0} for columns of
    Polynomials, as lists of Polynomials."""
    graph = GraphBasis([packed_vector(ring, col) for col in cols], free_twists, ring)
    return [polynomial_vector(ring, v, len(cols)) for v in graph.kernel_generators()]


class PresentedModule:
    """Finitely presented graded module: free slots with generator degrees
    plus a relation submodule of packed vectors, held as a POT Gröbner
    basis."""

    def __init__(self, ring: PolyRing, gen_degrees, relations):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        eng = _Engine(ring)
        for rel in relations:
            e = _pot_element(eng, rel)
            if e.keys:
                eng.add(e)
        eng.complete(self.gen_degrees)
        self.engine = eng
        mmask = (1 << eng.comp_shift) - 1
        self.lead_ideals = {
            s: MonomialIdeal(
                ring.nvars, [eng.unpack(k & mmask) for k, _ in eng.by_slot.get(s, ())]
            )
            for s in range(len(self.gen_degrees))
        }
        self._standard = {}

    def hf(self, degree: int) -> int:
        """Dimension of the graded piece via standard monomial counting."""
        total = 0
        for s, w in enumerate(self.gen_degrees):
            total += self.lead_ideals[s].quotient_dim(degree - w)
        return total

    def is_finite_length(self) -> bool:
        return all(
            self.lead_ideals[s].is_artinian() for s in range(len(self.gen_degrees))
        )

    def standard_basis(self, degree: int):
        """(slot, monomial) pairs outside the lead module, memoised per
        degree."""
        out = self._standard.get(degree)
        if out is None:
            out = []
            for s, w in enumerate(self.gen_degrees):
                d = degree - w
                if d < 0:
                    continue
                for m in self.ring.monomials_of_degree(d):
                    if not self.lead_ideals[s].contains(m):
                        out.append((s, m))
            self._standard[degree] = out
        return out

    def reduce(self, vec):
        """Normal form of a packed vector, as a packed vector."""
        eng = self.engine
        ep = _pot_element(eng, vec)
        keys, coeffs, mult = eng.normal_form(ep.keys, ep.coeffs)
        return _pot_vector(eng, keys, coeffs, 0, (ep.scale or 1) * mult)

    def mult_matrix(self, var: int, degree: int):
        """Multiplication by x_var from degree to degree+1 in the standard
        monomial bases: one list per source element, over the target
        basis."""
        if degree + 1 - min(self.gen_degrees, default=0) > MAXEXP:
            raise ExponentLimitError(f"degree {degree + 1} exceeds the packed limit {MAXEXP}")
        eng = self.engine
        cs, pack = eng.comp_shift, eng.pack
        src = self.standard_basis(degree)
        tgt = self.standard_basis(degree + 1)
        tgt_index = {s << cs | pack(m): k for k, (s, m) in enumerate(tgt)}
        vk = 1 << (packing.SLOT * var)
        zero, one = _divide([0, 1], 1, eng.modulus)
        cols = []
        for s, m in src:
            key = (s << cs | pack(m)) + vk
            vec = [zero] * len(tgt)
            if key in tgt_index:
                vec[tgt_index[key]] = one
            else:
                keys, coeffs, mult = eng.normal_form([key], [1])
                for k, c in zip(keys, _divide(coeffs, mult, eng.modulus)):
                    vec[tgt_index[k]] = c
            cols.append(vec)
        return cols
