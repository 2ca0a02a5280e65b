"""Graded free modules on the packed Gröbner engine: minimal free
resolutions by Schreyer syzygies, kernels and lifts by the graph trick, and
finitely presented modules.

A module term is one integer key, a packed monomial plus a component, with
the coefficients of ``groebner`` (primitive integers over QQ, residues mod
p).  Kernels, lifts and presented modules use position over term: the
component sits in the bits above the monomial, so ascending keys run from
the lowest component down through revlex.  A resolution level uses the
Schreyer order induced by the level below: the key is the image monomial
(the term times the lead image of its component) above a rank that orders
the components by their chains of lead components through the levels
below.  Syzygy levels are pruned to the pairs whose Schreyer lead is a
minimal generator of the per-component lead module, which keeps the tower
near-minimal before the exact unit-entry minimalization pass.  Elements
become monic ``Polynomial`` vectors only at the boundary.
"""

from __future__ import annotations

from . import packing
from .groebner import GroebnerBasis, _clear, _divide, _Engine, _EnginePoly, _primitive, _to_engine
from .monomials import BettiTable, MonomialIdeal
from .packing import MAXEXP, ExponentLimitError
from .ring import PolyRing, Polynomial


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
        keys, coeffs, a, b = eng.spair(i, j, (w << bits) | (leads[i] & mask))
        trace = []
        keys, _ = eng.top_reduce(keys, coeffs, trace)
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
    return new, [e.deg for e in new], new_bits, decode


def _schreyer_columns(ring, elements, bits, decode, rank, unpack, modulus):
    """Monic Polynomial columns of Schreyer-keyed elements.  Within one
    component ascending keys are descending monomials of one degree."""
    mask = (1 << bits) - 1
    zero = ring.zero
    cols = []
    for e in elements:
        terms = [[] for _ in range(rank)]
        for k, c in zip(e.keys, _divide(e.coeffs, e.coeffs[0], modulus)):
            t, img = decode[k & mask]
            terms[t].append((unpack((k >> bits) - img), c))
        cols.append([Polynomial.from_sorted(ring, ts) if ts else zero for ts in terms])
    return cols


class ResolutionData:
    """Graded free resolution of R/I: twists per level and the matrices
    between consecutive levels (level 0 is R itself)."""

    def __init__(self, ring, twists, mats):
        self.ring = ring
        self.twists = [tuple(t) for t in twists]
        # mats[k]: columns over F_{k+1}, each column a list over F_k slots
        self.mats = [[list(col) for col in mat] for mat in mats]

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
        """Consecutive maps compose to zero, and no entry is a unit (minimality)."""
        for k in range(1, len(self.mats)):
            for col in self.mats[k]:
                image = [self.ring.zero] * len(self.twists[k - 1])
                for s, entry in enumerate(col):
                    if not entry:
                        continue
                    prev_col = self.mats[k - 1][s]
                    for r, e in enumerate(prev_col):
                        if e:
                            image[r] = image[r] + entry * e
                if any(image):
                    raise AssertionError(f"composition at level {k} is nonzero")
        for mat in self.mats:
            for col in mat:
                for e in col:
                    if e and e.degree() == 0:
                        raise AssertionError("scalar entry in a minimal resolution")
        for k, mat in enumerate(self.mats):
            if len(mat) != len(self.twists[k + 1]):
                raise AssertionError("twist/matrix shape mismatch")
            for col in mat:
                if len(col) != len(self.twists[k]):
                    raise AssertionError("twist/matrix shape mismatch")


def _minimalize(twists, mats, ring):
    """Cancel unit entries level by level from the back until none remain."""
    twists = [list(t) for t in twists]
    mats = [[list(col) for col in mat] for mat in mats]
    changed = True
    while changed:
        changed = False
        for k in range(len(mats) - 1, -1, -1):
            M = mats[k]
            while True:
                hit = None
                for j, col in enumerate(M):
                    for i, e in enumerate(col):
                        if e and e.degree() == 0:
                            hit = (i, j)
                            break
                    if hit:
                        break
                if not hit:
                    break
                i, j = hit
                c = M[j][i].lead_coeff
                pivot_col = M[j]
                for jp, col in enumerate(M):
                    if jp == j:
                        continue
                    q = col[i]
                    if q:
                        factor = q.scale(ring.field.inv(c))
                        M[jp] = [
                            col[r] - factor * pivot_col[r] for r in range(len(col))
                        ]
                        if k + 1 < len(mats):
                            for pcol in mats[k + 1]:
                                pcol[j] = pcol[j] + factor * pcol[jp]
                # split off the trivial summand
                del M[j]
                for col in M:
                    del col[i]
                if k + 1 < len(mats):
                    for pcol in mats[k + 1]:
                        del pcol[j]
                del twists[k + 1][j]
                if k >= 1:
                    del mats[k - 1][i]
                del twists[k][i]
                changed = True
    while mats and not mats[-1]:
        mats.pop()
        twists.pop()
    return twists, mats


def free_resolution_from_gb(gb: GroebnerBasis) -> ResolutionData:
    """Minimal graded free resolution of R/I from a reduced Gröbner basis:
    iterated pruned Schreyer syzygies, then unit-entry cancellation."""
    ring = gb.ring
    polys = list(gb.polys)
    if not polys:
        return ResolutionData(ring, [(0,)], [])
    eng = _Engine(ring, rank_bits=0)  # level 1: one component, keys are monomials
    for p in polys:
        eng.add(_to_engine(p, eng.pack, eng.modulus))
    twists_tower = [(0,), tuple(p.degree() for p in polys)]
    mats = [[[p] for p in polys]]  # columns into F_0 = R

    for _ in range(ring.nvars + 2):
        new, new_twists, bits, decode = _schreyer_step(eng)
        if not new:
            break
        mats.append(
            _schreyer_columns(ring, new, bits, decode, len(eng.basis), eng.unpack, eng.modulus)
        )
        twists_tower.append(tuple(new_twists))
        eng = _Engine(ring, rank_bits=bits)
        for e in new:
            eng.add(e)
    else:
        raise AssertionError("resolution exceeded the variable-count bound")

    twists, mats = _minimalize(twists_tower, mats, ring)
    return ResolutionData(ring, twists, mats)


# ---------------------------------------------------------------------------
# kernels, lifts, presented modules (position over term)


def _pot_element(eng, vec, unit=None):
    """Engine element of a vector of homogeneous Polynomials, plus a unit
    term in component unit when given."""
    cs, pack = eng.comp_shift, eng.pack
    keys, coeffs = [], []
    for s, p in enumerate(vec):
        if not p.is_homogeneous():  # packed keys order one degree at a time
            raise ValueError("module entries must be homogeneous")
        for m, c in p.terms:
            keys.append(s << cs | pack(m))
            coeffs.append(c)
    if unit is not None:
        keys.append(unit << cs)
        coeffs.append(1)
    return _clear(keys, coeffs, None, eng.modulus)


def _pot_vector(eng, keys, coeffs, first, rank, div):
    """Polynomials in components first .. first+rank-1, coefficients
    divided by div; within one component the keys run down through revlex."""
    cs = eng.comp_shift
    mmask = (1 << cs) - 1
    terms = [[] for _ in range(rank)]
    for k, c in zip(keys, _divide(coeffs, div, eng.modulus)):
        terms[(k >> cs) - first].append((eng.unpack(k & mmask), c))
    return [Polynomial.from_sorted(eng.ring, t) for t in terms]


class GraphBasis:
    """Traced Gröbner data for a column span: kernels and lifts.

    The graph elements (col_t, e_t) live in F + R^s; under position over
    term an element whose lead lies in the tracking part lies there
    entirely."""

    def __init__(self, cols, free_twists, ring):
        self.ring = ring
        self.free_twists = tuple(free_twists)
        self.ncols = len(cols)
        self.rF = len(free_twists)
        eng = _Engine(ring)
        degs = []
        for t, col in enumerate(cols):
            deg = None
            for s, p in enumerate(col):
                if not p:
                    continue
                d = p.degree() + free_twists[s]
                if deg is None:
                    deg = d
                elif deg != d:
                    raise ValueError("inhomogeneous column")
            degs.append(deg if deg is not None else 0)
            eng.add(_pot_element(eng, col, self.rF + t))
        self.twists = list(free_twists) + degs
        eng.complete(self.twists)
        self.engine = eng

    def kernel_generators(self):
        """Generators of the syzygy module of the columns (in R^ncols)."""
        eng, rF = self.engine, self.rF
        return [
            _pot_vector(eng, g.keys, g.coeffs, rF, self.ncols, g.coeffs[0])
            for g in eng.basis
            if g.keys[0] >> eng.comp_shift >= rF
        ]

    def lift(self, target):
        """Coefficients expressing a module vector over the columns, or None.

        target: list of Polynomial over the free part.
        """
        eng = self.engine
        ep = _pot_element(eng, target)
        keys, coeffs, mult = eng.normal_form(ep.keys, ep.coeffs)
        if keys and keys[0] >> eng.comp_shift < self.rF:
            return None
        return _pot_vector(eng, keys, coeffs, self.rF, self.ncols, -(ep.scale or 1) * mult)


def module_kernel(cols, free_twists, ring) -> list:
    """Generators of {(c_t) : sum c_t * cols_t = 0}."""
    return GraphBasis(cols, free_twists, ring).kernel_generators()


class PresentedModule:
    """Finitely presented graded module: free slots with generator degrees
    plus a relation submodule, held as a POT Gröbner basis."""

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

    def reduce(self, mp):
        """Normal form of {(slot, monomial): coeff}, as the same kind of
        dict in descending order."""
        eng = self.engine
        cs, mmask = eng.comp_shift, (1 << eng.comp_shift) - 1
        pairs = sorted((s << cs | eng.pack(m), c) for (s, m), c in mp.items() if c)
        ep = _clear([k for k, _ in pairs], [c for _, c in pairs], None, eng.modulus)
        keys, coeffs, mult = eng.normal_form(ep.keys, ep.coeffs)
        coeffs = _divide(coeffs, (ep.scale or 1) * mult, eng.modulus)
        return {(k >> cs, eng.unpack(k & mmask)): c for k, c in zip(keys, coeffs)}

    def mult_matrix(self, var: int, degree: int):
        """Matrix of multiplication by x_var from degree to degree+1, in the
        standard monomial bases (rows: target, columns: source)."""
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
        # transpose to rows=target
        return [[cols[c][r] for c in range(len(src))] for r in range(len(tgt))]
