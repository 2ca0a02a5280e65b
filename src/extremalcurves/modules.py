"""Graded free modules on the packed Gröbner engine: minimal free
resolutions by Schreyer syzygies, kernels by the graph trick, and
finitely presented modules.

A module term is one integer key, a packed monomial plus a component, with
the coefficients of ``groebner`` (primitive integers over QQ, residues mod
p).  Kernels and presented modules use the engine's position over term
(its `element`, `vector` and `unit` convert): ascending keys run from the
lowest component down through revlex.  A resolution level uses the
Schreyer order induced by the level below, a layout of this module's own:
the key is the image monomial (the term times the lead image of its
component) above a rank that orders the components by their chains of
lead components through the levels below; the frame runs on its level
lists with ``groebner``'s `spair` and `cancel_lead`.  Syzygy levels are
pruned to the pairs whose Schreyer lead is a minimal generator of the
per-component lead module, which keeps the tower near-minimal before the
exact unit-entry minimalization pass; a pruned pair is reduced to zero by
the shortest divisor (`_schreyer_step`).
Outside the engine an element is a packed vector {component: {packed
monomial: coefficient}} of homogeneous nonzero entries, its coefficients
field elements or integers: resolution maps stay packed (integer columns
with one scale each, `ResolutionData`) from the Schreyer step to the
presented modules, and ``Polynomial`` vectors appear only at the boundary
(`module_kernel`).  Every presented module is built by the driver of
``groebner``, a graph basis too: the kernels that ``ideals`` reads
quotients off are its own.  Its dimensions come from one Hilbert series,
that of its lead module (Eisenbud, Commutative Algebra, Thm 15.26), and it
has finite length when (1-t)^nvars divides the series' numerator.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from . import packing
from .groebner import GroebnerBasis, _divide, _Engine, _EnginePoly, _primitive, cancel_lead, spair
from .monomials import BettiTable, _numerator, series_dim
from .ring import PolyRing, Polynomial, _addmul, binom


# ---------------------------------------------------------------------------
# Schreyer resolution


def _schreyer_step(level, bits, lay, modulus):
    """One syzygy level: pruned S-pair syzygies of a Gröbner basis.

    level holds the level's elements, keyed (image << bits) | rank, in the
    packing layout lay.  Returns (syzygies, new_bits, decode): the
    syzygies are keyed the same way over this level's elements with
    new_bits rank bits, sorted by descending Schreyer lead, and
    decode[rank] = (element index, its lead image).  Each syzygy is an
    integer multiple of the monic syzygy over the monic elements.

    A pair's S-vector is reduced to zero with a trace; each step uses the
    divisor with the fewest terms, the lowest index among equals, so the
    rule is deterministic.  Any divisor gives a syzygy with the same
    Schreyer lead: only the tails depend on the rule, and the shortest
    reducer adds the fewest terms, so the tails come out sparser and
    the next level reduces them in fewer steps.
    """
    mask = (1 << bits) - 1
    leads = [g.keys[0] for g in level]
    by_rank = {}  # rank of the lead component -> [(lead, index)] in index order
    for t, lead in enumerate(leads):
        by_rank.setdefault(lead & mask, []).append((lead, t))
    # chains of lead components compare as (rank of the lead component, index)
    order = sorted(range(len(level)), key=lambda t: (leads[t] & mask, t))
    rank = [0] * len(level)
    for r, t in enumerate(order):
        rank[t] = r
    new_bits = len(level).bit_length()
    decode = [(t, leads[t] >> bits) for t in order]
    plain = lay.himask

    chosen = []
    for i, li in enumerate(leads):
        # the pair (i, j), i < j, has its Schreyer lead at i: the images are
        # equal, and the chain ending in the smaller index wins the tie
        img = li >> bits
        cands = []
        for lj, j in by_rank[li & mask]:
            if j > i:
                w = lay.lcm(img, lj >> bits)
                q = w - img
                cands.append((lay.degree(q), -q, j, w))
        # ascending revlex: a later lead monomial never divides an earlier one
        kept = []
        for _, nq, j, w in sorted(cands):
            if not any(packing.divides(k, -nq, plain) for k in kept):
                kept.append(-nq)
                chosen.append((i, j, w))

    lam = [g.coeffs[0] for g in level]  # element == lam * monic element
    # per rank, the elements by (term count, index): the first whose lead
    # divides is the shortest divisor, the lowest index among equals
    reducers = {r: sorted(found, key=lambda e: (len(level[e[1]].keys), e[1])) for r, found in by_rank.items()}
    himask = plain << bits
    new = []
    for i, j, w in chosen:
        deg = lay.degree(w)
        lay.check(deg, "syzygy degree")
        acc, a, b = spair(level[i], level[j], (w << bits) | (leads[i] & mask), modulus)
        trace = []  # (lead, t, a, b) per step: it took acc to a*acc - b*x^s*g_t
        while acc:
            lead = min(acc)
            top = lead | himask
            for key, t in reducers.get(lead & mask, ()):
                if (top - key) & himask == himask:  # packing.divides(key, lead, himask)
                    break
            else:
                raise AssertionError("S-pair of a Gröbner basis failed to reduce to zero")
            acc, a_s, b_s = cancel_lead(acc, lead, level[t], modulus)
            trace.append((lead, t, a_s, b_s))
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
    lay = packing.layout(ring.nvars)
    level, bits = gb.elems, 0
    levels = [(level, bits, [(0, 0)])]
    for _ in range(ring.nvars + 2):
        level, bits, decode = _schreyer_step(level, bits, lay, ring.modulus)
        if not level:
            return levels
        levels.append((level, bits, decode))
    raise AssertionError("resolution exceeded the variable-count bound")


def _packed_columns(elements, bits, decode, modulus):
    """Integer packed columns of Schreyer-keyed elements, with one integer
    scale per column: over QQ the lead coefficient, a denominator (the
    monic column is the column divided by it), mod p the lead's inverse (the
    monic column is the column times it).  The term at key
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
        scales.append(pow(e.coeffs[0], -1, modulus) if modulus else e.coeffs[0])
    return cols, scales


class ResolutionData:
    """Graded free resolution of R/I: twists per level and the maps between
    consecutive levels (level 0 is R itself).  Map k, F_{k+1} -> F_k, is
    one packed column over F_k per basis element of F_{k+1}.

    Each map is held once, as the integer columns of `_minimalize` with one
    integer scale per column (_scales[k][j] for column j of map k): over QQ
    a denominator, the field column being the column divided by it; mod p
    a residue, the field column being the column times it.  `dual(k)`
    builds the dual rows of map k from these integers on its first read:
    the h1 path reads the last map, h2 the last two.  Twists, length, Betti
    table and regularity read no coefficient.  The field view of the maps
    and the check of the complex live in ``tests/reference.py``."""

    def __init__(self, ring, twists, cols, scales):
        self.ring = ring
        self.twists = [tuple(t) for t in twists]
        self._cols = cols
        self._scales = scales
        self._dual = {}

    def dual(self, k):
        """Hom(-, R) of map k as (rows, multipliers): one packed vector over
        F_{k+1} per basis element of F_k, each the field row times its
        positive integer multiplier (`_dual_rows`)."""
        out = self._dual.get(k)
        if out is None:
            out = self._dual[k] = _dual_rows(self._cols[k], self._scales[k], len(self.twists[k]), self.ring.modulus)
        return out

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


def _minimalize(twists, cols, scales, modulus):
    """Cancel unit entries level by level from the back, on the integer
    columns of `_packed_columns`; returns the twists, integer columns and
    integer scales of the surviving basis elements.

    At each level the first column holding a unit, at its lowest unit row,
    is the pivot: every other column is cleared at that row, and the pivot
    row and column split off as a trivial summand (the basis elements they
    stand for die in both neighbouring maps).  Entries are homogeneous, so
    a unit sits only where the two twists agree, as the key 0.  Clearing
    makes no new unit in a column without one, so one pass over each level
    finds every pivot.  Clearing is fraction-free: with the unit u at the
    pivot row and q in the column there, the column becomes
    (u/g)*col - (q/g)*pivot, g = gcd(u, content of q), and its denominator
    is multiplied by u/g; then the gcd of the column's content and its
    denominator is divided out of both (mod p, col - (q/u)*pivot with the
    scale kept)."""
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
                        scale[jp] *= a
                for r, e in pivot.items():
                    if r != i and not _addmul(col.setdefault(r, {}), factor, e, modulus):
                        del col[r]
                if not modulus:
                    g = gcd(scale[jp], *(c for e in col.values() for c in e.values()))
                    if g > 1:
                        for e in col.values():
                            for key in e:
                                e[key] //= g
                        scale[jp] //= g
            live[k + 1][j] = live[k][i] = False
    index = [{old: new for new, old in enumerate(o for o, a in enumerate(lv) if a)} for lv in live]
    twists = [tuple(w for w, a in zip(t, lv) if a) for t, lv in zip(twists, live)]
    cols = [
        [{index[k][r]: e for r, e in col.items() if r in index[k]} for col, a in zip(level, live[k + 1]) if a]
        for k, level in enumerate(cols)
    ]
    scales = [[s for s, a in zip(level, live[k + 1]) if a] for k, level in enumerate(scales)]
    while cols and not cols[-1]:
        cols.pop()
        scales.pop()
        twists.pop()
    return twists, cols, scales


def _dual_rows(level, scales, nrows, modulus):
    """The transpose of one map's integer columns, with no field copy: per
    row of the map a packed vector over its columns, and a positive integer
    multiplier, the vector being the field row times it.  Over QQ the
    multiplier is the lcm of the denominators of the row's columns; mod p
    the vector is the field row itself and the multiplier 1."""
    rows = [{} for _ in range(nrows)]
    for c, col in enumerate(level):
        for r, e in col.items():
            rows[r][c] = e
    if modulus:
        rows = [{c: {key: v * scales[c] % modulus for key, v in e.items()} for c, e in row.items()} for row in rows]
        return rows, [1] * nrows
    mults = [lcm(*(scales[c] for c in row)) for row in rows]
    for row, m in zip(rows, mults):
        for c, e in row.items():
            f = m // scales[c]  # exact: a denominator may be negative, the lcm is not
            if f != 1:
                row[c] = {key: v * f for key, v in e.items()}
    return rows, mults


def free_resolution_from_gb(gb: GroebnerBasis) -> ResolutionData:
    """Minimal graded free resolution of R/I from a reduced Gröbner basis:
    iterated pruned Schreyer syzygies, then unit-entry cancellation."""
    ring = gb.ring
    if not gb.elems:
        return ResolutionData(ring, [(0,)], [], [])
    modulus = ring.modulus
    levels = _schreyer_frame(gb)
    twists = [(0,)] + [tuple(e.deg for e in elements) for elements, _, _ in levels]
    cols, scales = zip(*(_packed_columns(*level, modulus) for level in levels))
    return ResolutionData(ring, *_minimalize(twists, list(cols), scales, modulus))


# ---------------------------------------------------------------------------
# kernels, presented modules (position over term)


def packed_vector(ring, vec):
    """Packed vector of a list of homogeneous Polynomials, zeros left out."""
    pack = packing.layout(ring.nvars).pack
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
    unpack = packing.layout(ring.nvars).unpack
    out = [ring.zero] * rank
    for s, e in vec.items():
        out[s] = Polynomial.from_sorted(ring, [(unpack(k), e[k]) for k in sorted(e)])
    return out


class PresentedModule:
    """Finitely presented graded module: free slots with generator degrees
    plus a relation submodule of packed vectors, held as a POT Gröbner
    basis.  Its readers see the components first, first + 1, ... (first is
    0 unless a `GraphBasis` narrows the view), in degrees gen_degrees."""

    first = 0

    def __init__(self, ring: PolyRing, gen_degrees, relations):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        eng = _Engine(ring)
        rels = (eng.element(rel) for rel in relations)
        eng.build([e for e in rels if e.keys], self.gen_degrees)
        self.engine = eng
        self._standard = {}

    @cached_property
    def series(self):
        """The numerator N of HS(M) = N(t)/(1-t)^nvars as ascending terms
        [(k, c)], c nonzero.  M has the Hilbert function of its lead module
        (Macaulay; Eisenbud, Thm 15.26), the sum over the slots s of
        t^w_s R/L_s, L_s the slot's lead ideal: N = sum of t^w_s N(L_s),
        each by the pivot recursion (a slot with no leads adds t^w_s)."""
        eng, acc = self.engine, {}
        unpack = eng.layout.unpack  # reads the monomial slots, not the component above them
        for s, w in enumerate(self.gen_degrees, self.first):
            for k, c in enumerate(_numerator([unpack(key) for key, _ in eng.by_slot.get(s, ())]), w):
                acc[k] = acc.get(k, 0) + c
        return sorted((k, c) for k, c in acc.items() if c)

    def hf(self, degree: int) -> int:
        """Dimension of the graded piece, read off the Hilbert series."""
        return series_dim(self.series, self.ring.nvars, degree)

    def reduce(self, vec):
        """Normal form of a packed vector, as a packed vector."""
        if not vec:
            return {}
        eng, first = self.engine, self.first
        ep = eng.element({s + first: e for s, e in vec.items()})
        keys, coeffs, mult = eng.normal_form(ep.keys, ep.coeffs)
        # ep is ep.coeffs[0] / lead times vec, lead the coefficient at vec's smallest key
        top = vec[min(vec)]
        lead = top[min(top)]
        return eng.vector(keys, _divide([c * lead for c in coeffs], ep.coeffs[0] * mult, eng.modulus), first)

    def is_finite_length(self) -> bool:
        """Whether HS(M) = N(t)/(1-t)^n is a Laurent polynomial, that is
        (1-t)^n divides N.  With m the lowest k, N = t^m P(t) and P(t) =
        sum_i (sum_k c_k C(k-m, i)) (t-1)^i, so it does when those sums
        vanish for every i < n (every L_s is artinian)."""
        terms = self.series
        low = terms[0][0] if terms else 0
        return not any(sum(c * binom(k - low, i) for k, c in terms) for i in range(self.ring.nvars))

    def standard_basis(self, degree: int):
        """Ascending POT keys, the unit key of slot first + slot plus a
        monomial, outside the lead module, memoised per degree.  Its complement is an order
        ideal: the keys of degree e+1 are the variable multiples of those of
        degree e and the slots generated in e+1, less the keys a lead
        divides."""
        eng, memo = self.engine, self._standard
        lowest = min(self.gen_degrees, default=0)
        lay = eng.layout  # no exponent may reach a slot's top bit
        lay.check(degree - lowest, "monomial degree", " of a standard basis (degree {}, lowest twist {})", degree, lowest)
        steps = lay.var_keys
        e = max(memo, default=lowest - 1)
        out = memo.get(e, [])
        while e < degree:  # a loop, not recursion: the tracer wraps this method
            e += 1
            keys = {k + x for k in out for x in steps}
            keys.update(eng.unit(s) for s, w in enumerate(self.gen_degrees, self.first) if w == e)
            out = memo[e] = sorted(k for k in keys if eng.find_reducer(k) is None)
        return memo.get(degree, [])  # none below the lowest generator

    def mult_matrix(self, var: int, degree: int):
        """Multiplication by x_var from degree to degree+1 in the standard
        monomial bases: one sparse row {target index: value} per source
        element."""
        eng = self.engine
        tgt = self.standard_basis(degree + 1)  # first: past the limit, it names degree + 1
        tgt_index = {k: i for i, k in enumerate(tgt)}
        vk = eng.layout.var_keys[var]
        rows = []
        for key in self.standard_basis(degree):
            key += vk
            if key in tgt_index:
                rows.append({tgt_index[key]: 1})
            else:
                keys, coeffs, mult = eng.normal_form([key], [1])
                rows.append({tgt_index[k]: c for k, c in zip(keys, _divide(coeffs, mult, eng.modulus))})
        return rows


class GraphBasis(PresentedModule):
    """Traced Gröbner data for a span of packed columns: their kernel, and
    the coimage R^s / kernel, graded by the columns' degrees.

    The graph elements (col_t, m_t e_t) live in F + R^s, where the given
    column col_t is m_t times the column whose kernel is wanted (m_t from
    multipliers, 1 by default): each element is m_t times the graph element
    of the wanted column, so scaling it moves no kernel coordinate.  They
    present a module on F + R^s whose view narrows to R^s: under position
    over term an element whose lead lies there lies there entirely, so the
    elements there are a Gröbner basis of the kernel, and `hf` and
    `reduce` read the coimage off them.  A zero column's component is all
    kernel (its unit is a graph element), so the twist 0 it gets here moves
    no dimension."""

    def __init__(self, cols, free_twists, ring, multipliers=None):
        first, degree = len(free_twists), packing.layout(ring.nvars).degree
        degs, graph = [], []
        for t, col in enumerate(cols):
            found = {degree(next(iter(e))) + free_twists[s] for s, e in col.items()}
            if len(found) > 1:
                raise ValueError("inhomogeneous column")
            degs.append(found.pop() if found else 0)
            graph.append({**col, first + t: {0: multipliers[t] if multipliers else 1}})
        super().__init__(ring, list(free_twists) + degs, graph)
        self.first, self.gen_degrees = first, tuple(degs)

    def kernel_generators(self):
        """Packed generators of the syzygy module of the columns, one
        component per column, in the engine's integers (primitive with a
        positive lead over QQ, residues mod p): each is a nonzero multiple
        of its monic generator."""
        eng, first = self.engine, self.first
        low = eng.unit(first)
        return [eng.vector(g.keys, g.coeffs, first) for g in eng.basis if g.keys[0] >= low]


def module_kernel(cols, free_twists, ring) -> list:
    """Generators of {(c_t) : sum c_t * cols_t = 0} for columns of
    Polynomials, as lists of Polynomials, each divided by its lead
    coefficient."""
    graph = GraphBasis([packed_vector(ring, col) for col in cols], free_twists, ring)
    modulus = ring.modulus
    out = []
    for v in graph.kernel_generators():
        lead = v[min(v)]
        lead = lead[min(lead)]
        field = {s: dict(zip(e, _divide(list(e.values()), lead, modulus))) for s, e in v.items()}
        out.append(polynomial_vector(ring, field, len(cols)))
    return out
