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
per-component lead module (`_schreyer_step`).  The frame's unit pivots,
found on its degree-0 entries, fix the minimal twists, and a map is
minimalized only when it is read (`ResolutionData`).  Outside the engine
an element is a packed vector {component: {packed monomial: coefficient}}
of homogeneous nonzero entries.  Every presented module is built by the
driver of ``groebner``, a graph basis too: the kernels that ``ideals``
reads quotients off are its own.  Its dimensions come from one Hilbert
series, that of its lead module (Eisenbud, Commutative Algebra, Thm
15.26), and it has finite length when (1-t)^nvars divides its numerator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd

from . import packing
from .groebner import GroebnerBasis, _divide, _Engine, _EnginePoly, _primitive, cancel_lead, spair
from .monomials import BettiTable, _numerator, series_values
from .ring import PolyRing, _addmul


# ---------------------------------------------------------------------------
# Schreyer resolution


class InternalCheckError(AssertionError):
    """A proven identity failed: upstream bug, not a property of the input."""


def _schreyer_step(level, bits, lay, modulus):
    """One syzygy level: pruned S-pair syzygies of a Gröbner basis.

    level holds the level's elements, keyed (image << bits) | rank, in the
    packing layout lay.  Returns (syzygies, new_bits, decode): syzygies
    keyed the same way over this level's elements with new_bits rank bits,
    sorted by descending Schreyer lead, each an integer multiple of the
    monic syzygy over the monic elements; decode[rank] = (element index,
    its lead image).

    A pair's S-vector is reduced to zero; each step uses the divisor with
    the fewest terms, the lowest index among equals: any divisor gives a
    syzygy with the same Schreyer lead, and the shortest adds the fewest
    tail terms for the next level.  The rule reads the lead key alone, so
    a key's divisor is searched once per level.  The syzygy is summed as
    the reduction goes: a step acc -> a*acc - b*x^s*g_t scales it by a
    (if a != 1) and sets -b*lam_t at the step's key, the integers of a
    replay from the last step back (leads rise: no two share a key).
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

    chosen, seen = [], dict.fromkeys(by_rank, 0)
    for i, li in enumerate(leads):
        # the pair (i, j), i < j, has its Schreyer lead at i: the images are
        # equal, and the chain ending in the smaller index wins the tie
        img, r = li >> bits, li & mask
        seen[r] += 1  # i is the seen[r]-th of its group: the later ones follow
        cands = []
        for lj, j in by_rank[r][seen[r]:]:
            w = lay.lcm(img, lj >> bits)
            q = w - img
            cands.append((lay.degree(q), -q, j, w))
        # ascending revlex: a later lead monomial never divides an earlier one
        kept = []
        for _, nq, j, w in sorted(cands):
            top = -nq | plain
            if not any((top - k) & plain == plain for k in kept):  # packing.divides(k, -nq, plain)
                kept.append(-nq)
                chosen.append((i, j, w))

    lam = [g.coeffs[0] for g in level]  # element == lam * monic element
    # per rank, the elements by (term count, index): the first whose lead
    # divides is the shortest divisor, the lowest index among equals
    reducers = {r: sorted(found, key=lambda e: (len(level[e[1]].keys), e[1])) for r, found in by_rank.items()}
    himask = plain << bits
    shortest = {}  # lead key -> its shortest divisor
    new = []
    for i, j, w in chosen:
        deg = lay.degree(w)
        lay.check(deg, "syzygy degree")
        acc, a, b = spair(level[i], level[j], (w << bits) | (leads[i] & mask), modulus)
        # over the monic elements, syz is the combination that acc is
        syz = {(w << new_bits) | rank[i]: a * lam[i], (w << new_bits) | rank[j]: -b * lam[j]}
        while acc:
            lead = min(acc)
            t = shortest.get(lead)
            if t is None:
                top = lead | himask
                for key, t in reducers.get(lead & mask, ()):
                    if (top - key) & himask == himask:  # packing.divides(key, lead, himask)
                        break
                else:
                    raise AssertionError("S-pair of a Gröbner basis failed to reduce to zero")
                shortest[lead] = t
            acc, a, b = cancel_lead(acc, lead, level[t], modulus)
            if a != 1:
                for k in syz:
                    syz[k] *= a
            syz[((lead >> bits) << new_bits) | rank[t]] = -b * lam[t]
        if modulus:
            syz = {k: c % modulus for k, c in syz.items()}
        keys = sorted(k for k, c in syz.items() if c)
        new.append(_EnginePoly(keys, _primitive([syz[k] for k in keys], modulus), deg))
    new.sort(key=lambda e: (-e.deg, e.keys[0]))  # packed keys compare within a degree
    return new, new_bits, decode


def _schreyer_frame(gb: GroebnerBasis):
    """The pruned Schreyer frame of R/I for a nonempty reduced basis: per
    level, (elements, rank bits, decode) as `ResolutionData._map` reads
    them, the basis itself first (one component, keys are monomials)."""
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


def _unit_pivots(levels, twists, modulus):
    """The pivots [(row, column)] `_clear_units` takes in each map of the
    frame, [] past the last, found from the last map back on the degree-0
    entries alone: a column is cleared by a multiple of the pivot column, a
    unit only where their twists agree, so no other entry decides a pivot."""
    pivots, dead = [[]], set()
    for k in range(len(levels) - 1, -1, -1):
        elements, bits, decode = levels[k]
        mask, degs, units = (1 << bits) - 1, set(twists[k]), []
        for e in elements:
            col = {}
            if e.deg in degs:
                for key, c in zip(e.keys, e.coeffs):
                    t, img = decode[key & mask]
                    if key >> bits == img:
                        col[t] = {0: c}
            units.append(col)
        pivots.insert(0, _clear_units(twists[k], twists[k + 1], units, [1] * len(units), dead, modulus))
        dead = {i for i, _ in pivots[0]}
    return pivots


def _clear_units(rows, tops, level, scale, dead, modulus):
    """Cancel the unit entries of one map's integer columns and scales
    outside the columns in dead, which gains the pivot columns; returns the
    pivots [(row, column)] in order.  The first live column with a unit (a
    unit sits where the twists agree, as the key 0), at its lowest unit
    row, is the pivot: the other live columns are cleared at that row, and
    the pivot row and column split off.  Clearing makes no unit in a column
    without one, so one pass finds every pivot.  It is fraction-free: col
    -> (u/g)*col - (q/g)*pivot for the unit u and the column's q, g =
    gcd(u, content of q), the denominator times u/g, then the gcd of content
    and denominator divided out of both (mod p, col - (q/u)*pivot)."""
    found = []
    for j, pivot in enumerate(level):
        i = None if j in dead else min((r for r in pivot if rows[r] == tops[j]), default=None)
        if i is None:
            continue
        u = pivot[i][0]
        inv = -pow(u, -1, modulus) if modulus else None
        for jp, col in enumerate(level):
            q = col.pop(i, None) if jp != j and jp not in dead else None
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
        dead.add(j)
        found.append((i, j))
    return found


class ResolutionData:
    """Graded free resolution of R/I: twists per level and the maps between
    consecutive levels (level 0 is R itself).  Map k, F_{k+1} -> F_k, is
    one packed column over F_k per basis element of F_{k+1}.

    The minimal Betti numbers are ranks of the frame's degree-0 strands
    (La Scala and Stillman, JSC 26, 1998): the twists, length, Betti table
    and regularity come from the unit pivots alone (`_unit_pivots`).  Map
    k is made on its first read (`_map`, all given without a frame):
    integer columns with one integer scale each, over QQ a denominator
    (the field column is the column divided by it), mod p a residue (the
    column times it).  The h1 path reads the last map, h2 the last two;
    ``tests/reference.py`` reads them all in the field, as a check."""

    def __init__(self, ring, twists, cols=(), scales=(), frame=None):
        self.ring = ring
        self.twists = [tuple(t) for t in twists]
        self._maps = dict(enumerate(zip(cols, scales)))
        self._frame = frame  # the frame's levels and twists, its pivots, and per level the elements gone
        self._dual = {}

    def _map(self, k):
        """Map k as (integer columns, scales): per frame element a column, its
        term at (image << bits) | rank in row t at image minus t's lead
        image (decode[rank] = (t, lead image)), scaled by the lead over QQ,
        its inverse mod p; cleared by `_clear_units`, which must take the
        plan's pivots again, less the basis elements that split off."""
        if k not in self._maps:
            (levels, twists, pivots, gone), modulus = self._frame, self.ring.modulus
            elements, bits, decode = levels[k]
            mask, cols = (1 << bits) - 1, [{} for _ in elements]
            for e, col in zip(elements, cols):
                for key, c in zip(e.keys, e.coeffs):
                    t, img = decode[key & mask]
                    col.setdefault(t, {})[(key >> bits) - img] = c
            scales = [pow(e.coeffs[0], -1, modulus) if modulus else e.coeffs[0] for e in elements]
            if _clear_units(twists[k], twists[k + 1], cols, scales, {i for i, _ in pivots[k + 1]}, modulus) != pivots[k]:
                raise InternalCheckError(f"map {k} of the resolution has other unit pivots than its degree-0 plan")
            index = {r: s for s, r in enumerate(r for r in range(len(twists[k])) if r not in gone[k])}
            keep = [j for j in range(len(cols)) if j not in gone[k + 1]]
            self._maps[k] = [{index[r]: e for r, e in cols[j].items() if r in index} for j in keep], [scales[j] for j in keep]
        return self._maps[k]

    def dual(self, k):
        """Hom(-, R) of map k, made once from its integer columns: one packed
        vector over F_{k+1} per basis element of F_k, in the field: over QQ
        each integer over its column's scale (a Fraction, the integer itself
        where the scale is 1), mod p the residue times it."""
        if k not in self._dual:
            (cols, scales), modulus = self._map(k), self.ring.modulus
            rows = [{} for _ in self.twists[k]]
            for c, (col, s) in enumerate(zip(cols, scales)):
                for r, e in col.items():
                    if modulus:
                        e = {key: v * s % modulus for key, v in e.items()}
                    elif s != 1:
                        e = {key: Fraction(v, s) for key, v in e.items()}
                    rows[r][c] = e
            self._dual[k] = rows
        return self._dual[k]

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


def free_resolution_from_gb(gb: GroebnerBasis) -> ResolutionData:
    """Minimal graded free resolution of R/I from a reduced Gröbner basis:
    iterated pruned Schreyer syzygies, whose unit pivots split off trivial
    summands (`_unit_pivots`); each map is made on its first read."""
    ring = gb.ring
    if not gb.elems:
        return ResolutionData(ring, [(0,)])
    levels = _schreyer_frame(gb)
    twists = [(0,)] + [tuple(e.deg for e in elements) for elements, _, _ in levels]
    pivots = _unit_pivots(levels, twists, ring.modulus)
    # F_k loses the pivot columns of map k-1 and the pivot rows of map k
    gone = [{j for _, j in a} | {i for i, _ in b} for a, b in zip([[]] + pivots, pivots)]
    minimal = [tuple(w for r, w in enumerate(t) if r not in g) for t, g in zip(twists, gone)]
    while len(minimal) > 1 and not minimal[-1]:
        minimal.pop()
    return ResolutionData(ring, minimal, frame=(levels, twists, pivots, gone))


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
        return series_values(self.series, self.ring.nvars, degree, degree)[0]

    def is_finite_length(self) -> bool:
        """Whether HS(M) = N(t)/(1-t)^n is a Laurent polynomial, that is
        (1-t)^n divides N (every L_s is artinian).  With top the highest
        exponent of N, the coefficient of t^j for j >= top is
        sum_k c_k C(j - k + n - 1, n - 1), a polynomial in j of degree below
        n: HS(M) stops at t^top exactly when the n of them from top on
        vanish."""
        terms, n = self.series, self.ring.nvars
        top = terms[-1][0] if terms else 0
        return not any(series_values(terms, n, top, top + n - 1))

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

    The graph elements (col_t, e_t) live in F + R^s, with the columns in
    the field or in integers; the engine takes each to its own integer
    line, which scales col_t and e_t alike and so moves no kernel
    coordinate.  They present a module on F + R^s whose view narrows to
    R^s: under position over term an element whose lead lies there lies
    there entirely, so the elements there are a Gröbner basis of the
    kernel, and `hf` reads the coimage off them.  A zero column's
    component is all kernel (its unit is a graph element), so the twist 0
    it gets here moves no dimension."""

    def __init__(self, cols, free_twists, ring):
        first, degree = len(free_twists), packing.layout(ring.nvars).degree
        degs, graph = [], []
        for t, col in enumerate(cols):
            found = {degree(next(iter(e))) + free_twists[s] for s, e in col.items()}
            if len(found) > 1:
                raise ValueError("inhomogeneous column")
            degs.append(found.pop() if found else 0)
            graph.append({**col, first + t: {0: 1}})
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
