"""Graded free modules, module Gröbner bases, Schreyer syzygies, and
minimal free resolutions.

Module elements are dicts {(component, monomial): Fraction} ordered by a
pluggable module order: the Schreyer order induced by the lead terms of
the level below (resolutions), or position-over-term (kernel and lifting
computations via the graph trick).  Syzygy levels are pruned to the pairs
whose Schreyer lead is a minimal generator of the per-component lead
module, which keeps the tower near-minimal before the exact unit-entry
minimalization pass.
"""

from __future__ import annotations

from fractions import Fraction

from .groebner import GroebnerBasis
from .monomials import BettiTable, MonomialIdeal
from .ring import (
    PolyRing,
    Polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    revlex_key,
)


class FreeModule:
    """Graded free module with one generator of degree twists[s] per slot
    (that is, a direct sum of R(-twists[s]))."""

    def __init__(self, ring: PolyRing, twists):
        self.ring = ring
        self.twists = tuple(twists)

    @property
    def rank(self):
        return len(self.twists)

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.twists == other.twists
        )

    def __repr__(self):
        return f"FreeModule(rank={self.rank}, twists={self.twists})"


class ModuleVector:
    """Element of a graded free module: one polynomial entry per slot."""

    def __init__(self, module: FreeModule, entries):
        entries = tuple(entries)
        if len(entries) != module.rank:
            raise ValueError("entry count does not match the module rank")
        self.module = module
        self.entries = entries

    def degree(self):
        """Total degree of a homogeneous element; raises when mixed."""
        degs = {
            p.degree() + t
            for p, t in zip(self.entries, self.module.twists)
            if p
        }
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("module element is not homogeneous")
        return degs.pop()

    def is_homogeneous(self):
        try:
            self.degree()
        except ValueError:
            return False
        return all(p.is_homogeneous() for p in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleVector)
            and self.module == other.module
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ModuleVector({', '.join(str(p) for p in self.entries)})"


# ---------------------------------------------------------------------------
# module orders


class PotOrder:
    """Position over term: lower component beats higher, revlex inside."""

    def __init__(self):
        self._cache = {}

    def key(self, comp, mon):
        got = self._cache.get((comp, mon))
        if got is None:
            got = (-comp, revlex_key(mon))
            self._cache[(comp, mon)] = got
        return got


class SchreyerOrder:
    """Order induced by lead terms of the level below: compare ring images,
    break ties bottom-up through the component chains."""

    def __init__(self, imgs, chains):
        self.imgs = imgs  # comp -> ring monomial
        self.chains = chains  # comp -> tuple of components, own comp last
        self._cache = {}

    @classmethod
    def base(cls, ring: PolyRing):
        unit = tuple([0] * ring.nvars)
        return cls({0: unit}, {0: ()})

    def induced(self, elements, order_leads):
        """Order one level up, from the (monic) elements' lead terms."""
        imgs = {}
        chains = {}
        for t, (comp, mon) in enumerate(order_leads):
            imgs[t] = mono_mul(mon, self.imgs[comp])
            chains[t] = self.chains[comp] + (t,)
        return SchreyerOrder(imgs, chains)

    def key(self, comp, mon):
        got = self._cache.get((comp, mon))
        if got is None:
            got = (
                revlex_key(mono_mul(mon, self.imgs[comp])),
                tuple(-c for c in self.chains[comp]),
            )
            self._cache[(comp, mon)] = got
        return got


def _lead(mp, order):
    return max(mp, key=lambda t: order.key(*t))


def _mp_axpy(mp, coeff, mon, g):
    """mp - coeff * x^mon * g, in place on a copy."""
    out = dict(mp)
    for (c, m), v in g.items():
        key = (c, mono_mul(mon, m))
        s = out.get(key, Fraction(0)) - coeff * v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _mp_monic(mp, order):
    if not mp:
        return mp
    lead = _lead(mp, order)
    lc = mp[lead]
    if lc == 1:
        return mp
    return {t: v / lc for t, v in mp.items()}


def _module_normal_form(mp, basis, order, by_comp, full=True):
    """Reduce mp against monic basis elements; returns (remainder, trace)
    with mp = sum trace[t] * basis[t] + remainder."""
    trace = {}
    rem = {}
    work = dict(mp)
    while work:
        lead = _lead(work, order)
        c, m = lead
        reducer = None
        for t in by_comp.get(c, ()):
            bl = basis[t][1]
            if mono_divides(bl[1], m):
                reducer = t
                break
        if reducer is None:
            if not full:
                return work, trace
            rem[lead] = work.pop(lead)
            continue
        g, (gc, gm) = basis[reducer]
        factor = work[lead]
        shift = mono_div(m, gm)
        work = _mp_axpy(work, factor, shift, g)
        key = (reducer, shift)
        trace[key] = trace.get(key, Fraction(0)) + factor
    return rem, trace


def _index_by_comp(basis, order):
    by_comp = {}
    leads = []
    for t, g in enumerate(basis):
        lead = _lead(g, order)
        leads.append(lead)
        by_comp.setdefault(lead[0], []).append(t)
    return [(g, lead) for g, lead in zip(basis, leads)], by_comp


def module_buchberger(elems, order, twists, ring: PolyRing):
    """Module Gröbner basis (monic, lead-pruned) of the span of elems.

    Pairs exist only between elements with the same lead component; the
    chain criterion with pending-pair bookkeeping prunes reductions.
    """
    import heapq

    basis = []
    for e in elems:
        if e:
            basis.append(_mp_monic(dict(e), order))
    indexed, by_comp = _index_by_comp(basis, order)

    pairs = []
    pending = set()

    def push_pairs(j):
        _, (cj, mj) = indexed[j]
        for i in by_comp.get(cj, ()):
            if i >= j:
                continue
            w = mono_lcm(indexed[i][1][1], mj)
            deg = mono_degree(w) + twists[cj]
            heapq.heappush(pairs, (deg, revlex_key(w), i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        gi, (ci, mi) = indexed[i]
        gj, (cj, mj) = indexed[j]
        w = mono_lcm(mi, mj)
        skip = False
        for k in by_comp.get(ci, ()):
            if k in (i, j):
                continue
            if mono_divides(indexed[k][1][1], w):
                a, b = min(i, k), max(i, k)
                c, d = min(j, k), max(j, k)
                if (a, b) not in pending and (c, d) not in pending:
                    skip = True
                    break
        if skip:
            continue
        sp = _mp_axpy(_shift(gi, mono_div(w, mi)), Fraction(1), mono_div(w, mj), gj)
        rem, _ = _module_normal_form(sp, indexed, order, by_comp, full=False)
        if rem:
            rem = _mp_monic(rem, order)
            basis.append(rem)
            lead = _lead(rem, order)
            indexed.append((rem, lead))
            by_comp.setdefault(lead[0], []).append(len(basis) - 1)
            push_pairs(len(basis) - 1)

    return [g for g, _ in indexed]


def _shift(mp, mon):
    return {(c, mono_mul(mon, m)): v for (c, m), v in mp.items()}


# ---------------------------------------------------------------------------
# Schreyer resolution


def _schreyer_step(elements, order, twists, ring):
    """One syzygy level: pruned S-pair traces of a monic Gröbner basis.

    Returns (new_elements, new_order, new_twists); each new element is a
    syzygy expressed over the current level's slots, and new_order is the
    induced Schreyer order those elements are sorted under.
    """
    indexed, by_comp = _index_by_comp(elements, order)
    leads = [lead for _, lead in indexed]
    new_order = order.induced(elements, leads)

    candidates = {}
    for c, idxs in sorted(by_comp.items()):
        for ii in range(len(idxs)):
            for jj in range(len(idxs)):
                if ii == jj:
                    continue
                i, j = idxs[ii], idxs[jj]
                mi, mj = leads[i][1], leads[j][1]
                w = mono_lcm(mi, mj)
                pref, other = (i, j) if _pref(i, j, w, leads, new_order) else (j, i)
                if pref != i:
                    continue
                candidates.setdefault(i, []).append((mono_div(w, mi), j, w))

    chosen = []
    for i, cands in sorted(candidates.items()):
        cands.sort(key=lambda t: (revlex_key(t[0]), t[1]))
        kept = []
        for lead_mon, j, w in cands:
            if any(mono_divides(k, lead_mon) for k, _, _ in kept):
                continue
            kept = [(k, jj, ww) for (k, jj, ww) in kept if not mono_divides(lead_mon, k)]
            kept.append((lead_mon, j, w))
        for lead_mon, j, w in sorted(kept, key=lambda t: (revlex_key(t[0]), t[1])):
            chosen.append((i, j, w))

    new_elements = []
    new_twists = []
    for i, j, w in chosen:
        gi, (ci, mi) = indexed[i]
        gj, (cj, mj) = indexed[j]
        sp = _mp_axpy(_shift(gi, mono_div(w, mi)), Fraction(1), mono_div(w, mj), gj)
        rem, trace = _module_normal_form(sp, indexed, order, by_comp, full=False)
        if rem:
            raise AssertionError("S-pair of a Gröbner basis failed to reduce to zero")
        syz = {(i, mono_div(w, mi)): Fraction(1), (j, mono_div(w, mj)): Fraction(-1)}
        for (t, mon), coeff in trace.items():
            key = (t, mon)
            s = syz.get(key, Fraction(0)) - coeff
            if s:
                syz[key] = s
            else:
                syz.pop(key, None)
        new_elements.append(syz)
        # deg sigma = deg(w/lead mon of g_i) + deg(g_i)
        new_twists.append(mono_degree(w) - mono_degree(mi) + twists[i])

    # deterministic ordering: descending Schreyer lead
    order_keys = [
        new_order.key(*max(e, key=lambda t: new_order.key(*t))) for e in new_elements
    ]
    perm = sorted(range(len(new_elements)), key=lambda t: order_keys[t], reverse=True)
    new_elements = [new_elements[t] for t in perm]
    new_twists = [new_twists[t] for t in perm]
    return new_elements, new_order, new_twists


def _pref(i, j, w, leads, new_order):
    """True when slot i carries the Schreyer lead of the (i, j) syzygy."""
    mi, mj = leads[i][1], leads[j][1]
    ki = new_order.key(i, mono_div(w, mi))
    kj = new_order.key(j, mono_div(w, mj))
    return ki > kj


class ResolutionData:
    """Graded free resolution of R/I: twists per level and the matrices
    between consecutive levels (level 0 is R itself)."""

    def __init__(self, ring, twists, mats, minimal=True):
        self.ring = ring
        self.twists = [tuple(t) for t in twists]
        # mats[k]: columns over F_{k+1}, each column a list over F_k slots
        self.mats = [[list(col) for col in mat] for mat in mats]
        self.minimal = minimal

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
        """Consecutive maps compose to zero; minimal means no unit entries."""
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
        if self.minimal:
            for k, mat in enumerate(self.mats):
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
                        factor = q.scale(1 / c)
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
    if getattr(ring.field, "p", 0):
        raise ValueError("resolutions are computed over the rationals only")
    polys = [p for p in gb.polys]
    if not polys:
        return ResolutionData(ring, [(0,)], [], minimal=True)
    order = SchreyerOrder.base(ring)
    elements = [
        {(0, m): c for m, c in p.terms} for p in polys
    ]
    twists_tower = [(0,), tuple(p.degree() for p in polys)]
    mats = [[[p] for p in polys]]  # columns into F_0 = R

    level_twists = list(twists_tower[1])
    max_levels = ring.nvars + 2
    for _ in range(max_levels):
        new_elements, new_order, new_twists = _schreyer_step(
            elements, order, level_twists, ring
        )
        if not new_elements:
            break
        cols = []
        for e in new_elements:
            col = [ring.zero] * len(elements)
            acc = {}
            for (t, mon), coeff in e.items():
                acc.setdefault(t, []).append((mon, coeff))
            for t, terms in acc.items():
                col[t] = Polynomial(ring, terms)
            cols.append(col)
        mats.append(cols)
        twists_tower.append(tuple(new_twists))
        elements = new_elements
        order = new_order
        level_twists = list(new_twists)
    else:
        raise AssertionError("resolution exceeded the variable-count bound")

    twists, mats = _minimalize(twists_tower, mats, ring)
    return ResolutionData(ring, twists, mats, minimal=True)


# ---------------------------------------------------------------------------
# kernels, lifts, presented modules


def _vectors_to_graph(cols, free_twists, ring):
    """Graph elements (col_t, e_t) in F + R^s with POT elimination order."""
    rF = len(free_twists)
    unit = tuple([0] * ring.nvars)
    elems = []
    degs = []
    for t, col in enumerate(cols):
        mp = {}
        deg = None
        for s, p in enumerate(col):
            if not p:
                continue
            d = p.degree() + free_twists[s]
            if deg is None:
                deg = d
            elif deg != d:
                raise ValueError("inhomogeneous column")
            for m, c in p.terms:
                mp[(s, m)] = Fraction(c)
        mp[(rF + t, unit)] = Fraction(1)
        elems.append(mp)
        degs.append(deg if deg is not None else 0)
    twists = list(free_twists) + degs
    return elems, twists, rF


class GraphBasis:
    """Traced Gröbner data for a column span: kernels and lifts."""

    def __init__(self, cols, free_twists, ring):
        self.ring = ring
        self.free_twists = tuple(free_twists)
        self.ncols = len(cols)
        elems, twists, rF = _vectors_to_graph(cols, free_twists, ring)
        self.rF = rF
        order = PotOrder()
        self.order = order
        self.twists = twists
        gb = module_buchberger(elems, order, twists, ring)
        self.gb_indexed, self.by_comp = _index_by_comp(gb, order)

    def kernel_generators(self):
        """Generators of the syzygy module of the columns (in R^ncols)."""
        out = []
        for g, (c, _) in self.gb_indexed:
            if c < self.rF:
                continue
            # POT elimination: lead in the tracking part means the whole
            # element lives there
            acc = {}
            for (comp, mon), coeff in g.items():
                acc.setdefault(comp - self.rF, []).append((mon, coeff))
            vec = [self.ring.zero] * self.ncols
            for t, terms in acc.items():
                vec[t] = Polynomial(self.ring, terms)
            out.append(vec)
        return out

    def lift(self, target):
        """Coefficients expressing a module vector over the columns, or None.

        target: list of Polynomial over the free part.
        """
        mp = {}
        for s, p in enumerate(target):
            if not p:
                continue
            for m, c in p.terms:
                mp[(s, m)] = Fraction(c)
        if not mp:
            return [self.ring.zero] * self.ncols
        rem, _ = _module_normal_form(mp, self.gb_indexed, self.order, self.by_comp)
        if any(comp < self.rF for comp, _ in rem):
            return None
        acc = {}
        for (comp, mon), coeff in rem.items():
            acc.setdefault(comp - self.rF, []).append((mon, -coeff))
        out = [self.ring.zero] * self.ncols
        for t, terms in acc.items():
            out[t] = Polynomial(self.ring, terms)
        return out


def module_kernel(cols, free_twists, ring) -> list:
    """Generators of {(c_t) : sum c_t * cols_t = 0}."""
    return GraphBasis(cols, free_twists, ring).kernel_generators()


def syzygies(gb: GroebnerBasis):
    """Module Gröbner basis of the syzygies of a reduced basis, under the
    induced Schreyer order; returned as vectors over the basis elements."""
    ring = gb.ring
    polys = list(gb.polys)
    if not polys:
        return FreeModule(ring, ()), []
    order = SchreyerOrder.base(ring)
    elements = [{(0, m): c for m, c in p.terms} for p in polys]
    twists = [p.degree() for p in polys]
    new_elements, _, _ = _schreyer_step(elements, order, twists, ring)
    module = FreeModule(ring, twists)
    out = []
    for e in new_elements:
        acc = {}
        for (t, mon), coeff in e.items():
            acc.setdefault(t, []).append((mon, coeff))
        entries = [
            Polynomial(ring, acc.get(t, [])) for t in range(len(polys))
        ]
        out.append(ModuleVector(module, entries))
    return module, out


class PresentedModule:
    """Finitely presented graded module: free slots with generator degrees
    plus a relation submodule, held as a POT Gröbner basis."""

    def __init__(self, ring: PolyRing, gen_degrees, relations):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        order = PotOrder()
        self.order = order
        elems = []
        for rel in relations:
            mp = {}
            for s, p in enumerate(rel):
                if not p:
                    continue
                for m, c in p.terms:
                    mp[(s, m)] = Fraction(c)
            if mp:
                elems.append(mp)
        gb = module_buchberger(elems, order, list(self.gen_degrees), ring)
        self.gb_indexed, self.by_comp = _index_by_comp(gb, order)
        self.lead_ideals = {}
        for s in range(len(self.gen_degrees)):
            self.lead_ideals[s] = MonomialIdeal(
                ring.nvars,
                [lead[1] for _, lead in self.gb_indexed if lead[0] == s],
            )
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
        rem, _ = _module_normal_form(mp, self.gb_indexed, self.order, self.by_comp)
        return rem

    def mult_matrix(self, var: int, degree: int):
        """Matrix of multiplication by x_var from degree to degree+1, in the
        standard monomial bases (rows: target, columns: source)."""
        src = self.standard_basis(degree)
        tgt = self.standard_basis(degree + 1)
        tgt_index = {t: k for k, t in enumerate(tgt)}
        vm = self.ring.var_mono(var)
        cols = []
        for (s, m) in src:
            mm = mono_mul(m, vm)
            vec = [Fraction(0)] * len(tgt)
            if self.lead_ideals[s].contains(mm):
                rem = self.reduce({(s, mm): Fraction(1)})
                for (c2, m2), coeff in rem.items():
                    vec[tgt_index[(c2, m2)]] = coeff
            else:
                vec[tgt_index[(s, mm)]] = Fraction(1)
            cols.append(vec)
        # transpose to rows=target
        return [[cols[c][r] for c in range(len(src))] for r in range(len(tgt))]
