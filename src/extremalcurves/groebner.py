"""Buchberger's algorithm for homogeneous ideals, and the packed engine
that ``modules`` shares for submodules of free modules.

The hot loop works on packed integer keys with primitive integer
coefficients (rationals cleared to content-free integer vectors, or residues
mod p), using the normal selection strategy with the chain criterion, the
coprimality criterion at rank 1, and at every rank its rank-free case: two
single-term elements have a zero S-vector, so none is built for them
(Buchberger's first criterion, as in Gebauer and Möller, JSC 6, 1988).  A
polynomial ideal is the rank-1 case of the one pair loop.  `spair` and
`cancel_lead` shift by a difference of keys, so the Schreyer frame of
``modules`` runs them on its own key layout.  Homogeneous
input means pair degrees are non-decreasing, so a degree cap yields the
exact initial ideal up to that degree.

One driver, `_Engine.build`, makes every ideal run and every presented
module, graph bases (so every kernel and ideal quotient) included: up the
degrees, each input top-reduced after the pairs below it.  No lead it
adds divides another, so the reduced basis only interreduces.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import packing
from .monomials import MonomialIdeal
from .ring import PolyRing, Polynomial, clear_denominators, expand_linear, strip_content


class _EnginePoly:
    __slots__ = ("keys", "coeffs", "deg")

    def __init__(self, keys, coeffs, deg):
        self.keys = keys  # ascending packed keys == descending terms
        self.coeffs = coeffs
        self.deg = deg


def _clear(keys, coeffs, deg, modulus) -> _EnginePoly:
    """Engine element from sorted keys and field (or integer) coefficients:
    residues mod p, or over QQ the primitive integer vector with a positive
    lead.  It keeps no scale: a caller that needs the factor between the
    element and its input reads it off the two leads."""
    if modulus:
        return _EnginePoly(keys, [int(c) % modulus for c in coeffs], deg)
    (ints,), _ = clear_denominators([coeffs])
    return _EnginePoly(keys, _primitive(ints, 0), deg)


def _to_engine(p: Polynomial, lay, modulus) -> _EnginePoly:
    lay.check(p.degree())
    pack = lay.pack
    return _clear([pack(m) for m, _ in p.terms], [c for _, c in p.terms], p.degree(), modulus)


def linear_images(gens, matrix, ring: PolyRing):
    """Engine elements of the nonzero images of gens under x_i -> sum_j
    matrix[i][j] x_j in the variables of ring, one per matrix column (a
    dropped column sets its variable to zero): the primitive vectors of
    `_to_engine`, made without a Polynomial.  `buchberger` and
    `initial_monomials` take them in place of polynomials."""
    lay = packing.layout(ring.nvars)
    lay.check(max((g.degree() for g in gens), default=0))
    modulus = ring.modulus
    out = []
    for g, (image, _) in zip(gens, expand_linear(gens, matrix, lay)):
        if image:
            keys = sorted(image)
            out.append(_EnginePoly(keys, _primitive([image[k] for k in keys], modulus), g.degree()))
    return out


def _from_engine(ep: _EnginePoly, ring: PolyRing, unpack, modulus):
    if not ep.keys:
        return ring.zero
    coeffs = _divide(ep.coeffs, ep.coeffs[0], modulus)
    return Polynomial.from_sorted(ring, zip(map(unpack, ep.keys), coeffs))


def _divide(coeffs, d, modulus):
    """The coefficients divided by d in the field: Fractions over QQ,
    residues mod p."""
    if modulus:
        inv = pow(d, -1, modulus)
        return [c * inv % modulus for c in coeffs]
    return [Fraction(c, d) for c in coeffs]


def _primitive(coeffs, modulus):
    """Over QQ: content-free with a positive lead; residues stay as they are."""
    if modulus:
        return coeffs
    coeffs, _ = strip_content(coeffs)
    if coeffs and coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def _monic(coeffs, modulus):
    """The one integer vector of a nonzero element's line that `_to_engine`
    makes from its monic polynomial: over QQ the primitive vector with a
    positive lead, mod p the monic residues."""
    return _divide(coeffs, coeffs[0], modulus) if modulus else _primitive(coeffs, 0)


def cancel_lead(acc, lead, g, modulus):
    """Take the accumulator f = {key: coeff} with lead key lead to
    a*f - b*x^s*g, which cancels (pops) that lead; returns (acc, a, b).
    Mod p a is 1; over QQ a and b are the cofactors of the two lead
    coefficients, and a != 1 rescales acc into a new dict.  The shift s is
    the difference of the two leads: any key layout will do in which a
    monomial shift is a difference of keys."""
    cf, cg = acc.pop(lead), g.coeffs[0]
    shift = lead - g.keys[0]
    terms = zip(g.keys, g.coeffs)
    next(terms)
    if modulus:
        b = cf * pow(cg, -1, modulus) % modulus
        get = acc.get
        for k, c in terms:
            k += shift
            v = (get(k, 0) - b * c) % modulus
            if v:
                acc[k] = v
            else:  # b * c != 0, so k was there
                del acc[k]
        return acc, 1, b
    d = gcd(cf, cg)
    a, b = cg // d, cf // d
    if a != 1:
        acc = {k: a * c for k, c in acc.items()}
    get = acc.get
    for k, c in terms:
        k += shift
        v = get(k, 0) - b * c
        if v:
            acc[k] = v
        else:
            del acc[k]
    return acc, a, b


def spair(gi, gj, lcm_key, modulus):
    """S-vector of the elements gi and gj at lcm_key: (acc, a, b) for the
    accumulator acc = a*x^si*gi - b*x^sj*gj."""
    si = lcm_key - gi.keys[0]
    return cancel_lead({k + si: c for k, c in zip(gi.keys, gi.coeffs)}, lcm_key, gj, modulus)


class _Engine:
    """A growing list of packed basis elements of a ring or a free module,
    indexed by the component of their leads.

    A key holds a packed monomial and, in the bits above its slots, a
    component (position over term); a polynomial is a vector in component
    0.  A monomial shift is a difference of keys in one component, and a
    reduction adds shifted terms into a {key: coeff} accumulator whose
    lead is its smallest key.  `element`, `vector` and `unit` convert
    between these keys and packed vectors {component: {packed monomial:
    coeff}}; no other module shifts a component into a key.
    """

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.layout = lay = packing.layout(ring.nvars)
        self.modulus = ring.modulus
        self.comp_shift = lay.bits  # the component sits above the monomial slots
        self.himask = lay.himask
        self.basis = []
        self.by_slot = {}  # component -> [(lead key, index)] in index order
        self.pairs = []  # heap of (degree, lcm degree, -lcm monomial, i, j, lcm key)
        self.pending = set()  # the (i, j) on the heap
        self.paired = 0  # elements whose pairs are on the heap

    def element(self, vec) -> _EnginePoly:
        """Engine element of a packed vector."""
        cs = self.comp_shift
        terms = sorted((s << cs | k, c) for s, e in vec.items() for k, c in e.items())
        return _clear([k for k, _ in terms], [c for _, c in terms], None, self.modulus)

    def vector(self, keys, coeffs, first):
        """Packed vector of the terms in components first and above, shifted
        down by first."""
        cs, mmask = self.comp_shift, self.layout.full
        out = {}
        for k, c in zip(keys, coeffs):
            out.setdefault((k >> cs) - first, {})[k & mmask] = c
        return out

    def unit(self, slot):
        """The key of the unit monomial of component slot: the keys of slot
        and the components above it are those from it on."""
        return slot << self.comp_shift

    def add(self, ep: _EnginePoly):
        lead = ep.keys[0]
        self.by_slot.setdefault(lead >> self.comp_shift, []).append((lead, len(self.basis)))
        self.basis.append(ep)

    def find_reducer(self, lead):
        """Index of the first element whose lead divides lead, or None."""
        himask = self.himask
        top = lead | himask
        for key, t in self.by_slot.get(lead >> self.comp_shift, ()):
            if (top - key) & himask == himask:  # packing.divides(key, lead, himask)
                return t
        return None

    def top_reduce(self, acc):
        """Reduce the lead of the accumulator {key: coeff} until it is
        irreducible or zero, and return the result as ascending (keys,
        coeffs).  The lead is the smallest key; each step updates only the
        terms of the reducer, the first element whose lead divides."""
        basis, modulus = self.basis, self.modulus
        steps = 0
        while acc:
            lead = min(acc)
            t = self.find_reducer(lead)
            if t is None:
                break
            acc, _, _ = cancel_lead(acc, lead, basis[t], modulus)
            if not modulus:
                steps += 1
                if steps % 16 == 0 and acc:
                    g = gcd(*acc.values())
                    if g > 1:
                        acc = {k: c // g for k, c in acc.items()}
        keys = sorted(acc)
        return keys, [acc[k] for k in keys]

    def normal_form(self, keys, coeffs):
        """Full normal form.  Returns (keys, coeffs, mult): the output equals
        mult times the input modulo the span of the basis."""
        acc = dict(zip(keys, coeffs))
        rem_k, rem_c = [], []
        mult = 1
        while acc:
            lead = min(acc)
            t = self.find_reducer(lead)
            if t is None:
                rem_k.append(lead)
                rem_c.append(acc.pop(lead))
                continue
            acc, a, _ = cancel_lead(acc, lead, self.basis[t], self.modulus)
            if a != 1:
                mult *= a
                if rem_c:
                    rem_c = [a * c for c in rem_c]
        return rem_k, rem_c, mult

    def complete(self, twists=(0,), cap=None, product=False):
        """Add reduced S-vectors (position over term) until every pair of
        elements with the same lead component reduces to zero.

        Pairs pop by degree (twist of the component plus the degree of the
        lcm), then ascending revlex of the lcm, then index; the chain criterion skips a
        pair whose lcm another lead divides once both detours are done.
        The product criterion (coprime leads) holds at rank 1 only.  A
        popped pair of two single-term elements is skipped at every rank
        before its S-vector is built: the two terms cancel at the lcm, so
        it is zero.  A skipped pair counts as done, as one that reduced to
        zero does, so the chain criterion and the basis stay the same.  A cap
        stops before the first pair above it; the heap stays on the engine,
        so a later call goes on from there, with the pairs of elements
        added in between.
        """
        cs, himask, modulus = self.comp_shift, self.himask, self.modulus
        basis, by_slot, pairs, pending = self.basis, self.by_slot, self.pairs, self.pending
        lowest = min(twists, default=0)
        lay = self.layout
        lcm, degree, limit = lay.lcm, lay.degree, lay.limit

        def push_pairs(j):
            lj = basis[j].keys[0]
            comp = lj >> cs
            for li, i in by_slot[comp]:
                if i >= j:
                    break
                w = lcm(li, lj)
                if product and w == li + lj:
                    continue  # coprime leads: S-pair reduces to zero
                dw = degree(w)
                heapq.heappush(pairs, (dw + twists[comp], dw, -w, i, j, comp << cs | w))
                pending.add((i, j))
            self.paired = j + 1

        for j in range(self.paired, len(basis)):
            push_pairs(j)

        while pairs:
            if cap is not None and pairs[0][0] > cap:
                break
            deg, _, _, i, j, w = heapq.heappop(pairs)
            if deg - lowest > limit:  # homogeneous: no exponent exceeds this
                lay.check(deg - lowest, "monomial degree", " of an S-pair (degree {}, lowest twist {})", deg, lowest)
            pending.discard((i, j))
            if len(basis[i].keys) == 1 and len(basis[j].keys) == 1:
                continue  # two single terms: the S-vector is zero
            skip = False
            for lk, k in by_slot[w >> cs]:
                if k == i or k == j or not packing.divides(lk, w, himask):
                    continue
                if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                    skip = True
                    break
            if skip:
                continue
            keys, coeffs = self.top_reduce(spair(basis[i], basis[j], w, modulus)[0])
            if not keys:
                continue
            self.add(_EnginePoly(keys, _primitive(coeffs, modulus), deg))
            push_pairs(len(basis) - 1)

    def build(self, elems, twists=(0,), cap=None, product=False):
        """The one driver: insert the homogeneous elems in ascending degree
        (a lead's degree plus its component's twist, input order within a
        degree), drop those above cap, and complete the pairs up to cap.
        Returns the indices of the elems kept, in the order they went in.

        Before an element of degree e goes in, the pairs up to e are done:
        the basis is a degree-e truncated Gröbner basis of J, the span of the
        elements kept so far, so the element reduces to zero iff it lies in
        J_e, and else its top-reduced remainder is added.  That lead is
        irreducible, so it makes no pair of degree <= e (such an lcm is the
        lead, which no other lead divides), and the basis stays truncated
        at e for the next element.  On an ideal's generators this keeps
        the subset of `oracle.minimal_generators`: g not in (I_<e)_e +
        span(kept mates).

        Every element added, input or S-vector, is top-reduced, and degrees
        only rise.  So no lead divides another in its component: an earlier
        one would have reduced the later, and a later one, of no smaller
        degree, would equal the earlier.  `_reduced` keeps every element."""
        lay, cs, modulus = self.layout, self.comp_shift, self.modulus
        degs = [lay.degree(e.keys[0] & lay.full) + twists[e.keys[0] >> cs] for e in elems]
        kept = []
        for t in sorted(range(len(elems)), key=degs.__getitem__):
            deg = degs[t]
            if cap is not None and deg > cap:
                break
            self.complete(twists, deg, product)
            keys, coeffs = self.top_reduce(dict(zip(elems[t].keys, elems[t].coeffs)))
            if keys:
                self.add(_EnginePoly(keys, _primitive(coeffs, modulus), deg))
                kept.append(t)
        self.complete(twists, cap, product)
        return kept


def _run(gens, ring=None, cap=None, checked=False):
    """The driver's run (`_Engine.build`) on the ideal of the nonzero gens,
    homogeneous polynomials or `linear_images` (checked polynomials are
    known homogeneous): the engine and the indices of the kept gens among
    the nonzero ones.  The ring is the first polynomial's when not given."""
    gens = list(gens)
    if ring is None:
        ring = next((g.ring for g in gens if isinstance(g, Polynomial)), None)
        if ring is None:
            raise ValueError("cannot infer the ring from no polynomial generator")
    eng = _Engine(ring)
    elems = []
    for g in gens:
        if isinstance(g, _EnginePoly):
            elems.append(g)
        elif g:
            if not checked and not g.is_homogeneous():
                raise ValueError("Buchberger engine expects homogeneous generators")
            elems.append(_to_engine(g, eng.layout, eng.modulus))
    return eng, eng.build(elems, cap=cap, product=True)


def _reduced(eng):
    """The reduced basis of a driver's engine, as engine elements in the
    canonical integers of `_monic`: no lead divides another
    (`_Engine.build`), so every element stays, and each tail is reduced
    against the engine itself."""
    out = []
    for g in eng.basis:
        keys, coeffs, mult = eng.normal_form(g.keys[1:], g.coeffs[1:])
        out.append(_EnginePoly([g.keys[0]] + keys, _monic([g.coeffs[0] * mult] + coeffs, eng.modulus), g.deg))
    return out


class GroebnerBasis:
    """Reduced Gröbner basis under revlex, sorted by descending lead
    monomial.

    It holds the engine's elements in the canonical integers of `_monic`
    (one vector per monic polynomial): the resolution's Schreyer frame
    takes them as they are, equality and hashing compare them, and the
    lead ideal is unpacked from their leads."""

    def __init__(self, ring: PolyRing, elems):
        self.ring = ring
        # descending revlex: higher degree first, then ascending packed lead
        self.elems = tuple(sorted(elems, key=lambda e: (-e.deg, e.keys[0])))

    @cached_property
    def _canonical(self):
        return tuple((tuple(e.keys), tuple(e.coeffs)) for e in self.elems)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self._canonical == other._canonical
        )

    def __hash__(self):
        return hash((self.ring, self._canonical))

    @cached_property
    def _initial(self):
        unpack = packing.layout(self.ring.nvars).unpack
        return MonomialIdeal(self.ring.nvars, [unpack(e.keys[0]) for e in self.elems])

    def initial_ideal(self) -> MonomialIdeal:
        return self._initial

    def __repr__(self):
        return f"GroebnerBasis({len(self.elems)} elements)"


def buchberger(gens, ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Gröbner basis of the homogeneous ideal generated by gens
    (polynomials, or engine elements from `linear_images` with the ring
    given)."""
    eng, _ = _run(gens, ring)
    return GroebnerBasis(eng.ring, _reduced(eng))


def minimal_basis(gens, ring: PolyRing):
    """(kept, basis): the subset of the nonzero homogeneous gens that
    `oracle.minimal_generators` keeps, in its order, and the reduced
    Gröbner basis of the ideal it generates (equal to ``buchberger(kept)``).
    The gens are not tested for homogeneity again: `Ideal.minimal`, the
    one caller, has tested its Polynomials.  Engine elements may stand
    among them; a kept one comes out as its monic Polynomial.  The driver
    keeps exactly the oracle's subset (`_Engine.build`)."""
    gens = [g for g in gens if g]
    eng, kept = _run(gens, ring, checked=True)
    kept = [gens[t] for t in kept]
    unpack, modulus = eng.layout.unpack, eng.modulus
    kept = [g if isinstance(g, Polynomial) else _from_engine(g, ring, unpack, modulus) for g in kept]
    return kept, GroebnerBasis(ring, _reduced(eng))


def initial_monomials(gens, cap: int | None, ring: PolyRing | None = None) -> MonomialIdeal:
    """The minimal generators of the initial ideal in degrees <= cap (with
    no cap, the initial ideal itself), read off a capped run's leads with
    no interreduction and no Fraction.  Gens are taken as by `buchberger`."""
    eng, _ = _run(gens, ring, cap)
    return MonomialIdeal(eng.ring.nvars, [eng.layout.unpack(e.keys[0]) for e in eng.basis])


def cut_leads(gens, matrix, cap: int | None, ring: PolyRing) -> MonomialIdeal:
    """Leads of the cut by x_n = 0 of g.I, for I = (gens) in ring and g the
    coordinate change matrix: the images with the matrix's last column
    dropped, in the first n variables, through `initial_monomials` with the
    given cap.  Under revlex, in(J + (x_n)) = in(J) + (x_n) for every
    homogeneous J (Eisenbud, Commutative Algebra, Prop. 15.12), so these
    are the minimal generators of in(g.I) free of x_n, up to degree cap."""
    target = PolyRing(ring.n, ring.field)
    cut = linear_images(gens, [row[:-1] for row in matrix], target)
    return initial_monomials(cut, cap, target)
