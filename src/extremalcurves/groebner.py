"""Buchberger's algorithm for homogeneous ideals.

The hot loop works on packed integer monomial keys with primitive integer
coefficients (rationals cleared to content-free integer vectors, or residues
mod p), using the normal selection strategy with the coprimality and chain
criteria.  Homogeneous input means pair degrees are non-decreasing, so a
degree cap yields the exact initial ideal up to that degree.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

from . import packing
from .packing import MAXEXP, ExponentLimitError
from .monomials import MonomialIdeal
from .ring import PolyRing, Polynomial, revlex_key


class _EnginePoly:
    __slots__ = ("keys", "coeffs", "deg", "scale")

    def __init__(self, keys, coeffs, deg, scale=None):
        self.keys = keys  # ascending packed keys == descending monomials
        self.coeffs = coeffs
        self.deg = deg
        self.scale = scale  # engine poly == scale * source polynomial


def _to_engine(p: Polynomial, pack, modulus) -> _EnginePoly:
    if p.degree() > MAXEXP:
        raise ExponentLimitError(f"degree {p.degree()} exceeds the packed limit {MAXEXP}")
    keys = [pack(m) for m, _ in p.terms]
    if modulus:
        coeffs = [int(c) % modulus for _, c in p.terms]
        return _EnginePoly(keys, coeffs, p.degree(), None)
    den = 1
    for _, c in p.terms:
        den = den * c.denominator // gcd(den, c.denominator)
    coeffs = [int(c * den) for _, c in p.terms]
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            break
    g = g or 1
    sign = -1 if coeffs and coeffs[0] < 0 else 1
    if g > 1 or sign < 0:
        coeffs = [sign * c // g for c in coeffs]
    return _EnginePoly(keys, coeffs, p.degree(), Fraction(sign * den, g))


def _from_engine(ep: _EnginePoly, ring: PolyRing, unpack, modulus):
    if not ep.keys:
        return ring.zero
    if modulus:
        inv = pow(ep.coeffs[0], -1, modulus)
        terms = [(unpack(k), c * inv % modulus) for k, c in zip(ep.keys, ep.coeffs)]
    else:
        lc = ep.coeffs[0]
        terms = [(unpack(k), Fraction(c, lc)) for k, c in zip(ep.keys, ep.coeffs)]
    return Polynomial(ring, terms)


def _strip_content(coeffs):
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            return coeffs, 1
    if g > 1:
        return [c // g for c in coeffs], g
    return coeffs, 1


def _axpy(keys_f, coeffs_f, a, keys_g, coeffs_g, b, shift, modulus):
    """a*f - b*(x^shift * g) with ascending-key merge; shift may be negative."""
    out_k, out_c = [], []
    i = j = 0
    nf, ng = len(keys_f), len(keys_g)
    while i < nf and j < ng:
        kf = keys_f[i]
        kg = keys_g[j] + shift
        if kf < kg:
            v = a * coeffs_f[i]
            if modulus:
                v %= modulus
            if v:
                out_k.append(kf)
                out_c.append(v)
            i += 1
        elif kf > kg:
            v = -b * coeffs_g[j]
            if modulus:
                v %= modulus
            if v:
                out_k.append(kg)
                out_c.append(v)
            j += 1
        else:
            v = a * coeffs_f[i] - b * coeffs_g[j]
            if modulus:
                v %= modulus
            if v:
                out_k.append(kf)
                out_c.append(v)
            i += 1
            j += 1
    while i < nf:
        v = a * coeffs_f[i]
        if modulus:
            v %= modulus
        if v:
            out_k.append(keys_f[i])
            out_c.append(v)
        i += 1
    while j < ng:
        v = -b * coeffs_g[j]
        if modulus:
            v %= modulus
        if v:
            out_k.append(keys_g[j] + shift)
            out_c.append(v)
        j += 1
    return out_k, out_c


class _Engine:
    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.pack = packing.make_packer(ring.nvars)
        self.unpack = packing.make_unpacker(ring.nvars)
        self.himask = packing.high_mask(ring.nvars)
        self.modulus = getattr(ring.field, "p", 0)

    def find_reducer(self, lead, basis):
        himask = self.himask
        for g in basis:
            if packing.divides(g.keys[0], lead, himask):
                return g
        return None

    def top_reduce(self, keys, coeffs, basis):
        """Reduce the lead until irreducible or zero."""
        modulus = self.modulus
        steps = 0
        while keys:
            g = self.find_reducer(keys[0], basis)
            if g is None:
                break
            shift = keys[0] - g.keys[0]
            if modulus:
                b = coeffs[0] * pow(g.coeffs[0], -1, modulus) % modulus
                keys, coeffs = _axpy(keys, coeffs, 1, g.keys, g.coeffs, b, shift, modulus)
            else:
                cf, cg = coeffs[0], g.coeffs[0]
                d = gcd(cf, cg)
                a, b = cg // d, cf // d
                keys, coeffs = _axpy(keys, coeffs, a, g.keys, g.coeffs, b, shift, 0)
                steps += 1
                if steps % 16 == 0 and coeffs:
                    coeffs, _ = _strip_content(coeffs)
        return keys, coeffs

    def normal_form(self, keys, coeffs, basis):
        """Full normal form.  Returns (keys, coeffs, mult): the output equals
        mult times the input modulo the span of the basis."""
        modulus = self.modulus
        rem_k, rem_c = [], []
        mult = 1
        while keys:
            g = self.find_reducer(keys[0], basis)
            if g is None:
                rem_k.append(keys[0])
                rem_c.append(coeffs[0])
                keys = keys[1:]
                coeffs = coeffs[1:]
                continue
            shift = keys[0] - g.keys[0]
            if modulus:
                b = coeffs[0] * pow(g.coeffs[0], -1, modulus) % modulus
                keys, coeffs = _axpy(keys, coeffs, 1, g.keys, g.coeffs, b, shift, modulus)
            else:
                cf, cg = coeffs[0], g.coeffs[0]
                d = gcd(cf, cg)
                a, b = cg // d, cf // d
                keys, coeffs = _axpy(keys, coeffs, a, g.keys, g.coeffs, b, shift, 0)
                if a != 1:
                    mult *= a
                    if rem_c:
                        rem_c = [a * c for c in rem_c]
        return rem_k, rem_c, mult


def _buchberger_engine(ring, gens, cap=None, lead_only=False):
    eng = _Engine(ring)
    modulus = eng.modulus
    basis = []
    for g in gens:
        if not g:
            continue
        if not g.is_homogeneous():
            raise ValueError("Buchberger engine expects homogeneous generators")
        basis.append(_to_engine(g, eng.pack, modulus))
    basis.sort(key=lambda e: (e.deg, e.keys[0]))

    pairs = []  # heap of (degree, lcm_key, i, j)
    pending = set()
    nv = ring.nvars

    def push_pairs(new_index):
        h = basis[new_index]
        for i in range(new_index):
            g = basis[i]
            l = packing.lcm(g.keys[0], h.keys[0], nv)
            if l == g.keys[0] + h.keys[0]:
                continue  # coprime leads: S-pair reduces to zero
            heapq.heappush(pairs, (packing.degree(l, nv), l, i, new_index))
            pending.add((i, new_index))

    for idx in range(len(basis)):
        push_pairs(idx)

    himask = eng.himask
    while pairs:
        deg, lcm_ij, i, j = heapq.heappop(pairs)
        if cap is not None and deg > cap:
            break
        if deg > MAXEXP:  # homogeneous: no exponent exceeds deg
            raise ExponentLimitError(f"S-pair degree {deg} exceeds the packed limit {MAXEXP}")
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        gi, gj = basis[i], basis[j]
        skip = False
        for k, gk in enumerate(basis):
            if k == i or k == j:
                continue
            if packing.divides(gk.keys[0], lcm_ij, himask):
                a, b = (i, k) if i < k else (k, i)
                c, d = (j, k) if j < k else (k, j)
                if (a, b) not in pending and (c, d) not in pending:
                    skip = True
                    break
        if skip:
            continue
        si = lcm_ij - gi.keys[0]
        sj = lcm_ij - gj.keys[0]
        if modulus:
            b = gi.coeffs[0] * pow(gj.coeffs[0], -1, modulus) % modulus
            keys, coeffs = _axpy(
                gi.keys, gi.coeffs, 1, gj.keys, gj.coeffs, b, sj - si, modulus
            )
        else:
            ci, cj = gi.coeffs[0], gj.coeffs[0]
            d0 = gcd(ci, cj)
            keys, coeffs = _axpy(
                gi.keys, gi.coeffs, cj // d0, gj.keys, gj.coeffs, ci // d0, sj - si, 0
            )
        keys = [k + si for k in keys]
        keys, coeffs = eng.top_reduce(keys, coeffs, basis)
        if not keys:
            continue
        if not modulus:
            coeffs, _ = _strip_content(coeffs)
            if coeffs[0] < 0:
                coeffs = [-c for c in coeffs]
        basis.append(_EnginePoly(keys, coeffs, packing.degree(keys[0], nv)))
        push_pairs(len(basis) - 1)

    # prune elements whose lead is divisible by a later-found (smaller) lead
    kept = []
    for idx, g in enumerate(basis):
        lead = g.keys[0]
        redundant = any(
            k != idx and packing.divides(h.keys[0], lead, himask)
            for k, h in enumerate(basis)
            if h.keys[0] != lead or k < idx
        )
        if not redundant:
            kept.append(g)
    kept.sort(key=lambda e: e.keys[0])

    if lead_only:
        return [eng.unpack(g.keys[0]) for g in kept]

    for idx in range(len(kept)):
        others = kept[:idx] + kept[idx + 1 :]
        keys, coeffs, _ = eng.normal_form(kept[idx].keys, kept[idx].coeffs, others)
        if not modulus:
            coeffs, _ = _strip_content(coeffs)
            if coeffs and coeffs[0] < 0:
                coeffs = [-c for c in coeffs]
        kept[idx] = _EnginePoly(keys, coeffs, kept[idx].deg)
    return [_from_engine(g, ring, eng.unpack, modulus) for g in kept]


class GroebnerBasis:
    """Reduced Gröbner basis under revlex: monic, auto-reduced, sorted by
    descending lead monomial."""

    def __init__(self, ring: PolyRing, polys):
        self.ring = ring
        self.order = "revlex"
        self.polys = tuple(
            sorted(
                (p for p in polys if p),
                key=lambda p: revlex_key(p.lead_monomial),
                reverse=True,
            )
        )
        self._initial = None

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.polys == other.polys
        )

    def __hash__(self):
        return hash((self.ring, self.polys))

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def initial_ideal(self) -> MonomialIdeal:
        if self._initial is None:
            self._initial = MonomialIdeal(self.ring.nvars, [p.lead_monomial for p in self.polys])
        return self._initial

    def reduce(self, f: Polynomial) -> Polynomial:
        """Full normal form of f; zero iff f is a member."""
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        if not f or not self.polys:
            return f
        eng = _Engine(self.ring)
        basis = [_to_engine(p, eng.pack, eng.modulus) for p in self.polys]
        ep = _to_engine(f, eng.pack, eng.modulus)
        keys, coeffs, mult = eng.normal_form(ep.keys, ep.coeffs, basis)
        if not keys:
            return self.ring.zero
        if eng.modulus:
            return Polynomial(
                self.ring, [(eng.unpack(k), c) for k, c in zip(keys, coeffs)]
            )
        scale = 1 / (mult * ep.scale)
        return Polynomial(
            self.ring,
            [(eng.unpack(k), scale * c) for k, c in zip(keys, coeffs)],
        )

    def contains(self, f: Polynomial) -> bool:
        return not self.reduce(f)

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} elements)"


def buchberger(gens, ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Gröbner basis of the homogeneous ideal generated by gens."""
    if ring is None:
        ring = gens[0].ring
    return GroebnerBasis(ring, _buchberger_engine(ring, list(gens)))


def initial_monomials(gens, cap: int, ring: PolyRing | None = None) -> MonomialIdeal:
    """Lead monomials from a degree-truncated run: contains every minimal
    generator of the initial ideal living in degrees <= cap."""
    if ring is None:
        ring = gens[0].ring
    leads = _buchberger_engine(ring, list(gens), cap=cap, lead_only=True)
    return MonomialIdeal(ring.nvars, leads)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of f modulo the reduced basis; no term is divisible by any
    lead term, and f minus the remainder lies in the ideal."""
    return gb.reduce(f)
