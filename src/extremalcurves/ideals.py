"""Graded ideals and their arithmetic: intersection, quotient, saturation,
seeded unit lower-triangular coordinate draws, and kernels of maps into
cyclic quotients.

Intersections run through syzygies of stacked generator lists (everything
stays homogeneous), quotients through intersection plus exact division,
saturation by iterating the quotient against the irrelevant maximal ideal
until it stabilizes.  Whether an ideal is saturated is read off its
resolution instead (Auslander-Buchsbaum).
"""

from __future__ import annotations

from fractions import Fraction

from .groebner import GroebnerBasis, _to_engine, buchberger, minimal_basis
from .modules import free_resolution_from_gb, module_kernel
from .packing import layout
from .ring import PolyRing, Polynomial, mono_div, mono_divides


class Ideal:
    """Homogeneous ideal with cached Gröbner and resolution data."""

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        cleaned = []
        for g in gens:
            if not g:
                continue
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if not g.is_homogeneous():
                raise ValueError("ideal generators must be homogeneous")
            cleaned.append(g)
        self.gens = tuple(cleaned)
        self._gb = None
        self._resolution = None

    @classmethod
    def minimal(cls, ring: PolyRing, gens) -> Ideal:
        """The ideal of the subset of gens that generates minimally (see
        `groebner.minimal_basis`), with its Gröbner basis already set.
        Engine elements may stand among the gens (`construct_curve`'s
        syzygy images, homogeneous by construction): only the kept ones
        become Polynomials."""
        gens = list(gens)
        ideal = cls(ring, [g for g in gens if isinstance(g, Polynomial)])  # tests the Polynomials
        kept, ideal._gb = minimal_basis(gens, ring)
        ideal.gens = tuple(kept)
        return ideal

    def groebner(self) -> GroebnerBasis:
        if self._gb is None:
            # the constructor tested the gens for homogeneity, so they go
            # in as engine elements, which `buchberger` takes untested
            lay, modulus = layout(self.ring.nvars), self.ring.modulus
            self._gb = buchberger([_to_engine(g, lay, modulus) for g in self.gens], self.ring)
        return self._gb

    def resolution(self):
        if self._resolution is None:
            self._resolution = free_resolution_from_gb(self.groebner())
        return self._resolution

    def initial_ideal(self):
        return self.groebner().initial_ideal()

    def quotient_dim(self, j: int) -> int:
        return self.initial_ideal().quotient_dim(j)

    def dim_piece(self, j: int) -> int:
        """dim_K of the degree-j piece of the ideal."""
        return self.ring.dim_degree(j) - self.quotient_dim(j)

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return False
        if self.gens == other.gens:
            return True
        return self.groebner() == other.groebner()

    def __repr__(self):
        return f"Ideal({len(self.gens)} generators in {self.ring.nvars} variables)"


def kernel_of_map(images, relations=(), ring: PolyRing | None = None):
    """Generators of {(c_t) : sum c_t * images_t lies in (relations)}.

    Computed as syzygies of the stacked list, projected onto the image
    coordinates; the zero map returns the full source.
    """
    if ring is None:
        pool = [p for p in list(images) + list(relations) if p]
        if not pool:
            raise ValueError("cannot infer the ring from zero data")
        ring = pool[0].ring
    stacked = list(images) + list(relations)
    live = [(t, p) for t, p in enumerate(stacked) if p]
    if not live:
        # zero map: kernel is everything
        out = []
        for t in range(len(images)):
            vec = [ring.zero] * len(images)
            vec[t] = ring.one
            out.append(vec)
        return out
    cols = [[p] for _, p in live]
    kernel = module_kernel(cols, [0], ring)
    out = []
    zero_slots = [t for t, p in enumerate(stacked) if not p]
    for vec in kernel:
        full = [ring.zero] * len(stacked)
        for (t, _), entry in zip(live, vec):
            full[t] = entry
        out.append(full[: len(images)])
    for t in zero_slots:
        if t < len(images):
            vec = [ring.zero] * len(images)
            vec[t] = ring.one
            out.append(vec)
    return out


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J through syzygies of the stacked generators."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    if not I.gens or not J.gens:
        return Ideal(ring, [])
    fi = list(I.gens)
    gj = list(J.gens)
    cols = [[p] for p in fi + gj]
    kernel = module_kernel(cols, [0], ring)
    out = []
    for vec in kernel:
        h = ring.zero
        for c, f in zip(vec[: len(fi)], fi):
            h = h + c * f
        if h:
            out.append(h)
    return Ideal.minimal(ring, out)


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g when g divides f; raises otherwise."""
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


def quotient(I: Ideal, J: Ideal) -> Ideal:
    """I : J = {f : f*J inside I}."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    if not J.gens:
        # J = 0: every f has f*0 = 0 in I
        return Ideal(ring, [ring.one])
    result = None
    for g in J.gens:
        part = intersect(I, Ideal(ring, [g]))
        gens = [divide_exact(h, g) for h in part.gens]
        cur = Ideal(ring, gens)
        result = cur if result is None else intersect(result, cur)
    return Ideal.minimal(ring, result.gens)


def saturate(I: Ideal) -> Ideal:
    """Saturation with respect to the irrelevant maximal ideal: iterate
    I : m until the chain stabilizes."""
    ring = I.ring
    m = Ideal(ring, ring.gens())
    cur = I
    for _ in range(64):
        nxt = quotient(cur, m)
        if nxt == cur:
            return cur
        cur = nxt
    raise AssertionError("saturation chain failed to stabilize")


def is_saturated(I: Ideal) -> bool:
    """I equals its saturation iff depth R/I >= 1 (or I is the unit ideal),
    iff pd(R/I) <= n by Auslander-Buchsbaum: read off the resolution."""
    return I.resolution().length <= I.ring.n


def random_unipotent_matrix(ring: PolyRing, rng, bound: int):
    """Seeded unit lower-triangular integer matrix, entries below the
    diagonal in [-bound, bound]: x_i -> x_i + (terms in x_j, j < i), of
    determinant 1 over every field.  It is as generic as a dense draw: the
    upper-triangular b (x_i -> c_i x_i + terms in x_j, j > i) keep revlex
    leads, in(b.J) = in(J), so the g generic for in(g.I) form a nonempty
    open set U with U b = U, and the products of unit lower-triangular
    matrices with such b are dense in GL (the big Bruhat cell), so U meets
    the unit lower-triangular ones (Galligo 1974; Eisenbud, Commutative
    Algebra, 15.9)."""
    nvars = ring.nvars
    return [[rng.randint(-bound, bound) if j < i else int(i == j) for j in range(nvars)] for i in range(nvars)]
