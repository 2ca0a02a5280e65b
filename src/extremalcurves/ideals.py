"""Graded ideals and their arithmetic: intersection, quotient, saturation,
seeded unit lower-triangular coordinate draws, and kernels of maps into
cyclic quotients.

Intersections and quotients are kernels of maps (`kernel_of_map`, the
syzygies of a stacked generator list, so everything stays homogeneous),
saturation iterates the quotient against the irrelevant maximal ideal
until it stabilizes.  Whether an ideal is saturated is read off its
resolution instead (Auslander-Buchsbaum).
"""

from __future__ import annotations

from functools import reduce

from .groebner import GroebnerBasis, _divide, _to_engine, buchberger, minimal_basis
from .modules import GraphBasis, free_resolution_from_gb, packed_vector
from .packing import layout
from .ring import PolyRing, Polynomial


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
        monomial candidates and syzygy images, homogeneous by
        construction): only the kept ones become Polynomials."""
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


def polynomial_vector(ring, vec, rank):
    """The Polynomials in components 0 .. rank-1 of a homogeneous packed
    vector; ascending keys run down through revlex."""
    unpack = layout(ring.nvars).unpack
    out = [ring.zero] * rank
    for s, e in vec.items():
        out[s] = Polynomial.from_sorted(ring, [(unpack(k), e[k]) for k in sorted(e)])
    return out


def kernel_of_map(images, relations=(), ring: PolyRing | None = None):
    """Generators of {(c_t) : sum c_t * images_t lies in (relations)}: the
    kernel generators of the graph basis of the stacked list, each divided
    by its lead coefficient and projected onto the image coordinates, zero
    vectors dropped.  A zero entry's unit vector is a syzygy, so the zero
    map returns the full source."""
    stacked = list(images) + list(relations)
    if ring is None:
        pool = [p for p in stacked if p]
        if not pool:
            raise ValueError("cannot infer the ring from zero data")
        ring = pool[0].ring
    out = []
    for v in GraphBasis([packed_vector(ring, [p]) for p in stacked], [0], ring).kernel_generators():
        lead = v[min(v)]
        lead = lead[min(lead)]
        field = {s: dict(zip(e, _divide(list(e.values()), lead, ring.modulus))) for s, e in v.items() if s < len(images)}
        if field:
            out.append(polynomial_vector(ring, field, len(images)))
    return out


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J: the combinations sum c_t f_t of I's generators that lie in
    J, c running over the generators of that kernel (`kernel_of_map`)."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    kernel = kernel_of_map(I.gens, J.gens, ring)
    return Ideal.minimal(ring, [sum((c * f for c, f in zip(vec, I.gens)), ring.zero) for vec in kernel])


def quotient(I: Ideal, J: Ideal) -> Ideal:
    """I : J = {f : f*J inside I}, the intersection over the generators g
    of J of I : g = {c : c*g in I}, the kernel of c -> c*g modulo I
    (`kernel_of_map`)."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    parts = (Ideal(ring, [c for c, in kernel_of_map([g], I.gens, ring)]) for g in J.gens)
    return reduce(intersect, parts, Ideal(ring, [ring.one]))  # I : 0 = R


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
