"""Construction of non-degenerate curves supported on a line.

A planar curve of degree d-1 on the line L = {x2 = ... = xn = 0} is glued
against a twist of the line's coordinate ring along a map given by binary
forms f_1, ..., f_{n-2} (degree a+n-3) and f (degree d+a+n-5, possibly
zero); the kernel of that map is a saturated curve ideal of degree d and
genus max_genus - a.  Explicit catalogs realize the extremal curves, the
degree-3 alternate family, and a non-extremal witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ideals import Ideal
from .modules import GraphBasis, packed_vector
from .oracle import fraction_rank
from .packing import make_packer, make_unpacker
from .ring import PolyRing, Polynomial, binom


class ConstructionError(ValueError):
    pass


class DegenerateInputError(ConstructionError):
    """The line forms are linearly dependent: the curve would lie in a
    hyperplane."""


class InfiniteCokernelError(ConstructionError):
    """The binary forms share a common factor, so the gluing module is not
    of finite length."""


def _is_binary(p: Polynomial) -> bool:
    return all(all(e == 0 for e in m[2:]) for m, _ in p.terms)


def binary_coeff_vector(p: Polynomial, degree: int):
    """Coefficients of a binary form along x0^e * x1^(degree-e), e = 0..degree,
    in the ring's field."""
    out = [p.ring.field.zero] * (degree + 1)
    for m, c in p.terms:
        out[m[0]] = c
    return out


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


@dataclass(frozen=True)
class ConstructionInput:
    """Numerical data plus the binary forms driving the construction."""

    n: int
    d: int
    a: int
    f_list: tuple
    f: Polynomial

    def validate(self):
        n, d, a = self.n, self.d, self.a
        if n < 3 or d < 3 or a < 0:
            raise ConstructionError("need n >= 3, d >= 3, a >= 0")
        if len(self.f_list) != n - 2:
            raise ConstructionError(f"need {n - 2} line forms, got {len(self.f_list)}")
        deg_fi = a + n - 3
        for p in self.f_list:
            if not p or not _is_binary(p) or not p.is_homogeneous() or p.degree() != deg_fi:
                raise ConstructionError(
                    f"line forms must be nonzero binary forms of degree {deg_fi}"
                )
        deg_f = d + a + n - 5
        if self.f and (
            not _is_binary(self.f)
            or not self.f.is_homogeneous()
            or self.f.degree() != deg_f
        ):
            raise ConstructionError(f"the gluing form must have degree {deg_f} (or be zero)")
        rows = [binary_coeff_vector(p, deg_fi) for p in self.f_list]
        if fraction_rank(rows, getattr(self.f_list[0].ring.field, "p", 0)) < n - 2:
            raise DegenerateInputError("dependent line forms give a degenerate curve")
        pool = list(self.f_list) + ([self.f] if self.f else [])
        if binary_gcd(pool).degree() > 0:
            raise InfiniteCokernelError("common factor: the cokernel has infinite length")


def construct_curve(inp: ConstructionInput) -> Ideal:
    """Saturated ideal of the glued curve: the kernel of the map sending the
    planar-curve generators to the chosen binary forms."""
    inp.validate()
    n, d = inp.n, inp.d
    ring = inp.f_list[0].ring
    if ring.nvars != n + 1:
        raise ConstructionError("forms live in the wrong ring")
    x = ring.gens()
    planar_gens = [x[2] ** (d - 1)] + [x[i] for i in range(3, n + 1)]
    values = [inp.f] + list(inp.f_list)
    live = [t for t, p in enumerate(values) if p]
    # the nonzero values, then the relations: the line's ideal (x2, ..., xn)
    cols = [packed_vector(ring, [p]) for p in [values[t] for t in live] + x[2:]]
    # the planar generators are monomials: sum c_t * u_t is a sum of key shifts
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
    if not inp.f:  # a zero value: its planar generator lies in the kernel
        gens.append(planar_gens[0])
    return Ideal.minimal(ring, gens)


def extremal_curve_ideal(n: int, d: int, g: int) -> Ideal:
    """Explicit extremal curve of degree d and genus g in projective n-space.

    Degree 2 is allowed with genus 3 - n - a for a >= 1; degree >= 3 covers
    every genus up to the bound.
    """
    if n < 3 or d < 2:
        raise ValueError("need n >= 3 and d >= 2")
    a = binom(d - 2, 2) - (n - 3) - g
    if a < 0:
        raise ValueError(f"genus {g} exceeds the bound for (n, d) = ({n}, {d})")
    if d == 2 and a < 1:
        raise ValueError("degree 2 needs a >= 1 (a planar conic is degenerate)")
    ring = PolyRing(n + 1)
    x = ring.gens()
    planar = [x[2] ** (d - 1)] + [x[i] for i in range(3, n + 1)]
    cone = [x[i] for i in range(2, n + 1)]
    gens = [u * v for u in planar for v in cone]
    gens.append(x[0] ** a * x[2] ** (d - 1) + x[1] ** (d + a - 2) * x[3])
    for i in range(3, n):
        gens.append(x[0] * x[i] + x[1] * x[i + 1])
    return Ideal.minimal(ring, gens)


def cubic_alternate_curve_ideal(n: int, a: int) -> Ideal:
    """Degree-3 extremal curve whose gin is the alternate one; needs n >= 5."""
    if n < 5 or a < 1:
        raise ValueError("the alternate cubic family needs n >= 5 and a >= 1")
    ring = PolyRing(n + 1)
    x = ring.gens()
    cone = [x[i] for i in range(2, n + 1)]
    gens = [u * v for u in cone for v in cone]
    gens.append(x[0] ** (a + 1) * x[3] + x[1] ** (a + 1) * x[4])
    for i in range(4, n):
        gens.append(x[0] * x[i] + x[1] * x[i + 1])
    return Ideal.minimal(ring, gens)


@dataclass
class NonExtremalWitness:
    ideal: Ideal
    input: ConstructionInput


def non_extremal_witness(n: int, a: int, d: int) -> NonExtremalWitness:
    """Curve matching the h^1 bound for j <= 1 but dropping at j = 2.

    The first form is a pure power of x0 of the degree the construction
    forces (a+n-3); together with the staircase of mixed powers this keeps
    the gluing module large in low twists while its top truncates early,
    which is exactly the h^1 drop the witness exists to exhibit.
    """
    if n < 4 or a < 1 or d < 4:
        raise ValueError("the witness family needs n >= 4, a >= 1, d >= 4")
    ring = PolyRing(n + 1)
    x0, x1 = ring.gen(0), ring.gen(1)
    eps = a % (n - 3)
    k = a // (n - 3) + 1
    forms = [x0 ** (a + n - 3)]
    for i in range(0, n - 3):
        forms.append(x0 ** (i * k) * x1 ** ((n - 3 - i) * k + eps))
    inp = ConstructionInput(n=n, d=d, a=a, f_list=tuple(forms), f=ring.zero)
    return NonExtremalWitness(construct_curve(inp), inp)


def random_construction_input(
    n: int, d: int, a: int, rng: random.Random
) -> ConstructionInput:
    """Admissible random input: independent line forms, coprime with the
    gluing form (which is zero one time in five)."""
    ring = PolyRing(n + 1)
    deg_fi = a + n - 3
    deg_f = d + a + n - 5
    x0, x1 = ring.gen(0), ring.gen(1)

    def random_form(deg):
        terms = []
        for e in range(deg + 1):
            c = rng.randint(-3, 3)
            if c:
                m = [0] * ring.nvars
                m[0] = e
                m[1] = deg - e
                terms.append((tuple(m), c))
        return Polynomial(ring, terms)

    for _ in range(200):
        f_list = tuple(random_form(deg_fi) for _ in range(n - 2))
        f = ring.zero if rng.random() < 0.2 else random_form(deg_f)
        inp = ConstructionInput(n=n, d=d, a=a, f_list=f_list, f=f)
        try:
            inp.validate()
        except ConstructionError:
            continue
        return inp
    raise ConstructionError("failed to draw an admissible input")
