"""Construction of non-degenerate curves supported on a line.

A planar curve of degree d-1 on the line L = {x2 = ... = xn = 0}, with
generators u = (x2^(d-1), x3, ..., xn), is glued against a twist of the
line's coordinate ring along the map e_t -> f_t given by binary forms
f_0 = f (degree d+a+n-5, possibly zero) and f_1, ..., f_{n-2} (degree
a+n-3).  The glued curve's ideal is

    I = (x2, ..., xn)·(u) + (sum_t s_t u_t : s in Syz_{K[x0,x1]}(f_t)),

a saturated curve ideal of degree d and genus max_genus - a, so the kernel
is one syzygy computation over K[x0, x1]; the same computation decides
that the forms are coprime.  Explicit catalogs realize the extremal
curves, the degree-3 alternate family, and a non-extremal witness.
"""

from __future__ import annotations

import random
from functools import cached_property

from .formulas import max_genus
from .groebner import _EnginePoly
from .ideals import Ideal
from .modules import GraphBasis, packed_vector
from .oracle import fraction_rank
from .packing import layout
from .ring import FrozenRecord, PolyRing, Polynomial, Record, binom


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


class ConstructionInput(FrozenRecord):
    """Numerical data plus the binary forms driving the construction."""

    _fields = ("n", "d", "a", "f_list", "f")

    def __init__(self, n: int, d: int, a: int, f_list: tuple, f: Polynomial):
        self.__dict__.update(n=n, d=d, a=a, f_list=f_list, f=f)

    def validate(self) -> tuple:
        """Check the input; return the packed kernel generators
        (`GraphBasis.kernel_generators`) of the syzygy run over K[x0, x1]
        that decided the nonzero values among (f, f_1, ..., f_{n-2}), one
        component each in that order, coprime.  The first successful call
        keeps them on the input, and later calls return the same tuple; the
        graph basis itself is not kept.  A rejected input keeps nothing, so a
        later call raises again."""
        return self._kernel

    @cached_property
    def _kernel(self) -> tuple:
        """The check and the kernel of `validate`.  A cached property
        writes ``__dict__`` past the record's ``__setattr__``; it is no
        field, so equality, hash and repr stay those of the fields.

        Forms in K[x0, x1] are coprime iff they have no common zero on P^1
        iff their ideal is primary to (x0, x1) iff its lead ideal is
        artinian, that is, holds a power of x0 and a power of x1; the graph
        elements with leads in the image component are a Gröbner basis of
        that ideal."""
        n, d, a = self.n, self.d, self.a
        _check_numbers(n, d, a)
        if len(self.f_list) != n - 2:
            raise ConstructionError(f"need {n - 2} line forms, got {len(self.f_list)}")
        ring = self.f_list[0].ring
        for p in (*self.f_list, self.f):
            if p.ring != ring:
                raise ConstructionError(f"forms from two rings: {p.ring} and {ring}")
        if ring.nvars != n + 1:
            raise ConstructionError(f"forms live in the wrong ring: {ring} for n = {n}")
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
        # a binary form of one degree is keyed by its x0 exponent
        rows = [{m[0]: c for m, c in p.terms} for p in self.f_list]
        if fraction_rank(rows, ring.modulus) < n - 2:
            raise DegenerateInputError("dependent line forms give a degenerate curve")
        # a binary form's packed keys read the same in two variables
        line = PolyRing(2, ring.field)
        values = ([self.f] if self.f else []) + list(self.f_list)
        graph = GraphBasis([packed_vector(ring, [p]) for p in values], [0], line)
        leads = [graph.engine.layout.unpack(k) for k, _ in graph.engine.by_slot.get(0, ())]
        if not (any(e1 == 0 for _, e1 in leads) and any(e0 == 0 for e0, _ in leads)):
            raise InfiniteCokernelError("common factor: the cokernel has infinite length")
        return tuple(graph.kernel_generators())


def _check_numbers(n: int, d: int, a: int):
    if n < 3 or d < 3 or a < 0:
        raise ConstructionError("need n >= 3, d >= 3, a >= 0")


def construct_curve(inp: ConstructionInput) -> Ideal:
    """Saturated ideal of the glued curve: the combinations sum c_t u_t of
    the planar generators whose coefficients satisfy sum c_t f_t = 0 modulo
    the line's ideal (x2, ..., xn); with f = 0 that includes u_0.

    That kernel is I = (x2, ..., xn)·(u) + (sum s_t u_t : s in Syz(f_t)),
    s over K[x0, x1].  Proof: it is the projection onto the f-part of the
    syzygies of (f_t, x2, ..., xn) over K[x0, ..., xn].  Write
    c = c' + c'' with c' = c(x0, x1, 0, ..., 0) and c'' in (x2, ..., xn)R^m.
    The f_t are binary, so sum c_t f_t = sum c'_t f_t modulo (x2, ..., xn),
    and a binary form lies in that ideal iff it is zero.  So c is in the
    projection iff c' is a syzygy of the f_t over K[x0, x1], and the
    projection is (x2, ..., xn)R^m plus those syzygies; u maps it onto I.
    For coprime forms the syzygies are free of rank m - 1 (Hilbert-Burch),
    and the kernel generators that `validate` kept on the input generate
    them; no second syzygy run is made.

    The candidates are the distinct monomials x_i u_t (i = 2..n, t with
    f_t != 0), and u_0 = x2^(d-1) when f = 0, in ascending packed key, then
    the syzygy images in the kernel's order, all as engine elements;
    `Ideal.minimal` keeps a subset of them, taken in that order within each
    degree, and only the kept ones become Polynomials."""
    kernel = inp.validate()
    n, d = inp.n, inp.d
    ring = inp.f_list[0].ring
    lay = layout(ring.nvars)
    x = [lay.pack(ring.var_mono(i)) for i in range(ring.nvars)]
    u0 = lay.pack((0, 0, d - 1) + (0,) * (n - 2))
    # the planar generators of the nonzero values, in the graph's column order
    u = ([u0] if inp.f else []) + x[3:]
    keys = {xi + ut for xi in x[2:] for ut in u}
    if not inp.f:  # a zero value: its planar generator lies in the kernel
        keys.add(u0)
    # every candidate stays engine integers, and only the kept ones become
    # Polynomials; a monomial is its key with coefficient 1
    cands = []
    for k in sorted(keys):
        deg = lay.degree(k)
        lay.check(deg)
        cands.append(_EnginePoly([k], [1], deg))
    for vec in kernel:
        # s_t is binary and the u_t are distinct monomials: the terms of
        # sum s_t u_t are the key shifts of the entries, all distinct
        terms = sorted((k + u[t], c) for t, entry in vec.items() for k, c in entry.items())
        deg = lay.degree(terms[0][0])
        lay.check(deg)
        cands.append(_EnginePoly([k for k, _ in terms], [c for _, c in terms], deg))
    return Ideal.minimal(ring, cands)


def extremal_curve_ideal(n: int, d: int, g: int) -> Ideal:
    """Explicit extremal curve of degree d and genus g in projective n-space.

    Every genus up to `max_genus(n, d)` is allowed.  The exponent a below
    is the genus deficit, plus one at d = 2.
    """
    if n < 3 or d < 2:
        raise ValueError("need n >= 3 and d >= 2")
    if g > max_genus(n, d):
        raise ValueError(f"genus {g} exceeds the bound {max_genus(n, d)} for (n, d) = ({n}, {d})")
    a = binom(d - 2, 2) - (n - 3) - g
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


class NonExtremalWitness(Record):
    _fields = ("ideal", "input")

    def __init__(self, ideal: Ideal, input: ConstructionInput):
        self.ideal = ideal
        self.input = input


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
    _check_numbers(n, d, a)
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
