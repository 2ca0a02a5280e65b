"""Exact multivariate polynomial arithmetic in the degree reverse
lexicographic order.

Monomials are dense exponent tuples of length ``nvars`` (variables
x0 > x1 > ... ordered by index).  Coefficients are plain numbers of an
exact field: ``Fraction`` instances over the rationals (the default), ints
in [0, p) over an odd prime field.  The field classes only normalise a
value (``coerce``); ``Polynomial`` computes with ``+``, ``-`` and ``*`` and
coerces what it keeps.  Verdicts run over the rationals only; Z/p serves
ideal files with a ``zp`` header (parsing, emission, ``oracle-hf``),
constructions from forms over Z/p, the rank test of a construction's
line forms over the ring's field, and the tests that cross-check the
engines mod p.  Every value is immutable and safe to share between tasks.
The module also holds the two record bases that the package's value
classes derive from.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from .packing import fit

Monomial = tuple  # exponent tuple of length nvars


# ---------------------------------------------------------------------------
# record bases


class Record:
    """A value held in named fields, listed once in the class-level tuple
    ``_fields``: field-wise equality with records of the same class only,
    and the ``Cls(name=value, ...)`` repr.  Defining ``__eq__`` without
    ``__hash__`` leaves a mutable record unhashable."""

    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__name__}({body})"


class FrozenRecord(Record):
    """A record whose fields are set once, by ``__init__`` writing
    ``self.__dict__``; it hashes as the tuple of its field values."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, *a):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# coefficient fields


class RationalField(FrozenRecord):
    """Exact rationals; coefficients are Fraction instances.  A value with
    no fields: all instances are equal."""

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        return Fraction(v)

    def __repr__(self):
        return "QQ"


class PrimeField(FrozenRecord):
    """Z/p for an odd prime p; coefficients are ints in [0, p)."""

    _fields = ("p",)

    def __init__(self, p: int):
        if p >= _PSI12:
            raise ValueError(f"primality is proven only below psi_12 = {_PSI12}, got {p}")
        if p < 3 or p % 2 == 0 or not _is_prime(p):
            raise ValueError(f"need an odd prime, got {p}")
        self.__dict__["p"] = p

    def coerce(self, v):
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ZeroDivisionError("denominator vanishes mod p")
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return int(v) % self.p

    def __repr__(self):
        return f"GF({self.p})"


# Miller-Rabin on the twelve prime bases 2..37 is a proof of primality
# below this strong pseudoprime to all of them, and only there (Sorenson
# and Webster, Math. Comp. 86, 2017)
_PSI12 = 318665857834031151167461


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


QQ = RationalField()


# ---------------------------------------------------------------------------
# monomials


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def revlex_key(m: Monomial):
    """Sort key: ascending key order equals ascending revlex order."""
    return (sum(m), tuple(-e for e in reversed(m)))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable homogeneous-friendly polynomial with canonical term order.

    Terms are stored strictly descending in revlex with no zero
    coefficients.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms):
        acc = {}
        for m, c in terms:
            acc[m] = acc[m] + c if m in acc else c
        coerce = ring.field.coerce
        kept = [(m, c) for m, c in zip(acc, map(coerce, acc.values())) if c]
        object.__setattr__(self, "ring", ring)
        object.__setattr__(
            self, "terms", tuple(sorted(kept, key=lambda t: revlex_key(t[0]), reverse=True))
        )

    @classmethod
    def from_sorted(cls, ring: PolyRing, terms):
        """Polynomial from terms already strictly descending in revlex, with
        nonzero coefficients of the ring's field; nothing is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "terms", tuple(terms))
        return p

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    __delattr__ = __setattr__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def degree(self) -> int:
        """Total degree (of the lead term; -1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return mono_degree(self.terms[0][0])

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = mono_degree(self.terms[0][0])
        return all(mono_degree(m) == d for m, _ in self.terms)

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        self._check_ring(other)
        return Polynomial(self.ring, list(self.terms) + list(other.terms))

    def __sub__(self, other):
        self._check_ring(other)
        return Polynomial(self.ring, list(self.terms) + [(m, -c) for m, c in other.terms])

    def __neg__(self):
        return Polynomial(self.ring, [(m, -c) for m, c in self.terms])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(self.ring, acc.items())  # the field coerces, zeros drop

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.ring.field.coerce(c)
        return Polynomial(self.ring, [(m, cc * c) for m, cc in self.terms])

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def substitute_linear(self, matrix) -> Polynomial:
        """Apply x_i -> sum_j matrix[i][j] x_j (by `expand_linear`, with
        exponent slots that fit the degree)."""
        if not self.terms:
            return self
        lay = fit(self.ring.nvars, self.degree())  # the lead has the top degree
        ((image, den),) = expand_linear([self], matrix, lay)
        terms = [(lay.unpack(k), Fraction(v, den)) for k, v in image.items()]
        return Polynomial(self.ring, terms)  # the field coerces

    def __repr__(self):
        return f"Polynomial({format_poly(self)})"

    def __str__(self):
        return format_poly(self)


def expand_linear(polys, matrix, lay):
    """Images of polys under x_i -> sum_j matrix[i][j] x_j, on integers: one
    (image, den) per polynomial, where image maps keys packed in the layout
    lay (one variable per matrix column) to nonzero integers and the image
    is sum image[k] / den * x^k (residues and den 1 over Z/p).  The matrix is
    cleared of denominators once and each power of a row is expanded once
    for all polys; the layout's limit must hold each degree.
    """
    if not polys:
        return []
    fld = polys[0].ring.field
    modulus = polys[0].ring.modulus
    den = 1
    if modulus:
        rows = [[fld.coerce(v) for v in row] for row in matrix]
    else:
        rows, den = clear_denominators(matrix)
    # powers[i][e]: the e-th power of den * (image of x_i), packed
    powers = [[{0: 1}, {lay.var_keys[j]: v for j, v in enumerate(row) if v}] for row in rows]
    out = []
    for p in polys:
        top = max(p.degree(), 0)
        (ints,), den_c = clear_denominators([[c for _, c in p.terms]])  # den_c 1 over Z/p
        acc = {}
        get = acc.get
        for (m, _), c in zip(p.terms, ints):
            prod = {0: 1}
            for i, e in enumerate(m):
                if e:
                    cache = powers[i]
                    while len(cache) <= e:
                        cache.append(_addmul({}, cache[-1], cache[1], modulus))
                    prod = _addmul({}, prod, cache[e], modulus)
            if not modulus:
                c *= den ** (top - mono_degree(m))
            for k, v in prod.items():
                acc[k] = get(k, 0) + c * v
        if modulus:
            image = {k: v % modulus for k, v in acc.items() if v % modulus}
        else:
            image = {k: v for k, v in acc.items() if v}
        out.append((image, den_c * den**top))
    return out


def clear_denominators(matrix):
    """(rows, den): the integer matrix den * matrix, den the least common
    denominator of the int or Fraction entries."""
    den = lcm(*(v.denominator for row in matrix for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in matrix], den


def strip_content(coeffs):
    """(coeffs // g, g) for g the gcd of the integers coeffs (1 when they
    are all zero); signs are kept."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            return coeffs, 1
    if g > 1:
        return [c // g for c in coeffs], g
    return coeffs, 1


def _addmul(acc, f, g, modulus):
    """acc += f * g for packed entries {key: coefficient} (mod p when
    modulus is nonzero), zero terms dropped; returns acc."""
    for kf, cf in f.items():
        for kg, cg in g.items():
            k = kf + kg
            v = acc.get(k, 0) + cf * cg
            if modulus:
                v %= modulus
            if v:
                acc[k] = v
            else:
                acc.pop(k, None)
    return acc


def format_mono(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def format_poly(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    out = []
    for m, c in p.terms:
        neg = c < 0
        ac = -c if neg else c
        mono = format_mono(m)
        if mono == "1":
            body = str(ac)
        elif ac == 1:
            body = mono
        else:
            body = f"{ac}*{mono}"
        out.append(("- " if neg else "+ ") + body)
    s = " ".join(out)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


class PolyRing(FrozenRecord):
    """K[x0, ..., x_{nvars-1}] with the revlex order baked in."""

    _fields = ("nvars", "field")

    def __init__(self, nvars: int, field=QQ):
        self.__dict__.update(nvars=nvars, field=field)

    @property
    def n(self) -> int:
        """Dimension of the ambient projective space."""
        return self.nvars - 1

    @property
    def modulus(self) -> int:
        """The field's characteristic: 0 for QQ, p for Z/p."""
        return getattr(self.field, "p", 0)

    def var_mono(self, i: int) -> Monomial:
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        return tuple(1 if j == i else 0 for j in range(self.nvars))

    def gen(self, i: int) -> Polynomial:
        return Polynomial(self, [(self.var_mono(i), 1)])

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    @property
    def zero(self) -> Polynomial:
        return Polynomial(self, [])

    @property
    def one(self) -> Polynomial:
        return Polynomial(self, [(tuple([0] * self.nvars), 1)])

    def monomials_of_degree(self, j: int):
        """All degree-j monomials, descending in revlex."""
        if j < 0:
            return []
        nv = self.nvars
        out = []
        for bars in combinations(range(j + nv - 1), nv - 1):
            prev = -1
            m = []
            for b in bars:
                m.append(b - prev - 1)
                prev = b
            m.append(j + nv - 2 - prev)
            out.append(tuple(m))
        out.sort(key=revlex_key, reverse=True)
        return out

    def dim_degree(self, j: int) -> int:
        """dim of the degree-j graded piece of the ring."""
        if j < 0:
            return 0
        return binom(j + self.nvars - 1, self.nvars - 1)


def binom(m: int, k: int) -> int:
    return comb(m, k) if 0 <= k <= m else 0
