"""Gröbner-free graded linear algebra on homogeneous ideals.

Dimensions of graded pieces come from exact sparse row reduction of
generator-multiple matrices.  This is the independent oracle used to
cross-check the Gröbner pipeline, so nothing here may import from the
Gröbner engine.
"""

from __future__ import annotations

from math import gcd

from .packing import MAXEXP, SLOT, ExponentLimitError, make_packer
from .ring import PolyRing, clear_denominators


def _poly_rows(gens):
    """Convert polynomials to packed integer rows (denominators cleared)."""
    if not gens:
        return []
    ring = gens[0].ring
    pack = make_packer(ring.nvars)
    rows = []
    for g in gens:
        if not g:
            continue
        if not g.is_homogeneous():
            raise ValueError("graded pieces need homogeneous generators")
        (ints,), _ = clear_denominators([[c for _, c in g.terms]])  # residues stay
        rows.append((g.degree(), {pack(m): c for (m, _), c in zip(g.terms, ints)}))
    return rows


def _check_degree(j):
    """Keys of degree j carry exponents up to j; past MAXEXP they would spill
    into the next slot."""
    if j > MAXEXP:
        raise ExponentLimitError(f"degree {j} exceeds the packed limit {MAXEXP}")


class GradedSpan:
    """Row space of a homogeneous ideal, advanced one degree at a time."""

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        self.modulus = getattr(ring.field, "p", 0)
        self._gen_rows = {}
        mindeg = None
        for d, row in _poly_rows([g for g in gens if g]):
            self._gen_rows.setdefault(d, []).append(row)
            mindeg = d if mindeg is None else min(mindeg, d)
        self.degree = (mindeg - 1) if mindeg is not None else -1
        self._var_keys = [1 << (SLOT * i) for i in range(ring.nvars)]
        self.pivots = {}  # lead key -> row, all of current degree
        self.dims = {}  # degree -> dim [I]_j  (0 below first generator)

    def _strip(self, row):
        if self.modulus:
            return row
        g = 0
        for v in row.values():
            g = gcd(g, v)
            if g == 1:
                return row
        if g > 1:
            return {k: v // g for k, v in row.items()}
        return row

    def _insert(self, row):
        pivots = self.pivots
        modulus = self.modulus
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                row = self._strip(row)
                if row[lead] < 0 and not modulus:
                    row = {k: -v for k, v in row.items()}
                pivots[lead] = row
                return True
            if modulus:
                factor = row[lead] * pow(piv[lead], -1, modulus) % modulus
                new = {}
                for k, v in row.items():
                    new[k] = v
                for k, v in piv.items():
                    s = (new.get(k, 0) - factor * v) % modulus
                    if s:
                        new[k] = s
                    else:
                        new.pop(k, None)
                row = new
            else:
                a, b = piv[lead], row[lead]
                g = gcd(a, b)
                a, b = a // g, b // g
                new = {k: v * a for k, v in row.items()}
                for k, v in piv.items():
                    s = new.get(k, 0) - b * v
                    if s:
                        new[k] = s
                    else:
                        new.pop(k, None)
                row = self._strip(new) if len(new) > 64 else new
        return False

    def advance(self):
        """Move from degree j to j+1: span x_i * rows plus new generators."""
        _check_degree(self.degree + 1)
        self.degree += 1
        old = list(self.pivots.values())
        self.pivots = {}
        for row in old:
            for vk in self._var_keys:
                self._insert({k + vk: v for k, v in row.items()})
        for row in self._gen_rows.get(self.degree, ()):
            self._insert(dict(row))
        self.dims[self.degree] = len(self.pivots)


def oracle_ideal_dims(gens, jmax: int, ring: PolyRing | None = None):
    """dim_K [I]_j for j = 0..jmax by pure linear algebra."""
    if ring is None:
        ring = gens[0].ring
    _check_degree(jmax)
    span = GradedSpan(ring, gens)
    dims = []
    for j in range(jmax + 1):
        if j <= span.degree:
            dims.append(span.dims.get(j, 0))
            continue
        while span.degree < j:
            span.advance()
        dims.append(span.dims[j])
    return dims


def oracle_quotient_dims(gens, jmax: int, ring: PolyRing | None = None):
    """dim_K [R/I]_j for j = 0..jmax."""
    if ring is None:
        ring = gens[0].ring
    ideal_dims = oracle_ideal_dims(gens, jmax, ring)
    return [ring.dim_degree(j) - ideal_dims[j] for j in range(jmax + 1)]


def minimal_generators(gens):
    """Subset of the given homogeneous generators that generates minimally.

    Works degree by degree: a candidate is kept exactly when it falls
    outside the span of lower-degree multiples plus already-kept mates.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    ring = gens[0].ring
    by_degree = {}
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("minimal generators need homogeneous input")
        by_degree.setdefault(g.degree(), []).append(g)
    kept = []
    span = GradedSpan(ring, [])
    span.degree = min(by_degree) - 1
    for e in range(min(by_degree), max(by_degree) + 1):
        span.advance()
        for g in by_degree.get(e, ()):
            (_, row), = _poly_rows([g])
            if span._insert(row):
                kept.append(g)
        span.dims[e] = len(span.pivots)
    return kept


def fraction_rank(rows, modulus=0) -> int:
    """Exact rank of a dense matrix of int or Fraction entries: the rows are
    cleared of denominators, then eliminated fraction-free (Bareiss, Math.
    Comp. 22, 1968), skipping columns without a pivot.  Every division is
    exact.  With a prime modulus the entries are ints and the rank is over
    Z/p: the same elimination reduced mod p, which needs no division."""
    mat, _ = clear_denominators(rows)
    if modulus:
        mat = [[v % modulus for v in row] for row in mat]
    rank, prev = 0, 1
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        for row in mat[rank + 1 :]:
            row[col + 1 :] = [(v * top[col] - row[col] * t) // prev for v, t in zip(row[col + 1 :], top[col + 1 :])]
            if modulus:
                row[col + 1 :] = [v % modulus for v in row[col + 1 :]]
        prev = 1 if modulus else top[col]
        rank += 1
    return rank
