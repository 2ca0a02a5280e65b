"""Gröbner-free graded linear algebra on homogeneous ideals.

Dimensions of graded pieces come from exact sparse row reduction of
generator-multiple matrices.  This is the independent oracle used to
cross-check the Gröbner pipeline, so nothing here may import from the
Gröbner engine.  `_insert` is the one elimination: sparse integer rows,
reduced fraction-free over QQ or mod p.  `fraction_rank`, the exact rank
of the verdict's multiplication and Koszul maps and of the line forms'
independence check, is a loop over it on sparse rows.
"""

from __future__ import annotations

from math import gcd

from .packing import layout
from .ring import PolyRing, clear_denominators, strip_content


def _poly_rows(gens):
    """Convert polynomials to packed integer rows (denominators cleared)."""
    if not gens:
        return []
    ring = gens[0].ring
    pack = layout(ring.nvars).pack
    rows = []
    for g in gens:
        if not g:
            continue
        if not g.is_homogeneous():
            raise ValueError("graded pieces need homogeneous generators")
        (ints,), _ = clear_denominators([[c for _, c in g.terms]])  # residues stay
        rows.append((g.degree(), {pack(m): c for (m, _), c in zip(g.terms, ints)}))
    return rows


def _insert(pivots, row, modulus):
    """Reduce the sparse integer row {column: value} against the pivots
    {lead column: row} and add what is left as a new pivot; True when the
    row was independent.  Over QQ (modulus 0) the reduction is fraction-free
    and a new pivot is content-free with a positive lead; mod p the values
    are residues."""
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            if not modulus:
                vals, _ = strip_content(list(row.values()))
                sign = 1 if row[lead] > 0 else -1
                row = {k: sign * v for k, v in zip(row, vals)}
            pivots[lead] = row
            return True
        if modulus:
            factor = row[lead] * pow(piv[lead], -1, modulus) % modulus
            new = dict(row)
            for k, v in piv.items():
                s = (new.get(k, 0) - factor * v) % modulus
                if s:
                    new[k] = s
                else:
                    new.pop(k, None)
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
            if len(new) > 64:
                vals, g = strip_content(list(new.values()))
                if g > 1:
                    new = dict(zip(new, vals))
        row = new
    return False


class GradedSpan:
    """Row space of a homogeneous ideal, advanced one degree at a time."""

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        self.modulus = ring.modulus
        self._gen_rows = {}
        mindeg = None
        for d, row in _poly_rows([g for g in gens if g]):
            self._gen_rows.setdefault(d, []).append(row)
            mindeg = d if mindeg is None else min(mindeg, d)
        self.degree = (mindeg - 1) if mindeg is not None else -1
        self.layout = layout(ring.nvars)  # keys of degree j carry exponents up to j
        self.pivots = {}  # lead key -> row, all of current degree
        self.dims = {}  # degree -> dim [I]_j  (0 below first generator)

    def advance(self):
        """Move from degree j to j+1: span x_i * rows plus new generators."""
        self.layout.check(self.degree + 1)
        self.degree += 1
        old, var_keys = list(self.pivots.values()), self.layout.var_keys
        self.pivots = {}
        for row in old:
            for vk in var_keys:
                _insert(self.pivots, {k + vk: v for k, v in row.items()}, self.modulus)
        for row in self._gen_rows.get(self.degree, ()):
            _insert(self.pivots, dict(row), self.modulus)
        self.dims[self.degree] = len(self.pivots)


def oracle_ideal_dims(gens, jmax: int, ring: PolyRing | None = None):
    """dim_K [I]_j for j = 0..jmax by pure linear algebra."""
    if ring is None:
        ring = gens[0].ring
    layout(ring.nvars).check(jmax)
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
            if _insert(span.pivots, row, span.modulus):
                kept.append(g)
        span.dims[e] = len(span.pivots)
    return kept


def fraction_rank(rows, modulus=0) -> int:
    """Exact rank of sparse rows {column: value} of int or Fraction values.
    Each row is cleared of its denominators and goes through `_insert`;
    every step stays in the integers.  With a prime modulus the values are
    ints, reduced mod p, and the rank is over Z/p."""
    pivots = {}
    for row in rows:
        if modulus:
            ints = [v % modulus for v in row.values()]
        else:
            (ints,), _ = clear_denominators([list(row.values())])
        _insert(pivots, {c: v for c, v in zip(row, ints) if v}, modulus)
    return len(pivots)
