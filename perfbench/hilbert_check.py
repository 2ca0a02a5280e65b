"""Hilbert function of a homogeneous ideal by exact linear algebra.

dim_K [R/I]_j = C(j + nvars - 1, nvars - 1) - rank of the matrix whose rows
are the products m*g, for every generator g of degree at most j and every
monomial m of degree j - deg(g).  The rank is taken over the rationals by
fraction-free elimination on sparse integer rows.  Nothing here calls the
package under test: generators arrive as plain {exponent tuple: coefficient}
dicts, so this check stays independent of its Gröbner engine and of its own
linear-algebra oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd


SLOT = 16  # bits per exponent in a packed column key


def monomials(nvars: int, degree: int):
    """All exponent tuples of the given total degree."""
    if degree < 0:
        return []
    if nvars == 1:
        return [(degree,)]
    return [
        (e,) + rest
        for e in range(degree, -1, -1)
        for rest in monomials(nvars - 1, degree - e)
    ]


@lru_cache(maxsize=None)
def _packed_monomials(nvars: int, degree: int):
    return tuple(_pack(m) for m in monomials(nvars, degree))


def _pack(m):
    if max(m, default=0) >= 1 << (SLOT - 1):
        raise ValueError("exponent too large for the packed column key")
    return sum(e << (SLOT * i) for i, e in enumerate(m))


def _integer_row(poly):
    den = 1
    for c in poly.values():
        den = den * Fraction(c).denominator // gcd(den, Fraction(c).denominator)
    return {_pack(m): int(Fraction(c) * den) for m, c in poly.items() if c}


def _primitive(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {k: v // g for k, v in row.items()}


def rank(rows) -> int:
    """Exact rank over the rationals of sparse integer rows ({column: int})."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _primitive(row)
                break
            a, b = row[lead], piv[lead]
            out = {k: v * b for k, v in row.items()}
            for k, v in piv.items():
                w = out.get(k, 0) - a * v
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
            row = _primitive(out) if out else out
    return len(pivots)


def quotient_dims(gens, nvars: int, degrees):
    """[dim_K (R/I)_j for j in degrees] for homogeneous generators given as
    {exponent tuple: coefficient} dicts in nvars variables."""
    rows_by_gen = []
    for poly in gens:
        row = _integer_row(poly)
        if not row:
            continue
        degs = {sum(m) for m, c in poly.items() if c}
        if len(degs) != 1:
            raise ValueError("generators must be homogeneous")
        rows_by_gen.append((degs.pop(), row))
    out = []
    for j in degrees:
        if j < 0:
            out.append(0)
            continue
        # rows with a single term span their column outright: take those
        # columns out of the other rows before eliminating
        unit_cols, rows = set(), []
        for deg, row in rows_by_gen:
            for m in _packed_monomials(nvars, j - deg):
                shifted = {m + k: v for k, v in row.items()}
                if len(shifted) == 1:
                    unit_cols.update(shifted)
                else:
                    rows.append(shifted)
        rows = [{k: v for k, v in r.items() if k not in unit_cols} for r in rows]
        dim = len(unit_cols) + rank(r for r in rows if r)
        out.append(comb(j + nvars - 1, nvars - 1) - dim)
    return out
