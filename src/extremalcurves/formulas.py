"""Closed-form layer: genus bound, cohomology bound profiles, expected
generic initial ideals, expected Rao-module Hilbert functions, expected
Betti tables, and expected annihilator data for curves with maximal
cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monomials import BettiTable, MonomialIdeal, ek_betti
from .ring import binom


def max_genus(n: int, d: int) -> int:
    """Largest arithmetic genus of a non-degenerate degree-d curve in P^n."""
    if n < 3:
        raise ValueError("ambient dimension must be at least 3")
    if d < 2:
        raise ValueError("non-degenerate curves have degree at least 2")
    if d == 2:
        return 2 - n
    return binom(d - 2, 2) - (n - 3)


@dataclass(frozen=True)
class CurveSpec:
    """Numerical type of a curve: ambient dimension, degree, genus."""

    n: int
    d: int
    g: int

    def __post_init__(self):
        if self.g > max_genus(self.n, self.d):
            raise ValueError(
                f"genus {self.g} exceeds the bound {max_genus(self.n, self.d)}"
            )

    @property
    def a(self) -> int:
        """Defect below the maximal genus."""
        return max_genus(self.n, self.d) - self.g


def _branches_agree(values, where):
    vals = set(values)
    if len(vals) > 1:
        raise AssertionError(f"bound branches disagree at {where}: {sorted(vals)}")
    return vals.pop()


def h1_bound(n: int, d: int, g: int, j: int) -> int:
    """Sharp upper bound for h^1 of the twisted ideal sheaf at twist j."""
    if g > max_genus(n, d):
        raise ValueError("inadmissible (n, d, g)")
    if d == 2:
        branches = []
        if j <= g:
            branches.append(0)
        if g <= j <= 0:
            branches.append(-g + j)
        if 1 <= j <= -g - (n - 3):
            branches.append(-g - (n - 3) - j)
        if -g - (n - 3) <= j and j >= 1:
            branches.append(0)
        if not branches and j >= 1:
            branches.append(0)
        return _branches_agree(branches, (n, d, g, j))
    b2 = binom(d - 2, 2)
    top = binom(d - 1, 2) - g - (n - 3)
    branches = []
    if j <= -b2 + g:
        branches.append(0)
    if -b2 + g <= j <= 0:
        branches.append(b2 - g + j)
    if 1 <= j <= d - 2:
        branches.append(b2 - g - (n - 3))
    if d - 2 <= j <= top and j >= 1:
        branches.append(binom(d - 1, 2) - g - (n - 3) - j)
    if top <= j and j >= 1:
        branches.append(0)
    return _branches_agree(branches, (n, d, g, j))


def h2_bound(n: int, d: int, g: int, j: int) -> int:
    """Sharp upper bound for h^2 of the twisted ideal sheaf at twist j.

    For degree 2 the bound is only defined for j >= 0 (where it vanishes).
    """
    if d == 2:
        if j < 0:
            raise ValueError("the degree-2 second-cohomology bound is undefined for j < 0")
        return 0
    if d < 3:
        raise ValueError("degree must be at least 2")
    b2 = binom(d - 2, 2)
    branches = []
    if j >= d - 3:
        branches.append(0)
    if 0 <= j <= d - 2:
        branches.append(binom(d - 2 - j, 2))
    if g - b2 <= j <= -1:
        branches.append(b2 - (d - 1) * j - 1)
    if j <= g - b2 - 1:
        branches.append(g - 1 - d * j)
    if j == g - b2 and j <= -1:
        pass  # both middle branches already appended and must agree
    return _branches_agree(branches, (n, d, g, j))


def default_window(n: int, d: int, g: int):
    """Degree window containing every branch point of both bounds."""
    b2 = binom(d - 2, 2)
    return (g - b2 - 2, binom(d - 1, 2) - g + 2)


@dataclass(frozen=True)
class BoundProfile:
    """Tabulated h^1/h^2 bounds over a window; the h^2 entries are None
    where the degree-2 bound is undefined."""

    n: int
    d: int
    g: int
    window: tuple
    h1: tuple
    h2: tuple

    def h1_at(self, j):
        return self.h1[j - self.window[0]]

    def h2_at(self, j):
        return self.h2[j - self.window[0]]


def bound_profile(n: int, d: int, g: int, jmin=None, jmax=None) -> BoundProfile:
    lo, hi = default_window(n, d, g)
    if jmin is not None:
        lo = jmin
    if jmax is not None:
        hi = jmax
    h1 = tuple(h1_bound(n, d, g, j) for j in range(lo, hi + 1))
    h2 = tuple(
        (h2_bound(n, d, g, j) if not (d == 2 and j < 0) else None)
        for j in range(lo, hi + 1)
    )
    return BoundProfile(n, d, g, (lo, hi), h1, h2)


def _pair_products(nvars, firsts, seconds):
    out = []
    for i in firsts:
        for k in seconds:
            m = [0] * nvars
            m[i] += 1
            m[k] += 1
            out.append(tuple(m))
    return out


def expected_gin(spec: CurveSpec, variant: str = "primary") -> MonomialIdeal:
    """Predicted generic initial ideal of a maximal-cohomology curve."""
    n, d, a = spec.n, spec.d, spec.a
    nv = n + 1
    if d < 3:
        raise ValueError("the expected gin is stated for degree at least 3")
    if variant == "primary":
        gens = _pair_products(nv, range(n - 3), range(n))
        m = [0] * nv
        m[n - 3] = 2
        gens.append(tuple(m))
        m = [0] * nv
        m[n - 3] = 1
        m[n - 2] = 1
        gens.append(tuple(m))
        m = [0] * nv
        m[n - 2] = d
        gens.append(tuple(m))
        m = [0] * nv
        m[n - 2] = d - 1
        m[n - 1] = a
        gens.append(tuple(m))
        return MonomialIdeal(nv, gens)
    if variant == "d3-alternate":
        if not (d == 3 and a >= 1 and n >= 4):
            raise ValueError("the alternate gin needs d = 3, a >= 1, n >= 4")
        gens = _pair_products(nv, range(n - 4), range(n))
        gens += _pair_products(nv, [n - 4], range(n - 1))
        m = [0] * nv
        m[n - 3] = 2
        gens.append(tuple(m))
        m = [0] * nv
        m[n - 3] = 1
        m[n - 2] = 1
        gens.append(tuple(m))
        m = [0] * nv
        m[n - 2] = 2
        gens.append(tuple(m))
        m = [0] * nv
        m[n - 4] = 1
        m[n - 1] = a + 1
        gens.append(tuple(m))
        return MonomialIdeal(nv, gens)
    raise ValueError(f"unknown gin variant {variant!r}")


def rao_structure_excluded(spec: CurveSpec) -> bool:
    """The degree-3 corner where the Rao-module structure statement does
    not apply."""
    return spec.d == 3 and spec.a > 0 and spec.n >= 4


def expected_rao_hf(spec: CurveSpec, j: int) -> int:
    """Hilbert function of the expected Hartshorne-Rao module at twist j.

    Computed from the regular-sequence structure of the two-variable
    presentation (never from a particular choice of forms), and asserted to
    match the h^1 bound.
    """
    n, d, g, a = spec.n, spec.d, spec.g, spec.a
    if d < 3:
        raise ValueError("expected Rao data is stated for degree at least 3")
    if rao_structure_excluded(spec):
        raise ValueError("excluded parameter triple: d = 3, a > 0, n >= 4")
    df = binom(d - 1, 2) - g
    e = j + a + n - 4
    val = (e + 1) if e >= 0 else 0
    if e >= a + n - 3:
        val -= e - a + 1
    if e >= df:
        val -= e - df + 1
    if e >= df + a:
        val += e - df - a + 1
    bound = h1_bound(n, d, g, j)
    if val != bound:
        raise AssertionError(
            f"expected Rao dimension {val} differs from the h1 bound {bound} at {j}"
        )
    return val


def expected_annihilator_degrees(spec: CurveSpec):
    """Multiset of minimal generator degrees of the Rao module annihilator.

    None when the module is zero (n = 3 at maximal genus).  The top-degree
    generator drops out at a = 0, where it is absorbed by the power of the
    maximal ideal.
    """
    n, d, g, a = spec.n, spec.d, spec.g, spec.a
    if d < 3 or rao_structure_excluded(spec):
        raise ValueError("annihilator data undefined for this spec")
    if n == 3 and a == 0:
        return None
    out = [1] * (n - 1) + [a + n - 3] * (n - 2)
    if a > 0:
        out.append(binom(d - 1, 2) - g)
    return sorted(out)


def expected_betti(spec: CurveSpec) -> BettiTable:
    """Expected Betti table of a maximal-cohomology curve from the
    closed-form ranks (needs d >= 5, or d = 4 with a > 0), asserted against
    the Eliahou-Kervaire table of the expected gin."""
    n, d, a = spec.n, spec.d, spec.a
    if not (d >= 5 or (d == 4 and a > 0)):
        raise ValueError("closed-form Betti table needs d >= 5 or d = 4 with a > 0")
    table = BettiTable()
    for i in range(1, n):
        alpha = (n - 3) * binom(n, i) + binom(n - 1, i) - binom(n - 2, i + 1)
        table.add(i - 1, i + 1, alpha)
        beta = binom(n - 2, i - 1)
        if a > 0:
            table.add(i - 1, i + d - 1, beta)
            gamma = binom(n - 1, i - 1)
            table.add(i - 1, i + d + a - 2, gamma)
        else:
            table.add(i - 1, i + d - 2, beta)
    if n > 3:
        table.add(n - 1, n + 1, n - 3)
    if a > 0:
        table.add(n - 1, d + a + n - 2, 1)
    if table != ek_betti(expected_gin(spec)):
        raise AssertionError("closed-form Betti table disagrees with the gin table")
    return table
