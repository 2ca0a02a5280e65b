"""Combinatorics of monomial ideals: Hilbert series numerators, strong
stability, and the Eliahou-Kervaire formulas for strongly stable ideals.
"""

from __future__ import annotations

from itertools import accumulate

from .packing import fit
from .ring import binom, mono_degree


class BettiTable:
    """Graded Betti numbers of an ideal: (homological index, internal degree)
    -> rank, with index 0 counting minimal generators.  Tables for R/I shift
    the index by one."""

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for (i, j), r in dict(entries).items():
                self.add(i, j, r)

    def add(self, i: int, j: int, r: int):
        if r < 0:
            raise ValueError("negative rank")
        if r:
            self.entries[(i, j)] = self.entries.get((i, j), 0) + r

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __bool__(self):
        return bool(self.entries)

    def items(self):
        return sorted(self.entries.items())

    def __repr__(self):
        cells = ", ".join(f"({i},{j}):{r}" for (i, j), r in self.items())
        return f"BettiTable({cells})"


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


class MonomialIdeal:
    """Minimal generating set of a monomial ideal."""

    def __init__(self, nvars: int, gens):
        self.nvars = nvars
        unique = set(map(tuple, gens))
        if any(len(m) != nvars for m in unique):
            raise ValueError("exponent tuple of wrong length")
        # packed divisibility (the borrow trick of `packing`) in slots that
        # fit the top exponent: exponents here have no bound
        top = max(map(max, unique), default=0) if nvars else 0
        lay = fit(nvars, top)
        pack, himask = lay.pack_fitted, lay.himask
        # by degree, a later monomial never divides an earlier one
        packed = sorted((sum(m), pack(m), m) for m in unique)
        keys, mins = [], []
        for d, key, m in packed:
            high = key | himask
            if not any((high - k) & himask == himask for k in keys):
                keys.append(key)
                mins.append((-d, key, m))
        # descending revlex: higher degree first, then the smaller packed key
        mins.sort()
        self.gens = tuple(m for _, _, m in mins)
        self._keys, self._top, self._pack, self._himask = keys, top, pack, himask
        self._numerator = None

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.nvars == other.nvars
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __bool__(self):
        return bool(self.gens)

    def contains(self, m) -> bool:
        """Some generator divides m (packed with exponents clamped to the top)."""
        top, himask = self._top, self._himask
        high = self._pack([min(e, top) for e in m]) | himask
        return any((high - k) & himask == himask for k in self._keys)

    def hilbert_numerator(self):
        """Numerator N(t) with HS(R/I) = N(t)/(1-t)^nvars."""
        if self._numerator is None:
            self._numerator = tuple(_trim(_numerator(self.gens)))
        return self._numerator

    def quotient_dim(self, j: int) -> int:
        """dim_K [R/I]_j."""
        num = self._numerator
        if num is None:  # not `if not num`: the unit ideal's numerator is ()
            num = self.hilbert_numerator()
        return series_values(enumerate(num), self.nvars, j, j)[0]

    def __repr__(self):
        from .ring import format_mono

        return "MonomialIdeal(" + ", ".join(format_mono(g) for g in self.gens) + ")"


def series_values(terms, nvars: int, lo: int, hi: int) -> list:
    """The coefficients of t^lo, ..., t^hi in N(t)/(1-t)^nvars, N given by
    its terms (k, c), repeated exponents adding up: N's coefficients laid
    out from its lowest exponent (or lo) to hi, then nvars running sums,
    one per factor 1/(1-t).  Terms above hi cannot reach the window."""
    terms = [(k, c) for k, c in terms if k <= hi]
    base = min(lo, min((k for k, _ in terms), default=lo))
    coeffs = [0] * (hi - base + 1)
    for k, c in terms:
        coeffs[k - base] += c
    for _ in range(nvars):
        coeffs = accumulate(coeffs)
    return list(coeffs)[lo - base :]


def _poly_add_shift(a, b, shift):
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for j, y in enumerate(b):
        out[shift + j] += y
    return out


def _numerator(gens):
    """N(t) of R/(gens) as a list, on exponent tuples (any generating set).
    The pivot recursion (Bayer-Stillman 1992, Bigatti 1997): with p = x_v^e,
    v the most shared variable and e its least positive exponent, p divides
    every generator that involves x_v, so I + (p) = F + (p) with F the
    generators free of x_v, p is regular on R/F, and
    N(I) = (1 - t^e) N(F) + t^e N(I : p).  Pairwise disjoint supports are a
    regular sequence: N = prod (1 - t^deg g)."""
    counts = [len(gens) - column.count(0) for column in zip(*gens)]
    top = max(counts, default=0)
    if top < 2:
        acc = [1]
        for g in gens:
            d = sum(g)
            shifted = acc + [0] * d
            for i, a in enumerate(acc):
                shifted[i + d] -= a
            acc = shifted
        return acc
    v = counts.index(top)
    e = min(g[v] for g in gens if g[v])
    free = [g for g in gens if not g[v]]
    # I : p, minimal: by degree, a later monomial never divides an earlier one
    colon = []
    for g in sorted((g[:v] + (g[v] - e,) + g[v + 1 :] if g[v] else g for g in gens), key=sum):
        if not any(all(a <= b for a, b in zip(k, g)) for k in colon):
            colon.append(g)
    base, low = _numerator(free), _numerator(colon)
    out = base + [0] * max(e + len(low) - len(base), e)
    for j, y in enumerate(base):
        out[e + j] -= y
    for j, y in enumerate(low):
        out[e + j] += y
    return out


def is_strongly_stable(I: MonomialIdeal) -> bool:
    """Closed under swapping any variable of a generator for a smaller index."""
    for u in I.gens:
        for j in range(I.nvars):
            if not u[j]:
                continue
            for i in range(j):
                swapped = list(u)
                swapped[j] -= 1
                swapped[i] += 1
                if not I.contains(tuple(swapped)):
                    return False
    return True


def _max_index(u) -> int:
    return max((i for i, e in enumerate(u) if e), default=0)  # m(u), 0 for u = 1


def ek_betti(I: MonomialIdeal) -> BettiTable:
    """Eliahou-Kervaire Betti numbers of a strongly stable ideal:
    beta_{i, i+deg u} += C(m(u), i) over minimal generators u, where m(u)
    is the largest variable index dividing u."""
    if not is_strongly_stable(I):
        raise ValueError("Eliahou-Kervaire needs a strongly stable ideal")
    table = BettiTable()
    for u in I.gens:
        m_u, d = _max_index(u), mono_degree(u)
        for i in range(m_u + 1):
            table.add(i, i + d, binom(m_u, i))
    return table


def ek_numerator(I: MonomialIdeal):
    """`MonomialIdeal.hilbert_numerator`, read off the generators: each
    monomial of I is u*v for one generator u and one v in x_m(u), ...,
    x_{nvars-1}, so N(t) = 1 - sum_u t^deg(u) (1-t)^m(u) (Eliahou-Kervaire).
    Precondition, not tested here: I is strongly stable ((x1) gives 1-t+t^2)."""
    acc = [1]
    for u in I.gens:
        m_u = _max_index(u)
        acc = _poly_add_shift(acc, [(-1) ** (i + 1) * binom(m_u, i) for i in range(m_u + 1)], mono_degree(u))
    return tuple(_trim(acc))
