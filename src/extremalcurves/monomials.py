"""Combinatorics of monomial ideals: Hilbert series numerators, strong
stability, and the Eliahou-Kervaire Betti formula for stable ideals.
"""

from __future__ import annotations

from .ring import binom, mono_degree, mono_divides


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

    def max_index(self) -> int:
        return max((i for i, _ in self.entries), default=-1)

    def regularity(self) -> int:
        """max(j - i) over nonzero entries (ideal convention)."""
        return max((j - i for i, j in self.entries), default=0)

    def generator_degrees(self):
        """Multiset of degrees of the minimal generators (index 0 row)."""
        out = []
        for (i, j), r in sorted(self.entries.items()):
            if i == 0:
                out.extend([j] * r)
        return out

    def alternating_numerator(self, nvars: int):
        """Hilbert numerator of R/I from the table: 1 - sum (-1)^i b_{i,j} t^j."""
        top = max((j for _, j in self.entries), default=0)
        out = [0] * (top + 1)
        out[0] = 1
        for (i, j), r in self.entries.items():
            out[j] -= (-1) ** i * r
        return tuple(_trim(out))

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
        # packed divisibility (the borrow trick of `packing`) in slots of
        # whole bytes with a spare top bit: exponents here have no bound
        top = max(map(max, unique), default=0) if nvars else 0
        width = top.bit_length() // 8 + 1
        himask = int.from_bytes((bytes(width - 1) + b"\x80") * nvars, "little")
        if width == 1:
            packed = [(sum(m), int.from_bytes(bytes(m), "little"), m) for m in unique]
        else:
            packed = [
                (sum(m), int.from_bytes(b"".join(e.to_bytes(width, "little") for e in m), "little"), m)
                for m in unique
            ]
        # by degree, a later monomial never divides an earlier one
        packed.sort()
        keys, mins = [], []
        for d, key, m in packed:
            high = key | himask
            if not any((high - k) & himask == himask for k in keys):
                keys.append(key)
                mins.append((-d, key, m))
        # descending revlex: higher degree first, then the smaller packed key
        mins.sort()
        self.gens = tuple(m for _, _, m in mins)
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
        return any(mono_divides(g, m) for g in self.gens)

    def hilbert_numerator(self):
        """Numerator N(t) with HS(R/I) = N(t)/(1-t)^nvars."""
        if self._numerator is None:
            self._numerator = _numerator(self.gens, self.nvars)
        return self._numerator

    def quotient_dim(self, j: int) -> int:
        """dim_K [R/I]_j."""
        if j < 0:
            return 0
        num = self.hilbert_numerator()
        nv = self.nvars
        return sum(c * binom(j - k + nv - 1, nv - 1) for k, c in enumerate(num))

    def quotient_dims(self, jmax: int):
        return [self.quotient_dim(j) for j in range(jmax + 1)]

    def ideal_dim(self, j: int) -> int:
        if j < 0:
            return 0
        return binom(j + self.nvars - 1, self.nvars - 1) - self.quotient_dim(j)

    def is_artinian(self) -> bool:
        """Contains a power of every variable (the unit ideal does)."""
        for i in range(self.nvars):
            if not any(all(e == 0 for k, e in enumerate(g) if k != i) for g in self.gens):
                return False
        return True

    def __repr__(self):
        from .ring import format_mono

        return "MonomialIdeal(" + ", ".join(format_mono(g) for g in self.gens) + ")"


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_add_shift(a, b, shift):
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for j, y in enumerate(b):
        out[shift + j] += y
    return out


def _numerator(gens, nvars, _memo=None):
    if _memo is None:
        _memo = {}
    key = gens
    got = _memo.get(key)
    if got is not None:
        return got
    if not gens:
        result = (1,)
    else:
        supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
        disjoint = all(
            not (supports[i] & supports[j])
            for i in range(len(gens))
            for j in range(i + 1, len(gens))
        )
        if disjoint:
            acc = [1]
            for g in gens:
                factor = [0] * (mono_degree(g) + 1)
                factor[0] = 1
                factor[-1] -= 1
                acc = _poly_mul(acc, factor)
            result = tuple(_trim(acc))
        else:
            counts = [0] * nvars
            for s in supports:
                for i in s:
                    counts[i] += 1
            v = max(range(nvars), key=lambda i: counts[i])
            e = min(g[v] for g in gens if g[v])
            pivot = tuple(e if i == v else 0 for i in range(nvars))
            plus = MonomialIdeal(nvars, gens + (pivot,)).gens
            colon = MonomialIdeal(
                nvars,
                [tuple(max(gi - pi, 0) for gi, pi in zip(g, pivot)) for g in gens],
            ).gens
            acc = _poly_add_shift(
                _numerator(plus, nvars, _memo), _numerator(colon, nvars, _memo), e
            )
            result = tuple(_trim(acc))
    _memo[key] = result
    return result


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


def ek_betti(I: MonomialIdeal) -> BettiTable:
    """Eliahou-Kervaire Betti numbers of a strongly stable ideal:
    beta_{i, i+deg u} += C(m(u), i) over minimal generators u, where m(u)
    is the largest variable index dividing u."""
    if not is_strongly_stable(I):
        raise ValueError("Eliahou-Kervaire needs a strongly stable ideal")
    table = BettiTable()
    for u in I.gens:
        m_u = max(i for i, e in enumerate(u) if e) if mono_degree(u) else 0
        d = mono_degree(u)
        for i in range(m_u + 1):
            table.add(i, i + d, binom(m_u, i))
    return table
