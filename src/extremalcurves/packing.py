"""Packed integer encoding of monomials for the hot loops.

Exponents are packed into 8-bit slots with x_{nvars-1} in the most
significant slot, so that for monomials of equal degree the *smaller*
packed integer is the *larger* monomial in revlex.  Multiplication is
integer addition; divisibility is a single mask test.  Homogeneous work
never raises an exponent above the degree it runs in, so callers guard
the encoding with one degree compare against MAXEXP.
"""

from __future__ import annotations

SLOT = 8
MAXEXP = 127  # keeps the high bit of every slot free for the borrow trick


class ExponentLimitError(ValueError):
    """An exponent or a degree beyond MAXEXP, the limit of the packed
    encoding."""


def make_packer(nvars: int):
    shifts = [SLOT * i for i in range(nvars)]

    def pack(m):
        key = 0
        for e, s in zip(m, shifts):
            if e > MAXEXP:
                raise ExponentLimitError(f"exponent {e} exceeds the packed limit {MAXEXP}")
            key |= e << s
        return key

    return pack


def make_unpacker(nvars: int):
    shifts = [SLOT * i for i in range(nvars)]
    mask = (1 << SLOT) - 1

    def unpack(key):
        return tuple((key >> s) & mask for s in shifts)

    return unpack


def high_mask(nvars: int) -> int:
    mask = 0
    for i in range(nvars):
        mask |= 0x80 << (SLOT * i)
    return mask


def divides(a: int, b: int, himask: int) -> bool:
    """Packed a | b (componentwise a <= b) via the borrow trick."""
    return ((b | himask) - a) & himask == himask


def lcm(a: int, b: int, nvars: int) -> int:
    mask = (1 << SLOT) - 1
    out = 0
    for i in range(nvars):
        s = SLOT * i
        out |= max((a >> s) & mask, (b >> s) & mask) << s
    return out


def degree(key: int, nvars: int) -> int:
    mask = (1 << SLOT) - 1
    return sum((key >> (SLOT * i)) & mask for i in range(nvars))
