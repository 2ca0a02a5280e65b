"""Packed integer encoding of monomials for the hot loops.

Exponents are packed into 8-bit slots with x_{nvars-1} in the most
significant slot, so that for monomials of equal degree the *smaller*
packed integer is the *larger* monomial in revlex.  Multiplication is
integer addition; divisibility is a single mask test.  Homogeneous work
never raises an exponent above the degree it runs in, so callers guard
the encoding with one degree compare against MAXEXP.
"""

from __future__ import annotations

from functools import cache

SLOT = 8  # one byte per slot: `high_mask` and `degree` read slots as bytes
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
    return int.from_bytes(b"\x80" * nvars, "little")


@cache
def _masks(nvars: int):
    """(the high bit of every slot, all slot bits)."""
    return high_mask(nvars), (1 << (SLOT * nvars)) - 1


def divides(a: int, b: int, himask: int) -> bool:
    """Packed a | b (componentwise a <= b) via the borrow trick."""
    return ((b | himask) - a) & himask == himask


def lcm(a: int, b: int, nvars: int) -> int:
    """Componentwise max of the nvars slots of a and b (each at most
    MAXEXP); bits above the slots are dropped.  The borrow trick marks
    the slots where a >= b, and the mark times 0xFF selects a there."""
    himask, full = _masks(nvars)
    select = ((((a | himask) - b) & himask) >> (SLOT - 1)) * 0xFF
    return ((a ^ b) & select ^ b) & full


def degree(key: int, nvars: int) -> int:
    """Sum of the nvars slots of a packed monomial, exact for every slot
    value (so past MAXEXP, where the guards must see it)."""
    return sum(key.to_bytes(nvars, "little"))
