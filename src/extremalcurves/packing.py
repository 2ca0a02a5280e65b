"""Packed integer encoding of monomials: the one format, known here alone.

A `Layout` packs the exponents of nvars variables into slots of ``slot``
bits, x_{nvars-1} in the most significant slot: for monomials of equal
degree the *smaller* key is the *larger* monomial in revlex.  Multiplying
is adding keys, and divisibility is one mask test (the borrow trick of
`divides`), which needs the top bit of every slot free: a layout holds
exponents up to its ``limit``, 2^(slot-1) - 1.

The caller picks the width.  The engines, the modules and the oracle take
``layout(nvars)``, 8-bit slots with limit MAXEXP = 127, and guard their
homogeneous work with one degree compare (`Layout.check`).  `MonomialIdeal`
and `Polynomial.substitute_linear` take `fit`, the narrowest layout that
holds their top exponent.
"""

from __future__ import annotations

SLOT = 8  # the engines' slot width in bits
MAXEXP = (1 << (SLOT - 1)) - 1  # 127: the engines' limit


class ExponentLimitError(ValueError):
    """An exponent or a degree beyond the limit of the packed encoding."""


class Layout:
    """Slots of ``slot`` bits, a whole number of bytes, for nvars variables:
    keys of ``bits`` bits (a component may sit above them), ``full`` their
    mask, ``himask`` the top bit of every slot, ``var_keys`` the variables.
    ``pack`` refuses an exponent past the limit; ``pack_fitted`` trusts a
    caller whose layout was chosen to fit."""

    def __init__(self, nvars: int, slot: int):
        if slot % 8:
            raise ValueError("slots are whole bytes")
        self.nvars, self.slot, self.bits = nvars, slot, slot * nvars
        self.limit = limit = (1 << (slot - 1)) - 1
        self.full = full = (1 << self.bits) - 1
        shifts = tuple(range(0, self.bits, slot))
        self.var_keys = tuple(1 << s for s in shifts)
        self.himask = himask = sum(1 << (s + slot - 1) for s in shifts)
        mask, nbytes = (1 << slot) - 1, slot // 8

        def pack(m):
            key = 0
            for e, s in zip(m, shifts):
                if e > limit:
                    self.check(e, "exponent")
                key |= e << s
            return key

        def pack_fitted(m):
            raw = bytes(m) if nbytes == 1 else b"".join(e.to_bytes(nbytes, "little") for e in m)
            return int.from_bytes(raw, "little")

        def unpack(key):
            return tuple((key >> s) & mask for s in shifts)

        def lcm(a, b):
            """Componentwise max of the slots of a and b (each at most the
            limit), bits above them dropped: the borrow trick marks the
            slots where a >= b, and the mark times a slot's mask selects a."""
            select = ((((a | himask) - b) & himask) >> (slot - 1)) * mask
            return ((a ^ b) & select ^ b) & full

        def degree(key):
            """Sum of the slots, exact for every slot value (so past the
            limit, where the guards must see it)."""
            if nbytes == 1:
                return sum(key.to_bytes(nvars, "little"))
            return sum((key >> s) & mask for s in shifts)

        self.pack, self.pack_fitted, self.unpack, self.lcm, self.degree = pack, pack_fitted, unpack, lcm, degree

    def check(self, value, what="degree", where="", *args):
        """Raise ExponentLimitError when value, the largest exponent that a
        step may make, is past the limit; where.format(*args) ends the
        subject of the message and is made only then."""
        if value > self.limit:
            raise ExponentLimitError(f"{what} {value}{where.format(*args)} exceeds the packed limit {self.limit}")


_LAYOUTS = {}


def layout(nvars: int, slot: int = SLOT) -> Layout:
    """The one layout per (nvars, slot)."""
    return _LAYOUTS.get((nvars, slot)) or _LAYOUTS.setdefault((nvars, slot), Layout(nvars, slot))


def fit(nvars: int, top: int) -> Layout:
    """The narrowest layout whose limit holds top."""
    return layout(nvars, 8 * (top.bit_length() // 8 + 1))


def divides(a: int, b: int, himask: int) -> bool:
    """Packed a | b (componentwise a <= b) via the borrow trick."""
    return ((b | himask) - a) & himask == himask
