"""Generic initial ideals under revlex.

A random invertible change of coordinates is applied, then a degree-capped
lead-term Buchberger run collects the initial ideal up to the regularity of
the input: in characteristic zero the revlex gin has the regularity of the
ideal (Bayer-Stillman), so it is generated in degrees <= reg.  Each run is
certified exactly: the candidate's Hilbert numerator must equal that of the
ideal (the Hilbert function is invariant under coordinate changes, and the
discovered leads generate a subideal of the true initial ideal, so
numerator equality forces equality); a draw that fails it was not generic.
Two independent certified draws must agree and the result must be strongly
stable; otherwise the entry range widens and the next round draws again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .groebner import initial_monomials, linear_images
from .ideals import Ideal, random_invertible_matrix
from .monomials import MonomialIdeal, is_strongly_stable

DEFAULT_ENTRY_BOUND = 50


class GinDisagreement(Exception):
    """No round produced two agreeing, certified, strongly stable draws."""


@dataclass
class GinResult:
    ideal: MonomialIdeal
    seeds: tuple
    entry_bound: int


def mix_seed(*parts) -> int:
    """Deterministic 63-bit seed from integer parts."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h ^= (p + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)) & 0xFFFFFFFFFFFFFFFF
    return h & 0x7FFFFFFFFFFFFFFF


def gin(I: Ideal, seed: int = 0) -> GinResult:
    """Generic initial ideal with the two-seed agreement protocol: three
    rounds, the entry bound doubling from DEFAULT_ENTRY_BOUND."""
    ring = I.ring
    if ring.modulus:
        raise ValueError("generic initial ideals need characteristic zero")
    if not I.gens:
        return GinResult(MonomialIdeal(ring.nvars, []), (seed, seed), DEFAULT_ENTRY_BOUND)
    base_numerator = I.initial_ideal().hilbert_numerator()
    reg = I.resolution().regularity()

    bound = DEFAULT_ENTRY_BOUND
    for attempt in range(3):
        seeds = (mix_seed(seed, attempt, 1), mix_seed(seed, attempt, 2))
        candidates = []
        for s in seeds:
            matrix = random_invertible_matrix(ring, random.Random(s), bound)
            images = linear_images(I.gens, matrix, ring)
            candidates.append(initial_monomials(images, cap=reg, ring=ring))
        first, second = candidates
        if (
            first == second
            and first.hilbert_numerator() == base_numerator
            and is_strongly_stable(first)
        ):
            return GinResult(first, seeds, bound)
        bound *= 2
    raise GinDisagreement(f"no agreement after 3 rounds (last entry bound {bound})")
