"""Generic initial ideals under revlex.

A random invertible change of coordinates is applied, then a degree-capped
lead-term Buchberger run collects the initial ideal up to the regularity of
the input.  Each run is certified exactly: the candidate's Hilbert numerator
must equal that of the ideal (the Hilbert function is invariant under
coordinate changes, and the discovered leads generate a subideal of the true
initial ideal, so numerator equality forces equality).  Two independent
draws must agree and the result must be strongly stable; disagreement widens
the entry range and retries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .groebner import initial_monomials, linear_images
from .ideals import Ideal, random_invertible_matrix
from .monomials import MonomialIdeal, is_strongly_stable

DEFAULT_ENTRY_BOUND = 50


class GinError(Exception):
    pass


class GinDisagreement(GinError):
    """Independent draws produced different candidates; the caller should
    widen the random entry range."""


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


def gin(I: Ideal, seed: int = 0, retries: int = 3, entry_bound: int = DEFAULT_ENTRY_BOUND) -> GinResult:
    """Generic initial ideal with the two-seed agreement protocol."""
    ring = I.ring
    if getattr(ring.field, "p", 0):
        raise ValueError("generic initial ideals need characteristic zero")
    if not I.gens:
        return GinResult(MonomialIdeal(ring.nvars, []), (seed, seed), entry_bound)
    base_numerator = I.initial_ideal().hilbert_numerator()
    reg = I.resolution().regularity()

    bound = entry_bound
    for attempt in range(retries):
        seeds = (mix_seed(seed, attempt, 1), mix_seed(seed, attempt, 2))
        candidates = []
        for s in seeds:
            rng = random.Random(s)
            matrix = random_invertible_matrix(ring.nvars, rng, bound)
            images = linear_images(I.gens, matrix, ring)
            cand = None
            cap = reg
            while cap <= reg + 6:
                J = initial_monomials(images, cap=cap, ring=ring)
                if J.hilbert_numerator() == base_numerator:
                    cand = J
                    break
                cap += 2
            if cand is None:
                raise GinError(
                    "initial ideal certificate failed: Hilbert numerators differ"
                )
            candidates.append(cand)
        if candidates[0] == candidates[1] and is_strongly_stable(candidates[0]):
            return GinResult(candidates[0], seeds, bound)
        bound *= 2
    raise GinDisagreement(
        f"no agreement after {retries} rounds (last entry bound {bound})"
    )
