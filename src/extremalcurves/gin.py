"""Generic initial ideals under revlex, read off the generic hyperplane cut.

A random unit lower-triangular change of coordinates g is drawn (the big
Bruhat cell: `ideals.random_unipotent_matrix`), and the cut of g.I by
x_n = 0 goes through a degree-capped lead-only Buchberger run
(`groebner.cut_leads`).  For a saturated I in generic coordinates no
minimal generator of in(g.I) involves x_n (Bayer-Stillman, Invent. Math.
87, 1987), so the cut's leads, extended by a zero exponent, are the gin's
minimal generators; in characteristic zero the revlex gin has the
regularity of I, so the run stops at degree reg.  A non-saturated ideal
is refused with a ValueError: every draw would fail the certificate.

Each run is certified exactly: the candidate must be strongly stable, and
then its Hilbert numerator in all n+1 variables, read off its generators
(`monomials.ek_numerator`), must equal that of the ideal (the Hilbert
function is invariant under coordinate changes, and the extended leads
generate a subideal of in(g.I), so numerator equality forces equality); a
draw that fails it was not generic.  Two certified draws must agree;
otherwise the entry range widens and the next round draws again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .groebner import cut_leads
from .ideals import Ideal, is_saturated, random_unipotent_matrix
from .monomials import MonomialIdeal, ek_numerator, is_strongly_stable

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
    """Generic initial ideal of a saturated ideal, read off the cut by
    x_n = 0 of each unit lower-triangular draw (ValueError if pd R/I > n),
    with the two-seed agreement protocol: three rounds, the entry bound
    doubling from DEFAULT_ENTRY_BOUND."""
    ring = I.ring
    if ring.modulus:
        raise ValueError("generic initial ideals need characteristic zero")
    if not I.gens:
        return GinResult(MonomialIdeal(ring.nvars, []), (seed, seed), DEFAULT_ENTRY_BOUND)
    if not is_saturated(I):
        raise ValueError("the gin is read off a hyperplane cut, which needs a saturated ideal")
    base_numerator = I.initial_ideal().hilbert_numerator()
    reg = I.resolution().regularity()

    bound = DEFAULT_ENTRY_BOUND
    for attempt in range(3):
        seeds = (mix_seed(seed, attempt, 1), mix_seed(seed, attempt, 2))
        candidates = []
        for s in seeds:
            matrix = random_unipotent_matrix(ring, random.Random(s), bound)
            leads = cut_leads(I.gens, matrix, reg, ring)
            candidates.append(MonomialIdeal(ring.nvars, [m + (0,) for m in leads.gens]))
        first, second = candidates
        if first == second and is_strongly_stable(first) and ek_numerator(first) == base_numerator:
            return GinResult(first, seeds, bound)
        bound *= 2
    raise GinDisagreement(f"no agreement after 3 rounds (last entry bound {bound})")
