"""Minimal resolutions pinned by SHA-256 of their twists and matrices.

The resolution's matrices are a deterministic function of the reduced
Gröbner basis: the Schreyer frame, then unit cancellation with the first
unit column and its lowest row as the pivot.  A change to how the maps
are stored or minimalized must leave every entry of the maps (as
`reference.mats` reads them) as it was; these digests make that a
standing check.  The curves are seeded random constructions in P^3, P^4
and P^5 over QQ, one of them in dense coordinates, and constructions and
a coordinate change over Z/p."""

import hashlib
import random

import pytest

from extremalcurves.construct import construct_curve, random_construction_input
from extremalcurves.ideals import Ideal
from extremalcurves.ring import PolyRing, PrimeField
from reference import change_coordinates, mats, verify_resolution


def _curve(n, d, a, seed, field=None):
    I = construct_curve(random_construction_input(n, d, a, random.Random(seed)))
    if field is None:
        return I
    ring = PolyRing(I.ring.nvars, field)
    return Ideal(ring, [type(g)(ring, g.terms) for g in I.gens])


def _dense(I, seed):
    """The curve after a seeded small coordinate change (invertible here)."""
    rng = random.Random(seed)
    nv = I.ring.nvars
    matrix = [[int(i == j) + rng.randint(-1, 1) * (i < j) for j in range(nv)] for i in range(nv)]
    return change_coordinates(I, matrix)


def resolution_digest(res) -> str:
    text = repr((
        res.twists,
        [[[[(m, str(c)) for m, c in e.terms] for e in col] for col in mat] for mat in mats(res)],
    ))
    return hashlib.sha256(text.encode()).hexdigest()


CASES = [
    ("n3d5a1", lambda: _curve(3, 5, 1, 11),
     "d6dce1f3011bf3e0b8cc81a8f8fc8f74ebf2d6ea3ccc3d65c8946946cc136943"),
    ("n3d6a2", lambda: _curve(3, 6, 2, 12),
     "881bdf24934d4d8a884cda85b44e83bb0f3e24d415e4d5c2a107363233bb67a9"),
    ("n4d5a1", lambda: _curve(4, 5, 1, 13),
     "734b64590edada83a1733ec9c05581b95d6614dd01c2d84437e5995f1d5ac65a"),
    ("n4d6a3", lambda: _curve(4, 6, 3, 14),
     "0b32f5c5b4d6598e769152cfbd85b59b3a41897631ea62e3565b84b220ebba2f"),
    ("n5d4a1", lambda: _curve(5, 4, 1, 15),
     "82451c3b5f77b8908ab385c88599facf24e9687c2adb7f4b2f32afca0acbdc89"),
    ("n3d4a1-dense", lambda: _dense(_curve(3, 4, 1, 16), 3),
     "bbcd0c45b3f72ac97732340db3d358659bc6131ac251eb1f0d4b67b0210ff880"),
    ("n5d4a1-dense", lambda: _dense(_curve(5, 4, 1, 19), 7),
     "bed504c8b453572d3fcb8c78d40655fd5851746f0daeb32cf777cbc7c0821d24"),
    ("n4d5a2-zp32003", lambda: _curve(4, 5, 2, 17, PrimeField(32003)),
     "88802cd1c4c8f950d8ac53237dde2852711a407edc003bd39e693f90050a99d0"),
    ("n5d3a0-zp32003", lambda: _curve(5, 3, 0, 17, PrimeField(32003)),
     "a1edc8de4272959d24c69a73265330da8ff7e6c51a40b782818333a341b84d74"),
    ("n5d4a1-zp7", lambda: _curve(5, 4, 1, 17, PrimeField(7)),
     "b08f772328b55dd4297473fffee930b4fe07653507d075969ed644fa281b46b3"),
    ("n3d5a1-zp7-dense", lambda: _dense(_curve(3, 5, 1, 18, PrimeField(7)), 5),
     "2db7c686ab480f1f3a0bed22849d4e3fde9c6a66586a9f54edd35ee5b362c2cf"),
]


@pytest.mark.parametrize("label,make,digest", CASES, ids=[c[0] for c in CASES])
def test_resolution_is_pinned(label, make, digest):
    res = make().resolution()
    verify_resolution(res)
    assert resolution_digest(res) == digest
