"""Minimal resolutions pinned by SHA-256 of their twists and matrices.

The resolution's matrices are a deterministic function of the reduced
Gröbner basis and of two rules, both part of what the digests pin: the
reducer rule of the Schreyer frame (each step of an S-pair's reduction
uses the element with the fewest terms among those whose lead divides,
the lowest index among equals), and unit cancellation with the first
unit column and its lowest row as the pivot.  A change to how the maps
are stored or minimalized must leave every entry of the maps (as
`reference.mats` reads them) as it was; these digests make that a
standing check.  Each case also pins the digest of the resolution made
with the first divisor in index order (`reference.first_divisor_step`):
the two rules give the same twists and Betti table, and both complexes
resolve the curve's ideal.  The curves are seeded random constructions
in P^3, P^4 and P^5 over QQ, one of them in dense coordinates, and
constructions and a coordinate change over Z/p."""

import hashlib
import random

import pytest

from extremalcurves.construct import construct_curve, random_construction_input
from extremalcurves.ideals import Ideal
from extremalcurves.modules import ResolutionData, packed_vector
from extremalcurves.ring import PolyRing, PrimeField
from reference import change_coordinates, first_divisor_resolution, mats, verify_resolution


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
     "d6dce1f3011bf3e0b8cc81a8f8fc8f74ebf2d6ea3ccc3d65c8946946cc136943",
     "d6dce1f3011bf3e0b8cc81a8f8fc8f74ebf2d6ea3ccc3d65c8946946cc136943"),
    ("n3d6a2", lambda: _curve(3, 6, 2, 12),
     "881bdf24934d4d8a884cda85b44e83bb0f3e24d415e4d5c2a107363233bb67a9",
     "881bdf24934d4d8a884cda85b44e83bb0f3e24d415e4d5c2a107363233bb67a9"),
    ("n4d5a1", lambda: _curve(4, 5, 1, 13),
     "734b64590edada83a1733ec9c05581b95d6614dd01c2d84437e5995f1d5ac65a",
     "51f4d63649008b5013c4f4d70972d538172a171659a9fab959b6971271d56b7b"),
    ("n4d6a3", lambda: _curve(4, 6, 3, 14),
     "0b32f5c5b4d6598e769152cfbd85b59b3a41897631ea62e3565b84b220ebba2f",
     "66b0ee28bee85321d77a6debab485c045aecfa6f3ebf1ff618d39d3437b31c61"),
    ("n5d4a1", lambda: _curve(5, 4, 1, 15),
     "82451c3b5f77b8908ab385c88599facf24e9687c2adb7f4b2f32afca0acbdc89",
     "db04f1015a351ec5661ad61b3b09cf456a829e0ec47be7002fd4c5ba887a5bce"),
    ("n3d4a1-dense", lambda: _dense(_curve(3, 4, 1, 16), 3),
     "bbcd0c45b3f72ac97732340db3d358659bc6131ac251eb1f0d4b67b0210ff880",
     "bbcd0c45b3f72ac97732340db3d358659bc6131ac251eb1f0d4b67b0210ff880"),
    ("n5d4a1-dense", lambda: _dense(_curve(5, 4, 1, 19), 7),
     "bed504c8b453572d3fcb8c78d40655fd5851746f0daeb32cf777cbc7c0821d24",
     "c717137c78472f23a734025c42ee941ccd3ab15d2b5f0e46f20470e78473e098"),
    ("n4d5a2-zp32003", lambda: _curve(4, 5, 2, 17, PrimeField(32003)),
     "88802cd1c4c8f950d8ac53237dde2852711a407edc003bd39e693f90050a99d0",
     "47e1dfc93e8d8d0562c196a621c36837db090fe60e215a998391e94f0dff5411"),
    ("n5d3a0-zp32003", lambda: _curve(5, 3, 0, 17, PrimeField(32003)),
     "a1edc8de4272959d24c69a73265330da8ff7e6c51a40b782818333a341b84d74",
     "c8ad21dab93b2596489c225c7ace9c53affdc74a381e1b9be5a98358cd19f2da"),
    ("n5d4a1-zp7", lambda: _curve(5, 4, 1, 17, PrimeField(7)),
     "b08f772328b55dd4297473fffee930b4fe07653507d075969ed644fa281b46b3",
     "694d1049f4c92cec2bf9f8c37add5b65a135de5dfe368903799fe29506c5fcc2"),
    ("n3d5a1-zp7-dense", lambda: _dense(_curve(3, 5, 1, 18, PrimeField(7)), 5),
     "2db7c686ab480f1f3a0bed22849d4e3fde9c6a66586a9f54edd35ee5b362c2cf",
     "2db7c686ab480f1f3a0bed22849d4e3fde9c6a66586a9f54edd35ee5b362c2cf"),
]


IDS = [c[0] for c in CASES]


@pytest.mark.parametrize("label,make,first_digest,digest", CASES, ids=IDS)
def test_resolution_is_pinned(label, make, first_digest, digest):
    I = make()
    res = I.resolution()
    verify_resolution(res, I.groebner())
    assert resolution_digest(res) == digest


@pytest.mark.parametrize("label,make,first_digest,digest", CASES, ids=IDS)
def test_first_divisor_resolution_is_the_same_resolution(label, make, first_digest, digest):
    # the first-divisor resolution, pinned by the seven cases with two
    # different digests before the shortest divisor, is still made byte for
    # byte; it resolves the same ideal, with the twists and Betti table of
    # the package's resolution
    I = make()
    gb, res = I.groebner(), I.resolution()
    first = first_divisor_resolution(gb)
    verify_resolution(first, gb)
    assert resolution_digest(first) == first_digest
    assert first.twists == res.twists
    assert first.betti_table() == res.betti_table()


def _copy(res):
    """A `ResolutionData` with fresh maps, to corrupt without touching res."""
    maps = [res._map(k) for k in range(res.length)]
    cols = [[{r: dict(e) for r, e in col.items()} for col in level] for level, _ in maps]
    return ResolutionData(res.ring, res.twists, cols, [list(s) for _, s in maps])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_corrupted_entry_fails(k):
    I = CASES[2][1]()  # n4d5a1: three maps
    gb, res = I.groebner(), I.resolution()
    bad = _copy(res)
    cols, scales = bad._map(k)
    entry = next(iter(cols[0].values()))
    key = next(iter(entry))
    entry[key] += scales[0]  # one coefficient moved by 1 in the field
    with pytest.raises(AssertionError):
        verify_resolution(bad, gb)


def test_a_corrupted_generator_fails_on_the_ideal():
    # a one-map complex has no composition to break: only the check that
    # the first map generates the ideal sees the change
    x0, x1, _ = PolyRing(3).gens()
    I = Ideal(x0.ring, [x0 * x0])
    gb, res = I.groebner(), I.resolution()
    bad = _copy(res)
    bad._map(0)[0][0][0] = packed_vector(x0.ring, [x0 * x1])[0]
    with pytest.raises(AssertionError, match="generate another ideal"):
        verify_resolution(bad, gb)


def test_a_dropped_column_fails_on_the_euler_characteristic():
    # the last map without its last column is still a minimal complex:
    # only the Hilbert functions of the twists tell it from a resolution
    I = CASES[2][1]()
    gb, res = I.groebner(), I.resolution()
    bad = _copy(res)
    for part in bad._map(bad.length - 1):
        part.pop()
    bad.twists[-1] = bad.twists[-1][:-1]
    with pytest.raises(AssertionError, match="Euler characteristic"):
        verify_resolution(bad, gb)
