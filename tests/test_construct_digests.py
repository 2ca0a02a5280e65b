"""Constructed ideals pinned by SHA-256 of `emit_ideal`: the generators
`construct_curve` and the catalogs return, in their order.  The minimal
subset depends on the order of the candidates within a degree, so a change
to how the kernel or the minimal generators are computed must leave these
bytes as they are.  The seeded constructions cover P^3, P^4 and P^5 over
QQ, each with one zero gluing form, and two over Z/7."""

import hashlib
import random

import pytest

from extremalcurves.construct import (
    ConstructionInput,
    construct_curve,
    cubic_alternate_curve_ideal,
    extremal_curve_ideal,
    non_extremal_witness,
    random_construction_input,
)
from extremalcurves.formulas import max_genus
from extremalcurves.idealfile import emit_ideal
from extremalcurves.ring import PolyRing, Polynomial, PrimeField


def _seeded(n, d, a, seed, p=None):
    """The seeded random construction, its forms read mod p when given."""
    inp = random_construction_input(n, d, a, random.Random(seed))
    if p is not None:
        ring = PolyRing(n + 1, PrimeField(p))
        inp = ConstructionInput(n=n, d=d, a=a, f_list=tuple(Polynomial(ring, f.terms) for f in inp.f_list),
                                f=Polynomial(ring, inp.f.terms))
    return construct_curve(inp)


def _ex45(n, d, a):
    return extremal_curve_ideal(n, d, (3 - n - a) if d == 2 else max_genus(n, d) - a)


CASES = [
    ("n3d5a1", lambda: _seeded(3, 5, 1, 21),
     "4d4ae72ec088f5577d3a61cd20591cab90ebf25be329b406a03eee2cefb9b9bb"),
    ("n3d6a0-zero-f", lambda: _seeded(3, 6, 0, 10),
     "9ff813d09660b74998078188865f52a9b1839b4c9480ae03bc67355fc383ab7a"),
    ("n4d5a2", lambda: _seeded(4, 5, 2, 5),
     "90dd71e3d9cc97d593c7390e180aae2abd17f8b07accd585ff14bff82f4d2f09"),
    ("n4d4a1-zero-f", lambda: _seeded(4, 4, 1, 8),
     "0a9e2645682b2ed056de76d006867e7512d08fe79aac3eae46a64d1717fa98b8"),
    ("n5d4a1", lambda: _seeded(5, 4, 1, 3),
     "a81aa6d59b5c612f97ff24c590aa0e7ea0e2f4c836b28273f2d737c46cba87f4"),
    ("n5d5a2-zero-f", lambda: _seeded(5, 5, 2, 4),
     "2cc05671d320ed2633c5f8cc52c64dcbe71d0607216a3a5a3ac9663301560eeb"),
    ("n4d5a1-mod7", lambda: _seeded(4, 5, 1, 13, 7),
     "7c275c42694f9b3143c3da97d809b5b665fbec170a084ac89d7bd1f69e2ecd3c"),
    ("n3d4a2-mod7", lambda: _seeded(3, 4, 2, 5, 7),
     "0ce78d381bd50f5449528fdf6cb61cf86dc26fd79e005f330e73cb3c74424fe3"),
    ("ex45-n3d5a1", lambda: _ex45(3, 5, 1),
     "90436e3986ff3a22c2199cbcb4d533fbd582b51fe92bcd88770ae05b039f1d23"),
    ("ex45-n3d2a1", lambda: _ex45(3, 2, 1),
     "ca987cac27303a0c00e7836108f7287730ad02f33f9d3569fd30b0ae31d471e4"),
    ("ex45-n4d4a1", lambda: _ex45(4, 4, 1),
     "118e68857031e6e168b88a0e8a25a8865d1ff826705c938830d95f9ba4e87ad2"),
    ("ex45-n5d5a2", lambda: _ex45(5, 5, 2),
     "d298ca71f8768221123f207dcca9a0d40f05d836148a5a2a981c4cbca9f2caec"),
    ("ex45-n4d6a0", lambda: _ex45(4, 6, 0),
     "feff0dfb5923babc13c842fa41fb6f6c001584078cfe23b4bb2cbc6cfcf1f0e2"),
    ("alternate-n5a1", lambda: cubic_alternate_curve_ideal(5, 1),
     "42232fc64bc60e6d7d84efb0d6afd08ecc367f5d81bcc02be8ab8af876b9cefd"),
    ("alternate-n6a2", lambda: cubic_alternate_curve_ideal(6, 2),
     "89f03112f345bb02902d17c42910b5e12548793ed9f2c53b51acfd17617b95f2"),
    ("ex46-n4a1d4", lambda: non_extremal_witness(4, 1, 4).ideal,
     "9278c0cb98addd5b9e8cf405835a74b8ac198cab9b82591557e0d7f4e109432b"),
    ("ex46-n5a2d5", lambda: non_extremal_witness(5, 2, 5).ideal,
     "1cb81a1cce00892dccf80781d51b95101324b0ec10af9ac931e3f52ad9233b1c"),
]


@pytest.mark.parametrize("label,make,digest", CASES, ids=[c[0] for c in CASES])
def test_constructed_ideal_bytes_are_pinned(label, make, digest):
    assert hashlib.sha256(emit_ideal(make()).encode()).hexdigest() == digest
