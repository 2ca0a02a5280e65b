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
     "4b8f0a401553e0db1281901c6d2cab75fab687b55126231f5850fb4f32a61026"),
    ("n3d6a0-zero-f", lambda: _seeded(3, 6, 0, 10),
     "4714a68b1197f82d4875c568a139f273f7c4950885e259c8a4cb7b6ce5232fdc"),
    ("n4d5a2", lambda: _seeded(4, 5, 2, 5),
     "2d1b99179dd00da574072a01f8462fe0397aa3c717c33bf74b1ac4e962f468b1"),
    ("n4d4a1-zero-f", lambda: _seeded(4, 4, 1, 8),
     "7f8152838c009570b36fbdf00c4ac6878cbdc4b0a1eb07d63ec7f65fbf9dc04c"),
    ("n5d4a1", lambda: _seeded(5, 4, 1, 3),
     "afa56e8acfed03f46621e8a968c63d41e579bc8f1872c5e028f95b9c0fef0de7"),
    ("n5d5a2-zero-f", lambda: _seeded(5, 5, 2, 4),
     "24d9ea1babab67df9f3427fe28d4663d896a72ec701c62d78615a7651bbe0f41"),
    ("n4d5a1-mod7", lambda: _seeded(4, 5, 1, 13, 7),
     "2ce5d44ba5f781f3072f379f86319ce98bbce90252c08c0dde8c48fb1c0a0e62"),
    ("n3d4a2-mod7", lambda: _seeded(3, 4, 2, 5, 7),
     "2f938530f65385d4ef11a8307e10cde988bec6369749b85cdd234331e9388761"),
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
     "4cf9178166e218a61732353f7d6f1262b35fcfa47e03f540d48f29f6764fdb3f"),
    ("ex46-n5a2d5", lambda: non_extremal_witness(5, 2, 5).ideal,
     "0e538c7a197f6fd9017d27d8659683971f8d936a2f6ff98bea4b0b91fd1d11a8"),
]


@pytest.mark.parametrize("label,make,digest", CASES, ids=[c[0] for c in CASES])
def test_constructed_ideal_bytes_are_pinned(label, make, digest):
    assert hashlib.sha256(emit_ideal(make()).encode()).hexdigest() == digest
