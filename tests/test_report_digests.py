"""Report bytes pinned by SHA-256, of the JSON and of the text form: a
speed-up must leave every report of `verify_extremal` byte-identical.  All
points but the last three are cheap; between them they run every check of
a verdict: gin, hyperplane sections, Betti tables, the planar check, an
ex46 witness and degree 2, in P^3 and P^4.  Of the last three, two are
rational ex45 curves of degree 8 and 9 in P^3, which pin large Rao modules
(315 dimensions with annihilator degrees [1, 1, 15, 21], and 588 with
[1, 1, 21, 28]) and take about a second each; the third, the rational
ex45 curve of degree 8 in P^4 (regularity 21), pins a large gin and its
hyperplane sections in five variables and takes under a CPU second (the
gin computed in all five variables took about six).

A change that alters a report on purpose (a new field, a new draw) must
say so and record the new digests here.  The JSON digests were re-pinned
once, when the sections began to be read off the gin: no hyperplane is
drawn since, so `seeds.hyperplane` is null, and each new report is the
old one with that field nulled, byte for byte.  The text form does not
print that seed, so no text digest moved."""

import hashlib

import pytest

from extremalcurves.cohomology import verify_extremal
from extremalcurves.construct import extremal_curve_ideal, non_extremal_witness
from extremalcurves.formulas import max_genus
from extremalcurves.ideals import Ideal


def _ex45(n, d, a):
    return extremal_curve_ideal(n, d, (3 - n - a) if d == 2 else max_genus(n, d) - a)


# (label, ideal, seed, checks the verdict runs, verdict, JSON digest, text digest)
ALL = ("gin", "sections", "betti", "planar")
CASES = [
    ("ex45-n3d5a1", lambda: _ex45(3, 5, 1), 3, ALL, "extremal",
     "31f3fd27317b6180ef463c02ed09b3fdec92cb5bdeb6f1e4f1316b0453beb335",
     "c7644d76a18eb3387922876e13604b6287761dc4c164ebbd23712756662a3665"),
    ("ex45-n3d6a0", lambda: _ex45(3, 6, 0), 11, ALL, "extremal",
     "e7d712df209dcc0475d823fdfb0ff1259c1bd689e45bcd37c4579e8fa325763c",
     "6264155e86ffc305200e164f66f50edd6678f97d89fb210e68e8a4265d5c0bca"),
    ("ex45-n3d2a1", lambda: _ex45(3, 2, 1), 5, (), "extremal",
     "621252d8648f02848c1b23ad674563ebf301a8dbf934978ad606f2a4295640d3",
     "c8071678cf0435a4751e7769baf12cf6da7fae985eb6ebe7ee6bdb18263ef945"),
    ("ex45-n4d4a1", lambda: _ex45(4, 4, 1), 7, ALL, "extremal",
     "49c45817c2a2dcb35a26200a0ce1857f870fec94ef03c72bbcc012b03f1c14a2",
     "3b2cfc2b6d84da4ff001ecc06636eaf11174863bf3d5f62b9dbbb82e92eaf9ee"),
    ("ex45-n4d3a1", lambda: _ex45(4, 3, 1), 2, ("gin", "sections"), "extremal",
     "1c5a7e05edaf3dcd8f7c5a65a0f9250c5e095ba5eb5a59b58894011936eccc16",
     "a5639191a00315863e72d9fdf0ef0b7fbe1936e58241c87231a9556750702a49"),
    ("ex46-n4d4a1", lambda: non_extremal_witness(4, 1, 4).ideal, 13, ALL, "not_extremal",
     "bd2a7ca0163bcf04d099a363159bc5c3e63d2cfd24dffdfdc556fd0cdb63a6fa",
     "2d6a1dad4910e82f5b2bf9693aebf3c601c33c96ebad590e9ad5c0925f720584"),
    ("ex45-n3d8a15", lambda: _ex45(3, 8, 15), 1, ALL, "extremal",
     "f8be10f47abea91a2b7cee74ada2946b67f3211f5e856daf20780e7b7211db9a",
     "eae37fa19981908353e78b6e67902d343cfc356eb70d9b513081422c4948d258"),
    ("ex45-n3d9a21", lambda: _ex45(3, 9, 21), 1, ALL, "extremal",
     "7594c5be3b83c7366d925651a80e70582651abf082f8eb03199cb8dd65eae667",
     "893c9761e998e79618f91da431a21fd70fa37d0ddac0d8c1b064265af0e9ab4b"),
    ("ex45-n4d8a14", lambda: _ex45(4, 8, 14), 1, ALL, "extremal",
     "47df5dfd7fe9b1de52f4671154297c4b6066621c2038072b95fcccd03c55bc4e",
     "ce39ba3c7c5e96bdc231df16b0b4657510a4548f4a50cd805191cfab7fcac408"),
]


@pytest.mark.parametrize("label,make,seed,checks,verdict,digest,text_digest", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_are_pinned(label, make, seed, checks, verdict, digest, text_digest):
    I = make()
    report = verify_extremal(Ideal(I.ring, list(I.gens)), seed=seed)
    doc = report.document
    ran = (
        doc["gin"]["checked"],
        bool(doc["hyperplane_section"]["values"]),
        doc["betti"]["checked"],
        doc["planar_subcurve"]["checked"],
    )
    assert tuple(name for name, flag in zip(ALL, ran) if flag) == checks
    assert report.verdict == verdict
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == text_digest
