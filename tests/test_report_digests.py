"""Report bytes pinned by SHA-256, of the JSON and of the text form: a
speed-up must leave every report of `verify_extremal` byte-identical.  The points are cheap and between them
run every check of a verdict: gin, hyperplane sections, Betti tables, the
planar check, an ex46 witness and degree 2, in P^3 and P^4.

A change that alters a report on purpose (a new field, a new draw) must
say so and record the new digests here."""

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
     "03ee96c63f4134b912cf32f2a12a8aa210c249908a2044f9334f992b2d72092f",
     "c7644d76a18eb3387922876e13604b6287761dc4c164ebbd23712756662a3665"),
    ("ex45-n3d6a0", lambda: _ex45(3, 6, 0), 11, ALL, "extremal",
     "90d74503a39b2d014a66586af767145b2c88a67d74072f148faca4089c32407f",
     "6264155e86ffc305200e164f66f50edd6678f97d89fb210e68e8a4265d5c0bca"),
    ("ex45-n3d2a1", lambda: _ex45(3, 2, 1), 5, (), "extremal",
     "621252d8648f02848c1b23ad674563ebf301a8dbf934978ad606f2a4295640d3",
     "c8071678cf0435a4751e7769baf12cf6da7fae985eb6ebe7ee6bdb18263ef945"),
    ("ex45-n4d4a1", lambda: _ex45(4, 4, 1), 7, ALL, "extremal",
     "3aedd16c4a038bf7c0f9ace13542ce23a13bd3b8aa8a0d8047c05fc48386aa73",
     "3b2cfc2b6d84da4ff001ecc06636eaf11174863bf3d5f62b9dbbb82e92eaf9ee"),
    ("ex45-n4d3a1", lambda: _ex45(4, 3, 1), 2, ("gin", "sections"), "extremal",
     "2e4c14531c86609e16adbdd3fb53fb5162b2d201852c21098085f95ad57364ba",
     "a5639191a00315863e72d9fdf0ef0b7fbe1936e58241c87231a9556750702a49"),
    ("ex46-n4d4a1", lambda: non_extremal_witness(4, 1, 4).ideal, 13, ALL, "not_extremal",
     "de46e58e20c8f5eb6dd51513071b05b404bc24ad5ead1d496d2c87624e85b0cd",
     "2d6a1dad4910e82f5b2bf9693aebf3c601c33c96ebad590e9ad5c0925f720584"),
]


@pytest.mark.parametrize("label,make,seed,checks,verdict,digest,text_digest", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_are_pinned(label, make, seed, checks, verdict, digest, text_digest):
    I = make()
    report = verify_extremal(Ideal(I.ring, list(I.gens)), seed=seed)
    ran = (report.gin_checked, bool(report.section_values), report.betti_checked, report.planar_checked)
    assert tuple(name for name, flag in zip(ALL, ran) if flag) == checks
    assert report.verdict == verdict
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == text_digest
