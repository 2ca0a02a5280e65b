"""Report bytes pinned by SHA-256: a speed-up must leave every report of
`verify_extremal` byte-identical.  The points are cheap and between them
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


# (label, ideal, seed, checks the verdict runs, verdict, report digest)
ALL = ("gin", "sections", "betti", "planar")
CASES = [
    ("ex45-n3d5a1", lambda: _ex45(3, 5, 1), 3, ALL, "extremal",
     "03ee96c63f4134b912cf32f2a12a8aa210c249908a2044f9334f992b2d72092f"),
    ("ex45-n3d6a0", lambda: _ex45(3, 6, 0), 11, ALL, "extremal",
     "90d74503a39b2d014a66586af767145b2c88a67d74072f148faca4089c32407f"),
    ("ex45-n3d2a1", lambda: _ex45(3, 2, 1), 5, (), "extremal",
     "621252d8648f02848c1b23ad674563ebf301a8dbf934978ad606f2a4295640d3"),
    ("ex45-n4d4a1", lambda: _ex45(4, 4, 1), 7, ALL, "extremal",
     "3aedd16c4a038bf7c0f9ace13542ce23a13bd3b8aa8a0d8047c05fc48386aa73"),
    ("ex45-n4d3a1", lambda: _ex45(4, 3, 1), 2, ("gin", "sections"), "extremal",
     "2e4c14531c86609e16adbdd3fb53fb5162b2d201852c21098085f95ad57364ba"),
    ("ex46-n4d4a1", lambda: non_extremal_witness(4, 1, 4).ideal, 13, ALL, "not_extremal",
     "de46e58e20c8f5eb6dd51513071b05b404bc24ad5ead1d496d2c87624e85b0cd"),
]


@pytest.mark.parametrize("label,make,seed,checks,verdict,digest", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_are_pinned(label, make, seed, checks, verdict, digest):
    I = make()
    report = verify_extremal(Ideal(I.ring, list(I.gens)), seed=seed)
    ran = (report.gin_checked, bool(report.section_values), report.betti_checked, report.planar_checked)
    assert tuple(name for name, flag in zip(ALL, ran) if flag) == checks
    assert report.verdict == verdict
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
