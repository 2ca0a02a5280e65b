"""Acceptance suite: every stated criterion at its stated (zero) tolerance,
one test and one printed pass/fail line per criterion.

The desk-scale grid is {3 <= n <= 5, 3 <= d <= 6, 0 <= a <= 3} plus the
degree-2 catalog points with 1 <= a <= 3.  All heavy per-point analyses are
computed once, in parallel, by the session fixture.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time

import pytest

from extremalcurves.cohomology import CurveAnalysis, constructed_curve_probe, verify_extremal
from extremalcurves.construct import (
    construct_curve,
    cubic_alternate_curve_ideal,
    extremal_curve_ideal,
    non_extremal_witness,
    random_construction_input,
)
from extremalcurves.formulas import (
    CurveSpec,
    default_window,
    h1_bound,
    max_genus,
    rao_structure_excluded,
)
from extremalcurves.gin import gin
from extremalcurves.monomials import (
    MonomialIdeal,
    ek_betti,
    is_strongly_stable,
)
from extremalcurves.oracle import oracle_quotient_dims
from reference import borel_closure, hochster_betti_oracle

GRID = [
    (n, d, a)
    for n in range(3, 6)
    for d in range(3, 7)
    for a in range(0, 4)
]
GRID_D2 = [(n, 2, a) for n in range(3, 6) for a in range(1, 4)]
RANDOM_PER_POINT = 25
BASE_SEED = 20260809
JOBS = max(1, min(8, os.cpu_count() or 1))


def _mix(*parts) -> int:
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h ^= (p + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)) & 0xFFFFFFFFFFFFFFFF
    return h & 0x7FFFFFFFFFFFFFFF


def _genus_of(n, d, a):
    if d == 2:
        return 3 - n - a
    return max_genus(n, d) - a


def catalog_point_task(point):
    n, d, a = point
    seed = _mix(BASE_SEED, n, d, a)
    g = _genus_of(n, d, a)
    t0 = time.time()
    ideal = extremal_curve_ideal(n, d, g)
    from extremalcurves.cohomology import detect_hilbert_polynomial, hilbert_table

    ht = hilbert_table(ideal, default_window(n, d, g), *detect_hilbert_polynomial(ideal.initial_ideal()))
    hf_seconds = time.time() - t0
    report = verify_extremal(ideal, seed=seed).document
    top = report["hilbert"]["window"][1]
    oracle = oracle_quotient_dims(list(ideal.gens), top, ideal.ring)
    groebner = [ideal.initial_ideal().quotient_dim(j) for j in range(top + 1)]
    return {
        "point": point,
        "hf_seconds": hf_seconds,
        "detected": (ht.degree, ht.genus),
        "report": report,
        "oracle_agrees": oracle == groebner,
    }


def random_batch_task(point):
    n, d, a = point
    rng = random.Random(_mix(BASE_SEED, 7, n, d, a))
    out = []
    for k in range(RANDOM_PER_POINT):
        inp = random_construction_input(n, d, a, rng)
        ideal = construct_curve(inp)
        probe = constructed_curve_probe(ideal)
        lo, hi = probe["window"]
        bound_ok = all(x <= y for x, y in zip(probe["h1"], probe["h1_bound"]))
        low_eq = all(
            x == y
            for j, (x, y) in enumerate(zip(probe["h1"], probe["h1_bound"]), start=lo)
            if j <= 1
        )
        oracle = oracle_quotient_dims(list(ideal.gens), hi, ideal.ring)
        groebner = [ideal.initial_ideal().quotient_dim(j) for j in range(hi + 1)]
        out.append(
            {
                "bound_ok": bound_ok,
                "low_degrees_sharp": low_eq,
                "nondegenerate": probe["nondegenerate"],
                "oracle_agrees": oracle == groebner,
                "detected": (probe["d"], probe["g"]),
                "expected": (d, _genus_of(n, d, a)),
            }
        )
    return {"point": point, "curves": out}


def witness_task(a):
    n, d = 4, 4
    w = non_extremal_witness(n, a, d)
    c = CurveAnalysis(w.ideal, seed=_mix(BASE_SEED, 11, a))
    top = c.window[1]
    oracle = oracle_quotient_dims(list(w.ideal.gens), top, w.ideal.ring)
    groebner = [w.ideal.initial_ideal().quotient_dim(j) for j in range(top + 1)]
    return {
        "a": a,
        "extremal": c.extremal,
        "window": c.window,
        "h1": c.h1,
        "h1_bound": list(c.profile.h1),
        "oracle_agrees": oracle == groebner,
    }


def alternate_task(a):
    n = 5
    ideal = cubic_alternate_curve_ideal(n, a)
    report = verify_extremal(ideal, seed=_mix(BASE_SEED, 13, a)).document
    top = report["hilbert"]["window"][1]
    oracle = oracle_quotient_dims(list(ideal.gens), top, ideal.ring)
    groebner = [ideal.initial_ideal().quotient_dim(j) for j in range(top + 1)]
    return {"a": a, "report": report, "oracle_agrees": oracle == groebner}


def stable_batch_task(chunk):
    """ek == hochster on random strongly stable ideals (<= 5 vars, deg <= 6)."""
    start, count = chunk
    rng = random.Random(_mix(BASE_SEED, 17, start))
    results = []
    done = 0
    while done < count:
        nv = rng.randrange(2, 6)
        seeds = []
        for _ in range(rng.randrange(1, 3)):
            deg = rng.randrange(1, 7)
            m = [0] * nv
            for _ in range(deg):
                m[rng.randrange(nv)] += 1
            seeds.append(tuple(m))
        ideal = borel_closure(nv, seeds)
        if not is_strongly_stable(ideal):
            continue
        results.append(ek_betti(ideal) == hochster_betti_oracle(ideal))
        done += 1
    return results


_CACHE = {}


def _compute_all():
    if _CACHE:
        return _CACHE
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(JOBS) as pool:
        catalog = pool.map(catalog_point_task, GRID + GRID_D2, chunksize=1)
        randoms = pool.map(random_batch_task, GRID, chunksize=1)
        witnesses = pool.map(witness_task, [1, 2], chunksize=1)
        alternates = pool.map(alternate_task, [1, 2, 3], chunksize=1)
        chunks = [(k, 10) for k in range(10)]
        stable = [ok for batch in pool.map(stable_batch_task, chunks) for ok in batch]
    _CACHE.update(
        catalog={r["point"]: r for r in catalog},
        randoms={r["point"]: r for r in randoms},
        witnesses={r["a"]: r for r in witnesses},
        alternates={r["a"]: r for r in alternates},
        stable=stable,
    )
    return _CACHE


@pytest.fixture(scope="session")
def data():
    return _compute_all()


def _line(num, name, ok):
    print(f"CRITERION {num:>2} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_degree_and_genus(data):
    ok = True
    for point, r in data["catalog"].items():
        n, d, a = point
        expected = (d, _genus_of(n, d, a))
        if r["detected"] != expected:
            ok = False
        if r["hf_seconds"] >= 60.0:
            ok = False
    _line(1, "catalog degree/genus, under 60 s per point", ok)


def test_criterion_02_extremality(data):
    ok = all(
        r["report"]["verdict"] == "extremal" and all(r["report"]["h1"]["matches"])
        for r in data["catalog"].values()
    )
    _line(2, "h1 equals the bound on the whole window", ok)


def test_criterion_03_bound_direction(data):
    ok = True
    for point, batch in data["randoms"].items():
        assert len(batch["curves"]) == RANDOM_PER_POINT
        for rec in batch["curves"]:
            if not (rec["bound_ok"] and rec["nondegenerate"]):
                ok = False
            if not rec["low_degrees_sharp"]:
                ok = False  # constructed curves are sharp for j <= 1
            if rec["detected"] != rec["expected"]:
                ok = False
    _line(3, "h1 <= bound for 25 random constructions per point", ok)


def test_criterion_04_second_cohomology(data):
    ok = True
    for point, r in data["catalog"].items():
        n, d, a = point
        if d < 3:
            continue
        if r["report"]["h2"]["match"] is not True:
            ok = False
    _line(4, "h2 equals its bound on the window (d >= 3)", ok)


def test_criterion_05_gin(data):
    ok = True
    for point, r in data["catalog"].items():
        n, d, a = point
        if d < 3:
            continue
        match = r["report"]["gin"]["match"]
        if d >= 4 or (d == 3 and (a == 0 or n == 3)):
            if match != "primary":
                ok = False
        else:  # d = 3, a >= 1, n >= 4: membership in the two-ideal set
            if match not in ("primary", "alternate"):
                ok = False
    for a, r in data["alternates"].items():
        if r["report"]["gin"]["match"] != "alternate":
            ok = False
    _line(5, "gin matches the displayed ideal(s)", ok)


def test_criterion_06_betti_tables(data):
    ok = True
    for point, r in data["catalog"].items():
        n, d, a = point
        if not (d >= 5 or (d == 4 and a >= 1)):
            continue
        betti = r["report"]["betti"]
        if not (betti["checked"] and betti["match_expected"] and betti["match_gin"]):
            ok = False
    _line(6, "Betti tables match the closed form and the gin", ok)


def test_criterion_07_rao_module(data):
    ok = True
    for point, r in data["catalog"].items():
        n, d, a = point
        rao = r["report"]["rao"]
        if d < 3:
            if not rao["cyclic"]:
                ok = False
            continue
        expected_count = 0 if (n == 3 and a == 0) else 1
        if rao["generator_count"] != expected_count:
            ok = False
        if rao_structure_excluded(CurveSpec(n, d, _genus_of(n, d, a))):
            continue  # structure statement does not apply at this corner
        if rao["match"] is not True:
            ok = False
        if rao["annihilator_match"] is not True:
            ok = False
    _line(7, "Rao dimensions, cyclicity, annihilator degrees", ok)


def test_criterion_08_non_extremal_witness(data):
    ok = True
    for a, r in data["witnesses"].items():
        lo = r["window"][0]
        for j, (got, bound) in enumerate(zip(r["h1"], r["h1_bound"]), start=lo):
            if j <= 1 and got != bound:
                ok = False
        idx2 = 2 - lo
        if not r["h1"][idx2] < r["h1_bound"][idx2]:
            ok = False
        if r["extremal"]:
            ok = False
    _line(8, "witness matches the bound up to j=1 and drops at j=2", ok)


def test_criterion_09_planar_subcurve(data):
    ok = True
    for point, r in data["catalog"].items():
        n, d, a = point
        if not (d >= 5 or (d == 4 and a >= 1)):
            continue
        if r["report"]["planar_subcurve"]["verdict"] is not True:
            ok = False
    _line(9, "planar subcurve of degree d-1 in the coordinate plane", ok)


def test_criterion_10_oracle_equivalence(data):
    ok = len(data["stable"]) == 100 and all(data["stable"])
    for r in data["catalog"].values():
        if not r["oracle_agrees"]:
            ok = False
    for batch in data["randoms"].values():
        for rec in batch["curves"]:
            if not rec["oracle_agrees"]:
                ok = False
    for r in list(data["witnesses"].values()) + list(data["alternates"].values()):
        if not r["oracle_agrees"]:
            ok = False
    # the equal-Hilbert-function pair with different Betti tables
    a_ideal = MonomialIdeal(2, [(4, 0), (3, 1), (2, 2), (0, 5)])
    b_ideal = MonomialIdeal(2, [(4, 0), (3, 1), (2, 2), (1, 4), (0, 6)])
    if a_ideal.hilbert_numerator() != b_ideal.hilbert_numerator():
        ok = False
    if hochster_betti_oracle(a_ideal) == hochster_betti_oracle(b_ideal):
        ok = False
    _line(10, "independent oracles agree; ambiguity pair splits", ok)


def test_criterion_11_hyperplane_section(data):
    ok = True
    for point, r in data["catalog"].items():
        n, d, a = point
        if d < 3:
            continue
        section = r["report"]["hyperplane_section"]
        if section["match"] is not True:
            ok = False
        if section["values"] != [min(j + 2, d) for j in range(1, d + 2)]:
            ok = False
    _line(11, "general hyperplane section has the stated Hilbert values", ok)
