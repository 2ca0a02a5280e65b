"""The benchmark's three workloads: set-up, one timed item, and its check.

Each workload builds its inputs from the seed at set-up, runs whole rounds
of a fixed item list, and checks every output against a computation made
apart from the package (`hilbert_check`) or a property the method must
have.  Package code is reached through module attributes at call time, so
the tracer's rebinding covers every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from math import comb
from time import process_time

import hilbert_check


def _mix(*parts) -> int:
    return int.from_bytes(
        hashlib.sha256(":".join(map(str, parts)).encode()).digest()[:8], "big"
    ) >> 1


def _plain_gens(gens):
    return [dict(p.terms) for p in gens]


def _genus(n, d, a):
    return (3 - n - a) if d == 2 else comb(d - 2, 2) - (n - 3) - a


class CatalogAnalyze:
    """Full verdicts (`verify_extremal` with every check, then `to_json`, as
    `analyze` runs them) on a fixed subset of the catalog."""

    name = "catalog_analyze"
    ROUND_S = 7.0  # nominal wall seconds of one round
    # A fixed subset, cheap enough for many rounds per run: a full serial
    # pass of the 63 catalog points takes about 70 s.  Each n=3 point runs
    # with two verdict seeds (different gin and hyperplane draws).
    POINTS = (
        [("ex45", 3, d, a, k) for d in range(3, 7) for a in range(4) for k in range(2)]
        + [("ex45", 3, 2, a, 0) for a in range(1, 4)]
        + [("ex45", 4, 3, 0, 0), ("ex45", 4, 3, 1, 0), ("ex45", 4, 4, 1, 0)]
        + [("ex46", 4, 4, 1, 0), ("ex46", 4, 4, 2, 0)]
    )

    def __init__(self, pkg, seed, workdir):
        construct = pkg["construct"]
        self.pkg = pkg
        self.items = []
        for kind, n, d, a, k in self.POINTS:
            g = _genus(n, d, a)
            if kind == "ex45":
                ideal = construct.extremal_curve_ideal(n, d, g)
            elif kind == "ex46":
                ideal = construct.non_extremal_witness(n, a, d).ideal
            else:
                ideal = construct.cubic_alternate_curve_ideal(n, a)
            label = f"{kind}/n{n}d{d}a{a}#{k}"
            self.items.append(
                dict(label=label, kind=kind, n=n, d=d, g=g, ring=ideal.ring,
                     gens=list(ideal.gens), seed=_mix(seed, label))
            )
        self.digests = {}
        self._hilbert = {}

    def run(self, item):
        ideal = self.pkg["ideals"].Ideal(item["ring"], item["gens"])
        report = self.pkg["cohomology"].verify_extremal(ideal, seed=item["seed"])
        return report.to_json()

    def check(self, item, text):
        problems = []
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.digests.setdefault(item["label"], digest)
        if first != digest:
            problems.append("report bytes differ between repeats")
        rep = json.loads(text)
        n, d, g = item["n"], item["d"], item["g"]
        if (rep["spec"]["d"], rep["spec"]["g"]) != (d, g):
            problems.append(f"detected (d, g) {rep['spec']['d'], rep['spec']['g']}")
        lo, hi = rep["hilbert"]["window"]
        dims = rep["hilbert"]["dims"]
        h1, h2 = rep["h1"]["computed"], rep["h2"]["computed"]
        for k, j in enumerate(range(lo, hi + 1)):
            if dims[k] - (d * j - g + 1) != h2[k] - h1[k]:
                problems.append(f"Riemann-Roch fails at degree {j}")
        key = item["label"]
        if key not in self._hilbert:
            self._hilbert[key] = hilbert_check.quotient_dims(
                _plain_gens(item["gens"]), n + 1, range(lo, hi + 1))
        if dims != self._hilbert[key]:
            problems.append("Hilbert dims differ from the independent check")
        if any(x > y for x, y in zip(h1, rep["h1"]["expected"])):
            problems.append("h1 exceeds the bound")
        if item["kind"] == "ex46":
            if rep["verdict"] != "not_extremal" or rep["h1"]["first_h1_failure"] != 2:
                problems.append("witness not reported as failing at twist 2")
        else:
            if rep["verdict"] != "extremal":
                problems.append("extremal curve not reported extremal")
            checks = {
                "h2": rep["h2"]["match"] in (None, True),
                "gin": rep["gin"]["match"] in (None, "primary", "alternate"),
                "betti": rep["betti"]["match_expected"] in (None, True),
                "section": rep["hyperplane_section"]["match"] in (None, True),
                "rao": rep["rao"]["match"] in (None, True),
                "annihilator": rep["rao"]["annihilator_match"] in (None, True),
                "planar": rep["planar_subcurve"]["verdict"] in (None, True),
            }
            problems += [f"{k} check failed" for k, ok in checks.items() if not ok]
        return False, problems


class RandomProbe:
    """Seeded random constructions: `construct_curve`, then
    `constructed_curve_probe`, on draws made at set-up."""

    name = "random_probe"
    ROUND_S = 12.0
    # draws per point, by n: the cheap n = 3 and n = 4 points get more, so
    # that the median item does not hinge on a few draws
    DRAWS = {3: 3, 4: 3, 5: 2}
    POINTS = [(n, d, a) for n in (3, 4, 5) for d in range(3, 7) for a in range(4)]

    def __init__(self, pkg, seed, workdir):
        construct = pkg["construct"]
        self.pkg = pkg
        rng = random.Random(_mix(seed, self.name))
        self.items = []
        for n, d, a in self.POINTS:
            for k in range(self.DRAWS[n]):
                inp = construct.random_construction_input(n, d, a, rng)
                self.items.append(dict(label=f"n{n}d{d}a{a}#{k}", n=n, d=d, a=a, input=inp))
        self._hilbert = {}

    def run(self, item):
        ideal = self.pkg["construct"].construct_curve(item["input"])
        return ideal, self.pkg["cohomology"].constructed_curve_probe(ideal)

    def check(self, item, output):
        ideal, probe = output
        problems = []
        n, d, a = item["n"], item["d"], item["a"]
        g = _genus(n, d, a)
        if (probe["d"], probe["g"]) != (d, g):
            problems.append(f"detected (d, g) {probe['d'], probe['g']}")
        if any(x > y for x, y in zip(probe["h1"], probe["h1_bound"])):
            problems.append("h1 exceeds the bound")
        lo, hi = probe["window"]
        key = item["label"]
        if key not in self._hilbert:
            self._hilbert[key] = hilbert_check.quotient_dims(
                _plain_gens(ideal.gens), n + 1, range(0, hi + 1))
        ref = self._hilbert[key]
        if not probe["nondegenerate"] or ref[1] != n + 1:
            problems.append("curve is degenerate")
        if ref != [ideal.quotient_dim(j) for j in range(0, hi + 1)]:
            problems.append("Hilbert function differs from the independent check")
        return False, problems


class CliVerify:
    """Cold-start `python -m extremalcurves.cli verify FILE` calls, one child
    at a time, on ideal files written at set-up."""

    name = "cli_verify"
    ROUND_S = 10.0
    # the documented code for an exponent beyond the packed limit is 2; the
    # CLI exits 1 after an OverflowError traceback from packing.pack
    KNOWN_FAULT = "exponent_200"

    def __init__(self, pkg, seed, workdir):
        construct, idealfile = pkg["construct"], pkg["idealfile"]
        files = []
        points = [(3, d, a) for d in range(3, 7) for a in range(3)]
        points += [(4, 3, 0), (4, 4, 1), (4, 5, 0), (4, 6, 1)]
        for n, d, a in points:
            ideal = construct.extremal_curve_ideal(n, d, _genus(n, d, a))
            files.append((f"ex45_n{n}d{d}a{a}", idealfile.emit_ideal(ideal), 0))
        for a in (1, 2, 3):
            ideal = construct.non_extremal_witness(4, a, 4).ideal
            files.append((f"ex46_n4d4a{a}", idealfile.emit_ideal(ideal), 1))
        q, zp = "ring n=3 field=q\n", "ring n=3 field=zp:32003\n"
        bad = {
            "malformed": [q + "x0**2 + x1^2", q + "x0 x1", q + "2x0^2", q + "x0^ + x1",
                          q + "(x0 + x1)^2", q + "x0*x1 +", q + "x9^2", "x0^2\nx1^2",
                          "ring n=3 field=r\nx0^2"],
            "non_homogeneous": [q + "x0*x1 + x2", q + "x0^3 + x1*x2", q + "x2^2 + x3"],
            "linear_form": [q + "x0 + x1\nx2^2", q + "x3\nx2^2", q + "x0 - 2*x2\nx1^3"],
            "not_a_curve": [q + "x0^2\nx1^2\nx2^2", q + "x3^2", q + "x2*x3",
                            q + "x0^2\nx1^2\nx2^2\nx3^2"],
            "prime_field": [zp + "x2^2\nx2*x3\nx3^2", zp + "x0*x2\nx2^2",
                            zp + "x2^3\nx3^2\nx2*x3"],
        }
        for kind, texts in bad.items():
            files += [(f"{kind}{k}", text + "\n", 2) for k, text in enumerate(texts)]
        files.append((self.KNOWN_FAULT, q + "x0^200\n", 2))
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(_mix(seed, self.name))
        rng.shuffle(files)
        self.items = []
        for label, text, code in files:
            path = os.path.join(workdir, label + ".ideal")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.items.append(dict(label=label, path=path, expected=code,
                                   seed=str(rng.randrange(1 << 30))))
        self.cli = pkg["cli"]
        src = os.path.dirname(os.path.dirname(pkg["cli"].__file__))
        self.env = dict(os.environ, PYTHONPATH=src)

    def _argv(self, item):
        return ["verify", item["path"], "--seed", item["seed"]]

    def run(self, item):
        return subprocess.run(
            [sys.executable, "-m", "extremalcurves.cli"] + self._argv(item),
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode

    def run_in_process(self, item):
        """CPU seconds spent in `cli.main` in this process, for the traced run."""
        sink = io.StringIO()
        start = process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                self.cli.main(self._argv(item))
        except Exception:  # the known fault escapes main; the child shows it
            pass
        return process_time() - start

    def check(self, item, code):
        if code == item["expected"]:
            return False, []
        if item["label"] == self.KNOWN_FAULT and code == 1:
            return True, []
        return True, [f"exit code {code}, documented {item['expected']}"]


WORKLOADS = {w.name: w for w in (CatalogAnalyze, RandomProbe, CliVerify)}
