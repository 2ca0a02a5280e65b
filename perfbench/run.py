"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload catalog_analyze --seed 1 --seconds 20 --trace 0

With --trace 0 the end-to-end metrics are measured with nothing installed;
with --trace 1 the same items run under outside-in spans (see spans.py) and
the per-layer metrics are printed instead.  Every output is checked.  The
last line of standard output is the result; a fuller record (per-item
times, report digests, problems) goes to perfbench/out/.

A run makes whole rounds of the workload's fixed item list, as many as
`--seconds` holds at the workload's nominal round time (at least
MIN_ROUNDS), and reports each item's median over its rounds.  Items and set-ups are timed in CPU seconds
of this process and of the children it waited for, scaled by the speed
probes of `calibrate.py` taken right before and after each: on a shared
virtual machine the hypervisor takes the guest CPU away for part of the
wall time, and the same work's CPU time drifts by a third within seconds
(see README).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PACKAGE = "extremalcurves"
MIN_ROUNDS = 3
# set-up is sub-second: it is repeated at the start of every round and the
# median of all repeats is reported
SETUP_PER_ROUND = 4


def load_package():
    """Import the package afresh and return {submodule name: module}."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    prefix = PACKAGE + "."
    return {n[len(prefix):]: m for n, m in sys.modules.items() if n.startswith(prefix)}


def build(cls, seed, times):
    """Import the package and make the workload's inputs; appends the
    reference seconds this took to `times`."""
    gc.collect()
    workload, _, ref_s = calibrate.measure(
        lambda: cls(load_package(), seed, os.path.join(OUT, "files", cls.name)))
    times.append(ref_s)
    return workload


def tail_percentile(count):
    """Highest whole percentile with at least ten items beyond it."""
    return max(p for p in range(1, 100) if count - math.ceil(p * count / 100) >= 10)


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def attempt(workload, item, span):
    """The timed call of one item, inside `span`: (output, None) or
    (None, exception)."""
    try:
        with span:
            return workload.run(item), None
    except Exception as exc:  # recorded as a failed item; the run goes on
        return None, exc


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the speed
    probes gauge the CPU the item runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity here: probe wherever we run
        pass


def run(cls, seed, seconds, traced):
    """Untraced: `seconds / cls.ROUND_S` whole rounds, at least MIN_ROUNDS,
    so that the count does not depend on how fast the machine runs; traced:
    MIN_ROUNDS, with a single set-up."""
    pin_to_one_cpu()
    setup_times = []
    workload = build(cls, seed, setup_times)
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    in_process = traced and hasattr(workload, "run_in_process")
    items = workload.items
    times = [[] for _ in items]  # reference seconds, one per round
    raw = [[] for _ in items]  # CPU seconds as measured
    outcomes, problems, startup = [], [], 0.0
    began = perf_counter()
    total = MIN_ROUNDS if traced else max(MIN_ROUNDS, int(seconds // cls.ROUND_S))
    for rnd in range(total):
        if tracer is None:
            for _ in range(SETUP_PER_ROUND - (rnd == 0)):
                build(cls, seed, setup_times)
        for idx, item in enumerate(items):
            gc.collect()
            span = (tracer.span("item", f"{rnd}:{idx}") if traced and not in_process
                    else contextlib.nullcontext())
            (output, exc), took, ref_s = calibrate.measure(attempt, workload, item, span)
            times[idx].append(ref_s)
            raw[idx].append(took)
            if exc is not None:
                outcomes.append(True)
                problems.append(f"{item['label']}: {type(exc).__name__}: {exc}")
                continue
            if in_process:  # the same call inside this process, under spans
                with tracer.span("item", f"{rnd}:{idx}"):
                    main_s = workload.run_in_process(item)
                startup += took - main_s
            if tracer is not None:
                tracer.paused = True
            failed, found = workload.check(item, output)
            if tracer is not None:
                tracer.paused = False
            outcomes.append(failed)
            problems += [f"{item['label']}: {p}" for p in found]
    return dict(workload=workload, setup_times=setup_times, times=times, raw=raw,
                outcomes=outcomes, problems=problems, rounds=total,
                tracer=tracer, startup=startup, wall_s=perf_counter() - began)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)

    res = run(cls, args.seed, args.seconds, args.trace)
    outcomes, problems = res["outcomes"], res["problems"]
    per_item = [statistics.median(t) for t in res["times"]]
    items = res["workload"].items
    tail_pct = tail_percentile(len(items))
    tracer = res["tracer"]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(res["setup_times"]), "s"),
            "items_per_s": (len(items) / sum(per_item), "1/s"),
            "item_p50_s": (statistics.median(per_item), "s"),
            "item_tail_s": (nearest_rank(per_item, tail_pct), "s"),
            "peak_rss_mb": (peak_rss_mb(cls is WORKLOADS["cli_verify"]), "MB"),
        }
    else:
        from spans import LAYER_NAMES

        totals = tracer.layer_totals()
        metrics = {}
        for name in LAYER_NAMES:
            self_s, calls = totals.get(name, (0.0, 0))
            metrics[f"{name}.self_s"] = (self_s, "s")
            metrics[f"{name}.calls"] = (calls, "count")
        metrics["cli.startup_s"] = (res["startup"], "s")
        metrics["trace.wall_s"] = (
            sum(e - s for n, s, e, _, _ in tracer.spans if n == "item"), "s")
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": res["rounds"],
        "wall_s": res["wall_s"],
        "items_per_round": len(items),
        "tail_percentile": tail_pct,
        "setup_times_s": res["setup_times"],
        "attempted": len(outcomes),
        "failed": sum(outcomes),
        "problems": problems,
        "item_s": {item["label"]: t for item, t in zip(items, res["times"])},
        "item_cpu_s": {item["label"]: t for item, t in zip(items, res["raw"])},
        "report_sha256": getattr(res["workload"], "digests", None),
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
