"""Command-line surface: bound tables, catalog construction, analysis and
verification of ideal files, the Gröbner-free Hilbert oracle, and the
parallel parameter sweep.

Exit codes: 0 extremal / 1 not extremal / 2 usage or file error /
3 internal invariant violation or any other unexpected failure.

`run` is the process entry (the console script and `python -m`); `main`
is the in-process one.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys

from .cohomology import (
    CurveAnalysis,
    InternalCheckError,
    verify_extremal,
)
from .construct import (
    ConstructionError,
    cubic_alternate_curve_ideal,
    extremal_curve_ideal,
    non_extremal_witness,
)
from .formulas import bound_profile, max_genus
from .idealfile import emit_ideal, parse_ideal
from .oracle import oracle_quotient_dims
from .report import SCHEMA_VERSION


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="extremalcurves",
        description="construct and verify non-degenerate curves with maximal cohomology",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="print the cohomology bound tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--jmin", type=int, default=None)
    p.add_argument("--jmax", type=int, default=None)

    p = sub.add_parser("construct", help="write a catalog curve to an ideal file")
    p.add_argument("--catalog", choices=["ex45", "ex46", "rem64"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("analyze", help="full report for an ideal file")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("verify", help="exit 0 exactly when the curve is extremal")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "oracle-hf", help="Hilbert values by pure linear algebra (no Gröbner engine)"
    )
    p.add_argument("file")
    p.add_argument("--max-deg", type=_at_least(0), required=True)

    p = sub.add_parser("sweep", help="run the verification grid")
    p.add_argument("--n", type=_span(3, "ambient dimension below 3"), required=True, help="range A:B inclusive, A >= 3")
    p.add_argument("--d", type=_span(2, "degree below 2"), required=True, help="range A:B inclusive, A >= 2")
    p.add_argument("--a", type=_span(0, "negative genus deficit"), required=True, help="range A:B inclusive, A >= 0")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _span(low, below):
    """An argparse type: a nonempty range A:B of integers with A >= low;
    below names what an A under low would ask for."""

    def parse(text):
        try:
            lo, hi = map(int, text.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}") from None
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty range {text!r}: A exceeds B")
        if lo < low:
            raise argparse.ArgumentTypeError(f"{below} in {text!r}: A must be >= {low}")
        return lo, hi

    return parse


def _at_least(low):
    """An argparse type: an integer no smaller than low."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    return parse


def _cmd_bounds(args):
    g_top = max_genus(args.n, args.d)
    if args.g > g_top:
        raise ValueError(f"genus {args.g} exceeds the bound {g_top} for (n, d) = ({args.n}, {args.d})")
    prof = bound_profile(args.n, args.d, args.g, jmin=args.jmin, jmax=args.jmax)
    lo, hi = prof.window
    if lo > hi:
        raise ValueError(f"empty window: jmin {lo} exceeds jmax {hi}")
    print(f"g_max(n={args.n}, d={args.d}) = {g_top}   a = {g_top - args.g}")
    print(f"{'j':>5} {'h1_bound':>9} {'h2_bound':>9}")
    for j in range(lo, hi + 1):
        mu = prof.h2_at(j)
        print(f"{j:>5} {prof.h1_at(j):>9} {mu if mu is not None else '-':>9}")
    return 0


def _cmd_construct(args):
    a = max_genus(args.n, args.d) - args.g
    if args.catalog == "ex45":
        ideal = extremal_curve_ideal(args.n, args.d, args.g)
    elif args.catalog == "ex46":
        ideal = non_extremal_witness(args.n, a, args.d).ideal
    else:
        if args.d != 3:
            raise ConstructionError("the alternate catalog has degree 3")
        ideal = cubic_alternate_curve_ideal(args.n, a)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(emit_ideal(ideal))
    print(f"wrote {len(ideal.gens)} generators to {args.output}")
    return 0


def _cmd_analyze(args):
    ideal = parse_ideal(args.file)
    report = verify_extremal(ideal, seed=args.seed)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return 0


def _cmd_verify(args):
    ideal = parse_ideal(args.file)
    return 0 if CurveAnalysis(ideal, args.seed).extremal else 1


def _cmd_oracle_hf(args):
    ideal = parse_ideal(args.file)
    dims = oracle_quotient_dims(list(ideal.gens), args.max_deg, ideal.ring)
    for j, v in enumerate(dims):
        print(f"{j} {v}")
    return 0


def sweep_point(task):
    """One grid point of the sweep; returns a plain dict for merging."""
    n, d, a, seed = task
    try:
        ideal = extremal_curve_ideal(n, d, max_genus(n, d) - a)
        report = verify_extremal(ideal, seed=seed)
    except InternalCheckError as e:
        return {"point": {"n": n, "d": d, "a": a}, "internal_error": str(e)}
    except Exception as e:  # recorded under its point; the grid goes on
        return {"point": {"n": n, "d": d, "a": a}, "error": f"{type(e).__name__}: {e}"}
    return {"point": {"n": n, "d": d, "a": a}, "report": report.document}


def _cmd_sweep(args):
    # the same error the final write would raise (a missing directory, or a
    # directory as the output), before the grid runs; an existing output
    # file is left as it is until the grid is done
    if not os.path.isdir(os.path.dirname(args.output) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.output)
    if os.path.isdir(args.output):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.output)
    (n_lo, n_hi), (d_lo, d_hi), (a_lo, a_hi) = args.n, args.d, args.a
    tasks = []
    for n in range(n_lo, n_hi + 1):
        for d in range(d_lo, d_hi + 1):
            for a in range(a_lo, a_hi + 1):
                tasks.append((n, d, a, args.seed))
    workers = min(args.jobs, len(tasks))  # no idle worker processes
    if workers > 1:
        import multiprocessing  # only the parallel sweep needs it; keeps CLI start-up light

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(sweep_point, tasks, chunksize=1)
    else:
        results = [sweep_point(t) for t in tasks]
    doc = {
        "schema": SCHEMA_VERSION,
        "seed": args.seed,
        "grid": {
            "n": [n_lo, n_hi],
            "d": [d_lo, d_hi],
            "a": [a_lo, a_hi],
        },
        "reports": results,
    }
    import json  # only a written sweep needs it; keeps CLI start-up light

    payload = json.dumps(doc, indent=2) + "\n"
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(payload)
    verdicts = [
        r.get("report", {}).get("verdict") for r in results if "report" in r
    ]
    failed = sum(1 for r in results if "internal_error" in r or "error" in r)
    print(
        f"{len(results)} grid points, {verdicts.count('extremal')} extremal, {failed} failed"
    )
    return 3 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    handlers = {
        "bounds": _cmd_bounds,
        "construct": _cmd_construct,
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
        "oracle-hf": _cmd_oracle_hf,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except AssertionError as e:  # InternalCheckError and the engines' own checks
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:  # the input errors are all ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # never Python's status 1, which means "not extremal"
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def run(argv=None):
    """The process entry: freeze the loaded heap, then exit with `main`'s
    code.  The collections during the command and at exit skip frozen
    objects, and normal shutdown still flushes the streams.  `main` never
    freezes, so in-process callers keep a heap the collector can reclaim."""
    gc.freeze()
    sys.exit(main(argv))


if __name__ == "__main__":
    run()
