"""Gauge how fast the host runs at this moment, apart from the package.

On a shared virtual machine the CPU time of the same Python work drifts by
a third within seconds (neighbours contend for the host's caches and
cores).  `probe_seconds` times a fixed computation of the kind the package
spends its time on: sparse polynomials as dicts from exponent tuples to
`Fraction` coefficients, multiplied and sorted.  It is frozen here, so no
change to the package can speed it up or slow it down.

`measure` probes right before and right after a timed call and reports its
CPU seconds times `REFERENCE_S / mean probe`: CPU seconds at the speed at
which the probe takes `REFERENCE_S`.
"""

from __future__ import annotations

import random
import resource
from fractions import Fraction
from time import process_time

# median probe time on the reference machine (see README), in CPU seconds
REFERENCE_S = 0.0100


def _poly(rng, count):
    return [
        (tuple(rng.randrange(6) for _ in range(4)),
         Fraction(rng.randrange(1, 50), rng.randrange(1, 9)))
        for _ in range(count)
    ]


_RNG = random.Random(5)
_A, _B = _poly(_RNG, 40), _poly(_RNG, 40)


def probe_seconds():
    """CPU seconds of one product of two fixed 40-term polynomials."""
    start = process_time()
    out = {}
    for (a0, a1, a2, a3), ca in _A:
        for (b0, b1, b2, b3), cb in _B:
            m = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            out[m] = out.get(m, 0) + ca * cb
    sorted(out.items())
    return process_time() - start


def measure(fn, *args):
    """Call `fn(*args)` between two probes; return (result, CPU seconds of
    the call, the same in reference seconds).  CPU seconds count this
    process and the children it waited for."""
    before = probe_seconds()
    start = cpu_seconds()
    try:
        result = fn(*args)
    finally:
        took = cpu_seconds() - start
        after = probe_seconds()
    return result, took, took * 2 * REFERENCE_S / (before + after)


def cpu_seconds():
    """CPU seconds of this process plus those of its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime
