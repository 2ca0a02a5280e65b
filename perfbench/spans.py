"""Outside-in spans around the public functions of the package's layers.

The wrappers live here, not in the package: each target is replaced by a
function that records (name, start, end, parent span, item id) and calls
the original.  A function imported by name into another module is rebound
there too, so every call site goes through the wrapper.  Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "extremalcurves"

# (span name, module of the package, attribute path inside that module)
TARGETS = [
    ("modules.PresentedModule.standard_basis", "modules", "PresentedModule.standard_basis"),
    ("modules.PresentedModule.mult_matrix", "modules", "PresentedModule.mult_matrix"),
    ("modules.PresentedModule", "modules", "PresentedModule.__init__"),
    ("modules.free_resolution_from_gb", "modules", "free_resolution_from_gb"),
    ("cohomology.deficiency_module", "cohomology", "deficiency_module"),
    ("cohomology.is_saturated", "ideals", "is_saturated"),
    ("cohomology.general_section_values", "cohomology", "general_section_values"),
    ("cohomology.hyperplane_section", "cohomology", "hyperplane_section"),
    ("cohomology.gin", "gin", "gin"),
    ("cohomology.planar_subcurve_check", "cohomology", "planar_subcurve_check"),
    ("cohomology.hilbert_table", "cohomology", "hilbert_table"),
    ("cohomology.DualCohomology", "cohomology", "DualCohomology.__init__"),
    ("cohomology.h2_table", "cohomology", "h2_table"),
    ("cohomology.verify_extremal", "cohomology", "verify_extremal"),
    ("cohomology.constructed_curve_probe", "cohomology", "constructed_curve_probe"),
    ("ideals.quotient", "ideals", "quotient"),
    ("ideals.intersect", "ideals", "intersect"),
    ("ideals.saturate", "ideals", "saturate"),
    ("ideals.kernel_of_map", "ideals", "kernel_of_map"),
    ("groebner.buchberger", "groebner", "buchberger"),
    ("groebner.initial_monomials", "groebner", "initial_monomials"),
    ("ring.Polynomial.substitute_linear", "ring", "Polynomial.substitute_linear"),
    ("ring.PolyRing.monomials_of_degree", "ring", "PolyRing.monomials_of_degree"),
    ("monomials.MonomialIdeal.hilbert_numerator", "monomials", "MonomialIdeal.hilbert_numerator"),
    ("construct.construct_curve", "construct", "construct_curve"),
    ("oracle.minimal_generators", "oracle", "minimal_generators"),
    ("oracle.fraction_rank", "oracle", "fraction_rank"),
    ("idealfile.parse_ideal", "idealfile", "parse_ideal"),
    ("report.CurveReport.to_json", "report", "CurveReport.to_json"),
    ("cli.main", "cli", "main"),
]

LAYER_NAMES = [name for name, _, _ in TARGETS]


class Tracer:
    """Span recorder; `paused` lets checks call the package untraced."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, item id)
        self.item = None
        self.paused = False
        self._open = []

    def _record(self, name, fn, args, kwargs):
        spans, open_ = self.spans, self._open
        idx = len(spans)
        spans.append(None)
        parent = open_[-1] if open_ else -1
        open_.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            open_.pop()
            spans[idx] = (name, start, end, parent, self.item)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs)

        return functools.wraps(fn)(wrapper)

    @contextmanager
    def span(self, name, item):
        """Root span of one item; every span opened inside carries its id."""
        self.item = item
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, -1, item)
            self.item = None

    def install(self):
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        for name, mod_name, path in TARGETS:
            owner = modules[f"{PACKAGE}.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def layer_totals(self):
        """{span name: [self seconds, calls]}; self time is the span's
        duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += end - start - covered[idx]
            entry[1] += 1
        return totals

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent", "item"],
            "names": names,
            "spans": [[index[n], s, e, p, i] for n, s, e, p, i in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
