"""Curve report: the computed-versus-expected document with per-check
verdicts.  This module alone lays it out (`CurveReport.from_analysis`
reads a `cohomology.CurveAnalysis` beside the paper's closed forms),
versions it and serializes it, as JSON (stable key order) or aligned text.
"""

from __future__ import annotations

from .formulas import expected_betti, expected_gin, rao_structure_excluded
from .monomials import ek_betti
from .ring import Record, format_mono

SCHEMA_VERSION = 1


class CurveReport(Record):
    """One curve's report, held as its versioned JSON document."""

    _fields = ("document",)

    def __init__(self, document: dict):
        self.document = document

    @classmethod
    def from_analysis(cls, c) -> CurveReport:
        """The report on a `cohomology.CurveAnalysis` c, read from its
        public invariants: each beside the closed form that the paper
        states for it, with a verdict per check."""
        spec, extremal, rao = c.spec, c.extremal, c.rao
        n, d, a = spec.n, spec.d, spec.a
        warnings = []
        if d == 2:
            warnings.append("degree 2: the h2 bound is undefined for j < 0 and unchecked there")
        h1_matches = [x == y for x, y in zip(c.h1, c.profile.h1)]

        gin, gin_expected, alternate, gin_match = c.gin, None, None, None
        if gin is not None:
            gin_expected = expected_gin(spec)
            if d == 3 and a >= 1 and n >= 4:
                alternate = expected_gin(spec, "d3-alternate")
                warnings.append("d=3, a>=1, n>=4: the gin is matched against the two-ideal set")
            if gin.ideal == gin_expected:
                gin_match = "primary"
            elif alternate is not None and gin.ideal == alternate:
                gin_match = "alternate"
            else:
                gin_match = "mismatch"
        gin_seeds = None if gin is None else list(gin.seeds)

        betti, betti_expected, betti_gin = c.betti, None, None
        if betti is not None:
            betti_expected = expected_betti(spec)
            # the gin is strongly stable: Eliahou-Kervaire gives its Betti table
            betti_gin = ek_betti(gin.ideal)
            if a == 0:
                warnings.append("a=0: the closed-form top twist follows the stable-ideal formula")

        rao_expected, ann_expected = c.rao_expected or (None, None)
        if rao_structure_excluded(spec):
            warnings.append("d=3, a>0, n>=4: the Rao-module structure statement does not apply")
        rao_checked = c.rao_expected is not None
        sections = c.section_values
        sections_expected = None if sections is None else [min(j + 2, d) for j in range(1, d + 2)]

        window = list(c.window)
        return cls({
            "schema": SCHEMA_VERSION,
            "spec": {"n": n, "d": d, "g": spec.g, "a": a},
            "seeds": {
                "base": c.seed,
                "gin": gin_seeds,
                "gin_entry_bound": None if gin is None else gin.entry_bound,
                "hyperplane": None,  # the sections are read off the gin
            },
            "hilbert": {
                "window": window,
                "dims": list(c.hilbert.dims),
                "degree": d,
                "genus": spec.g,
                "regularity": c.hilbert.regularity,
            },
            "h1": {
                "window": window,
                "computed": c.h1,
                "expected": list(c.profile.h1),
                "matches": h1_matches,
                "match": all(h1_matches),
                "first_h1_failure": next((j for j, ok in zip(c.degrees, h1_matches) if not ok), None),
            },
            "h2": {
                "window": window,
                "computed": c.h2,
                "expected": list(c.profile.h2),
                "checked": extremal and d >= 3,
                # the degree-2 bound is undefined (None) for j < 0
                "match": all(x == y for x, y in zip(c.h2, c.profile.h2) if y is not None) if extremal else None,
            },
            "gin": {
                "checked": gin is not None,
                "monomials": _formatted(gin and gin.ideal),
                "expected": _formatted(gin_expected),
                "alternate": _formatted(alternate),
                "match": gin_match,
                "seeds": gin_seeds,
            },
            "betti": {
                "checked": betti is not None,
                "computed": _betti_json(betti),
                "expected": _betti_json(betti_expected),
                "gin": _betti_json(betti_gin),
                "match_expected": None if betti is None else betti == betti_expected,
                "match_gin": None if betti is None else betti == betti_gin,
            },
            "rao": {
                "window": window,
                "dims": c.h1,  # h1 reads the one Rao table
                "expected": rao_expected,
                "match": rao_expected == c.h1 if rao_checked else None,
                "generator_count": rao.generator_count,
                "generator_degrees": rao.generator_degrees,
                "cyclic": rao.generator_count <= 1,
                "annihilator_degrees": rao.annihilator_degrees,
                "annihilator_expected": ann_expected,
                "annihilator_match": rao.annihilator_degrees == ann_expected if rao_checked else None,
            },
            "hyperplane_section": {
                "values": sections,
                "expected": sections_expected,
                "match": None if sections is None else sections == sections_expected,
            },
            "planar_subcurve": {"checked": c.planar is not None, "verdict": c.planar},
            "verdict": "extremal" if extremal else "not_extremal",
            "warnings": warnings,
        })

    @property
    def verdict(self) -> str:
        return self.document["verdict"]

    @property
    def extremal(self) -> bool:
        return self.verdict == "extremal"

    def to_json(self) -> str:
        return format_json(self.document)

    def to_text(self) -> str:
        doc = self.document
        spec, h1, h2, rao = doc["spec"], doc["h1"], doc["h2"], doc["rao"]
        gin, betti, section = doc["gin"], doc["betti"], doc["hyperplane_section"]
        lo, hi = doc["hilbert"]["window"]
        lines = [
            f"curve: n={spec['n']} d={spec['d']} g={spec['g']} a={spec['a']}   verdict: {doc['verdict']}",
            _table_row("j", range(lo, hi + 1)),
            _table_row("h_C", doc["hilbert"]["dims"]),
            _table_row("h1", h1["computed"]),
            _table_row("h1 bound", h1["expected"]),
            _table_row("h2", h2["computed"]),
            _table_row("h2 bound", ["-" if v is None else v for v in h2["expected"]]),
            _table_row("rao", rao["dims"]),
        ]
        if h1["first_h1_failure"] is not None:
            lines.append(f"first_h1_failure: {h1['first_h1_failure']}")
        if gin["checked"]:
            lines.append(f"gin ({gin['match']}): " + ", ".join(gin["monomials"]))
            lines.append(f"gin seeds: {gin['seeds']}")
        if betti["checked"]:
            lines.append(
                f"betti {_matches(betti['match_expected'])} closed form; "
                f"{_matches(betti['match_gin'])} gin table"
            )
            lines.append("betti: " + ", ".join(f"b({e['i']},{e['j']})={e['rank']}" for e in betti["computed"]))
        lines.append(
            f"rao generators: {rao['generator_count']} "
            f"(degrees {rao['generator_degrees']}, cyclic: {rao['cyclic']})"
        )
        if rao["annihilator_degrees"] is not None:
            lines.append(
                f"annihilator degrees: {rao['annihilator_degrees']} "
                f"expected {rao['annihilator_expected']} match {rao['annihilator_match']}"
            )
        if section["values"] is not None:
            lines.append(
                f"hyperplane section: {section['values']} "
                f"expected {section['expected']} match {section['match']}"
            )
        if doc["planar_subcurve"]["checked"]:
            lines.append(f"planar subcurve of degree d-1: {doc['planar_subcurve']['verdict']}")
        lines.extend(f"warning: {w}" for w in doc["warnings"])
        return "\n".join(lines) + "\n"


def format_json(document) -> str:
    """The document as `json.dumps(document, indent=2)` writes it, plus a
    final newline, in one recursive pass (CPython serves indented output
    only from its pure-Python encoder).  Keys are str; values are str,
    int, bool, None, list, tuple or dict, and anything else raises
    TypeError.  The report and the sweep grid are both written here."""
    # the package's one `json` import: keeps CLI start-up light
    from json.encoder import encode_basestring_ascii

    literal = {True: "true", False: "false", None: "null"}.__getitem__
    scalars = {str: encode_basestring_ascii, int: int.__repr__, bool: literal, type(None): literal}
    out = []
    _write_json(document, "\n", out, scalars)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline, out, scalars):
    """Append the text of value, nested at the indent that ends newline;
    scalars maps the exact scalar types to their writers."""
    write = scalars.get(type(value))
    if write:
        out.append(write(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, item in value.items():
            lead += scalars[str](key) + ": "  # the escaper raises TypeError on a non-str
            write = scalars.get(type(item))
            if write:
                out.append(lead + write(item))
            else:
                out.append(lead)
                _write_json(item, inner, out, scalars)
            lead = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            write = scalars.get(type(item))
            if write:
                out.append(lead + write(item))
            else:
                out.append(lead)
                _write_json(item, inner, out, scalars)
            lead = "," + inner
        out.append(newline + "]")
    elif isinstance(value, (str, int)):  # a subclass, written as its base
        out.append(scalars[str if isinstance(value, str) else int](value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _matches(flag):
    return "matches" if flag else "MISMATCH"


def _table_row(label, values):
    cells = "".join(f"{str(v):>6}" for v in values)
    return f"{label:>10} |{cells}"


def _formatted(monomial_ideal):
    return None if monomial_ideal is None else [format_mono(m) for m in monomial_ideal.gens]


def _betti_json(table):
    return None if table is None else [{"i": i, "j": j, "rank": r} for (i, j), r in table.items()]
