"""Curve report: the computed-versus-expected document with per-check
verdicts that `cohomology.verify_extremal` lays out, serialized as versioned
JSON (stable key order) or aligned text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

SCHEMA_VERSION = 1


@dataclass
class CurveReport:
    """One curve's report, held as its versioned JSON document."""

    document: dict

    @property
    def verdict(self) -> str:
        return self.document["verdict"]

    @property
    def extremal(self) -> bool:
        return self.verdict == "extremal"

    def to_json_dict(self) -> dict:
        return self.document

    def to_json(self) -> str:
        return json.dumps(self.document, indent=2) + "\n"

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


def _matches(flag):
    return "matches" if flag else "MISMATCH"


def _table_row(label, values):
    cells = "".join(f"{str(v):>6}" for v in values)
    return f"{label:>10} |{cells}"
