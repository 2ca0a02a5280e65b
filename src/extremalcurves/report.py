"""Curve report: the computed-versus-expected bundle with per-check
verdicts, serialized as versioned JSON (stable key order) or aligned text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass
class CurveReport:
    n: int
    d: int
    g: int
    a: int
    window: tuple
    hilbert_dims: list
    regularity: int
    h1: list
    h1_expected: list
    h1_matches: list
    first_h1_failure: int | None
    h2: list
    h2_expected: list
    h2_checked: bool
    h2_match: bool | None
    gin_checked: bool
    gin_monomials: list | None
    gin_expected: list | None
    gin_alternate: list | None
    gin_match: str | None  # "primary" | "alternate" | "mismatch" | None
    gin_seeds: tuple | None
    gin_entry_bound: int | None
    betti_checked: bool
    betti: list | None
    betti_expected: list | None
    betti_gin: list | None
    betti_match: bool | None
    betti_gin_match: bool | None
    rao_dims: list
    rao_expected: list | None
    rao_match: bool | None
    rao_generator_count: int
    rao_generator_degrees: list
    rao_cyclic: bool
    annihilator_degrees: list | None
    annihilator_expected: list | None
    annihilator_match: bool | None
    section_values: list | None
    section_expected: list | None
    section_match: bool | None
    section_seed: int | None
    planar_checked: bool
    planar_verdict: bool | None
    verdict: str
    seed: int = 0
    warnings: list = field(default_factory=list)

    @property
    def extremal(self) -> bool:
        return self.verdict == "extremal"

    def to_json_dict(self) -> dict:
        w = list(self.window)
        return {
            "schema": SCHEMA_VERSION,
            "spec": {"n": self.n, "d": self.d, "g": self.g, "a": self.a},
            "seeds": {
                "base": self.seed,
                "gin": list(self.gin_seeds) if self.gin_seeds else None,
                "gin_entry_bound": self.gin_entry_bound,
                "hyperplane": self.section_seed,
            },
            "hilbert": {
                "window": w,
                "dims": list(self.hilbert_dims),
                "degree": self.d,
                "genus": self.g,
                "regularity": self.regularity,
            },
            "h1": {
                "window": w,
                "computed": list(self.h1),
                "expected": list(self.h1_expected),
                "matches": list(self.h1_matches),
                "match": all(self.h1_matches),
                "first_h1_failure": self.first_h1_failure,
            },
            "h2": {
                "window": w,
                "computed": list(self.h2),
                "expected": list(self.h2_expected),
                "checked": self.h2_checked,
                "match": self.h2_match,
            },
            "gin": {
                "checked": self.gin_checked,
                "monomials": self.gin_monomials,
                "expected": self.gin_expected,
                "alternate": self.gin_alternate,
                "match": self.gin_match,
                "seeds": list(self.gin_seeds) if self.gin_seeds else None,
            },
            "betti": {
                "checked": self.betti_checked,
                "computed": _betti_json(self.betti),
                "expected": _betti_json(self.betti_expected),
                "gin": _betti_json(self.betti_gin),
                "match_expected": self.betti_match,
                "match_gin": self.betti_gin_match,
            },
            "rao": {
                "window": w,
                "dims": list(self.rao_dims),
                "expected": list(self.rao_expected) if self.rao_expected is not None else None,
                "match": self.rao_match,
                "generator_count": self.rao_generator_count,
                "generator_degrees": list(self.rao_generator_degrees),
                "cyclic": self.rao_cyclic,
                "annihilator_degrees": self.annihilator_degrees,
                "annihilator_expected": self.annihilator_expected,
                "annihilator_match": self.annihilator_match,
            },
            "hyperplane_section": {
                "values": self.section_values,
                "expected": self.section_expected,
                "match": self.section_match,
            },
            "planar_subcurve": {
                "checked": self.planar_checked,
                "verdict": self.planar_verdict,
            },
            "verdict": self.verdict,
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        lines.append(
            f"curve: n={self.n} d={self.d} g={self.g} a={self.a}   verdict: {self.verdict}"
        )
        lo, hi = self.window
        degrees = list(range(lo, hi + 1))
        lines.append(_table_row("j", degrees))
        lines.append(_table_row("h_C", self.hilbert_dims))
        lines.append(_table_row("h1", self.h1))
        lines.append(_table_row("h1 bound", self.h1_expected))
        lines.append(_table_row("h2", self.h2))
        lines.append(
            _table_row("h2 bound", [v if v is not None else "-" for v in self.h2_expected])
        )
        lines.append(_table_row("rao", self.rao_dims))
        if self.first_h1_failure is not None:
            lines.append(f"first_h1_failure: {self.first_h1_failure}")
        if self.gin_checked:
            lines.append(f"gin ({self.gin_match}): " + ", ".join(self.gin_monomials))
            lines.append(f"gin seeds: {list(self.gin_seeds)}")
        if self.betti_checked:
            lines.append(
                "betti "
                + ("matches" if self.betti_match else "MISMATCH")
                + " closed form; "
                + ("matches" if self.betti_gin_match else "MISMATCH")
                + " gin table"
            )
            lines.append("betti: " + _betti_text(self.betti))
        lines.append(
            f"rao generators: {self.rao_generator_count} "
            f"(degrees {self.rao_generator_degrees}, cyclic: {self.rao_cyclic})"
        )
        if self.annihilator_degrees is not None:
            lines.append(
                f"annihilator degrees: {self.annihilator_degrees} "
                f"expected {self.annihilator_expected} match {self.annihilator_match}"
            )
        if self.section_values is not None:
            lines.append(
                f"hyperplane section: {self.section_values} "
                f"expected {self.section_expected} match {self.section_match}"
            )
        if self.planar_checked:
            lines.append(f"planar subcurve of degree d-1: {self.planar_verdict}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"


def _betti_json(table):
    if table is None:
        return None
    return [
        {"i": i, "j": j, "rank": r} for (i, j), r in sorted(table.entries.items())
    ]


def _betti_text(table):
    return ", ".join(f"b({i},{j})={r}" for (i, j), r in sorted(table.entries.items()))


def _table_row(label, values):
    cells = "".join(f"{str(v):>6}" for v in values)
    return f"{label:>10} |{cells}"
