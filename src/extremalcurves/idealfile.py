"""Ideal file format, an ASCII grammar.

Header line ``ring n=<N> field=<q|zp:P>`` followed by one polynomial per
line; ``#`` starts a comment.  Variables are named x0..xN, coefficients are
integers in the digits 0-9, the operators are + - * ^ and juxtaposition is
not allowed.  Every polynomial must be homogeneous.  Lines end at a line
feed (a carriage return just before it is dropped, so CRLF files read as
LF files) and the only blanks are space and tab: any other character,
Unicode line and space separators included, is an error.
"""

from __future__ import annotations

import re

from .ideals import Ideal
from .ring import QQ, PolyRing, Polynomial, PrimeField, clear_denominators, strip_content


class IdealFileError(ValueError):
    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


# one token: blanks, then an integer, a variable with its optional
# exponent, an operator, or any other character (an error)
_TOKEN = re.compile(
    r"[ \t]*(?:(?P<int>[0-9]+)|x(?P<var>[0-9]+)(?:[ \t]*(?P<caret>\^)(?:[ \t]*(?P<pow>[0-9]+))?)?"
    r"|(?P<op>[-+*^])|(?P<bad>[^ \t]))"
)
_HEADER = re.compile(r"ring[ \t]+n=([0-9]+)[ \t]+field=(q|zp:[0-9]+)")


def parse_polynomial(ring: PolyRing, s: str, line_no: int = 0) -> Polynomial:
    """One polynomial: terms, each a run of signs and then
    `factor ('*' factor)*`.  Columns count from 1 at the blanks before a
    token; a character outside the grammar is reported before any other
    error on the line."""
    tokens = list(_TOKEN.finditer(s))
    for m in tokens:
        if m["bad"]:
            raise IdealFileError(f"unexpected character {m['bad']!r}", line_no, m.start() + 1)
    if not tokens:
        raise IdealFileError("empty polynomial", line_no)
    terms = []
    sign, want = 1, "term"  # "term": signs or a factor; "factor": after '*'; "op": after a factor
    for m in tokens:
        op, col = m["op"], m.start() + 1
        if want == "op":
            if op == "*":
                want = "factor"
                continue
            if op not in ("+", "-"):
                raise IdealFileError("juxtaposition is not allowed; use '*'", line_no, col)
            terms.append((tuple(expo), coeff))
            sign, want = 1, "term"
        if want == "term" and op in ("+", "-"):
            sign = -sign if op == "-" else sign
            continue
        if op:
            raise IdealFileError(f"unexpected {op!r}", line_no, col)
        if want == "term":
            coeff, expo = sign, [0] * ring.nvars
        want = "op"
        if m["int"]:
            coeff *= int(m["int"])
            continue
        v = int(m["var"])
        if v >= ring.nvars:
            raise IdealFileError(f"variable x{v} out of range for n={ring.n}", line_no, col)
        if m["caret"] and not m["pow"]:
            raise IdealFileError("exponent expected after '^'", line_no, col)
        expo[v] += int(m["pow"] or 1)
    if want == "term":
        raise IdealFileError("term expected", line_no)
    if want == "factor":
        raise IdealFileError("dangling '*'", line_no)
    p = Polynomial(ring, terms + [(tuple(expo), coeff)])
    if not p.is_homogeneous():
        raise IdealFileError("non-homogeneous polynomial", line_no)
    return p


def parse_ideal_text(text: str) -> Ideal:
    """The header, then one polynomial per line (see the module docstring)."""
    ring = None
    gens = []
    for idx, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r").split("#", 1)[0].strip(" \t")
        if not line:
            continue
        if ring is not None:
            gens.append(parse_polynomial(ring, line, idx))
            continue
        m = _HEADER.fullmatch(line)
        if not m:
            raise IdealFileError("expected header 'ring n=<N> field=<q|zp:P>'", idx)
        ring = PolyRing(int(m[1]) + 1, QQ if m[2] == "q" else PrimeField(int(m[2][3:])))
    if ring is None:
        raise IdealFileError("missing header", 1)
    return Ideal(ring, gens)


def parse_ideal(path) -> Ideal:
    # newline="": the line ends reach parse_ideal_text untranslated, so a
    # file reads exactly as its text does
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_ideal_text(fh.read())


def _primitive_integer(p: Polynomial) -> Polynomial:
    """Scale to content-free integer coefficients for emission; the signs
    are kept."""
    if p.ring.modulus:
        return p
    (ints,), _ = clear_denominators([[c for _, c in p.terms]])
    ints, _ = strip_content(ints)
    return Polynomial(p.ring, [(m, c) for (m, _), c in zip(p.terms, ints)])


def emit_ideal(I: Ideal) -> str:
    ring = I.ring
    fld = f"zp:{ring.modulus}" if ring.modulus else "q"
    out = [f"ring n={ring.n} field={fld}"]
    for g in I.gens:
        out.append(str(_primitive_integer(g)))
    return "\n".join(out) + "\n"
