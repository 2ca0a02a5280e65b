"""Ideal file format.

Header line ``ring n=<N> field=<q|zp:P>`` followed by one polynomial per
line; ``#`` starts a comment.  Variables are named x0..xN, coefficients are
integers, the operators are + - * ^ and juxtaposition is not allowed.
Every polynomial must be homogeneous.
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


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>x\d+)|(?P<op>[-+*^]))")


def _tokenize(s: str, line_no: int):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise IdealFileError(
                    f"unexpected character {s[pos:].strip()[0]!r}", line_no, pos + 1
                )
            break
        if m.group("int"):
            out.append(("int", int(m.group("int")), m.start() + 1))
        elif m.group("var"):
            out.append(("var", int(m.group("var")[1:]), m.start() + 1))
        else:
            out.append(("op", m.group("op"), m.start() + 1))
        pos = m.end()
    return out


def parse_polynomial(ring: PolyRing, s: str, line_no: int = 0) -> Polynomial:
    tokens = _tokenize(s, line_no)
    if not tokens:
        raise IdealFileError("empty polynomial", line_no)
    terms = []
    i = 0
    nv = ring.nvars

    def term(i, sign):
        coeff = sign
        expo = [0] * nv
        seen_factor = False
        while True:
            kind, val, col = tokens[i]
            if kind == "int":
                coeff *= val
            elif kind == "var":
                if val >= nv:
                    raise IdealFileError(
                        f"variable x{val} out of range for n={nv - 1}", line_no, col
                    )
                power = 1
                if i + 1 < len(tokens) and tokens[i + 1] == ("op", "^", tokens[i + 1][2]):
                    if i + 2 >= len(tokens) or tokens[i + 2][0] != "int":
                        raise IdealFileError("exponent expected after '^'", line_no, col)
                    power = tokens[i + 2][1]
                    i += 2
                expo[val] += power
            else:
                raise IdealFileError(f"unexpected {val!r}", line_no, col)
            seen_factor = True
            i += 1
            if i >= len(tokens) or tokens[i][0] == "op" and tokens[i][1] in "+-":
                break
            if tokens[i] == ("op", "*", tokens[i][2]):
                i += 1
                if i >= len(tokens):
                    raise IdealFileError("dangling '*'", line_no)
                continue
            raise IdealFileError(
                "juxtaposition is not allowed; use '*'", line_no, tokens[i][2]
            )
        if not seen_factor:
            raise IdealFileError("empty term", line_no)
        return i, tuple(expo), coeff

    sign = 1
    # optional leading sign
    while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
        if tokens[i][1] == "-":
            sign = -sign
        i += 1
    while True:
        if i >= len(tokens):
            raise IdealFileError("term expected", line_no)
        i, expo, coeff = term(i, sign)
        terms.append((expo, coeff))
        if i >= len(tokens):
            break
        sign = 1
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
    p = Polynomial(ring, terms)
    if not p.is_homogeneous():
        raise IdealFileError("non-homogeneous polynomial", line_no)
    return p


_HEADER = re.compile(r"^ring\s+n=(\d+)\s+field=(q|zp:\d+)\s*$")


def parse_ideal_text(text: str) -> Ideal:
    lines = text.splitlines()
    header = None
    ring = None
    gens = []
    for idx, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            m = _HEADER.match(line)
            if not m:
                raise IdealFileError(
                    "expected header 'ring n=<N> field=<q|zp:P>'", idx
                )
            n = int(m.group(1))
            fld = m.group(2)
            field = QQ if fld == "q" else PrimeField(int(fld.split(":")[1]))
            ring = PolyRing(n + 1, field)
            header = True
            continue
        gens.append(parse_polynomial(ring, line, idx))
    if ring is None:
        raise IdealFileError("missing header", 1)
    return Ideal(ring, gens)


def parse_ideal(path) -> Ideal:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ideal_text(fh.read())


def _primitive_integer(p: Polynomial) -> Polynomial:
    """Scale to content-free integer coefficients for emission; the signs
    are kept."""
    if getattr(p.ring.field, "p", 0):
        return p
    (ints,), _ = clear_denominators([[c for _, c in p.terms]])
    ints, _ = strip_content(ints)
    return Polynomial(p.ring, [(m, c) for (m, _), c in zip(p.terms, ints)])


def emit_ideal(I: Ideal) -> str:
    ring = I.ring
    fld = "q" if not getattr(ring.field, "p", 0) else f"zp:{ring.field.p}"
    out = [f"ring n={ring.n} field={fld}"]
    for g in I.gens:
        out.append(str(_primitive_integer(g)))
    return "\n".join(out) + "\n"
