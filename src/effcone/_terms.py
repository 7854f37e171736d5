"""Text form of sparse rational combinations of named generators.

A combination is written as signed terms `q*name` with q a nonnegative
integer or fraction, e.g. "3*L - 1/2*B[2] + 1*B[4]"; the zero combination
is written "0".  Callers supply the regular expression of their generator
names and map the names to coordinates themselves.
"""

from __future__ import annotations

import re
from fractions import Fraction


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def format_terms(terms) -> str:
    """Canonical text of the (coefficient, name) pairs, zero terms dropped,
    in the given order."""
    terms = [(q, name) for q, name in terms if q]
    if not terms:
        return "0"
    parts = [f"{terms[0][0]}*{terms[0][1]}"]
    for q, name in terms[1:]:
        parts.append(f"{'-' if q < 0 else '+'} {abs(q)}*{name}")
    return " ".join(parts)


def parse_terms(text: str, gen: str) -> list[tuple[Fraction, str]]:
    """(coefficient, name) pairs of the text, in order and not merged, with
    names matching the pattern `gen`; tolerant of whitespace variations.

    Raises ValueError for text that is blank, has a term that does not
    parse, lacks a sign between terms or has a zero denominator.
    """
    stripped = text.strip()
    if stripped == "0":
        return []
    if not stripped:
        raise ValueError("empty text (write 0 for zero)")
    term = re.compile(r"\s*(?:(?P<sign>[+-])\s*)?(?P<num>\d+)(?:/(?P<den>\d+))?"
                      rf"\s*\*\s*(?P<gen>{gen})")
    out = []
    pos = 0
    while pos < len(stripped):
        mo = term.match(stripped, pos)
        if not mo or (pos and mo.group("sign") is None):
            raise ValueError(f"cannot parse text at: {stripped[pos:]!r}")
        den = int(mo.group("den") or 1)
        if not den:
            raise ValueError(f"zero denominator at: {stripped[pos:]!r}")
        q = Fraction(int(mo.group("num")), den)
        out.append((-q if mo.group("sign") == "-" else q, mo.group("gen")))
        pos = mo.end()
    return out
