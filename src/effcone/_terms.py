"""Text form of sparse rational combinations of named generators.

A combination is written as signed terms `q*name` with q a nonnegative
integer or fraction, e.g. "3*L - 1/2*B[2] + 1*B[4]"; the zero combination
is written "0".  Callers supply the names, in the order they are printed.
"""

from __future__ import annotations

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

