"""Exact values: the exactness error, and the text form of sparse rational
combinations of named generators.

A combination is written as signed terms `q*name` with q a nonnegative
integer or fraction, e.g. "3*L - 1/2*B[2] + 1*B[4]"; the zero combination
is written "0".  Callers supply the names, in the order they are printed.
"""

from __future__ import annotations

from fractions import Fraction


class ExactnessError(ArithmeticError):
    """A division that exact arithmetic says is whole left a remainder, or
    a count disagreed with its closed form: a table or kernel is wrong."""


def _exact(x) -> int | Fraction:
    """x itself when it is an int or a Fraction; any other value, a bool,
    a float or a string included, raises ValueError.  The arithmetic stays
    in ints until a value is really non-integral."""
    if type(x) is int or isinstance(x, Fraction):
        return x
    raise ValueError(f"{x!r} is not an int or a Fraction")


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

