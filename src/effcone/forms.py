"""Integer binary forms, the unimodular substitution action, discriminants.

A form of degree n is stored as the coefficient vector (x0, ..., xn) of
x0*z^n + x1*z^(n-1)*w + ... + xn*w^n.  The discriminant is

    (-1)^(n(n-1)/2) * Res(f_z, f_w) / n^(n-2),

with the resultant of the two partial derivatives taken at formal degree
n-1 and evaluated by fraction-free (Bareiss) elimination over the integers.
That resultant is projective, so roots at infinity need no change of chart.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._terms import ExactnessError


class DegreeTooSmall(ValueError):
    """Discriminants need degree at least 2."""


@dataclass(frozen=True)
class BinaryForm:
    """Integer coefficient vector (x0..xn) of a degree-n binary form; a
    coefficient that is not an int raises ValueError."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not set(map(type, coeffs)) <= {int}:
            raise ValueError("form coefficients must be int")
        if len(coeffs) < 2:
            raise ValueError("a binary form has degree at least 1")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_csv(text: str) -> "BinaryForm":
        return BinaryForm(tuple(int(part) for part in text.split(",")))


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 integer matrix (a b; c d) with determinant 1; an entry that is
    not an int raises ValueError."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if not set(map(type, self.entries())) <= {int}:
            raise ValueError("matrix entries must be int")
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix determinant must be 1")

    @staticmethod
    def from_csv(text: str) -> "UnimodularMatrix":
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError("expected 4 comma-separated entries a,b,c,d")
        return UnimodularMatrix(*parts)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def substitute(xs: tuple[int, ...], a: int, b: int, c: int,
               d: int) -> tuple[int, ...]:
    """Coefficients of f(a*z + b*w, c*z + d*w) for the coefficient vector xs.

    The one expansion of the substitution, by Horner's rule in the first
    linear form: h <- h * (a z + b w) + x_i * (c z + d w)^i.
    """
    h = [xs[0]]
    qpow = [1]
    for i in range(1, len(xs)):
        nh = [0] * (i + 1)
        for t, hc in enumerate(h):
            nh[t] += a * hc
            nh[t + 1] += b * hc
        nq = [0] * (i + 1)
        for t, qc in enumerate(qpow):
            nq[t] += c * qc
            nq[t + 1] += d * qc
        qpow = nq
        x = xs[i]
        if x:
            for t, qc in enumerate(qpow):
                nh[t] += x * qc
        h = nh
    return tuple(h)


def taylor_shift(xs: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of f(z + w, w), the case substitute(xs, 1, 1, 0, 1).

    The Taylor shift p(t) -> p(t + 1) of p(t) = f(t, 1) by repeated
    synthetic division: n(n+1)/2 additions and no multiplication.  The
    mirror f(z, z + w) is taylor_shift(xs[::-1])[::-1].
    """
    h = list(xs)
    for top in range(len(h) - 1, 0, -1):
        for j in range(1, top + 1):
            h[j] += h[j - 1]
    return tuple(h)


def act(f: BinaryForm, m: UnimodularMatrix) -> BinaryForm:
    """Coefficients of f(a*z + b*w, c*z + d*w), expanded exactly.

    Satisfies the right-action law: act(act(f, m), m2) is act(f, m m2)
    for the matrix product m m2.
    """
    return BinaryForm(substitute(f.coeffs, m.a, m.b, m.c, m.d))


# ---------------------------------------------------------------------------
# resultants and discriminants
# ---------------------------------------------------------------------------

def _bareiss_forward(m: list[list[int]]) -> int:
    """Fraction-free elimination, in place, of the rows m to upper
    triangular form in their first len(m) columns; the columns beyond take
    part in every row operation.  Returns the sign s of the row swaps, so
    that s * m[-1][len(m) - 1] is the determinant of the square block, or
    0 when a pivot column is zero below the diagonal (determinant 0)."""
    size = len(m)
    width = len(m[0])
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, width):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign


def bareiss_det(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [row[:] for row in matrix]
    return _bareiss_forward(m) * m[-1][-1]


def adjugate_solve(matrix: list[list[int]],
                   rhs: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det A, [adj(A) b for b in rhs]) for a nonsingular integer matrix A.

    One fraction-free elimination of A with every right-hand side b as an
    extra column, then back substitution for y = det(A) x, where A x = b:
    y is an integer vector by Cramer's rule, so every division is exact.
    """
    size = len(matrix)
    m = [row + [b[i] for b in rhs] for i, row in enumerate(matrix)]
    sign = _bareiss_forward(m)
    last = m[-1][size - 1]
    if sign == 0 or last == 0:
        raise ValueError("adjugate_solve needs a nonsingular matrix")
    solutions = []
    for c in range(size, size + len(rhs)):
        y = [0] * size
        for k in range(size - 1, -1, -1):
            row = m[k]
            acc = last * row[c]
            for j in range(k + 1, size):
                acc -= row[j] * y[j]
            y[k] = acc // row[k]
        solutions.append([sign * v for v in y])
    return sign * last, solutions


def sylvester_matrix(p: list[int], q: list[int]) -> list[list[int]]:
    """Sylvester matrix of p (degree from len) and q, coefficients leading first."""
    dp = len(p) - 1
    dq = len(q) - 1
    size = dp + dq
    rows = []
    for i in range(dq):
        rows.append([0] * i + p + [0] * (size - i - dp - 1))
    for i in range(dp):
        rows.append([0] * i + q + [0] * (size - i - dq - 1))
    return rows


def gradient_sylvester(xs: tuple[int, ...]) -> list[list[int]]:
    """Sylvester matrix of the partial derivatives f_z and f_w of the form
    with coefficients xs, both at formal degree n - 1; its determinant is
    Res(f_z, f_w) = (-1)^(n(n-1)/2) * n^(n-2) * disc f."""
    n = len(xs) - 1
    return sylvester_matrix([(n - i) * xs[i] for i in range(n)],
                            [i * xs[i] for i in range(1, n + 1)])


def disc(f: BinaryForm) -> int:
    """Exact discriminant; zero iff the form has a repeated root on the
    projective line (roots at infinity included).  Invariant under the
    determinant-1 substitution action.  Raises ExactnessError if the
    resultant is not a multiple of n^(n-2)."""
    n = f.degree
    if n < 2:
        raise DegreeTooSmall("discriminant needs degree at least 2")
    res = bareiss_det(gradient_sylvester(f.coeffs))
    quot, rem = divmod(res, n ** (n - 2))
    if rem:
        raise ExactnessError(f"Res(f_z, f_w) = {res} is not a multiple of "
                             f"n^(n-2) = {n ** (n - 2)}")
    return -quot if (n * (n - 1) // 2) % 2 else quot
