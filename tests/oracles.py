"""Reference oracles that the tests compare the package against.

Each is an independent route to a value the package computes another way:
the plain box enumerator of determinant-1 matrices, fraction-free
(Bareiss) elimination of Sylvester matrices, the classical cubic
discriminant, forms built from their roots, the pairing of a curve at the
level of subsets, the bilinear pairing of a divisor class with a curve,
and the parse back of a sparse rational combination's text.  Everything
takes the package's plain shapes: a form is its coefficient tuple, a
matrix (a b; c d) the tuple (a, b, c, d), a divisor class is a
(coefficient of L, {s: coefficient of B[s]}) pair, as
`picard.standard_coefficients` returns it, a curve family a (kind, s)
pair, and a fiber class a tuple of integer coordinates.  `added` sums two
divisor classes, `b_coordinates` eliminates L, and `combined` forms an
integer combination of fiber classes.  No command-line path runs them, so
they live here and not in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from effcone.picard import _pairing_row, derive_self_pairing, pair_L


def height(xs: tuple[int, ...]) -> int:
    """Largest absolute coefficient."""
    return max(abs(x) for x in xs)


def matmul(m1: tuple[int, int, int, int],
           m2: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The matrix product m1 m2 of matrices (a, b, c, d)."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


# ---------------------------------------------------------------------------
# unimodular enumeration
# ---------------------------------------------------------------------------

def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _t_interval(base: int, step: int, bound: int) -> tuple[int, int] | None:
    """Integer t with |base + t*step| <= bound, for step != 0; None marks an
    empty range."""
    lo_num, hi_num = -bound - base, bound - base
    if step < 0:
        lo_num, hi_num, step = -hi_num, -lo_num, -step
    lo = -((-lo_num) // step)  # ceil
    hi = hi_num // step        # floor
    if lo > hi:
        return None
    return lo, hi


def _entries_for_top_row(a: int, b: int, bound: int):
    """All (c, d) with a*d - b*c = 1 and |c|, |d| <= bound."""
    g, x, y = _egcd(a, b)
    d0, c0 = x, -y  # a*d0 - b*c0 = 1
    if a == 0:
        if abs(c0) > bound:
            return
        rng = _t_interval(d0, b, bound)
    elif b == 0:
        if abs(d0) > bound:
            return
        rng = _t_interval(c0, a, bound)
    else:
        ra = _t_interval(c0, a, bound)
        rb = _t_interval(d0, b, bound)
        rng = None if ra is None or rb is None else (max(ra[0], rb[0]),
                                                    min(ra[1], rb[1]))
    if rng is None or rng[0] > rng[1]:
        return
    for t in range(rng[0], rng[1] + 1):
        yield c0 + t * a, d0 + t * b


def enumerate_unimodular(bound: int):
    """Yield every determinant-1 integer matrix (a, b, c, d) with entries in
    [-T, T] exactly once (T = bound).

    For each coprime top row (a, b) the bottom rows form the integer family
    (c, d) = (c0 + t*a, d0 + t*b) through one extended-gcd base solution,
    clipped to the box.
    """
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if math.gcd(a, b) == 1:
                for c, d in _entries_for_top_row(a, b, bound):
                    yield a, b, c, d


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


def disc_cubic_reference(x0: int, x1: int, x2: int, x3: int) -> int:
    """Independent reference formula for the cubic discriminant, in the
    convention where disc(z^3 - z*w^2) = -4:
    27*x0^2*x3^2 - 18*x0*x1*x2*x3 + 4*x0*x2^3 + 4*x1^3*x3 - x1^2*x2^2."""
    return (27 * x0**2 * x3**2 - 18 * x0 * x1 * x2 * x3
            + 4 * x0 * x2**3 + 4 * x1**3 * x3 - x1**2 * x2**2)


def form_from_roots(leading: int, roots: list[int]) -> tuple[int, ...]:
    """The form leading * prod (z - r_i w): integer coefficients, with the
    discriminant leading^(2n-2) * prod_(i<j) (r_i - r_j)^2."""
    coeffs = [leading]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= c * r
        coeffs = nxt
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# subset-level pairings
# ---------------------------------------------------------------------------

class InvalidSubset(ValueError):
    """A pairing was requested against a set outside {1, ..., n}."""


@dataclass(frozen=True)
class SubsetCurve:
    """One representative of a curve family, at the level of subsets:
    the component carries the marked points of S, and R-curves forget the
    extra point tau outside S."""

    kind: str
    S: frozenset[int]
    tau: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "S", frozenset(self.S))
        if self.kind == "C":
            if len(self.S) < 3:
                raise ValueError("C-curves need |S| >= 3")
            if self.tau is not None:
                raise ValueError("C-curves carry no forgotten point")
        elif self.kind == "R":
            if len(self.S) < 2:
                raise ValueError("R-curves need |S| >= 2")
            if self.tau is None or self.tau in self.S:
                raise ValueError("R-curves need a forgotten point outside S")
        else:
            raise ValueError(f"unknown curve kind {self.kind!r}")

    def validate(self, n: int) -> None:
        points = set(self.S) | ({self.tau} if self.tau is not None else set())
        if not points <= set(range(1, n + 1)):
            raise ValueError(f"curve marked points exceed n={n}")


def pair_subset(curve: SubsetCurve, T, n: int) -> int:
    """Intersection of the subset-level curve with the boundary divisor B_T."""
    curve.validate(n)
    T = frozenset(T)
    if not T <= set(range(1, n + 1)):
        raise InvalidSubset(f"T must be a subset of {{1..{n}}}")
    if len(T) < 2:
        raise InvalidSubset("boundary subsets have at least 2 elements")
    S, s = curve.S, len(curve.S)
    if T == S:
        return derive_self_pairing(curve.kind, s, n)
    if curve.kind == "C":
        if len(T) == s - 1 and T < S:
            return 1
        return 0
    if T == S | {curve.tau}:
        return 1
    if len(T) == 2 and curve.tau in T and not (T - {curve.tau}) & S:
        return 1
    return 0


def pair(n: int, c: tuple, curve: tuple[str, int]) -> int | Fraction:
    """Bilinear extension of the (kind, s) family's pairing-matrix row to
    the divisor class c = (coeff_L, {s: coeff_B}) on the space with n
    marked points."""
    kind, s = curve
    row = _pairing_row(kind, s, n)
    coeff_L, coeff_B = c
    return coeff_L * pair_L(kind) + sum(q * row[j - 2] for j, q in coeff_B.items())


def added(c1: tuple, c2: tuple) -> tuple:
    """The divisor class c1 + c2, zero B-coefficients dropped, so that
    equal classes compare equal."""
    coeffs = dict(c1[1])
    for s, q in c2[1].items():
        coeffs[s] = coeffs.get(s, 0) + q
    return c1[0] + c2[0], {s: q for s, q in coeffs.items() if q}


def b_coordinates(n: int, c: tuple) -> tuple[int | Fraction, ...]:
    """The B[2..n]-coordinates of c with L eliminated by the relation
    (n-1) L = sum_s s(s-1)/2 B[s]: B[s] gains coeff_L * s(s-1) / (2(n-1))."""
    coeff_L, coeff_B = c
    return tuple(coeff_B.get(s, 0) + coeff_L * Fraction(s * (s - 1), 2 * (n - 1))
                 for s in range(2, n + 1))


def combined(*terms: tuple[int, tuple[int, ...]]) -> tuple[int, ...]:
    """The fiber class sum q * c over (q, c) pairs of coordinate tuples of
    one fiber; tuples of unequal length raise ValueError."""
    return tuple(sum(q * x for (q, _), x in zip(terms, column))
                 for column in zip(*(c for _, c in terms), strict=True))


def parse_terms(text: str) -> dict[str, Fraction]:
    """{name: coefficient} of the canonical text that format_terms writes,
    the parse back of a sparse rational combination."""
    if text == "0":
        return {}
    terms = (t.split("*") for t in text.replace(" - ", " + -").split(" + "))
    return {name: Fraction(q) for q, name in terms}
