"""Integer binary forms, the unimodular substitution action, discriminants.

A form of degree n is stored as the coefficient vector (x0, ..., xn) of
x0*z^n + x1*z^(n-1)*w + ... + xn*w^n.  The discriminant is computed as

    (-1)^(n(n-1)/2) * Res(p, p') / x0,        p(z) = f(z, 1),

with the Sylvester resultant evaluated by fraction-free (Bareiss)
elimination over the integers.  When x0 = 0 the form has a root at infinity
and the computation falls back to the reversed coefficient vector (the
swap z <-> w has determinant -1, under which the discriminant is invariant
because its weight n(n-1) is even); x0 = x1 = 0 is a repeated root at
infinity and gives 0 directly.  If both ends of the vector vanish, a
unimodular shear makes the leading coefficient nonzero first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


class DegreeTooSmall(ValueError):
    """Discriminants need degree at least 2."""


class InconsistentRatio(ValueError):
    """Two discriminant conventions disagree by more than a constant."""


@dataclass(frozen=True)
class BinaryForm:
    """Integer coefficient vector (x0..xn) of a degree-n binary form."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(x) for x in self.coeffs)
        if len(coeffs) < 2:
            raise ValueError("a binary form has degree at least 1")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_csv(text: str) -> "BinaryForm":
        return BinaryForm(tuple(int(part) for part in text.split(",")))

    def to_csv(self) -> str:
        return ",".join(str(x) for x in self.coeffs)

    def __neg__(self) -> "BinaryForm":
        return BinaryForm(tuple(-x for x in self.coeffs))


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 integer matrix (a b; c d) with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix determinant must be 1")

    @staticmethod
    def identity() -> "UnimodularMatrix":
        return UnimodularMatrix(1, 0, 0, 1)

    @staticmethod
    def from_csv(text: str) -> "UnimodularMatrix":
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError("expected 4 comma-separated entries a,b,c,d")
        return UnimodularMatrix(*parts)

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "UnimodularMatrix":
        return UnimodularMatrix(-self.a, -self.b, -self.c, -self.d)

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

    Satisfies the right-action law act(act(f, m), m2) == act(f, m @ m2).
    """
    return BinaryForm(substitute(f.coeffs, m.a, m.b, m.c, m.d))


def height(f: BinaryForm) -> int:
    """Largest absolute coefficient."""
    return max(abs(x) for x in f.coeffs)


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


def resultant(p: list[int], q: list[int]) -> int:
    return bareiss_det(sylvester_matrix(p, q))


def disc(f: BinaryForm) -> int:
    """Exact discriminant; zero iff the form has a repeated root on the
    projective line (roots at infinity included).  Invariant under the
    determinant-1 substitution action."""
    n = f.degree
    if n < 2:
        raise DegreeTooSmall("discriminant needs degree at least 2")
    x = f.coeffs
    if x[0] == 0:
        if x[1] == 0:
            return 0
        if x[-1] != 0:
            return disc(BinaryForm(tuple(reversed(x))))
        # both ends vanish: shear (z, w) -> (z, t z + w) until x0 != 0
        for t in range(1, n + 2):
            g = act(f, UnimodularMatrix(1, 0, t, 1))
            if g.coeffs[0] != 0:
                return disc(g)
        raise AssertionError("nonzero form with no nonzero leading shift")
    p = list(x)
    dp = [(n - i) * x[i] for i in range(n)]
    res = resultant(p, dp)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    quot, rem = divmod(sign * res, x[0])
    assert rem == 0
    return quot


def disc_cubic_reference(x0: int, x1: int, x2: int, x3: int) -> int:
    """Independent reference formula for the cubic discriminant, in the
    convention where disc(z^3 - z*w^2) = -4:
    27*x0^2*x3^2 - 18*x0*x1*x2*x3 + 4*x0*x2^3 + 4*x1^3*x3 - x1^2*x2^2."""
    return (27 * x0**2 * x3**2 - 18 * x0 * x1 * x2 * x3
            + 4 * x0 * x2**3 + 4 * x1**3 * x3 - x1**2 * x2**2)


def compare_disc_conventions(sample_count: int, seed: int = 0,
                             coeff_bound: int = 50) -> Fraction:
    """Ratio disc(f) / disc_cubic_reference(f) over random cubics with
    nonzero discriminant; asserts the ratio is one constant and returns it.

    Cubics where the reference formula vanishes are resampled.  Raises
    InconsistentRatio if two samples disagree, which would mean the
    implemented convention is not a constant multiple of the reference.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    ratio = None
    produced = 0
    while produced < sample_count:
        coeffs = tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(4))
        ref = disc_cubic_reference(*coeffs)
        if ref == 0:
            continue
        ours = disc(BinaryForm(coeffs))
        r = Fraction(ours, ref)
        if ratio is None:
            ratio = r
        elif r != ratio:
            raise InconsistentRatio(f"ratio {r} != {ratio} at {coeffs}")
        produced += 1
    return ratio


def form_from_roots(leading: int, roots: list[int]) -> BinaryForm:
    """The form leading * prod (z - r_i w): integer coefficients, with the
    discriminant leading^(2n-2) * prod_(i<j) (r_i - r_j)^2."""
    coeffs = [leading]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= c * r
        coeffs = nxt
    return BinaryForm(tuple(coeffs))
