"""Symmetric divisor classes on the space of n pointed degree-one maps to the line.

The invariant Picard group is spanned by the hyperplane pullback L and the
boundary classes B[2], ..., B[n] (B[s] sums the boundary divisors whose
collapsed component carries s of the marked points).  Summing the
pair-incidence identity over all pairs of marked points yields one relation

    (n-1) L  =  sum_s s(s-1)/2 * B[s]

which eliminates L, so the B-classes are the canonical coordinates here.
Curve families C_s (forget the attaching point of a size-s boundary
component) and R_s (forget one point off the component) pair against the
B-classes through small combinatorial tables; the self-intersection entries
are not hard-coded but derived by pairing the relation with each curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import cone
from ._terms import _fr, format_terms, parse_terms


class InvalidSubset(ValueError):
    """A pairing was requested against a set outside {1, ..., n}."""


# ---------------------------------------------------------------------------
# divisor classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisorClass:
    """Exact rational combination of L and the boundary classes B[2..n].

    `coeff_B` maps s to the coefficient of B[s]; absent keys mean zero and
    zero entries are dropped on construction so equality is coefficientwise.
    Instances are immutable; arithmetic is componentwise and exact.
    """

    n: int
    coeff_L: Fraction
    coeff_B: dict[int, Fraction]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 marked points")
        object.__setattr__(self, "coeff_L", _fr(self.coeff_L))
        cleaned = {}
        for s, q in self.coeff_B.items():
            if not 2 <= s <= self.n:
                raise ValueError(f"B[{s}] does not exist for n={self.n}")
            q = _fr(q)
            if q:
                cleaned[int(s)] = q
        object.__setattr__(self, "coeff_B", cleaned)

    @staticmethod
    def zero(n: int) -> "DivisorClass":
        return DivisorClass(n, Fraction(0), {})

    def b(self, s: int) -> Fraction:
        return self.coeff_B.get(s, Fraction(0))

    def b_vector(self) -> tuple[Fraction, ...]:
        return tuple(self.b(s) for s in range(2, self.n + 1))

    def _same_space(self, other: "DivisorClass") -> None:
        if self.n != other.n:
            raise ValueError("classes live on different spaces")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_space(other)
        coeffs = dict(self.coeff_B)
        for s, q in other.coeff_B.items():
            coeffs[s] = coeffs.get(s, Fraction(0)) + q
        return DivisorClass(self.n, self.coeff_L + other.coeff_L, coeffs)

    def __neg__(self) -> "DivisorClass":
        return self.scale(-1)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def scale(self, q) -> "DivisorClass":
        q = _fr(q)
        return DivisorClass(self.n, q * self.coeff_L,
                            {s: q * c for s, c in self.coeff_B.items()})

    def __rmul__(self, q) -> "DivisorClass":
        return self.scale(q)

    def __str__(self) -> str:
        return format_divisor(self)


def format_divisor(c: DivisorClass) -> str:
    """Canonical text form: L term first, then B[s] ascending in s."""
    return format_terms([(c.coeff_L, "L")]
                        + [(c.coeff_B[s], f"B[{s}]") for s in sorted(c.coeff_B)])


def parse_divisor(text: str, n: int) -> DivisorClass:
    """Parse the textual divisor format; tolerant of whitespace variations."""
    coeff_L = Fraction(0)
    coeff_B: dict[int, Fraction] = {}
    for q, name in parse_terms(text, r"L|B\[\d+\]"):
        if name == "L":
            coeff_L += q
        else:
            s = int(name[2:-1])
            coeff_B[s] = coeff_B.get(s, Fraction(0)) + q
    return DivisorClass(n, coeff_L, coeff_B)


def derive_l_relation(n: int) -> DivisorClass:
    """The class (n-1)*L - sum_s s(s-1)/2 * B[s], which is zero in the
    invariant Picard group.

    The B-coefficients are produced by counting: each of the comb(n, 2)
    pairs of marked points lies in comb(n-2, s-2) subsets of size s, the
    incidence total over all pairs is spread over the comb(n, s) subsets of
    that size, and the count per subset is checked against the closed form
    s(s-1)/2.
    """
    if n < 3:
        raise ValueError("need at least 3 marked points")
    coeffs: dict[int, Fraction] = {}
    pairs = comb(n, 2)
    for s in range(2, n + 1):
        incidences = pairs * comb(n - 2, s - 2)
        per_subset, rem = divmod(incidences, comb(n, s))
        if rem or per_subset != s * (s - 1) // 2:
            raise ArithmeticError(
                f"pair-incidence count disagrees with s(s-1)/2 at s={s}")
        coeffs[s] = Fraction(-per_subset)
    return DivisorClass(n, Fraction(n - 1), coeffs)


def reduce_to_B(c: DivisorClass) -> DivisorClass:
    """Eliminate the L coefficient using the relation: each B[s] gains
    coeff_L * s(s-1) / (2(n-1))."""
    if not c.coeff_L:
        return c
    n = c.n
    coeffs = dict(c.coeff_B)
    for s in range(2, n + 1):
        gain = c.coeff_L * Fraction(s * (s - 1), 2 * (n - 1))
        coeffs[s] = coeffs.get(s, Fraction(0)) + gain
    return DivisorClass(n, Fraction(0), coeffs)


def standard_class(n: int, which: str) -> DivisorClass:
    """The canonical class, the total boundary, or the hyperplane pullback."""
    if n < 3:
        raise ValueError("need at least 3 marked points")
    if which == "canonical":
        return DivisorClass(n, Fraction(-2),
                            {s: Fraction(s - 2) for s in range(3, n + 1)})
    if which == "boundary":
        return DivisorClass(n, Fraction(0),
                            {s: Fraction(1) for s in range(2, n + 1)})
    if which == "hyperplane":
        return DivisorClass(n, Fraction(1), {})
    raise ValueError(f"unknown standard class {which!r}")


# ---------------------------------------------------------------------------
# curve families and pairings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveClass:
    """Averaged curve family: kind "C" (forget the attaching point of a
    size-s component) or "R" (forget one point off the component)."""

    kind: str
    s: int

    def __post_init__(self):
        if self.kind not in ("C", "R"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.kind == "C" and self.s < 3:
            raise ValueError("C-curves need a component with at least 3 points")
        if self.kind == "R" and self.s < 2:
            raise ValueError("R-curves need a component with at least 2 points")

    def validate(self, n: int) -> None:
        if self.kind == "C" and not 3 <= self.s <= n:
            raise ValueError(f"C_{self.s} does not exist for n={n}")
        if self.kind == "R" and not 2 <= self.s <= n - 1:
            raise ValueError(f"R_{self.s} does not exist for n={n}")

    def label(self) -> str:
        return f"{self.kind}_{self.s}"


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


def representative(curve: CurveClass, n: int) -> SubsetCurve:
    """The fixed representative S = {1..s}, tau = s+1 used for averaging."""
    curve.validate(n)
    S = frozenset(range(1, curve.s + 1))
    if curve.kind == "C":
        return SubsetCurve("C", S)
    return SubsetCurve("R", S, curve.s + 1)


def pair_L(curve: CurveClass) -> int:
    """Intersection with the hyperplane pullback: C-curves are collapsed
    (0), R-curves map to lines (1)."""
    return 0 if curve.kind == "C" else 1


def derive_self_pairing(kind: str, s: int, n: int) -> Fraction:
    """Self term B_S . curve, solved from the relation rather than hard-coded.

    Pairing (n-1) L = sum_j j(j-1)/2 B[j] with the curve leaves a single
    unknown (the T = S entry, weighted s(s-1)/2 because B_S appears once in
    B[s]); everything else is an off-diagonal table value.  The results are
    -(s-2) for C and -1 for R, which callers may assert but must not assume.
    """
    curve = CurveClass(kind, s)
    curve.validate(n)
    if kind == "C":
        off = {s - 1: Fraction(s)}
    else:
        off = {s + 1: Fraction(1)}
        off[2] = off.get(2, Fraction(0)) + (n - s - 1)
    lhs = Fraction(n - 1) * pair_L(curve)
    acc = sum((Fraction(j * (j - 1), 2) * v for j, v in off.items()), Fraction(0))
    return (lhs - acc) / Fraction(s * (s - 1), 2)


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
        q = derive_self_pairing(curve.kind, s, n)
        assert q.denominator == 1
        return int(q)
    if curve.kind == "C":
        if len(T) == s - 1 and T < S:
            return 1
        return 0
    if T == S | {curve.tau}:
        return 1
    if len(T) == 2 and curve.tau in T and not (T - {curve.tau}) & S:
        return 1
    return 0


def pair_averaged(curve: CurveClass, j: int, n: int) -> int:
    """Intersection with B[j], via the closed-form tables.

    C: s at j = s-1 and the derived self term at j = s.  R: 1 at j = s+1,
    n-s-1 at j = 2, the derived self term at j = s; for s = 2 the j = 2 and
    j = s contributions land on the same class and add up (to n-4).  Equal
    to the sum of pair_subset over all size-j subsets.
    """
    curve.validate(n)
    if not 2 <= j <= n:
        raise InvalidSubset(f"B[{j}] does not exist for n={n}")
    s = curve.s
    total = 0
    if curve.kind == "C":
        if j == s - 1:
            total += s
    else:
        if j == s + 1:
            total += 1
        if j == 2:
            total += n - s - 1
    if j == s:
        q = derive_self_pairing(curve.kind, s, n)
        assert q.denominator == 1
        total += int(q)
    return total


def pair(c: DivisorClass, curve: CurveClass) -> Fraction:
    """Bilinear extension of the tables to any divisor class."""
    curve.validate(c.n)
    total = c.coeff_L * pair_L(curve)
    for s, q in c.coeff_B.items():
        total += q * pair_averaged(curve, s, c.n)
    return total


def matrix_curves(n: int) -> list[CurveClass]:
    """Row order of the pairing matrix: C_3..C_n, then R_2..R_{n-1}."""
    return ([CurveClass("C", s) for s in range(3, n + 1)]
            + [CurveClass("R", s) for s in range(2, n)])


def b_labels(n: int) -> list[str]:
    return [f"B[{s}]" for s in range(2, n + 1)]


def _pairing_row(curve: CurveClass, n: int) -> list[int]:
    """The row (pair_averaged(curve, j, n) for j = 2..n), built from the
    same tables with one validation and one derived self term."""
    curve.validate(n)
    s = curve.s
    row = [0] * (n - 1)  # entry j - 2 pairs with B[j]
    if curve.kind == "C":
        row[s - 3] += s
    else:
        row[s - 1] += 1
        row[0] += n - s - 1
    q = derive_self_pairing(curve.kind, s, n)
    assert q.denominator == 1
    row[s - 2] += int(q)
    return row


def pairing_matrix(n: int) -> list[list[int]]:
    """(2n-4) x (n-1) integer matrix of curve/boundary pairings, row by row;
    `pair_averaged` is the per-entry reference."""
    if n < 3:
        raise ValueError("need at least 3 marked points")
    return [_pairing_row(curve, n) for curve in matrix_curves(n)]


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def cone_certificate(n: int) -> cone.Certificate:
    """Orthant-containment certificate on the pairing matrix: passing means
    the boundary classes generate the invariant effective cone."""
    return cone.dual_contained_in_orthant(pairing_matrix(n), b_labels(n))


def kodaira_full(n: int) -> Fraction:
    """Effectivity threshold of K + B along L on the full space, computed in
    B-coordinates against the orthant; equals 2/n."""
    base = reduce_to_B(standard_class(n, "canonical") + standard_class(n, "boundary"))
    direction = reduce_to_B(standard_class(n, "hyperplane"))
    return cone.kodaira_energy(base.b_vector(), direction.b_vector())
