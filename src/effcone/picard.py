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

Everything here is plain integer data: a class is its (coefficient of L,
{s: coefficient of B[s]}) pair, a curve family its (kind, s) pair, and its
pairings a row of ints.  `curve_labels` and `b_labels` name the rows and
columns of the pairing matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import cone
from ._terms import ExactnessError


def pair_incidence_counts(n: int) -> list[tuple[int, int, int, int, int]]:
    """The counts behind the L-relation, one tuple per s = 2..n:
    (s, subsets per pair, pair incidences, subsets, pairs per subset).

    Each of the comb(n, 2) pairs of marked points lies in comb(n-2, s-2)
    subsets of size s, the incidence total over all pairs is spread over
    the comb(n, s) subsets of that size, and the count per subset is
    checked against the closed form s(s-1)/2; a mismatch raises
    ExactnessError.
    """
    if n < 3:
        raise ValueError("need at least 3 marked points")
    counts = []
    pairs = comb(n, 2)
    for s in range(2, n + 1):
        per_pair = comb(n - 2, s - 2)
        incidences = pairs * per_pair
        subsets = comb(n, s)
        per_subset, rem = divmod(incidences, subsets)
        if rem or per_subset != s * (s - 1) // 2:
            raise ExactnessError(
                f"pair-incidence count disagrees with s(s-1)/2 at s={s}")
        counts.append((s, per_pair, incidences, subsets, per_subset))
    return counts


def derive_l_relation(counts: list[tuple[int, int, int, int, int]]
                      ) -> tuple[int, dict[int, int]]:
    """(coefficient of L, {s: coefficient of B[s]}) of the class
    (n-1)*L - sum_s s(s-1)/2 * B[s], which is zero in the invariant Picard
    group, read from the tuples of pair_incidence_counts(n): the last
    tuple's s is n, and B[s] gets minus its count per subset."""
    return counts[-1][0] - 1, {s: -per_subset for s, *_, per_subset in counts}


def standard_coefficients(n: int, which: str) -> tuple[int, dict[int, int]]:
    """(coefficient of L, {s: coefficient of B[s]}) of the canonical class,
    the total boundary, or the hyperplane pullback; absent keys mean zero."""
    if n < 3:
        raise ValueError("need at least 3 marked points")
    if which == "canonical":
        return -2, {s: s - 2 for s in range(3, n + 1)}
    if which == "boundary":
        return 0, {s: 1 for s in range(2, n + 1)}
    if which == "hyperplane":
        return 1, {}
    raise ValueError(f"unknown standard class {which!r}")


# ---------------------------------------------------------------------------
# curve families and pairings
# ---------------------------------------------------------------------------

def pair_L(kind: str) -> int:
    """Intersection of a curve family with the hyperplane pullback:
    C-curves are collapsed (0), R-curves map to lines (1)."""
    return 0 if kind == "C" else 1


def _off_diagonal(kind: str, s: int, n: int) -> dict[int, int]:
    """The table of averaged pairings of the family with B[j] other than
    the self term: C_s meets B[s-1] s times; R_s meets B[s+1] once and B[2]
    n-s-1 times (for s = 2 that lands on the self class B[2])."""
    if kind == "C":
        return {s - 1: s}
    off = {s + 1: 1}
    off[2] = off.get(2, 0) + (n - s - 1)
    return off


def derive_self_pairing(kind: str, s: int, n: int) -> int:
    """Self term B_S . curve, solved from the relation rather than hard-coded.

    Pairing (n-1) L = sum_j j(j-1)/2 B[j] with the curve leaves a single
    unknown (the T = S entry, weighted s(s-1)/2 because B_S appears once in
    B[s]); everything else is an off-diagonal table value.  Doubled, the
    solve is 2(n-1) pair_L - sum_j j(j-1) off_j divided by s(s-1), in ints;
    a remainder raises ExactnessError.  The results are -(s-2) for C and
    -1 for R, which callers may assert but must not assume.
    """
    if not (3 <= s <= n if kind == "C" else kind == "R" and 2 <= s < n):
        raise ValueError(f"no curve family {kind}_{s} for n={n}")
    acc = sum(j * (j - 1) * v for j, v in _off_diagonal(kind, s, n).items())
    self_term, rem = divmod(2 * (n - 1) * pair_L(kind) - acc, s * (s - 1))
    if rem:
        raise ExactnessError(f"self term of {kind}_{s} is not an integer at n={n}")
    return self_term


def matrix_rows(n: int) -> list[tuple[str, int]]:
    """Row order of the pairing matrix as (kind, s): C_3..C_n, then
    R_2..R_{n-1}."""
    return [("C", s) for s in range(3, n + 1)] + [("R", s) for s in range(2, n)]


def curve_labels(n: int) -> list[str]:
    """The label kind_s of each row of the pairing matrix."""
    return [f"{kind}_{s}" for kind, s in matrix_rows(n)]


def b_labels(n: int) -> list[str]:
    """The label B[s] of each column of the pairing matrix."""
    return [f"B[{s}]" for s in range(2, n + 1)]


def _pairing_row(kind: str, s: int, n: int) -> list[int]:
    """The averaged pairings of the family kind_s with B[2], ..., B[n],
    from the closed-form tables.

    C_s: s at j = s-1 and the derived self term at j = s.  R_s: 1 at
    j = s+1, n-s-1 at j = 2 and the derived self term at j = s; for s = 2
    the j = 2 and j = s contributions land on the same class and add up
    (to n-4).  Every pairing of a curve family is read from this row.
    """
    self_term = derive_self_pairing(kind, s, n)  # validates the family
    row = [0] * (n - 1)  # entry j - 2 pairs with B[j]
    for j, v in _off_diagonal(kind, s, n).items():
        row[j - 2] += v
    row[s - 2] += self_term
    return row


def pairing_matrix(n: int) -> list[list[int]]:
    """(2n-4) x (n-1) integer matrix of curve/boundary pairings, row by
    row, in the order of matrix_rows."""
    if n < 3:
        raise ValueError("need at least 3 marked points")
    return [_pairing_row(kind, s, n) for kind, s in matrix_rows(n)]


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def cone_certificate(n: int) -> cone.Certificate:
    """Orthant-containment certificate on the pairing matrix: passing means
    the boundary classes generate the invariant effective cone."""
    return cone.dual_contained_in_orthant(pairing_matrix(n), b_labels(n))


def kodaira_full(n: int) -> Fraction:
    """Effectivity threshold of K + B along L on the full space, computed in
    B-coordinates against the orthant; equals 2/n.

    Each class is cleared straight from standard_coefficients over the
    common denominator 2(n-1), in ints: with L eliminated by the relation,
    B[s] gains coeff_L * s(s-1) / (2(n-1)), so entry s - 2 is
    2(n-1) * coeff_B[s] + coeff_L * s(s-1).  A common positive scale leaves
    every threshold -b/d unchanged, and clearing is linear, so K + B is the
    sum of the two cleared vectors."""
    cleared = []
    for which in ("canonical", "boundary", "hyperplane"):
        coeff_L, coeff_B = standard_coefficients(n, which)
        cleared.append([2 * (n - 1) * coeff_B.get(s, 0) + coeff_L * (s * (s - 1))
                        for s in range(2, n + 1)])
    canonical, boundary, direction = cleared
    return cone.kodaira_energy([k + b for k, b in zip(canonical, boundary)],
                               direction)
