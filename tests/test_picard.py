import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from effcone._terms import format_terms
from effcone.picard import (
    _pairing_row,
    b_labels,
    cone_certificate,
    curve_labels,
    derive_l_relation,
    derive_self_pairing,
    kodaira_full,
    matrix_rows,
    pair_L,
    pair_incidence_counts,
    pairing_matrix,
    standard_coefficients,
)
from oracles import (InvalidSubset, SubsetCurve, added, b_coordinates, pair,
                     pair_subset, parse_terms)

Q = Fraction


def scaled(c, q):
    """The divisor class q * c."""
    return q * c[0], {s: q * v for s, v in c[1].items()}


def reduce_to_B(n, c):
    """Eliminate the L coefficient using the relation (see
    oracles.b_coordinates), zero coefficients dropped."""
    return 0, {s: q for s, q in enumerate(b_coordinates(n, c), 2) if q}


def random_class(rng, n, bound):
    """A divisor class with a random coefficient p/q, |p| <= bound and
    1 <= q <= 4, on L and then on each B[s]; zero coefficients dropped."""
    coeff_L = Q(rng.randint(-bound, bound), rng.randint(1, 4))
    coeff_B = {s: Q(rng.randint(-bound, bound), rng.randint(1, 4))
               for s in range(2, n + 1)}
    return coeff_L, {s: q for s, q in coeff_B.items() if q}


def brute_relation_coefficient(n, s):
    """Count, over all pairs of marked points, the size-s subsets containing
    the pair, by explicit enumeration; spread over all size-s subsets."""
    points = range(1, n + 1)
    total = 0
    for pair_ in combinations(points, 2):
        for subset in combinations(points, s):
            if set(pair_) <= set(subset):
                total += 1
    per_subset, rem = divmod(total, comb(n, s))
    assert rem == 0
    return per_subset


# ---------------------------------------------------------------------------
# the L-elimination relation
# ---------------------------------------------------------------------------

def test_relation_small_cases_frozen():
    assert derive_l_relation(pair_incidence_counts(3)) == (2, {2: -1, 3: -3})
    assert derive_l_relation(pair_incidence_counts(4)) == (
        3, {2: -1, 3: -3, 4: -6})


def test_relation_matches_brute_force_counting():
    for n in range(3, 9):
        _, coeff_B = derive_l_relation(pair_incidence_counts(n))
        for s in range(2, n + 1):
            assert -coeff_B.get(s, 0) == brute_relation_coefficient(n, s)


def test_relation_closed_form_coefficients():
    for n in (*range(3, 13), 400):
        _, coeff_B = derive_l_relation(pair_incidence_counts(n))
        for s in range(2, n + 1):
            assert coeff_B.get(s, 0) == -Q(s * (s - 1), 2)


def test_reduce_to_b_examples():
    assert reduce_to_B(4, standard_coefficients(4, "hyperplane")) == (
        0, {2: Q(1, 3), 3: Q(1), 4: Q(2)})
    zero = (0, {})
    assert reduce_to_B(5, zero) == zero
    assert reduce_to_B(3, standard_coefficients(3, "canonical")) == (
        0, {2: Q(-1), 3: Q(-2)})


def test_reduce_to_b_is_projection():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(3, 9)
        c = random_class(rng, n, 5)
        reduced = reduce_to_B(n, c)
        assert reduced[0] == 0
        assert reduce_to_B(n, reduced) == reduced
        q = Q(rng.randint(-7, 7), rng.randint(1, 5))
        moved = added(c, scaled(derive_l_relation(pair_incidence_counts(n)), q))
        assert reduce_to_B(n, moved) == reduced


def test_standard_classes():
    assert standard_coefficients(3, "canonical") == (-2, {3: 1})
    assert standard_coefficients(4, "boundary") == (0, {2: 1, 3: 1, 4: 1})
    assert standard_coefficients(6, "hyperplane") == (1, {})
    with pytest.raises(ValueError):
        standard_coefficients(4, "ample")
    kb = reduce_to_B(4, added(standard_coefficients(4, "canonical"),
                              standard_coefficients(4, "boundary")))
    assert kb == (0, {2: Q(1, 3), 4: Q(-1)})


# ---------------------------------------------------------------------------
# subset-level pairings
# ---------------------------------------------------------------------------

def test_pair_subset_examples():
    c5 = SubsetCurve("C", {1, 2, 3})
    assert pair_subset(c5, {1, 2}, 5) == 1
    assert pair_subset(c5, {1, 2, 3}, 5) == -1
    assert pair_subset(c5, {4, 5}, 5) == 0
    r = SubsetCurve("R", {1, 2, 3}, 4)
    assert pair_subset(r, {1, 2, 3, 4}, 6) == 1
    assert pair_subset(r, {4, 5}, 6) == 1
    assert pair_subset(r, {4, 1}, 6) == 0
    assert pair_subset(r, {1, 2, 3}, 6) == -1
    r2 = SubsetCurve("R", {1, 2}, 3)
    assert pair_subset(r2, {1, 2}, 5) == -1


def test_pair_subset_errors():
    c = SubsetCurve("C", {1, 2, 3})
    with pytest.raises(InvalidSubset):
        pair_subset(c, {1, 9}, 5)
    with pytest.raises(InvalidSubset):
        pair_subset(c, {1}, 5)
    with pytest.raises(ValueError):
        SubsetCurve("R", {1, 2}, 2)
    with pytest.raises(ValueError):
        SubsetCurve("C", {1, 2})


def test_pair_averaged_examples():
    # entry j - 2 of a curve's row is its pairing with B[j]
    assert _pairing_row("C", 4, 5)[3 - 2] == 4
    assert _pairing_row("R", 3, 5)[2 - 2] == 1
    assert _pairing_row("R", 2, 5)[2 - 2] == 1  # (n-s-1) + (-1)


def test_pair_averaged_equals_subset_sums_all_representatives():
    # full equivariance sweep: every subset S and forgotten point tau
    for n in range(3, 8):
        subsets = [frozenset(s) for size in range(2, n + 1)
                   for s in combinations(range(1, n + 1), size)]
        for j in range(2, n + 1):
            size_j = [frozenset(t) for t in combinations(range(1, n + 1), j)]
            for s in range(3, n + 1):
                expected = _pairing_row("C", s, n)[j - 2]
                for S in subsets:
                    if len(S) != s:
                        continue
                    curve = SubsetCurve("C", S)
                    assert sum(pair_subset(curve, t, n) for t in size_j) == expected
            for s in range(2, n):
                expected = _pairing_row("R", s, n)[j - 2]
                for S in subsets:
                    if len(S) != s:
                        continue
                    for tau in set(range(1, n + 1)) - S:
                        curve = SubsetCurve("R", S, tau)
                        assert sum(pair_subset(curve, t, n)
                                   for t in size_j) == expected


def test_pairing_rules_satisfy_the_projection_formula():
    # the diagonal x_i = x_j of (P^1)^n has class H_i + H_j, and its
    # pullback is the sum of the boundary divisors B_T with T containing
    # {i, j}.  A C-curve is contracted, and an R-curve moves only its
    # forgotten point tau along the line, so by the projection formula the
    # sum pairs to 0 with a C-curve and to [tau in {i, j}] with an R-curve
    for n in range(3, 8):
        points = range(1, n + 1)
        subsets = [frozenset(t) for size in range(2, n + 1)
                   for t in combinations(points, size)]
        curves = [SubsetCurve("C", S) for S in subsets if len(S) >= 3]
        curves += [SubsetCurve("R", S, tau) for S in subsets if len(S) < n
                   for tau in points if tau not in S]
        for curve in curves:
            for ij in combinations(points, 2):
                total = sum(pair_subset(curve, T, n)
                            for T in subsets if T.issuperset(ij))
                assert total == (curve.kind == "R" and curve.tau in ij), (curve, ij)


def test_pair_L_values():
    assert pair_L("C") == 0
    assert pair_L("R") == 1


def test_relation_consistency_identity():
    # pairing the relation against every curve gives zero, i.e.
    # sum_j j(j-1)/2 * pairing = (n-1) * pairing with L
    for n in range(3, 13):
        for (kind, _), row in zip(matrix_rows(n), pairing_matrix(n)):
            weighted = sum(Q(j * (j - 1), 2) * row[j - 2]
                           for j in range(2, n + 1))
            assert weighted == (n - 1) * pair_L(kind)


def test_derive_self_pairing_closed_forms():
    for n in range(3, 31):
        for s in range(3, n + 1):
            assert derive_self_pairing("C", s, n) == -(s - 2)
        for s in range(2, n):
            assert derive_self_pairing("R", s, n) == -1
    assert derive_self_pairing("C", 4, 5) == -2
    assert derive_self_pairing("R", 3, 6) == -1
    assert derive_self_pairing("C", 3, 3) == -1


def test_derive_self_pairing_refuses_missing_families():
    for kind, s in (("C", 2), ("C", 6), ("R", 1), ("R", 5), ("X", 3)):
        with pytest.raises(ValueError, match=f"no curve family {kind}_{s} for n=5"):
            derive_self_pairing(kind, s, 5)


def test_inexact_self_term_raises(monkeypatch):
    # C_4 meeting B[3] 5 times instead of 4 leaves 2*4*(-30)/12, not an
    # integer: every path to the self term refuses instead of truncating
    from effcone import picard

    table = picard._off_diagonal
    monkeypatch.setattr(picard, "_off_diagonal", lambda kind, s, n: (
        {s - 1: s + 1} if kind == "C" else table(kind, s, n)))
    with pytest.raises(ArithmeticError, match="C_4"):
        derive_self_pairing("C", 4, 5)
    with pytest.raises(ArithmeticError):
        _pairing_row("C", 4, 5)
    with pytest.raises(ArithmeticError):
        pair_subset(SubsetCurve("C", {1, 2, 3, 4}), {1, 2, 3, 4}, 5)
    with pytest.raises(ArithmeticError):
        pairing_matrix(5)
    assert derive_self_pairing("R", 3, 5) == -1


# ---------------------------------------------------------------------------
# bilinear pairing and the matrix
# ---------------------------------------------------------------------------

def test_pair_relation_is_zero():
    for n in range(3, 13):
        rel = derive_l_relation(pair_incidence_counts(n))
        for curve in matrix_rows(n):
            assert pair(n, rel, curve) == 0


def test_pair_examples():
    kb = added(standard_coefficients(4, "canonical"),
               standard_coefficients(4, "boundary"))
    assert pair(4, kb, ("C", 4)) == 2
    assert pair(4, reduce_to_B(4, kb), ("C", 4)) == 2
    assert pair(5, standard_coefficients(5, "hyperplane"), ("R", 2)) == 1


def test_pair_is_bilinear():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(3, 8)
        mk = lambda: (Q(rng.randint(-4, 4)),
                      {s: Q(rng.randint(-4, 4), rng.randint(1, 3))
                       for s in rng.sample(range(2, n + 1), k=min(3, n - 1))})
        c1, c2 = mk(), mk()
        q = Q(rng.randint(-6, 6), rng.randint(1, 4))
        curves = matrix_rows(n)
        curve = curves[rng.randrange(len(curves))]
        assert (pair(n, added(c1, scaled(c2, q)), curve)
                == pair(n, c1, curve) + q * pair(n, c2, curve))


def test_pairing_matrix_small_cases():
    assert pairing_matrix(3) == [[3, -1], [-1, 1]]
    assert pairing_matrix(4) == [[3, -1, 0], [0, 4, -2], [0, 1, 0], [0, -1, 1]]
    assert curve_labels(4) == ["C_3", "C_4", "R_2", "R_3"]
    assert matrix_rows(4) == [("C", 3), ("C", 4), ("R", 2), ("R", 3)]
    assert b_labels(3) == ["B[2]", "B[3]"]


def test_pairing_matrix_equals_per_entry_tables():
    # C_s: s at B[s-1] and -(s-2) at B[s]; R_s: 1 at B[s+1], n-s-1 at B[2]
    # and -1 at B[s], entry by entry
    for n in range(3, 61):
        expected = []
        for kind, s in matrix_rows(n):
            row = {j: 0 for j in range(2, n + 1)}
            if kind == "C":
                row[s - 1] += s
                row[s] += -(s - 2)
            else:
                row[s + 1] += 1
                row[2] += n - s - 1
                row[s] += -1
            expected.append([row[j] for j in range(2, n + 1)])
        assert pairing_matrix(n) == expected


def test_pairing_matrix_shape():
    for n in range(3, 12):
        m = pairing_matrix(n)
        assert len(m) == 2 * n - 4
        assert all(len(row) == n - 1 for row in m)


def test_pairing_matrix_rows_kill_relation():
    for n in range(3, 13):
        coeff_L, coeff_B = derive_l_relation(pair_incidence_counts(n))
        matrix = pairing_matrix(n)
        for (kind, _), row in zip(matrix_rows(n), matrix):
            total = coeff_L * pair_L(kind)
            total += sum(coeff_B.get(j, 0) * row[j - 2]
                         for j in range(2, n + 1))
            assert total == 0


# ---------------------------------------------------------------------------
# textual format
# ---------------------------------------------------------------------------

def text(n, c):
    """The canonical text of the divisor class c, as `relation` prints it:
    the L term first, then B[s] ascending in s."""
    coeff_L, coeff_B = c
    return format_terms([(coeff_L, "L"), *zip(
        (coeff_B.get(s, 0) for s in range(2, n + 1)), b_labels(n))])


def test_format_canonical():
    assert text(4, (Q(-2), {3: Q(1), 4: Q(2)})) == "-2*L + 1*B[3] + 2*B[4]"
    assert text(5, (0, {})) == "0"
    assert text(4, (Q(0), {2: Q(1, 3), 4: Q(-1)})) == "1/3*B[2] - 1*B[4]"


def test_parse_round_trip():
    # the canonical text loses nothing: every coefficient can be read back
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(3, 9)
        c = random_class(rng, n, 9)
        terms = parse_terms(text(n, c))
        coeff_L = terms.pop("L", 0)
        assert (coeff_L, {int(name[2:-1]): q for name, q in terms.items()}) == c
    assert parse_terms(text(6, (0, {}))) == {}


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def test_kodaira_full_example():
    assert kodaira_full(4) == Q(1, 2)
    assert kodaira_full(7) == Q(2, 7)


def test_cone_certificate_small():
    cert = cone_certificate(3)
    assert cert.minima == (Q(1, 4), Q(1, 2))
    assert cert.passed
    assert cert.labels == ("B[2]", "B[3]")
