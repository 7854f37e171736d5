import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from effcone.picard import (
    CurveClass,
    DivisorClass,
    InvalidSubset,
    SubsetCurve,
    b_labels,
    cone_certificate,
    derive_l_relation,
    derive_self_pairing,
    format_divisor,
    kodaira_full,
    matrix_curves,
    pair,
    pair_L,
    pair_averaged,
    pair_subset,
    pairing_matrix,
    reduce_to_B,
    representative,
    standard_class,
)

Q = Fraction


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
    rel3 = derive_l_relation(3)
    assert rel3.coeff_L == 2
    assert rel3.coeff_B == {2: Q(-1), 3: Q(-3)}
    rel4 = derive_l_relation(4)
    assert rel4.coeff_L == 3
    assert rel4.coeff_B == {2: Q(-1), 3: Q(-3), 4: Q(-6)}


def test_relation_matches_brute_force_counting():
    for n in range(3, 9):
        rel = derive_l_relation(n)
        for s in range(2, n + 1):
            assert -rel.b(s) == brute_relation_coefficient(n, s)


def test_relation_closed_form_coefficients():
    for n in (*range(3, 13), 400):
        rel = derive_l_relation(n)
        for s in range(2, n + 1):
            assert rel.b(s) == -Q(s * (s - 1), 2)


def test_reduce_to_b_examples():
    assert reduce_to_B(standard_class(4, "hyperplane")).coeff_B == {
        2: Q(1, 3), 3: Q(1), 4: Q(2)}
    zero = DivisorClass.zero(5)
    assert reduce_to_B(zero) == zero
    k3 = standard_class(3, "canonical")
    assert reduce_to_B(k3).coeff_B == {2: Q(-1), 3: Q(-2)}


def test_reduce_to_b_is_projection():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(3, 9)
        c = DivisorClass(n, Q(rng.randint(-5, 5), rng.randint(1, 4)),
                         {s: Q(rng.randint(-5, 5), rng.randint(1, 4))
                          for s in range(2, n + 1)})
        reduced = reduce_to_B(c)
        assert reduced.coeff_L == 0
        assert reduce_to_B(reduced) == reduced
        q = Q(rng.randint(-7, 7), rng.randint(1, 5))
        moved = c + q * derive_l_relation(n)
        assert reduce_to_B(moved) == reduced


def test_standard_classes():
    assert standard_class(3, "canonical").coeff_B == {3: Q(1)}
    assert standard_class(3, "canonical").coeff_L == -2
    assert standard_class(4, "boundary").coeff_B == {2: Q(1), 3: Q(1), 4: Q(1)}
    assert standard_class(6, "hyperplane") == DivisorClass(6, Q(1), {})
    with pytest.raises(ValueError):
        standard_class(4, "ample")
    kb = reduce_to_B(standard_class(4, "canonical") + standard_class(4, "boundary"))
    assert kb.coeff_B == {2: Q(1, 3), 4: Q(-1)}


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
    assert pair_averaged(CurveClass("C", 4), 3, 5) == 4
    assert pair_averaged(CurveClass("R", 3), 2, 5) == 1
    assert pair_averaged(CurveClass("R", 2), 2, 5) == 1  # (n-s-1) + (-1)


def test_pair_averaged_equals_subset_sums_all_representatives():
    # full equivariance sweep: every subset S and forgotten point tau
    for n in range(3, 8):
        subsets = [frozenset(s) for size in range(2, n + 1)
                   for s in combinations(range(1, n + 1), size)]
        for j in range(2, n + 1):
            size_j = [frozenset(t) for t in combinations(range(1, n + 1), j)]
            for s in range(3, n + 1):
                expected = pair_averaged(CurveClass("C", s), j, n)
                for S in subsets:
                    if len(S) != s:
                        continue
                    curve = SubsetCurve("C", S)
                    assert sum(pair_subset(curve, t, n) for t in size_j) == expected
            for s in range(2, n):
                expected = pair_averaged(CurveClass("R", s), j, n)
                for S in subsets:
                    if len(S) != s:
                        continue
                    for tau in set(range(1, n + 1)) - S:
                        curve = SubsetCurve("R", S, tau)
                        assert sum(pair_subset(curve, t, n)
                                   for t in size_j) == expected


def test_fixed_representative():
    rep = representative(CurveClass("R", 3), 6)
    assert rep.S == frozenset({1, 2, 3}) and rep.tau == 4
    assert representative(CurveClass("C", 4), 6).S == frozenset({1, 2, 3, 4})


def test_pair_L_values():
    assert pair_L(CurveClass("C", 3)) == 0
    assert pair_L(CurveClass("R", 2)) == 1


def test_relation_consistency_identity():
    # pairing the relation against every curve gives zero, i.e.
    # sum_j j(j-1)/2 * pairing = (n-1) * pairing with L
    for n in range(3, 13):
        for curve in matrix_curves(n):
            weighted = sum(Q(j * (j - 1), 2) * pair_averaged(curve, j, n)
                           for j in range(2, n + 1))
            assert weighted == (n - 1) * pair_L(curve)


def test_derive_self_pairing_closed_forms():
    for n in range(3, 31):
        for s in range(3, n + 1):
            assert derive_self_pairing("C", s, n) == -(s - 2)
        for s in range(2, n):
            assert derive_self_pairing("R", s, n) == -1
    assert derive_self_pairing("C", 4, 5) == -2
    assert derive_self_pairing("R", 3, 6) == -1
    assert derive_self_pairing("C", 3, 3) == -1


# ---------------------------------------------------------------------------
# bilinear pairing and the matrix
# ---------------------------------------------------------------------------

def test_pair_relation_is_zero():
    for n in range(3, 13):
        rel = derive_l_relation(n)
        for curve in matrix_curves(n):
            assert pair(rel, curve) == 0


def test_pair_examples():
    kb = standard_class(4, "canonical") + standard_class(4, "boundary")
    assert pair(kb, CurveClass("C", 4)) == 2
    assert pair(reduce_to_B(kb), CurveClass("C", 4)) == 2
    assert pair(standard_class(5, "hyperplane"), CurveClass("R", 2)) == 1


def test_pair_is_bilinear():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(3, 8)
        mk = lambda: DivisorClass(
            n, Q(rng.randint(-4, 4)),
            {s: Q(rng.randint(-4, 4), rng.randint(1, 3))
             for s in rng.sample(range(2, n + 1), k=min(3, n - 1))})
        c1, c2 = mk(), mk()
        q = Q(rng.randint(-6, 6), rng.randint(1, 4))
        curves = matrix_curves(n)
        curve = curves[rng.randrange(len(curves))]
        assert pair(c1 + q * c2, curve) == pair(c1, curve) + q * pair(c2, curve)


def test_pairing_matrix_small_cases():
    assert pairing_matrix(3) == [[3, -1], [-1, 1]]
    assert pairing_matrix(4) == [[3, -1, 0], [0, 4, -2], [0, 1, 0], [0, -1, 1]]
    assert [c.label() for c in matrix_curves(4)] == ["C_3", "C_4", "R_2", "R_3"]
    assert b_labels(3) == ["B[2]", "B[3]"]


def test_pairing_matrix_equals_per_entry_tables():
    for n in range(3, 61):
        assert pairing_matrix(n) == [[pair_averaged(curve, j, n) for j in range(2, n + 1)]
                                     for curve in matrix_curves(n)]


def test_pairing_matrix_shape():
    for n in range(3, 12):
        m = pairing_matrix(n)
        assert len(m) == 2 * n - 4
        assert all(len(row) == n - 1 for row in m)


def test_pairing_matrix_rows_kill_relation():
    for n in range(3, 13):
        rel = derive_l_relation(n)
        matrix = pairing_matrix(n)
        for curve, row in zip(matrix_curves(n), matrix):
            total = rel.coeff_L * pair_L(curve)
            total += sum(rel.b(j) * row[j - 2] for j in range(2, n + 1))
            assert total == 0


# ---------------------------------------------------------------------------
# textual format
# ---------------------------------------------------------------------------

def test_format_canonical():
    c = DivisorClass(4, Q(-2), {3: Q(1), 4: Q(2)})
    assert format_divisor(c) == "-2*L + 1*B[3] + 2*B[4]"
    assert str(DivisorClass.zero(5)) == "0"
    assert format_divisor(DivisorClass(4, Q(0), {2: Q(1, 3), 4: Q(-1)})) == \
        "1/3*B[2] - 1*B[4]"


def parse_terms(text):
    """{name: coefficient} of the canonical text that format_divisor writes."""
    if text == "0":
        return {}
    terms = (t.split("*") for t in text.replace(" - ", " + -").split(" + "))
    return {name: Q(q) for q, name in terms}


def test_parse_round_trip():
    # the canonical text loses nothing: every coefficient can be read back
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(3, 9)
        c = DivisorClass(n, Q(rng.randint(-9, 9), rng.randint(1, 4)),
                         {s: Q(rng.randint(-9, 9), rng.randint(1, 4))
                          for s in range(2, n + 1)})
        terms = parse_terms(format_divisor(c))
        coeff_L = terms.pop("L", 0)
        assert DivisorClass(n, coeff_L, {int(name[2:-1]): q
                                         for name, q in terms.items()}) == c
    assert parse_terms(format_divisor(DivisorClass.zero(6))) == {}


def test_divisor_class_validation():
    with pytest.raises(ValueError):
        DivisorClass(2, Q(1), {})
    with pytest.raises(ValueError):
        DivisorClass(4, Q(0), {5: Q(1)})
    a = DivisorClass(4, Q(1), {2: Q(1)})
    b = DivisorClass(5, Q(1), {2: Q(1)})
    with pytest.raises(ValueError):
        a + b


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
