import random
from fractions import Fraction
from math import comb

import pytest

from effcone.forms import (
    BinaryForm,
    DegreeTooSmall,
    InconsistentRatio,
    UnimodularMatrix,
    act,
    adjugate_solve,
    bareiss_det,
    compare_disc_conventions,
    disc,
    disc_cubic_reference,
    form_from_roots,
    height,
    substitute,
    taylor_shift,
)


def random_matrix(rng, bound=10):
    # products of elementary shears and the rotation stay in the group
    m = UnimodularMatrix.identity()
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        t = rng.randint(-bound, bound)
        if kind == 0:
            m = m @ UnimodularMatrix(1, t, 0, 1)
        elif kind == 1:
            m = m @ UnimodularMatrix(1, 0, t, 1)
        else:
            m = m @ UnimodularMatrix(0, -1, 1, 0)
    return m


def random_form(rng, degree, bound=9):
    while True:
        coeffs = tuple(rng.randint(-bound, bound) for _ in range(degree + 1))
        if any(coeffs):
            return BinaryForm(coeffs)


# ---------------------------------------------------------------------------
# substitution action
# ---------------------------------------------------------------------------

def test_act_binomial_row():
    for n in (1, 3, 5, 8):
        f = BinaryForm((1,) + (0,) * n)
        g = act(f, UnimodularMatrix(1, 1, 0, 1))
        assert g.coeffs == tuple(comb(n, i) for i in range(n + 1))


def test_act_identity():
    f = BinaryForm((3, -1, 4, 1))
    assert act(f, UnimodularMatrix.identity()) == f


def test_act_inverse_round_trip():
    rng = random.Random(12)
    for _ in range(100):
        f = random_form(rng, rng.choice([2, 3, 4, 5]))
        m = random_matrix(rng)
        inverse = UnimodularMatrix(m.d, -m.b, -m.c, m.a)
        assert m @ inverse == UnimodularMatrix.identity()
        assert act(act(f, m), inverse) == f


def test_act_right_action_law():
    rng = random.Random(13)
    for _ in range(100):
        f = random_form(rng, rng.choice([2, 3, 4]))
        m1, m2 = random_matrix(rng), random_matrix(rng)
        assert act(act(f, m1), m2) == act(f, m1 @ m2)


def test_act_negated_identity_parity():
    rng = random.Random(14)
    neg = -UnimodularMatrix.identity()
    for degree in (2, 3, 4, 5):
        f = random_form(rng, degree)
        g = act(f, neg)
        if degree % 2 == 0:
            assert g == f
        else:
            assert g == -f
        assert height(g) == height(f)


def reference_substitution(xs, a, b, c, d):
    """Sum of x_i * (a z + b w)^(n-i) * (c z + d w)^i, each product
    multiplied out one linear factor at a time."""
    n = len(xs) - 1
    out = [0] * (n + 1)
    for i, x in enumerate(xs):
        poly = [x]  # coefficients of z^(k-t) w^t for the running degree k
        for u, v in [(a, b)] * (n - i) + [(c, d)] * i:
            nxt = [0] * (len(poly) + 1)
            for t, p in enumerate(poly):
                nxt[t] += u * p
                nxt[t + 1] += v * p
            poly = nxt
        for t, p in enumerate(poly):
            out[t] += p
    return tuple(out)


def random_det1_entries(rng, bound=50):
    while True:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        if a == 0:
            if b * c == -1:
                return a, b, c, rng.randint(-bound, bound)
        elif (1 + b * c) % a == 0 and abs((1 + b * c) // a) <= bound:
            return a, b, c, (1 + b * c) // a


def test_act_matches_reference_expansion():
    rng = random.Random(15)
    for _ in range(300):
        degree = rng.randint(1, 8)
        xs = tuple(rng.choice([0, 0, rng.randint(-9, 9)])
                   for _ in range(degree + 1))
        if not any(xs):
            xs = (1,) + xs[1:]
        a, b, c, d = random_det1_entries(rng)
        expected = reference_substitution(xs, a, b, c, d)
        assert act(BinaryForm(xs), UnimodularMatrix(a, b, c, d)).coeffs == expected


def test_taylor_shift_and_mirror_match_substitute():
    # F(m + n, n) and its mirror F(m, m + n) = rev(shift(rev F))
    rng = random.Random(16)
    for _ in range(2000):
        degree = rng.randint(1, 8)
        xs = tuple(rng.choice([0, rng.randint(-10**12, 10**12)])
                   for _ in range(degree + 1))
        assert taylor_shift(xs) == substitute(xs, 1, 1, 0, 1)
        assert taylor_shift(xs[::-1])[::-1] == substitute(xs, 1, 0, 1, 1)
    assert taylor_shift((1, 0, 0, 0)) == (1, 3, 3, 1)
    assert taylor_shift((0, 0, 0, 1)) == (0, 0, 0, 1)


def test_unimodular_validation():
    with pytest.raises(ValueError):
        UnimodularMatrix(1, 0, 0, 2)
    with pytest.raises(ValueError):
        UnimodularMatrix.from_csv("1,0,0")
    m = UnimodularMatrix.from_csv("2,3,1,2")
    assert m.entries() == (2, 3, 1, 2)


def test_height():
    assert height(BinaryForm((1, 0, -1, 0))) == 1
    assert height(BinaryForm((0, 0, 0, 0))) == 0
    assert height(BinaryForm((2, -7, 3))) == 7


# ---------------------------------------------------------------------------
# discriminants
# ---------------------------------------------------------------------------

def test_bareiss_determinant():
    assert bareiss_det([[2]]) == 2
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    rng = random.Random(4)
    for _ in range(30):
        k = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)]
        # expansion by minors as the oracle
        def minor_det(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = 0
            for j, c in enumerate(rows[0]):
                if c:
                    sub = [r[:j] + r[j + 1:] for r in rows[1:]]
                    total += (-1) ** j * c * minor_det(sub)
            return total
        assert bareiss_det(m) == minor_det(m)


def test_adjugate_solve():
    # A y = det(A) b pins y = adj(A) b for a nonsingular A; sparse entries
    # force row swaps, which must not change the sign of det or y
    rng = random.Random(9)
    solved = 0
    while solved < 40:
        k = rng.randint(1, 6)
        a = [[rng.choice((0, 0, 0, rng.randint(-7, 7))) for _ in range(k)]
             for _ in range(k)]
        rhs = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(2)]
        det = bareiss_det(a)
        if det == 0:
            with pytest.raises(ValueError):
                adjugate_solve(a, rhs)
            continue
        got_det, ys = adjugate_solve(a, rhs)
        assert got_det == det
        for b, y in zip(rhs, ys):
            assert [sum(x * v for x, v in zip(row, y)) for row in a] == \
                [det * v for v in b]
        solved += 1


def test_disc_sign_convention_on_displayed_cubic():
    f = BinaryForm((1, 0, -1, 0))
    assert abs(disc(f)) == 4
    assert disc_cubic_reference(1, 0, -1, 0) == -4


def test_disc_repeated_root_is_zero():
    assert disc(BinaryForm((1, -2, 1, 0))) == 0  # z(z - w)^2
    rng = random.Random(21)
    for _ in range(40):
        n = rng.choice([2, 3, 4, 5])
        r = rng.randint(-5, 5)
        roots = [r, r] + [rng.randint(-5, 5) for _ in range(n - 2)]
        assert disc(form_from_roots(rng.randint(1, 3), roots)) == 0


def test_disc_matches_root_product_formula():
    rng = random.Random(22)
    for _ in range(60):
        n = rng.choice([2, 3, 4, 5, 6])
        roots = rng.sample(range(-10, 11), n)
        lead = rng.choice([1, 2, 3, -2])
        f = form_from_roots(lead, roots)
        expected = lead ** (2 * n - 2)
        for i in range(n):
            for j in range(i + 1, n):
                expected *= (roots[i] - roots[j]) ** 2
        assert disc(f) == expected


def test_disc_invariance_under_substitution():
    rng = random.Random(23)
    for _ in range(200):
        f = random_form(rng, rng.choice([3, 4, 5]))
        m = random_matrix(rng)
        assert disc(act(f, m)) == disc(f)


def test_disc_roots_at_infinity():
    # simple root at infinity: x0 = 0, reversal path
    f = BinaryForm((0, 1, 0, -2))
    assert disc(f) == disc(BinaryForm((-2, 0, 1, 0)))
    assert disc(f) != 0
    # double root at infinity
    assert disc(BinaryForm((0, 0, 1, 7))) == 0
    # roots at zero and infinity: shear path; z*w*(z - w) has distinct roots
    f = BinaryForm((0, 1, -1, 0))
    assert disc(f) != 0
    m = UnimodularMatrix(1, 0, 2, 1)
    assert disc(f) == disc(act(f, m))


def test_disc_degree_too_small():
    with pytest.raises(DegreeTooSmall):
        disc(BinaryForm((1, 1)))


def test_disc_cubic_reference_values():
    assert disc_cubic_reference(1, 0, 0, 0) == 0
    assert disc_cubic_reference(1, 0, -1, -1) == 23
    assert disc_cubic_reference(1, 0, -1, 0) == -4


def test_convention_ratio_is_constant_minus_one():
    assert compare_disc_conventions(100) == Fraction(-1)
    assert compare_disc_conventions(100, seed=5) == Fraction(-1)
    # stability across sample sizes
    assert compare_disc_conventions(1000) == compare_disc_conventions(100)


def test_convention_ratio_detects_mismatch():
    # a fake "implementation" that is not a constant multiple would raise;
    # simulate by checking the guard path directly
    with pytest.raises(ValueError):
        compare_disc_conventions(0)


def test_form_csv_round_trip():
    f = BinaryForm.from_csv("1,-2,0,5")
    assert f.coeffs == (1, -2, 0, 5)
    assert BinaryForm.from_csv(f.to_csv()) == f
    with pytest.raises(ValueError):
        BinaryForm.from_csv("3")
