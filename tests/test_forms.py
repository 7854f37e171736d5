import hashlib
import random
from fractions import Fraction
from math import comb

import pytest

from effcone import forms as forms_module
from effcone.forms import (
    DegreeTooSmall,
    disc,
    gradient_pair,
    resultant,
    substitute,
    taylor_shift,
)
from oracles import (adjugate_solve, bareiss_det, disc_cubic_reference,
                     form_from_roots, height, matmul, sylvester_matrix)

IDENTITY = (1, 0, 0, 1)


def random_matrix(rng, bound=10):
    # products of elementary shears and the rotation stay in the group
    m = IDENTITY
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        t = rng.randint(-bound, bound)
        if kind == 0:
            m = matmul(m, (1, t, 0, 1))
        elif kind == 1:
            m = matmul(m, (1, 0, t, 1))
        else:
            m = matmul(m, (0, -1, 1, 0))
    return m


def random_form(rng, degree, bound=9):
    while True:
        coeffs = tuple(rng.randint(-bound, bound) for _ in range(degree + 1))
        if any(coeffs):
            return coeffs


# ---------------------------------------------------------------------------
# substitution action
# ---------------------------------------------------------------------------

def test_act_binomial_row():
    for n in (1, 3, 5, 8):
        f = (1,) + (0,) * n
        assert substitute(f, 1, 1, 0, 1) == tuple(comb(n, i) for i in range(n + 1))


def test_act_identity():
    f = (3, -1, 4, 1)
    assert substitute(f, *IDENTITY) == f


def test_act_inverse_round_trip():
    rng = random.Random(12)
    for _ in range(100):
        f = random_form(rng, rng.choice([2, 3, 4, 5]))
        m = random_matrix(rng)
        a, b, c, d = m
        inverse = (d, -b, -c, a)
        assert matmul(m, inverse) == IDENTITY
        assert substitute(substitute(f, *m), *inverse) == f


def test_act_right_action_law():
    rng = random.Random(13)
    for _ in range(100):
        f = random_form(rng, rng.choice([2, 3, 4]))
        m1, m2 = random_matrix(rng), random_matrix(rng)
        assert substitute(substitute(f, *m1), *m2) == substitute(f, *matmul(m1, m2))


def test_act_negated_identity_parity():
    rng = random.Random(14)
    for degree in (2, 3, 4, 5):
        f = random_form(rng, degree)
        g = substitute(f, -1, 0, 0, -1)
        if degree % 2 == 0:
            assert g == f
        else:
            assert g == tuple(-x for x in f)
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
        assert substitute(xs, a, b, c, d) == expected


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


def test_height():
    assert height((1, 0, -1, 0)) == 1
    assert height((0, 0, 0, 0)) == 0
    assert height((2, -7, 3)) == 7


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
    assert abs(disc((1, 0, -1, 0))) == 4
    assert disc_cubic_reference(1, 0, -1, 0) == -4


def test_disc_repeated_root_is_zero():
    assert disc((1, -2, 1, 0)) == 0  # z(z - w)^2
    rng = random.Random(21)
    for _ in range(40):
        n = rng.choice([2, 3, 4, 5])
        r = rng.randint(-5, 5)
        roots = [r, r] + [rng.randint(-5, 5) for _ in range(n - 2)]
        assert disc(form_from_roots(rng.randint(1, 3), roots)) == 0


def root_product(lead, roots):
    """lead^(2n-2) * prod_(i<j) (r_i - r_j)^2."""
    n = len(roots)
    expected = lead ** (2 * n - 2)
    for i in range(n):
        for j in range(i + 1, n):
            expected *= (roots[i] - roots[j]) ** 2
    return expected


def test_disc_matches_root_product_formula():
    rng = random.Random(22)
    for _ in range(60):
        n = rng.choice([2, 3, 4, 5, 6])
        roots = rng.sample(range(-10, 11), n)
        lead = rng.choice([1, 2, 3, -2])
        f = form_from_roots(lead, roots)
        assert disc(f) == root_product(lead, roots)
    # (r, -1; 1, 0) sends the root r to infinity (x0 = 0), and
    # (r, r-1; 1, 1) sends r to infinity and r - 1 to zero (x0 = xn = 0)
    for _ in range(60):
        n = rng.choice([2, 3, 4, 5, 6])
        r = rng.randint(-9, 10)
        others = [t for t in range(-10, 11) if t not in (r, r - 1)]
        roots = [r, r - 1] + rng.sample(others, n - 2)
        lead = rng.choice([1, 2, 3, -2])
        f = form_from_roots(lead, roots)
        at_infinity = substitute(f, r, -1, 1, 0)
        both_ends = substitute(f, r, r - 1, 1, 1)
        assert at_infinity[0] == 0 != at_infinity[1]
        assert both_ends[0] == both_ends[-1] == 0
        assert disc(at_infinity) == disc(both_ends) == root_product(lead, roots)


def test_disc_invariance_under_substitution():
    rng = random.Random(23)
    for _ in range(200):
        f = random_form(rng, rng.choice([3, 4, 5]))
        m = random_matrix(rng)
        assert disc(substitute(f, *m)) == disc(f)


def test_disc_roots_at_infinity():
    # simple root at infinity: x0 = 0, the same disc as the reversed form
    f = (0, 1, 0, -2)
    assert disc(f) == disc((-2, 0, 1, 0))
    assert disc(f) != 0
    # double root at infinity
    assert disc((0, 0, 1, 7)) == 0
    # roots at zero and infinity: z*w*(z - w) has distinct roots
    f = (0, 1, -1, 0)
    assert disc(f) != 0
    assert disc(f) == disc(substitute(f, 1, 0, 2, 1))


def seeded_disc_forms(count=2000, seed=160):
    """Forms of degree 2-9 with entries in [-9, 9]; of every five, one has
    x0 = 0, one x0 = x1 = 0, one xn = 0, one x0 = xn = 0."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = 2 + k % 8
        xs = [rng.randint(-9, 9) for _ in range(n + 1)]
        pattern = k % 5
        if pattern in (0, 1, 3):
            xs[0] = 0
        if pattern == 1:
            xs[1] = 0
        if pattern in (2, 3):
            xs[-1] = 0
        if not any(xs):
            xs[n // 2] = 1
        out.append(tuple(xs))
    return out


def test_disc_values_are_pinned():
    # sha256 of the newline-joined discriminants; a change of any value,
    # at a root at infinity or elsewhere, changes it
    text = "\n".join(str(disc(f)) for f in seeded_disc_forms())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ec0289273baf486543403f55c52e016fb3c4214a10ffa8517fcedc9a007aa662")


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_resultant_is_the_sylvester_determinant_with_cofactors():
    # on both charts of every seeded gradient pair, and on small pairs with
    # missing leading coefficients, common factors and zero polynomials:
    # r is the Bareiss determinant of the Sylvester matrix, and u p + v q = r
    # with u, v of degree < d
    rng = random.Random(27)
    pairs = []
    for f in seeded_disc_forms():
        p, q = gradient_pair(f)
        pairs += [(p, q), (p[::-1], q[::-1])]
    for _ in range(500):
        d = rng.randint(1, 6)
        pairs.append(tuple([rng.choice((0, 0, rng.randint(-5, 5)))
                            for _ in range(d + 1)] for _ in range(2)))
    for p, q in pairs:
        d = len(p) - 1
        r, u, v = resultant(p, q)
        assert r == bareiss_det(sylvester_matrix(p, q)), (p, q)
        assert len(u) == len(v) == d, (p, q)
        assert [x + y for x, y in zip(poly_mul(u, p), poly_mul(v, q))] == \
            [0] * (2 * d - 1) + [r], (p, q)


def test_resultant_steps_grow_quadratically(monkeypatch):
    # coefficient operations of the chain, each one big-int product or
    # difference, on dense forms with a nonzero discriminant, so that every
    # chain runs down to a constant: O(n^2) steps give about x4 per doubling
    # of the degree, and an O(n^3) elimination x8
    steps = [0]
    pseudo_divide, combine = forms_module._pseudo_divide, forms_module._combine

    def counted_pseudo_divide(a, b):
        # per step: the quotient and the remainder's tail scaled, b subtracted
        steps[0] += (len(a) - len(b) + 1) * (len(a) + len(b) - 2)
        return pseudo_divide(a, b)

    def counted_combine(k, x, quo, y):
        steps[0] += len(x) + len(quo) * len(y)
        return combine(k, x, quo, y)

    monkeypatch.setattr(forms_module, "_pseudo_divide", counted_pseudo_divide)
    monkeypatch.setattr(forms_module, "_combine", counted_combine)
    counts = []
    for n in (20, 40, 80):
        rng = random.Random(n)
        f = tuple(rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n + 1))
        steps[0] = 0
        assert disc(f)
        counts.append(steps[0])
    assert all(big <= 4.5 * small for small, big in zip(counts, counts[1:])), counts


def test_disc_degree_too_small():
    with pytest.raises(DegreeTooSmall):
        disc((1, 1))


def test_disc_cubic_reference_values():
    assert disc_cubic_reference(1, 0, 0, 0) == 0
    assert disc_cubic_reference(1, 0, -1, -1) == 23
    assert disc_cubic_reference(1, 0, -1, 0) == -4


def convention_ratios(count, seed, bound=50):
    """disc(f) / disc_cubic_reference(f) over seeded random cubics; a cubic
    where the reference vanishes is drawn again."""
    rng = random.Random(seed)
    ratios = []
    while len(ratios) < count:
        coeffs = tuple(rng.randint(-bound, bound) for _ in range(4))
        ref = disc_cubic_reference(*coeffs)
        if ref:
            ratios.append(Fraction(disc(coeffs), ref))
    return ratios


def test_convention_ratio_is_constant_minus_one():
    # the first 100 cubics of seed 0 are among its 1000
    assert set(convention_ratios(1000, seed=0)) == {-1}
    assert set(convention_ratios(100, seed=5)) == {-1}

