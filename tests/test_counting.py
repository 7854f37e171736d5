import math
import random
import time
from bisect import bisect_right
from collections import Counter
from operator import neg

import pytest

from effcone import counting
from effcone.counting import (
    CountingError,
    CountSeries,
    InsufficientData,
    NonGenericForm,
    _farey_walk,
    _gradient_identities,
    count_series,
    entry_bound,
    enumerate_unimodular,
    fit_exponent,
)
from effcone.forms import (
    BinaryForm,
    UnimodularMatrix,
    act,
    bareiss_det,
    disc,
    form_from_roots,
    height,
    substitute,
    sylvester_matrix,
    taylor_shift,
)


def evaluate(xs, a, c):
    """f(a, c) for the coefficient vector xs, by Horner's rule."""
    acc = 0
    power = 1
    for x in xs:
        acc = acc * a + x * power
        power *= c
    return acc


def count_orbit(f, b):
    """N(b) alone, from a one-point grid."""
    return count_series(f, [b]).points[0][1]


def brute_box(bound):
    return {(a, b, c, d)
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
            for c in range(-bound, bound + 1)
            for d in range(-bound, bound + 1)
            if a * d - b * c == 1}


# The shell search that counted orbits before the entry bound: boxes of
# entries up to 4, 8, 16, ..., stopping after two boxes in a row add no
# qualifying form.  A heuristic, kept as the reference the walk is compared
# against; it is exact whenever the last qualifying matrix comes before the
# first two empty boxes.
SHELL_START, SHELL_GROWTH, QUIET_SHELLS = 4, 2, 2


def brute_orbit_heights(f, b_max):
    """Sorted heights from the shell search, via the plain box enumerator."""
    seen = set()
    prev = 0
    shell = SHELL_START
    quiet = 0
    while True:
        new = 0
        for m in enumerate_unimodular(shell):
            if max(abs(v) for v in m.entries()) <= prev:
                continue
            g = act(f, m)
            if height(g) <= b_max and g.coeffs not in seen:
                seen.add(g.coeffs)
                new += 1
        quiet = quiet + 1 if new == 0 else 0
        if quiet >= QUIET_SHELLS:
            break
        prev = shell
        shell *= SHELL_GROWTH
    return sorted(height(BinaryForm(c)) for c in seen)


def reference_walk(xs, b_max, box):
    """Map each image of f of height <= b_max under a determinant-1 matrix
    with entries in [-box, box] to its height: the Farey walk that deduped
    the images in a dict before the counts were divided by the stabilizer
    order.  It walks the same tree, records the second root too, and for
    odd degree stores both signs of each image."""
    odd = len(xs) % 2 == 0
    odd_index = range(1, len(xs), 2)  # negated in F(z, -w)
    seen = {}
    stack = []

    def enter(F, p, q, r, s):
        lo, hi = min(F), max(F)
        height = hi if hi >= -lo else -lo
        if height <= b_max:
            flipped = F[::-1]
            alternating = list(F)
            for i in odd_index:
                alternating[i] = -alternating[i]
            alternating = tuple(alternating)
            seen[flipped] = seen[alternating] = height
            if odd:
                seen[tuple(map(neg, flipped))] = height
                seen[tuple(map(neg, alternating))] = height
        if (lo >= 0 or hi <= 0) and abs(sum(F)) > b_max:
            return
        stack.append((F, p, q, r, s))

    enter(substitute(xs, 0, 1, 1, 0), 0, 1, 1, 0)
    enter(substitute(xs, -1, 0, 0, 1), -1, 0, 0, 1)
    while stack:
        F, p, q, r, s = stack.pop()
        mp, mq = p + r, q + s
        if abs(mp) > box or mq > box:
            continue
        enter(taylor_shift(F), p, q, mp, mq)
        enter(taylor_shift(F[::-1])[::-1], mp, mq, r, s)
    return seen


def heights_series(heights, grid):
    """N(B) on the grid from a sorted list of image heights."""
    return tuple((b, bisect_right(heights, b)) for b in grid)


def reference_series(f, grid):
    """N(B) on the grid from the distinct images of the reference walk."""
    images = reference_walk(f.coeffs, grid[-1], entry_bound(f, grid[-1]))
    return heights_series(sorted(images.values()), grid)


def minor_sum_identities(xs):
    """(|R|, L) of entry_bound's lemma from 2 (2n - 2) Bareiss determinants:
    the signed minors of the Sylvester matrix S along its first and its
    last column, which are the first and last rows of adj S."""
    n = len(xs) - 1
    s = sylvester_matrix([(n - i) * xs[i] for i in range(n)],
                         [i * xs[i] for i in range(1, n + 1)])
    l1 = max(sum(abs(bareiss_det([row[:j] + row[j + 1:]
                                  for k, row in enumerate(s) if k != i]))
                 for i in range(len(s)))
             for j in (0, len(s) - 1))
    return abs(bareiss_det(s)), l1


def reference_entry_bound(f, b):
    """The largest T with |R| T^(n-2) <= (n+1) L b, from the minor sums."""
    n = f.degree
    r, l1 = minor_sum_identities(f.coeffs)
    top = (n + 1) * l1 * b // r
    t = round(top ** (1 / (n - 2)))
    while t ** (n - 2) > top:
        t -= 1
    while (t + 1) ** (n - 2) <= top:
        t += 1
    return t


# ---------------------------------------------------------------------------
# matrix enumeration
# ---------------------------------------------------------------------------

def test_enumeration_empty_at_zero():
    assert list(enumerate_unimodular(0)) == []


def test_enumeration_bound_one_has_twenty():
    mats = list(enumerate_unimodular(1))
    assert len(mats) == 20
    assert {m.entries() for m in mats} == brute_box(1)


def test_enumeration_matches_brute_force():
    for bound in (1, 2, 3, 4):
        got = [m.entries() for m in enumerate_unimodular(bound)]
        assert len(got) == len(set(got))  # no duplicates
        assert set(got) == brute_box(bound)


def test_enumeration_quadratic_growth():
    n10 = sum(1 for _ in enumerate_unimodular(10))
    n20 = sum(1 for _ in enumerate_unimodular(20))
    assert 3 <= n20 / n10 <= 5


# ---------------------------------------------------------------------------
# orbit counting
# ---------------------------------------------------------------------------

def test_count_includes_form_and_is_monotone():
    f = BinaryForm((1, 0, -1, -1))
    n_small = count_orbit(f, height(f))
    assert n_small >= 1
    series = count_series(f, [2, 10, 40, 160])
    counts = [n for _, n in series.points]
    assert counts == sorted(counts)


def test_count_rejects_degenerate_form():
    with pytest.raises(NonGenericForm):
        count_orbit(BinaryForm((1, -2, 1, 0)), 100)


def test_orbit_heights_rejects_repeated_root():
    # (z + w)^3 has the triple root (-1, 1): its discriminant is 0, and
    # the form is refused before the Farey-tree walk starts
    with pytest.raises(NonGenericForm):
        count_series(BinaryForm((1, 3, 3, 1)), [50])


def test_count_rejects_degree_below_three():
    # at n = 2 the entry bound says nothing, and an indefinite quadratic
    # has an infinite stabilizer, so no box holds its whole orbit
    for coeffs in ((1, 0, -1), (1, 1)):
        with pytest.raises(ValueError, match="n >= 3"):
            count_orbit(BinaryForm(coeffs), 100)


def window_box_images(f, bound, b_max):
    """Qualifying image set from the Farey-tree search, single box."""
    return set(reference_walk(f.coeffs, b_max, bound))


def test_walk_records_heights_and_ends_at_entry_bound():
    # every image carries its height, a larger box only adds images, and no
    # box beyond entry_bound(f, B) adds one; the set-free walk records the
    # same heights in both boxes
    for coeffs, b_max in (((1, 0, -1, -1), 500),
                          ((0, 2, -3, 1, 5), 400),
                          ((1, -3, -25, 75, 0), 3000),
                          ((2, 1, 0, -1, 1, 3), 300)):
        bound = entry_bound(BinaryForm(coeffs), b_max)
        images = reference_walk(coeffs, b_max, bound)
        assert len(images) > 20
        for image, h in images.items():
            assert h == max(abs(x) for x in image) <= b_max
        for box in (4, 16, 64):
            assert set(reference_walk(coeffs, b_max, box)) <= set(images)
        assert reference_walk(coeffs, b_max, 4 * bound + 8) == images
        recorded = sorted(h for h, _ in _farey_walk(coeffs, b_max, bound))
        assert recorded == sorted(h for h, _ in
                                  _farey_walk(coeffs, b_max, 4 * bound + 8))
        assert recorded[-1] <= b_max


def test_entry_bound_holds_against_brute_force():
    # no determinant-1 matrix with an entry beyond entry_bound(f, B) gives
    # an image of height <= B, checked over a larger box.  At B = 1 the
    # bound is 1 for z^3 + w^3 and z^4 + w^4, and the identity attains it
    rng = random.Random(61)
    cases = [((1, 0, 0, 1), 1), ((1, 0, 0, 0, 1), 1)]
    while len(cases) < 40:
        degree = rng.randint(3, 5)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(degree + 1))
        f = BinaryForm(coeffs)
        if any(coeffs) and disc(f) != 0:
            b_max = rng.choice([2, 5, 12, 30])
            if entry_bound(f, b_max) <= 12:
                cases.append((coeffs, b_max))
    attained = 0
    for coeffs, b_max in cases:
        f = BinaryForm(coeffs)
        bound = entry_bound(f, b_max)
        largest = 0
        for m in enumerate_unimodular(bound + 3):
            if (abs(evaluate(coeffs, m.a, m.c)) <= b_max
                    and abs(evaluate(coeffs, m.b, m.d)) <= b_max
                    and height(act(f, m)) <= b_max):
                largest = max(largest, *map(abs, m.entries()))
        assert largest <= bound, (coeffs, b_max)
        attained += largest == bound
    assert attained >= 2


def test_entry_bound_closed_forms():
    # f = z^3 - c w^3: f_z = 3 z^2, f_w = -3 c w^2, R = 81 c^2, and the
    # identities (27 c^2 z) f_z = R z^3 and (-27 c w) f_w = R w^3 give
    # L = 27 c^2, so T = 4 B / 3.  The reversal c z^3 - w^3 swaps the two
    # identities.  f = z^4 + w^4: R = 4^6 and L = 4^5, so T^2 <= 5 B / 4
    for c in (7, 10 ** 48 + 12345):
        for b_max in (3, 20000, 10 ** 9):
            assert entry_bound(BinaryForm((1, 0, 0, -c)), b_max) == 4 * b_max // 3
            assert entry_bound(BinaryForm((c, 0, 0, -1)), b_max) == 4 * b_max // 3
    for b_max in (1, 80, 10 ** 12):
        assert entry_bound(BinaryForm((1, 0, 0, 0, 1)), b_max) == \
            math.isqrt(5 * b_max // 4)


def test_gradient_identities_match_minor_sums():
    # one fraction-free solve gives the same |R| and L as the 2 (2n - 2)
    # signed minors, and so the same entry bound; |R| = n^(n-2) |disc f|
    rng = random.Random(67)
    degrees = Counter()
    while sum(degrees.values()) < 40:
        degree = rng.randint(3, 12)
        coeffs = tuple(rng.randint(-5, 5) for _ in range(degree + 1))
        f = BinaryForm(coeffs)
        if not any(coeffs) or disc(f) == 0:
            continue
        r, l1 = _gradient_identities(coeffs)
        assert (r, l1) == minor_sum_identities(coeffs), coeffs
        assert r == degree ** (degree - 2) * abs(disc(f))
        for b_max in (1, 1000, 10 ** 9):
            assert entry_bound(f, b_max) == reference_entry_bound(f, b_max)
        degrees[degree] += 1
    assert set(degrees) == set(range(3, 13))


def test_entry_bound_at_degree_twenty():
    # about 5 ms on a 2-core Xeon (CPython 3.11); the 2 (2n - 2) minors
    # took about 0.5 s
    rng = random.Random(20)
    while True:
        coeffs = tuple(rng.randint(-5, 5) for _ in range(21))
        f = BinaryForm(coeffs)
        if coeffs[0] and disc(f) != 0:
            break
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        bound = entry_bound(f, 10 ** 6)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1
    assert bound == reference_entry_bound(f, 10 ** 6)


def test_window_box_completeness():
    # every qualifying matrix of the full box is recovered by the Farey-tree
    # search (up to the global-sign pairing)
    rng = random.Random(31)
    cases = 0
    while cases < 14:
        degree = rng.choice([3, 4, 5])
        coeffs = tuple(rng.randint(-4, 4) for _ in range(degree + 1))
        f = BinaryForm(coeffs)
        if not any(coeffs) or disc(f) == 0:
            continue
        b_max = rng.choice([8, 20, 50])
        bound = rng.choice([3, 6])
        brute = set()
        for entries in brute_box(bound):
            g = act(f, UnimodularMatrix(*entries))
            if height(g) <= b_max:
                brute.add(g.coeffs)
        assert window_box_images(f, bound, b_max) == brute
        cases += 1


def split_form(factors):
    """Coefficients of prod (q z - p w) over the (q, p) pairs."""
    coeffs = [1]
    for q, p in factors:
        nxt = [0] * (len(coeffs) + 1)
        for i, x in enumerate(coeffs):
            nxt[i] += q * x
            nxt[i + 1] -= p * x
        coeffs = nxt
    return coeffs


def exact_columns(xs, c_max, b_max, rho):
    """Every coprime (a, c) with 0 < c <= c_max and |f(a, c)| <= b_max, and
    (1, 0) when |f(1, 0)| <= b_max.  rho must exceed |theta| for every
    complex root theta of f(t, 1): beyond rho * c, |f(a, c)| grows with |a|,
    and inside, a bound on the slope in a skips every a whose value cannot
    have come back under b_max.  Integer arithmetic throughout."""
    n = len(xs) - 1
    if abs(xs[0]) <= b_max:
        yield 1, 0
    for c in range(1, c_max + 1):
        lo, hi = -rho * c, rho * c
        while abs(evaluate(xs, hi + 1, c)) <= b_max:
            hi += 1
        while abs(evaluate(xs, lo - 1, c)) <= b_max:
            lo -= 1
        top = max(-lo, hi)
        slope = sum(abs(x) * (n - i) * top ** (n - i - 1) * c ** i
                    for i, x in enumerate(xs[:-1]))
        a = lo
        while a <= hi:
            value = abs(evaluate(xs, a, c))
            if value <= b_max:
                if math.gcd(a, c) == 1:
                    yield a, c
                a += 1
            else:
                a += -(-(value - b_max) // slope)


def test_farey_walk_finds_every_brute_partner():
    # exact oracle: every qualifying column (a, c) with c <= 300, and for the
    # picked columns every det-1 partner (b, d) in a 20,000 box whose image
    # has height <= B; each such image must be among the walk's images
    rng = random.Random(43)
    box, b_max = 20000, 10 ** 5
    zero_columns = 0
    largest_c = 0
    for kind in ("irrational", "split", "infinity") * 3:
        while True:
            degree = rng.choice([3, 4])
            if kind == "irrational":
                coeffs = [rng.randint(-5, 5) for _ in range(degree + 1)]
            else:
                factors = [(rng.randint(1, 3), rng.randint(-4, 4))
                           for _ in range(degree - (kind == "infinity"))]
                coeffs = [0] * (kind == "infinity") + split_form(factors)
            if any(coeffs) and disc(BinaryForm(tuple(coeffs))) != 0:
                break
        xs = tuple(coeffs)
        if kind == "irrational":  # Cauchy's bound on the roots
            lead = abs(next(x for x in xs if x))
            rho = 1 + -(-max(map(abs, xs)) // lead)
        else:
            rho = 1 + max(abs(p) // q for q, p in factors)
        seen = reference_walk(xs, b_max, box)
        columns = sorted(exact_columns(xs, 300, b_max, rho),
                         key=lambda col: col[1])
        zero = [(a, c) for a, c in columns if evaluate(xs, a, c) == 0]
        # the best approximations to a root have qualifying partners at
        # large |t|
        best = sorted((col for col in columns
                       if col[1] > 6 and col not in zero),
                      key=lambda col: abs(evaluate(xs, *col)) / col[1])[:6]
        rest = [col for col in columns if col not in zero + best]
        picked = zero + best + rest[-4:] + rng.sample(rest, min(len(rest), 4))
        for a, c in picked:
            d0 = pow(a, -1, c) if c else a
            b0 = (a * d0 - 1) // c if c else 0
            assert a * d0 - b0 * c == 1
            reach = box // max(abs(a), c) + 1
            for t in range(-reach, reach + 1):
                b, d = b0 + t * a, d0 + t * c
                if max(abs(b), abs(d)) > box:
                    continue
                if abs(evaluate(xs, b, d)) > b_max:
                    continue
                image = act(BinaryForm(xs), UnimodularMatrix(a, b, c, d))
                if height(image) <= b_max:
                    assert image.coeffs in seen, (xs, a, b, c, d)
        zero_columns += len(zero)
        largest_c = max(largest_c, columns[-1][1])
    assert zero_columns >= 5 and largest_c >= 250


def test_window_search_matches_box_search():
    for coeffs, b_max in (((1, 0, -1, -1), 60),
                          ((1, -3, -25, 75, 0), 60),
                          ((0, 1, -1, 3), 40),
                          ((2, 1, 0, -1, 1, 3), 40),
                          ((0, 60, -227, 286, -120), 120)):
        f = BinaryForm(coeffs)
        assert disc(f) != 0
        grid = range(1, b_max + 1)
        assert count_series(f, grid).points == \
            heights_series(brute_orbit_heights(f, b_max), grid)


def test_orbit_heights_match_box_search_on_random_forms():
    # seeded property check: roots at infinity and at zero, split forms, the
    # clustered split cubics (k z - (k+1) w)((k+1) z - (k+2) w)((k+2) z -
    # (k+3) w)
    rng = random.Random(53)
    cases = [(split_form([(k, k + 1), (k + 1, k + 2), (k + 2, k + 3)]), 12)
             for k in (1, 2)]
    kinds = ("irrational", "infinity", "zero", "both", "split")
    while len(cases) < 20:
        degree = rng.randint(3, 5)
        kind = rng.choice(kinds)
        if kind == "split":
            coeffs = split_form([(rng.randint(1, 3), rng.randint(-3, 3))
                                 for _ in range(degree)])
        else:
            coeffs = [rng.randint(-4, 4) for _ in range(degree + 1)]
            if kind in ("infinity", "both"):
                coeffs[0] = 0
            if kind in ("zero", "both"):
                coeffs[-1] = 0
        if any(coeffs) and disc(BinaryForm(tuple(coeffs))) != 0:
            cases.append((coeffs, rng.choice([10, 20] if degree == 3
                                             else [10, 30, 60])))
    for coeffs, b_max in cases:
        f = BinaryForm(tuple(coeffs))
        grid = range(1, b_max + 1)
        assert count_series(f, grid).points == \
            heights_series(brute_orbit_heights(f, b_max), grid), (coeffs, b_max)


def test_clustered_cubics_share_one_exact_count():
    # the k-th clustered cubic has the roots (k+1)/k, (k+2)/(k+1) and
    # (k+3)/(k+2), and substituting (z, w) -> (w, 2 w - z) (determinant 1)
    # sends them to those of the (k+1)-th, so all of them lie in one orbit
    # and have the same N(B).  At k = 50 no qualifying matrix has all
    # entries up to 8, so the shell search stops after two empty boxes and
    # finds nothing
    first = BinaryForm(tuple(split_form([(1, 2), (2, 3), (3, 4)])))
    far = BinaryForm(tuple(split_form([(50, 51), (51, 52), (52, 53)])))
    assert count_orbit(first, 1000) == count_orbit(far, 1000) == 1804
    assert brute_orbit_heights(far, 1000) == []


def test_shared_pass_equals_pointwise_counts():
    rng = random.Random(32)
    f = BinaryForm((1, 0, -1, -1))
    for _ in range(3):
        grid = sorted(rng.sample(range(5, 400), 4))
        series = count_series(f, grid)
        for b, n in series.points:
            assert n == count_orbit(f, b)


def test_counting_is_deterministic():
    f = form_from_roots(1, [0, 1, -2, 3])
    a = count_series(f, [20, 80, 320])
    b = count_series(f, [20, 80, 320])
    assert a == b


def test_odd_degree_orbit_closed_under_negation():
    f = BinaryForm((1, 0, -1, -1))
    b_max = 60
    seen = set()
    for m in enumerate_unimodular(16):
        g = act(f, m)
        if height(g) <= b_max:
            seen.add(g.coeffs)
    for coeffs in seen:
        assert tuple(-v for v in coeffs) in seen
    images = reference_walk(f.coeffs, b_max, entry_bound(f, b_max))
    assert seen <= set(images)
    for coeffs in images:
        assert tuple(-v for v in coeffs) in images


def test_walk_covers_box_once():
    # with no pruning (b_max above every height), the four matrices
    # +-[v u] and +-[u -v] of the recorded nodes are every determinant-1
    # matrix of the box, each exactly once: the second root stands for +-S
    # and +-I again, so it is walked but not recorded
    xs = (1, 0, -1, -1)
    for bound in range(1, 9):
        found = Counter()
        for h, (F, p, q, r, s) in _farey_walk(xs, 10 ** 9, bound):
            assert F == substitute(xs, p, r, q, s)
            assert h == max(map(abs, F))
            for m in ((r, p, s, q), (p, -r, q, -s)):
                found[m] += 1
                found[tuple(map(neg, m))] += 1
        assert set(found.values()) == {1}
        assert set(found) == {m.entries() for m in enumerate_unimodular(bound)}


def test_set_free_counts_match_reference_walk():
    # N(B) = 4 M(B) / |Stab_f| equals the number of distinct images of the
    # reference walk at every grid point, on seeded random forms
    rng = random.Random(71)
    degrees = Counter()
    while sum(degrees.values()) < 60:
        degree = rng.randint(3, 8)
        coeffs = tuple(rng.randint(-4, 4) for _ in range(degree + 1))
        f = BinaryForm(coeffs)
        if not any(coeffs) or disc(f) == 0:
            continue
        b_max = rng.choice([60, 500, 3000])
        grid = sorted(({b_max >> k for k in range(10)} - {0})
                      | set(rng.sample(range(1, b_max), 4)))
        assert count_series(f, grid).points == reference_series(f, grid), \
            (coeffs, b_max)
        degrees[degree] += 1
    assert set(degrees) == set(range(3, 9))


def test_set_free_counts_on_stabilizers_and_far_starts():
    # z^4 + w^4 (|Stab| = 4), z^3 - 3 z w^2 - w^3 (|Stab| = 3),
    # z w (z + w)(z - w)(z + 2 w)(2 z + w) (|Stab| = 6: each cubic factor
    # is one orbit of [0 -1; 1 1], which negates it), the clustered cubics
    # and the huge-root form; then each form moved by a matrix that puts
    # its own height above b_max, so the walk never records it and reads
    # |Stab| off the first image it does record
    sextic = (0, 2, 5, 0, -5, -2, 0)
    cases = [((1, 0, 0, 0, 1), 100000), ((1, 0, -3, -1), 20000),
             (sextic, 10000), ((1, 0, 0, -(10 ** 48 + 12345)), 20000)]
    for coeffs, order in (((1, 0, 0, 0, 1), 4), ((1, 0, -3, -1), 3),
                          (sextic, 6)):
        f = BinaryForm(coeffs)
        assert sum(act(f, m) == f for m in enumerate_unimodular(3)) == order
    cases += [(tuple(split_form([(k, k + 1), (k + 1, k + 2), (k + 2, k + 3)])),
               1000) for k in (1, 2, 20, 50)]
    for coeffs, b_max in cases:
        f = BinaryForm(coeffs)
        grid = [b_max >> k for k in range(8, -1, -1)]
        assert count_series(f, grid).points == reference_series(f, grid), coeffs
    b_max = 2000
    grid = [1, 2, 3, 5, 10, 100, 1000, 2000]
    for coeffs in ((1, 0, 0, 0, 1), (1, 0, -3, -1), sextic, (1, 0, -1, -1),
                   (2, 1, 0, -1, 1, 3)):
        f = BinaryForm(coeffs)
        expected = reference_series(f, grid)
        assert count_series(f, grid).points == expected
        for m in (UnimodularMatrix(34, 21, 55, 34), UnimodularMatrix(1, 40, 0, 1)):
            moved = act(f, m)
            assert height(moved) > b_max
            assert count_series(moved, grid).points == expected, (coeffs, m)


def test_count_guard_refuses_inexact_hits(monkeypatch):
    # the cubic has a trivial stabilizer: a walk that yields every node
    # twice makes 2 hits, no odd-degree order; one that yields the first
    # node three times and one more node makes 3 hits against 16 matrices
    real = counting._farey_walk

    def doubled(xs, b_max, box):
        for item in real(xs, b_max, box):
            yield item
            yield item

    def tripled_first(xs, b_max, box):
        walk = real(xs, b_max, box)
        first = next(walk)
        yield from (first, first, first, next(walk))

    f = BinaryForm((1, 0, -1, -1))
    assert count_series(f, [50, 100]).points == ((50, 132), (100, 200))
    for fake in (doubled, tripled_first):
        monkeypatch.setattr(counting, "_farey_walk", fake)
        with pytest.raises(CountingError):
            count_series(f, [50, 100])


def test_series_validation_and_csv():
    with pytest.raises(ValueError):
        CountSeries(((10, 5), (10, 6)))
    with pytest.raises(ValueError):
        CountSeries(((10, 5), (20, 4)))
    series = CountSeries(((100, 12), (200, 20)))
    text = series.to_csv()
    assert text == "B,N\n100,12\n200,20\n"
    assert CountSeries.from_csv(text) == series


# ---------------------------------------------------------------------------
# exponent fit
# ---------------------------------------------------------------------------

def test_fit_exact_power_law():
    series = CountSeries(tuple((b, 4 * b * b) for b in (10, 20, 40, 80, 160)))
    result = fit_exponent(series)
    assert abs(result.slope - 2.0) < 1e-9
    assert abs(result.intercept - math.log(4)) < 1e-9
    assert result.residual_norm < 1e-9
    assert result.points_used == 5


def test_fit_constant_series():
    series = CountSeries(tuple((b, 17) for b in (10, 100, 1000, 10000)))
    assert abs(fit_exponent(series).slope) < 1e-12


def test_fit_requires_three_points():
    with pytest.raises(InsufficientData):
        fit_exponent(CountSeries(((10, 1), (20, 2))))
    with pytest.raises(InsufficientData):
        fit_exponent(CountSeries(((10, 0), (20, 0), (40, 1), (80, 2))))


def test_fit_skips_zero_counts():
    series = CountSeries(((10, 0), (20, 8), (40, 32), (80, 128)))
    assert abs(fit_exponent(series).slope - 2.0) < 1e-9
