import functools
import math
import random
import time
from bisect import bisect_right
from collections import Counter
from itertools import compress, islice
from operator import add, neg

import pytest

from effcone import cli, counting
from effcone.counting import (
    CountingError,
    InsufficientData,
    NonGenericForm,
    _farey_walk,
    _gradient_identities,
    count_series,
    entry_bound,
    fit_exponent,
)
from effcone.forms import disc, substitute, taylor_shift
from oracles import (adjugate_solve, bareiss_det, enumerate_unimodular,
                     form_from_roots, gradient_sylvester, height,
                     sylvester_matrix)


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
    return count_series(f, [b])[0][1]


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
            if max(abs(v) for v in m) <= prev:
                continue
            g = substitute(f, *m)
            if height(g) <= b_max and g not in seen:
                seen.add(g)
                new += 1
        quiet = quiet + 1 if new == 0 else 0
        if quiet >= QUIET_SHELLS:
            break
        prev = shell
        shell *= SHELL_GROWTH
    return sorted(height(c) for c in seen)


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


def unpack_level(level, width):
    """(heights, forms) of the nodes of a level of the Farey walk: the
    lanes i, W = width bits, whose guard bit (the top bit of lane i of
    live) is set, read in two's complement.  Checks that the ints hold
    their lanes and nothing above, that live holds guard bits only and at
    least one, that every unguarded lane is zero in every int, and that
    each height is the largest absolute coefficient of its signed form."""
    heights, live, coeffs, signs = level
    size = len(signs)
    nodes = [i for i in range(size) if live >> (width * i + width - 1) & 1]
    assert nodes and live == sum(1 << (width * i + width - 1) for i in nodes)
    assert all(0 <= x < 1 << width * size for x in [heights] + coeffs)

    def lane(x, i):
        v = x >> width * i & ((1 << width) - 1)
        return v - (1 << width) if v >> (width - 1) else v

    assert not any(lane(x, i) for i in set(range(size)) - set(nodes)
                   for x in [heights] + coeffs)
    hs = [lane(heights, i) for i in nodes]
    forms = [tuple(signs[i] * lane(c, i) for c in coeffs) for i in nodes]
    assert hs == [max(map(abs, F)) for F in forms]
    return hs, forms


def unpacked(levels, width):
    """The levels of a walk as (heights, forms) lists, in order."""
    return [unpack_level(level, width) for level in levels]


def walk_nodes(xs, b_max, box):
    """(height, F) for every node the Farey walk records, flattened out of
    the guarded lanes of its levels, with F the node's signed form."""
    width = counting._lane_width(len(xs), b_max)
    for heights, forms in unpacked(_farey_walk(xs, b_max, box), width):
        for h, F in zip(heights, forms):
            if h <= b_max:
                yield h, F


def shift_columns(columns):
    """forms.taylor_shift of every form of a batch stored as coefficient
    columns: the same n(n+1)/2 additions, each one over a whole column."""
    h = list(columns)
    for top in range(len(h) - 1, 0, -1):
        for j in range(1, top + 1):
            h[j] = list(map(add, h[j], h[j - 1]))
    return h


def list_one_signed_walk(rows, b_max, box):
    """The one-signed levels of the Farey walk with lists in place of
    packed lanes, and with the matrix entries p, q, r, s of every node: a
    row is the node form times its sign, the sign, then p, q, r, s, and a
    batch holds the rows as columns.  Every addition of the shift, the
    heights (map(max)) and the sums (map(sum)) are one pass over whole
    lists.  With a box, a node whose mediant leaves it has no children, as
    on the sign-changing spine; with box None that test is left out, as in
    counting._one_signed_walk."""
    columns = list(map(list, zip(*rows)))
    k = len(columns) - 5  # coefficient columns
    stack = []
    while True:
        heights = list(map(max, *columns[:k]))
        if heights:
            yield heights, columns
            kept = list(map(b_max.__ge__, map(sum, zip(*columns[:k]))))
            if not all(kept):
                columns = [list(compress(c, kept)) for c in columns]
            size = len(columns[0])
            if size > counting._MAX_BATCH:
                stack += ([c[i:i + counting._MAX_BATCH] for c in columns]
                          for i in range(0, size, counting._MAX_BATCH))
            elif size:
                stack.append(columns)
        if not stack:
            return
        columns = stack.pop()
        signs, ps, qs, rs, ss = columns[k:]
        mps = list(map(add, ps, rs))
        mqs = list(map(add, qs, ss))
        if box is not None and max(max(mps), -min(mps), max(mqs)) > box:
            inside = list(map(box.__ge__, map(max, map(abs, mps), mqs)))
            columns = [list(compress(c, inside)) for c in columns]
            mps = list(compress(mps, inside))
            mqs = list(compress(mqs, inside))
            signs, ps, qs, rs, ss = columns[k:]
        coeffs = columns[:k]
        columns = list(map(add, shift_columns(coeffs),
                           shift_columns(coeffs[::-1])[::-1]))
        columns += (signs + signs, ps + mps, qs + mqs, mps + rs, mqs + ss)


def list_farey_walk(xs, b_max, box, one_signed_box=True):
    """Batches (heights, columns) of the Farey walk with lists in place of
    packed lanes and the matrix entries kept on every node: one column per
    coefficient, one of signs and one per entry p, q, r, s, so that node i
    has the signed form F[j] = columns[-5][i] * columns[j][i].  Every node
    it yields is checked against F == substitute(xs, p, r, q, s).  The
    recorded sign-changing nodes are gathered, _MAX_BATCH at a time, into
    one batch of sign +1.  With one_signed_box False the box test is left
    out below one-signed nodes, as in counting._farey_walk; the
    sign-changing spine keeps it."""
    inner = box if one_signed_box else None
    root = substitute(xs, -1, 0, 0, 1)
    entered = ((substitute(xs, 0, 1, 1, 0), 0, 1, 1, 0),
               (taylor_shift(root), -1, 0, -1, 1),
               (taylor_shift(root[::-1])[::-1], -1, 1, 0, 1))
    stack = []
    spine = []
    rows = []

    def spine_batch(batch):
        return ([max(map(abs, row[:-5])) for row in batch],
                list(map(list, zip(*batch))))

    def checked(batches):
        for heights, columns in batches:
            *coeffs, signs, ps, qs, rs, ss = columns
            for i, h in enumerate(heights):
                F = tuple(signs[i] * c[i] for c in coeffs)
                assert F == substitute(xs, ps[i], rs[i], qs[i], ss[i])
                assert h == max(map(abs, F))
            yield heights, columns

    while True:
        for node in entered:
            F = node[0]
            lo, hi = min(F), max(F)
            height = hi if hi >= -lo else -lo
            if lo < 0 < hi:
                stack.append(node)
                if height <= b_max:
                    spine.append(F + (1,) + node[1:])
                    if len(spine) == counting._MAX_BATCH:
                        yield from checked([spine_batch(spine)])
                        spine = []
            elif height <= b_max:
                if lo >= 0:
                    rows.append(F + (1,) + node[1:])
                else:
                    rows.append(tuple(map(neg, F)) + (-1,) + node[1:])
                if len(rows) == counting._MAX_BATCH:
                    yield from checked(list_one_signed_walk(rows, b_max, inner))
                    rows = []
        if not stack:
            break
        F, p, q, r, s = stack.pop()
        mp, mq = p + r, q + s
        entered = () if abs(mp) > box or mq > box else (
            (taylor_shift(F), p, q, mp, mq),
            (taylor_shift(F[::-1])[::-1], mp, mq, r, s))
    if spine:
        yield from checked([spine_batch(spine)])
    if rows:
        yield from checked(list_one_signed_walk(rows, b_max, inner))


def list_batches(batches):
    """The batches of a list walk as (heights, signed forms) lists."""
    out = []
    for heights, columns in batches:
        *coeffs, signs = columns[:-4]
        out.append((list(heights),
                    [tuple(sign * c[i] for c in coeffs)
                     for i, sign in enumerate(signs)]))
    return out


def list_nodes(xs, b_max, box, one_signed_box=True):
    """Sorted (height, F, (p, q, r, s)) of the nodes the list walk records."""
    nodes = []
    for heights, columns in list_farey_walk(xs, b_max, box, one_signed_box):
        *coeffs, signs, ps, qs, rs, ss = columns
        nodes += ((h, tuple(signs[i] * c[i] for c in coeffs),
                   (ps[i], qs[i], rs[i], ss[i]))
                  for i, h in enumerate(heights) if h <= b_max)
    return sorted(nodes)


def heights_series(heights, grid):
    """N(B) on the grid from a sorted list of image heights."""
    return tuple((b, bisect_right(heights, b)) for b in grid)


def reference_series(f, grid):
    """N(B) on the grid from the distinct images of the reference walk."""
    images = reference_walk(f, grid[-1], entry_bound(f, grid[-1]))
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


@functools.cache
def solve_identities(xs):
    """(|R|, L) of entry_bound's lemma from one fraction-free solve with two
    right-hand sides: the first and last rows of adj S are adj(S^T) e_0 and
    adj(S^T) e_last."""
    s = gradient_sylvester(xs)
    size = len(s)
    unit = [[0] * size for _ in range(2)]
    unit[0][0] = unit[1][-1] = 1
    r, rows = adjugate_solve([list(col) for col in zip(*s)], unit)
    return abs(r), max(sum(map(abs, row)) for row in rows)


def reference_entry_bound(f, b):
    """The largest T with |R| T^(n-2) <= (n+1) L b, from the fraction-free
    solve, which matches the minor sums (test below)."""
    n = len(f) - 1
    r, l1 = solve_identities(f)
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
    assert set(mats) == brute_box(1)


def test_enumeration_matches_brute_force():
    for bound in (1, 2, 3, 4):
        got = list(enumerate_unimodular(bound))
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
    f = (1, 0, -1, -1)
    n_small = count_orbit(f, height(f))
    assert n_small >= 1
    series = count_series(f, [2, 10, 40, 160])
    counts = [n for _, n in series]
    assert counts == sorted(counts)


def test_count_rejects_degenerate_form():
    with pytest.raises(NonGenericForm):
        count_orbit((1, -2, 1, 0), 100)


def test_orbit_heights_rejects_repeated_root():
    # (z + w)^3 has the triple root (-1, 1): its discriminant is 0, and
    # the form is refused before the Farey-tree walk starts
    with pytest.raises(NonGenericForm):
        count_series((1, 3, 3, 1), [50])


def test_count_rejects_degree_below_three():
    # at n = 2 the entry bound says nothing, and an indefinite quadratic
    # has an infinite stabilizer, so no box holds its whole orbit
    for coeffs in ((1, 0, -1), (1, 1)):
        with pytest.raises(ValueError, match="n >= 3"):
            count_orbit(coeffs, 100)


def window_box_images(f, bound, b_max):
    """Qualifying image set from the Farey-tree search, single box."""
    return set(reference_walk(f, b_max, bound))


def test_walk_records_heights_and_ends_at_entry_bound():
    # every image carries its height, a larger box only adds images, and no
    # box beyond entry_bound(f, B) adds one; the set-free walk records the
    # same heights in both boxes
    for coeffs, b_max in (((1, 0, -1, -1), 500),
                          ((0, 2, -3, 1, 5), 400),
                          ((1, -3, -25, 75, 0), 3000),
                          ((2, 1, 0, -1, 1, 3), 300)):
        bound = entry_bound(coeffs, b_max)
        images = reference_walk(coeffs, b_max, bound)
        assert len(images) > 20
        for image, h in images.items():
            assert h == max(abs(x) for x in image) <= b_max
        for box in (4, 16, 64):
            assert set(reference_walk(coeffs, b_max, box)) <= set(images)
        assert reference_walk(coeffs, b_max, 4 * bound + 8) == images
        recorded = sorted(h for h, _ in walk_nodes(coeffs, b_max, bound))
        assert recorded == sorted(h for h, _ in
                                  walk_nodes(coeffs, b_max, 4 * bound + 8))
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
        if any(coeffs) and disc(coeffs) != 0:
            b_max = rng.choice([2, 5, 12, 30])
            if entry_bound(coeffs, b_max) <= 12:
                cases.append((coeffs, b_max))
    attained = 0
    for coeffs, b_max in cases:
        bound = entry_bound(coeffs, b_max)
        largest = 0
        for m in enumerate_unimodular(bound + 3):
            if (abs(evaluate(coeffs, m[0], m[2])) <= b_max
                    and abs(evaluate(coeffs, m[1], m[3])) <= b_max
                    and height(substitute(coeffs, *m)) <= b_max):
                largest = max(largest, *map(abs, m))
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
            assert entry_bound((1, 0, 0, -c), b_max) == 4 * b_max // 3
            assert entry_bound((c, 0, 0, -1), b_max) == 4 * b_max // 3
    for b_max in (1, 80, 10 ** 12):
        assert entry_bound((1, 0, 0, 0, 1), b_max) == \
            math.isqrt(5 * b_max // 4)


def test_gradient_identities_match_minor_sums():
    # the subresultant cofactors give the same |R| and L as the fraction-free
    # solve, and to degree 12 as the 2 (2n - 2) signed minors, and so the
    # same entry bound; |R| = n^(n-2) |disc f|.  Each degree has a form with
    # no coefficient forced to 0 and one with x0, xn, x1, x(n-1) or both
    # ends 0 (roots at infinity and at zero)
    rng = random.Random(67)
    patterns = ((0,), (-1,), (1,), (-2,), (0, -1))
    for degree in range(3, 41):
        for zeroed in ((), patterns[degree % len(patterns)]):
            while True:
                coeffs = [rng.randint(-5, 5) for _ in range(degree + 1)]
                for i in zeroed:
                    coeffs[i] = 0
                coeffs = tuple(coeffs)
                if any(coeffs) and disc(coeffs) != 0:
                    break
            r, l1 = _gradient_identities(coeffs)
            assert (r, l1) == solve_identities(coeffs), coeffs
            if degree <= 12:
                assert (r, l1) == minor_sum_identities(coeffs), coeffs
            assert r == degree ** (degree - 2) * abs(disc(coeffs))
            for b_max in (1, 1000, 10 ** 9):
                assert entry_bound(coeffs, b_max) == reference_entry_bound(coeffs, b_max)


def test_entry_bound_at_degree_twenty():
    # about 5 ms on a 2-core Xeon (CPython 3.11); the 2 (2n - 2) minors
    # took about 0.5 s
    rng = random.Random(20)
    while True:
        coeffs = tuple(rng.randint(-5, 5) for _ in range(21))
        if coeffs[0] and disc(coeffs) != 0:
            break
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        bound = entry_bound(coeffs, 10 ** 6)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1
    assert bound == reference_entry_bound(coeffs, 10 ** 6)


def test_window_box_completeness():
    # every qualifying matrix of the full box is recovered by the Farey-tree
    # search (up to the global-sign pairing)
    rng = random.Random(31)
    cases = 0
    while cases < 14:
        degree = rng.choice([3, 4, 5])
        coeffs = tuple(rng.randint(-4, 4) for _ in range(degree + 1))
        if not any(coeffs) or disc(coeffs) == 0:
            continue
        b_max = rng.choice([8, 20, 50])
        bound = rng.choice([3, 6])
        brute = set()
        for entries in brute_box(bound):
            g = substitute(coeffs, *entries)
            if height(g) <= b_max:
                brute.add(g)
        assert window_box_images(coeffs, bound, b_max) == brute
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
            if any(coeffs) and disc(tuple(coeffs)) != 0:
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
                image = substitute(xs, a, b, c, d)
                if height(image) <= b_max:
                    assert image in seen, (xs, a, b, c, d)
        zero_columns += len(zero)
        largest_c = max(largest_c, columns[-1][1])
    assert zero_columns >= 5 and largest_c >= 250


def test_window_search_matches_box_search():
    for coeffs, b_max in (((1, 0, -1, -1), 60),
                          ((1, -3, -25, 75, 0), 60),
                          ((0, 1, -1, 3), 40),
                          ((2, 1, 0, -1, 1, 3), 40),
                          ((0, 60, -227, 286, -120), 120)):
        assert disc(coeffs) != 0
        grid = range(1, b_max + 1)
        assert count_series(coeffs, grid) == \
            heights_series(brute_orbit_heights(coeffs, b_max), grid)


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
        if any(coeffs) and disc(tuple(coeffs)) != 0:
            cases.append((coeffs, rng.choice([10, 20] if degree == 3
                                             else [10, 30, 60])))
    for coeffs, b_max in cases:
        f = tuple(coeffs)
        grid = range(1, b_max + 1)
        assert count_series(f, grid) == \
            heights_series(brute_orbit_heights(f, b_max), grid), (coeffs, b_max)


def test_clustered_cubics_share_one_exact_count():
    # the k-th clustered cubic has the roots (k+1)/k, (k+2)/(k+1) and
    # (k+3)/(k+2), and substituting (z, w) -> (w, 2 w - z) (determinant 1)
    # sends them to those of the (k+1)-th, so all of them lie in one orbit
    # and have the same N(B).  At k = 50 no qualifying matrix has all
    # entries up to 8, so the shell search stops after two empty boxes and
    # finds nothing
    first = tuple(split_form([(1, 2), (2, 3), (3, 4)]))
    far = tuple(split_form([(50, 51), (51, 52), (52, 53)]))
    assert count_orbit(first, 1000) == count_orbit(far, 1000) == 1804
    assert brute_orbit_heights(far, 1000) == []


def test_shared_pass_equals_pointwise_counts():
    rng = random.Random(32)
    f = (1, 0, -1, -1)
    for _ in range(3):
        grid = sorted(rng.sample(range(5, 400), 4))
        series = count_series(f, grid)
        for b, n in series:
            assert n == count_orbit(f, b)


def test_counting_is_deterministic():
    f = form_from_roots(1, [0, 1, -2, 3])
    a = count_series(f, [20, 80, 320])
    b = count_series(f, [20, 80, 320])
    assert a == b


def test_odd_degree_orbit_closed_under_negation():
    f = (1, 0, -1, -1)
    b_max = 60
    seen = set()
    for m in enumerate_unimodular(16):
        g = substitute(f, *m)
        if height(g) <= b_max:
            seen.add(g)
    for coeffs in seen:
        assert tuple(-v for v in coeffs) in seen
    images = reference_walk(f, b_max, entry_bound(f, b_max))
    assert seen <= set(images)
    for coeffs in images:
        assert tuple(-v for v in coeffs) in images


def test_walk_covers_box_once(monkeypatch):
    # the four matrices +-[v u] and +-[u -v] of the recorded nodes are every
    # determinant-1 matrix g of the box of entry_bound(f, B) with
    # height(f o g) <= B, each exactly once: the second root stands for +-S
    # and +-I again, so it is walked but not recorded.  The list walk, which
    # keeps the matrix entries, shows it matrix by matrix; the packed walk's
    # four images +-F(w, z) and +-F(z, -w) of each recorded node F, counted
    # with multiplicity, are the images of those matrices.  Also in batches
    # of 1 and 2 one-signed nodes
    cases = [((1, 0, -1, -1), 10), ((1, 0, -1, -1), 20), ((1, 0, -3, -1), 10),
             ((1, 0, 0, 0, 1), 1000), ((1, -3, -25, 75, 0), 100),
             ((0, 2, -3, 1, 5), 200), ((2, 1, 0, -1, 1, 3), 5000),
             ((0, 2, 5, 0, -5, -2, 0), 5000)]
    for coeffs, b_max in cases:
        bound = entry_bound(coeffs, b_max)
        matrices, images = set(), Counter()
        for m in enumerate_unimodular(bound):
            g = substitute(coeffs, *m)
            if height(g) <= b_max:
                matrices.add(m)
                images[g] += 1
        assert len(matrices) > 20
        sign = (-1) ** (len(coeffs) - 1)
        for size in (counting._MAX_BATCH, 1, 2):
            monkeypatch.setattr(counting, "_MAX_BATCH", size)
            found = Counter()
            for _, _, (p, q, r, s) in list_nodes(coeffs, b_max, bound):
                for m in ((r, p, s, q), (p, -r, q, -s)):
                    found[m] += 1
                    found[tuple(map(neg, m))] += 1
            assert set(found.values()) == {1}
            assert set(found) == matrices
            seen = Counter()
            for _, F in walk_nodes(coeffs, b_max, bound):
                alternating = tuple(-x if i % 2 else x for i, x in enumerate(F))
                for image in (F[::-1], alternating):
                    seen[image] += 1
                    seen[tuple(sign * x for x in image)] += 1
            assert seen == images, (coeffs, size)


def test_set_free_counts_match_reference_walk():
    # N(B) = 4 M(B) / |Stab_f| equals the number of distinct images of the
    # reference walk at every grid point, on seeded random forms
    rng = random.Random(71)
    degrees = Counter()
    while sum(degrees.values()) < 60:
        degree = rng.randint(3, 8)
        coeffs = tuple(rng.randint(-4, 4) for _ in range(degree + 1))
        if not any(coeffs) or disc(coeffs) == 0:
            continue
        b_max = rng.choice([60, 500, 3000])
        grid = sorted(({b_max >> k for k in range(10)} - {0})
                      | set(rng.sample(range(1, b_max), 4)))
        assert count_series(coeffs, grid) == reference_series(coeffs, grid), \
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
        assert sum(substitute(coeffs, *m) == coeffs for m in enumerate_unimodular(3)) == order
    cases += [(tuple(split_form([(k, k + 1), (k + 1, k + 2), (k + 2, k + 3)])),
               1000) for k in (1, 2, 20, 50)]
    for coeffs, b_max in cases:
        grid = [b_max >> k for k in range(8, -1, -1)]
        assert count_series(coeffs, grid) == reference_series(coeffs, grid), coeffs
    b_max = 2000
    grid = [1, 2, 3, 5, 10, 100, 1000, 2000]
    for coeffs in ((1, 0, 0, 0, 1), (1, 0, -3, -1), sextic, (1, 0, -1, -1),
                   (2, 1, 0, -1, 1, 3)):
        expected = reference_series(coeffs, grid)
        assert count_series(coeffs, grid) == expected
        for m in ((34, 21, 55, 34), (1, 40, 0, 1)):
            moved = substitute(coeffs, *m)
            assert height(moved) > b_max
            assert count_series(moved, grid) == expected, (coeffs, m)
    # a form and its bound scaled by 2^61 and 2^130 count the same, with
    # lanes two and three 64-bit words wide
    for coeffs in ((1, 0, -1, -1), (1, 0, 0, 0, 1), (1, 0, -3, -1), sextic,
                   (1, 0, 0, 0, 0, 0, 0, 0, 1)):
        counts = [n for _, n in count_series(coeffs, grid)]
        for scale in (1 << 61, 1 << 130):
            scaled = tuple(scale * x for x in coeffs)
            points = count_series(scaled, [scale * b for b in grid])
            assert [n for _, n in points] == counts, (coeffs, scale)
            assert entry_bound(scaled, scale * b_max) == entry_bound(coeffs, b_max)


def random_batch_cases():
    """24 seeded random forms of degree 3 to 6, each with its b_max."""
    rng = random.Random(73)
    cases = []
    while len(cases) < 24:
        degree = rng.randint(3, 6)
        coeffs = tuple(rng.randint(-4, 4) for _ in range(degree + 1))
        if any(coeffs) and disc(coeffs) != 0:
            cases.append((coeffs, rng.choice([60, 500, 3000])))
    return cases


def stabilizer_batch_cases():
    """The stabilizer forms and a quintic, each also moved far from a small
    height, and the huge-root form, each with its b_max."""
    cases = []
    for coeffs in ((1, 0, 0, 0, 1), (1, 0, -3, -1), (0, 2, 5, 0, -5, -2, 0),
                   (2, 1, 0, -1, 1, 3)):
        cases += [(coeffs, 2000), (substitute(coeffs, 34, 21, 55, 34), 2000),
                  (substitute(coeffs, 1, 40, 0, 1), 2000)]
    cases.append(((1, 0, 0, -(10 ** 48 + 12345)), 20000))
    return cases


def test_batch_boundaries_keep_counts(monkeypatch):
    # one-signed levels split into batches of 1 and of 2 nodes count the
    # same as the reference walk, on seeded random forms, on the stabilizer
    # forms moved far from a small height and on the huge-root form; they
    # record the same nodes as the default batch size and as the list walk,
    # whose recorded nodes are nodes of the box; no level has more than
    # twice the batch size of lanes
    cases = random_batch_cases() + stabilizer_batch_cases()
    grids = [sorted({b_max >> k for k in range(9)} - {0}) for _, b_max in cases]
    expected = [reference_series(f, grid) for (f, _), grid in zip(cases, grids)]
    recorded = [sorted(walk_nodes(f, b_max, entry_bound(f, b_max)))
                for f, b_max in cases[:24]]
    for size in (1, 2):
        monkeypatch.setattr(counting, "_MAX_BATCH", size)
        for (f, _), grid, want in zip(cases, grids, expected):
            assert count_series(f, grid) == want, (f, size)
        for (f, b_max), nodes in zip(cases, recorded):
            box = entry_bound(f, b_max)
            width = counting._lane_width(len(f), b_max)
            raw = list(_farey_walk(f, b_max, box))
            assert max(len(signs) for *_, signs in raw) <= 2 * size
            levels = unpacked(raw, width)
            assert sorted((h, F) for heights, forms in levels
                          for h, F in zip(heights, forms) if h <= b_max) == nodes
            listed = list_nodes(f, b_max, box)
            assert [(h, F) for h, F, _ in listed] == nodes
            assert all(max(abs(p), q, abs(r), s) <= box
                       for _, _, (p, q, r, s) in listed)


def test_zero_lanes_record_the_list_walk_nodes(monkeypatch):
    # a one-signed level of at most _MAX_BATCH lanes without zero lanes
    # zeroes the lanes its prune drops instead of compacting them, and its
    # children's level is compacted.  On the seeded random forms, with
    # levels split at 1, 2 and 1024 nodes, the walk still records the
    # (height, signed form) multiset of the list walk, which compacts
    # every level, and levels with zero lanes occur (a level of one lane
    # keeps it or drops it, so not at 1).  The cubic at B = 51,200
    # compacts 18 times, where compacting every level that drops a lane
    # takes 36
    calls = []
    real = counting._compact

    def compact(xs, keep, step):
        calls.append(len(keep))
        return real(xs, keep, step)

    monkeypatch.setattr(counting, "_compact", compact)
    for size in (1, 2, 1024):
        monkeypatch.setattr(counting, "_MAX_BATCH", size)
        zeroed = 0
        for f, b_max in random_batch_cases():
            box = entry_bound(f, b_max)
            assert Counter(walk_nodes(f, b_max, box)) == Counter(
                (h, F) for h, F, _ in list_nodes(f, b_max, box)), (f, size)
            zeroed += sum(live.bit_count() < len(signs) for _, live, _, signs
                          in _farey_walk(f, b_max, box))
        assert zeroed or size == 1, size
    f = (1, 0, -1, -1)
    calls.clear()
    assert count_orbit(f, 51200) == 14168
    assert 0 < len(calls) <= 18


def test_one_signed_box_test_drops_no_recorded_node():
    # entry_bound's lemma: every node outside the box of entry_bound(f, B)
    # has height > B, so below a one-signed node its sum is > B and the
    # prune drops it anyway.  The list walk without its one-signed box test
    # records the same nodes, matrix entries included, as the list walk
    # with it.  A smaller box does cut recorded nodes there
    for f, b_max in random_batch_cases() + stabilizer_batch_cases():
        box = entry_bound(f, b_max)
        assert list_nodes(f, b_max, box, one_signed_box=False) == \
            list_nodes(f, b_max, box), f
    xs = (1, 0, -1, -1)
    assert len(list_nodes(xs, 500, 6, one_signed_box=False)) > \
        len(list_nodes(xs, 500, 6))


def test_packed_walk_yields_the_list_walk_batches(monkeypatch):
    # the packed walk yields the same heights and signed forms, batch for
    # batch, as the list walk without its one-signed box test, and records
    # the same (height, signed form) multiset as the list walk with it, with
    # levels split at 1, 2 and 1024 nodes
    for size in (1, 2, 1024):
        monkeypatch.setattr(counting, "_MAX_BATCH", size)
        for f, b_max in random_batch_cases():
            box = entry_bound(f, b_max)
            width = counting._lane_width(len(f), b_max)
            packed = unpacked(_farey_walk(f, b_max, box), width)
            assert packed == list_batches(
                list_farey_walk(f, b_max, box, one_signed_box=False)), \
                (f, size)
            recorded = sorted((h, F) for heights, forms in packed
                              for h, F in zip(heights, forms) if h <= b_max)
            assert recorded == [(h, F) for h, F, _ in
                                list_nodes(f, b_max, box)], (f, size)


def test_packed_lanes_hold_a_whole_sum_on_one_coefficient(monkeypatch):
    # a kept parent b_max z^n has the child b_max (z + w)^n of sum
    # 2^n b_max, the largest a lane must hold; with n + b_max.bit_length()
    # + 1 at 15, 16, 17, 63, 64 and 65 a lane is 2, 2, 3, 8, 8 and 9 bytes
    # wide, so the widths cross both a byte and a 64-bit word boundary.
    # Its neighbours: the mirror b_max w^n, random splits of b_max, ties,
    # and a node with every coefficient b_max, recorded but not kept.
    # b_max z^n is its own right child (it has discriminant 0, so no box
    # bounds its subtree), so each walk is cut after 8 levels; the rows are
    # walked together and each alone
    rng = random.Random(79)
    for n in (3, 8):
        for bits, lane_bits in zip((15, 16, 17, 63, 64, 65),
                                   (16, 16, 24, 64, 64, 72)):
            b_max = (1 << (bits - n - 1)) - 1
            forms = [(b_max,) + (0,) * n, (0,) * n + (b_max,),
                     (b_max // (n + 1),) * (n + 1), (b_max,) * (n + 1)]
            for _ in range(4):
                cuts = sorted(rng.randrange(b_max + 1) for _ in range(n))
                forms.append(tuple(map(int.__sub__, cuts + [b_max], [0] + cuts)))
            rows = [F + (rng.choice((1, -1)),) for F in forms]
            width = counting._lane_width(n + 1, b_max)
            assert width == lane_bits
            for size in (1, 2, 1024):
                monkeypatch.setattr(counting, "_MAX_BATCH", size)
                sums = set()
                for group in [rows] + [[row] for row in rows]:
                    packed = unpacked(islice(counting._one_signed_walk(
                        group, b_max, width), 8), width)
                    assert packed == list_batches(islice(list_one_signed_walk(
                        [row + (0, 1, 1, 0) for row in group], b_max, None), 8))
                    sums |= {abs(sum(F)) for _, forms in packed for F in forms}
                assert max(sums) == b_max << n and (n + 1) * b_max in sums


def test_lane_width_is_the_least_whole_number_of_bytes():
    for k in range(4, 22):
        for e in range(201):
            for b in {(1 << e) - 1, 1 << e, (1 << e) + 1} - {0}:
                width = counting._lane_width(k, b)
                assert width % 8 == 0, (k, b)
                assert width - 8 < k + b.bit_length() <= width, (k, b)


def test_cubic_series_pinned_at_one_million(monkeypatch):
    # the walk gathers one-signed levels of more than 1,024 nodes here, so
    # the default batch size splits them as well as 256, 2 and 1 do
    f = (1, 0, -1, -1)
    grid = [62500, 125000, 250000, 500000, 1000000]
    pinned = ((62500, 16172), (125000, 25648), (250000, 40768),
              (500000, 64764), (1000000, 102848))
    for size in (counting._MAX_BATCH, 256, 2, 1):
        monkeypatch.setattr(counting, "_MAX_BATCH", size)
        assert count_series(f, grid) == pinned, size


def test_count_guard_refuses_inexact_hits(monkeypatch):
    # the cubic has a trivial stabilizer: a walk that yields every batch,
    # so every node, twice makes 2 hits, no odd-degree order; one that
    # yields the first node three times and one more node makes 3 hits
    # against 16 matrices.  The walk's first level here is the gathered
    # sign-changing nodes; its first two lanes are cut out as levels of one
    real = counting._farey_walk

    def doubled(xs, b_max, box):
        for item in real(xs, b_max, box):
            yield item
            yield item

    def tripled_first(xs, b_max, box):
        width = counting._lane_width(len(xs), b_max)
        heights, live, coeffs, signs = next(real(xs, b_max, box))
        assert signs[:2] == [1, 1]
        first, second = ([x >> width * i & ((1 << width) - 1)
                          for x in [heights, live] + coeffs]
                         for i in (0, 1))
        assert first[1] == second[1] == 1 << (width - 1)
        first, second = ((h, g, cs, [1]) for h, g, *cs in (first, second))
        yield from (first, first, first, second)

    f = (1, 0, -1, -1)
    assert count_series(f, [50, 100]) == ((50, 132), (100, 200))
    for fake in (doubled, tripled_first):
        monkeypatch.setattr(counting, "_farey_walk", fake)
        with pytest.raises(CountingError):
            count_series(f, [50, 100])


def test_non_integer_heights_are_refused():
    # a grid point that is not an int is named in a ValueError instead of
    # being truncated, 10.0 and True included
    f = (1, 0, -1, -1)
    with pytest.raises(ValueError, match=r"grid point 10\.7 is not an integer"):
        count_series(f, [10.7, 20.2])
    with pytest.raises(ValueError, match=r"grid point 20\.2 is not an integer"):
        count_series(f, [10, 20.2])
    for bad in ("20", None, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="is not an integer"):
            count_series(f, [10, bad])
    for bad in (10.0, True):
        with pytest.raises(ValueError, match=rf"grid point {bad} is not an integer"):
            count_series(f, [bad, 20])


@pytest.mark.parametrize("grid", [[], [20, 10], [10, 10]])
def test_grid_must_be_nonempty_and_increasing(grid):
    with pytest.raises(ValueError, match="nonempty and strictly increasing"):
        count_series((1, 0, -1, -1), grid)


def test_series_validation_and_csv(capsys):
    read = cli._read_series
    for text in ("10,5\n10,6\n", "10,5\n20,4\n"):
        with pytest.raises(ValueError, match="increasing in B, nondecreasing in N"):
            read(text)
    series = ((100, 12), (200, 20))
    assert read("B,N\n100,12\n200,20\n") == series
    assert read("b,n\n\n100,12\n 200,20 \n") == series
    with pytest.raises(ValueError, match="line 2: .* got 'B,N'"):
        read("100,12\nB,N\n200,20\n")
    with pytest.raises(ValueError, match=r"line 1: .* got '1\.5,2'"):
        read("1.5,2\n")
    # the count command writes a series as csv; fit reads it back
    assert cli.main(["count", "--coeffs=1,0,-1,-1", "--bmax", "400",
                     "--grid", "3", "--format", "csv"]) == 0
    assert read(capsys.readouterr().out) == count_series(
        (1, 0, -1, -1), [100, 200, 400])


# ---------------------------------------------------------------------------
# exponent fit
# ---------------------------------------------------------------------------

def test_fit_exact_power_law():
    result = fit_exponent([(b, 4 * b * b) for b in (10, 20, 40, 80, 160)])
    assert list(result) == ["slope", "intercept", "residual_norm", "points_used"]
    assert abs(result["slope"] - 2.0) < 1e-9
    assert abs(result["intercept"] - math.log(4)) < 1e-9
    assert result["residual_norm"] < 1e-9
    assert result["points_used"] == 5


def test_fit_constant_series():
    series = [(b, 17) for b in (10, 100, 1000, 10000)]
    assert abs(fit_exponent(series)["slope"]) < 1e-12


def test_fit_requires_three_points():
    with pytest.raises(InsufficientData):
        fit_exponent([(10, 1), (20, 2)])
    with pytest.raises(InsufficientData):
        fit_exponent([(10, 0), (20, 0), (40, 1), (80, 2)])


def test_fit_skips_zero_counts():
    series = [(10, 0), (20, 8), (40, 32), (80, 128)]
    assert abs(fit_exponent(series)["slope"] - 2.0) < 1e-9
