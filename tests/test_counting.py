import math
import random

import pytest

from effcone.counting import (
    CountSeries,
    InsufficientData,
    NonGenericForm,
    _farey_walk,
    _orbit_heights,
    count_orbit,
    count_series,
    entry_bound,
    enumerate_unimodular,
    fit_exponent,
)
from effcone.forms import (
    BinaryForm,
    UnimodularMatrix,
    act,
    disc,
    evaluate,
    form_from_roots,
    height,
)


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
        _orbit_heights(BinaryForm((1, 3, 3, 1)), 50)


def test_count_rejects_degree_below_three():
    # at n = 2 the entry bound says nothing, and an indefinite quadratic
    # has an infinite stabilizer, so no box holds its whole orbit
    for coeffs in ((1, 0, -1), (1, 1)):
        with pytest.raises(ValueError, match="n >= 3"):
            count_orbit(BinaryForm(coeffs), 100)


def window_box_images(f, bound, b_max):
    """Qualifying image set from the Farey-tree search, single box."""
    return set(_farey_walk(f.coeffs, b_max, bound))


def test_walk_records_heights_and_ends_at_entry_bound():
    # every image carries its height, a larger box only adds images, and no
    # box beyond entry_bound(f, B) adds one
    for coeffs, b_max in (((1, 0, -1, -1), 500),
                          ((0, 2, -3, 1, 5), 400),
                          ((1, -3, -25, 75, 0), 3000),
                          ((2, 1, 0, -1, 1, 3), 300)):
        bound = entry_bound(BinaryForm(coeffs), b_max)
        images = _farey_walk(coeffs, b_max, bound)
        assert len(images) > 20
        for image, h in images.items():
            assert h == max(abs(x) for x in image) <= b_max
        for box in (4, 16, 64):
            assert set(_farey_walk(coeffs, b_max, box)) <= set(images)
        assert _farey_walk(coeffs, b_max, 4 * bound + 8) == images


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
        seen = _farey_walk(xs, b_max, box)
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
        assert _orbit_heights(f, b_max) == brute_orbit_heights(f, b_max)


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
        assert _orbit_heights(f, b_max) == brute_orbit_heights(f, b_max), \
            (coeffs, b_max)


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
    images = _farey_walk(f.coeffs, b_max, entry_bound(f, b_max))
    assert seen <= set(images)
    for coeffs in images:
        assert tuple(-v for v in coeffs) in images


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
