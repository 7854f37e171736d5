"""Acceptance suite: one test per claimed result, exact tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Exact statements are checked as equalities of rationals or
integers; only the counting experiment (an asymptotic statement) uses a
tolerance window on the fitted exponent.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from effcone import counting, fiber, forms, picard
from oracles import (SubsetCurve, combined, disc_cubic_reference,
                     enumerate_unimodular, form_from_roots, matmul, pair_subset)

Q = Fraction


def report(num: int, summary: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{status}] {summary} ({elapsed:.2f}s)")


def test_criterion_1_full_space_kodaira_energy():
    start = time.monotonic()
    ok = all(picard.kodaira_full(n) == Q(2, n) for n in range(3, 31))
    elapsed = time.monotonic() - start
    report(1, "full-space threshold equals 2/n for n=3..30", ok, elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_fiber_kodaira_energy():
    start = time.monotonic()
    ok = True
    for n in range(3, 31):
        value = fiber.kodaira_fiber(n)
        ok = ok and value == Q(2, n) and value == picard.kodaira_full(n)
    elapsed = time.monotonic() - start
    report(2, "fiber threshold equals 2/n and matches the full space", ok,
           elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_3_effective_cone_certificates():
    start = time.monotonic()
    ok = True
    for n in range(3, 41):
        cert = picard.cone_certificate(n)
        # construction re-verifies the dual proofs
        expected = ((Q(1, 4), Q(1, 2)) if n == 3
                    else (Q(1, comb(n + 1, 3)),) + (Q(0),) * (n - 2))
        ok = ok and cert.passed and cert.minima == expected
    elapsed = time.monotonic() - start
    report(3, "orthant-containment certificates pass for n=3..40, "
              "minima 1/C(n+1,3) and 0", ok, elapsed)
    assert ok
    assert elapsed < 10.0


def test_criterion_4_pairing_table_reproduction():
    start = time.monotonic()
    ok = True
    for n in range(3, 31):
        for s in range(3, n + 1):
            ok = ok and picard.derive_self_pairing("C", s, n) == -(s - 2)
        for s in range(2, n):
            ok = ok and picard.derive_self_pairing("R", s, n) == -1
    for n in range(3, 8):
        points = range(1, n + 1)
        matrix = picard.pairing_matrix(n)
        for j in range(2, n + 1):
            size_j = [frozenset(t) for t in combinations(points, j)]
            for (kind, s), row in zip(picard.matrix_rows(n), matrix):
                # the representative S = {1..s}, tau = s+1 of the family
                S = range(1, s + 1)
                rep = (SubsetCurve("C", S) if kind == "C"
                       else SubsetCurve("R", S, s + 1))
                total = sum(pair_subset(rep, t, n) for t in size_j)
                ok = ok and total == row[j - 2]
    for n in range(3, 13):
        for (kind, _), row in zip(picard.matrix_rows(n), picard.pairing_matrix(n)):
            weighted = sum(Q(j * (j - 1), 2) * row[j - 2]
                           for j in range(2, n + 1))
            ok = ok and weighted == (n - 1) * picard.pair_L(kind)
    elapsed = time.monotonic() - start
    report(4, "pairing tables: derived self terms, subset sums, relation", ok,
           elapsed)
    assert ok


def test_criterion_5_fiber_basis_identities():
    start = time.monotonic()
    ok = True
    for n in range(3, 31):
        k_sub2, k_top2 = fiber.to_A_basis(fiber.fiber_class(n, "K"))
        ok = ok and (Q(k_sub2, 2), Q(k_top2, 2)) == (Q(-1), Q(-2))
        lhs = combined((n - 2, fiber.fiber_class(n, "A_sub")),
                       (n, fiber.fiber_class(n, "A_top")))
        coords = [2 * (n - 2)] * 3 + [-2 * (n - 3)] + [-2 * (n - 2)] * (n - 3)
        ok = ok and lhs == tuple(coords)
        ok = ok and lhs == combined((2, fiber.fiber_class(n, "Lhalf")))
    elapsed = time.monotonic() - start
    report(5, "fiber basis identities (canonical and hyperplane)", ok, elapsed)
    assert ok


def test_criterion_6_discriminant():
    start = time.monotonic()
    # disc / the classical cubic discriminant over 100 seeded cubics where
    # the latter is nonzero: one constant, +-1
    rng = random.Random(606)
    ratios = set()
    cubics = 0
    while cubics < 100:
        coeffs = tuple(rng.randint(-50, 50) for _ in range(4))
        ref = disc_cubic_reference(*coeffs)
        if ref:
            ratios.add(Q(forms.disc(coeffs), ref))
            cubics += 1
    ok = ratios in ({Q(1)}, {Q(-1)})
    ratio = ", ".join(map(str, ratios))

    rng = random.Random(607)
    pairs = 0
    while pairs < 1000:
        degree = rng.choice([3, 4, 5])
        f = tuple(rng.randint(-9, 9) for _ in range(degree + 1))
        if not any(f):
            continue
        m = matmul(matmul((1, rng.randint(-8, 8), 0, 1),
                          (1, 0, rng.randint(-8, 8), 1)), (0, -1, 1, 0))
        ok = ok and forms.disc(forms.substitute(f, *m)) == forms.disc(f)
        pairs += 1

    for _ in range(50):
        degree = rng.choice([2, 3, 4, 5])
        r = rng.randint(-6, 6)
        roots = [r, r] + [rng.randint(-6, 6) for _ in range(degree - 2)]
        ok = ok and forms.disc(form_from_roots(rng.randint(1, 4), roots)) == 0
    elapsed = time.monotonic() - start
    report(6, f"discriminant: convention ratio {ratio}, invariance, "
              "repeated roots", ok, elapsed)
    assert ok


def test_criterion_7_counting_exponent():
    start = time.monotonic()
    grid = [100 * 2 ** k for k in range(9)]

    cubic = (1, 0, -1, -1)
    slope3 = counting.fit_exponent(counting.count_series(cubic, grid))["slope"]
    ok = 0.52 <= slope3 <= 0.82

    rng = random.Random(20260808)
    quartic = form_from_roots(1, rng.sample(range(-5, 6), 4))
    assert forms.disc(quartic) != 0
    slope4 = counting.fit_exponent(counting.count_series(quartic, grid))["slope"]
    ok = ok and 0.35 <= slope4 <= 0.65
    elapsed = time.monotonic() - start
    report(7, f"orbit growth exponents: n=3 slope {slope3:.3f} "
              f"(target 2/3), n=4 slope {slope4:.3f} (target 1/2)", ok,
           elapsed)
    assert ok
    assert elapsed < 300.0


def test_criterion_8_enumeration_oracle():
    # the box enumerator of tests/oracles.py, which the box-cover tests of
    # the Farey walk (brute_orbit_heights) rely on, against brute force
    start = time.monotonic()
    ok = len(list(enumerate_unimodular(1))) == 20
    for bound in range(0, 7):
        brute = {(a, b, c, d)
                 for a in range(-bound, bound + 1)
                 for b in range(-bound, bound + 1)
                 for c in range(-bound, bound + 1)
                 for d in range(-bound, bound + 1)
                 if a * d - b * c == 1}
        got = list(enumerate_unimodular(bound))
        ok = ok and len(got) == len(set(got)) and set(got) == brute
    elapsed = time.monotonic() - start
    report(8, "unimodular enumeration matches brute force for T<=6", ok,
           elapsed)
    assert ok
