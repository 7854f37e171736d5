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

from effcone import cone, counting, fiber, forms, picard

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
        for j in range(2, n + 1):
            size_j = [frozenset(t) for t in combinations(points, j)]
            for curve in picard.matrix_curves(n):
                rep = picard.representative(curve, n)
                total = sum(picard.pair_subset(rep, t, n) for t in size_j)
                ok = ok and total == picard.pair_averaged(curve, j, n)
    for n in range(3, 13):
        for curve in picard.matrix_curves(n):
            weighted = sum(Q(j * (j - 1), 2) * picard.pair_averaged(curve, j, n)
                           for j in range(2, n + 1))
            ok = ok and weighted == (n - 1) * picard.pair_L(curve)
    elapsed = time.monotonic() - start
    report(4, "pairing tables: derived self terms, subset sums, relation", ok,
           elapsed)
    assert ok


def test_criterion_5_fiber_basis_identities():
    start = time.monotonic()
    ok = True
    for n in range(3, 31):
        k = fiber.to_A_basis(fiber.fiber_class(n, "K"))
        ok = ok and (k.a_sub, k.a_top) == (Q(-1), Q(-2))
        lhs = ((n - 2) * fiber.fiber_class(n, "A_sub")
               + n * fiber.fiber_class(n, "A_top"))
        coords = ([Q(2 * (n - 2))] * 3 + [Q(-2 * (n - 3))]
                  + [Q(-2 * (n - 2))] * (n - 3))
        ok = ok and lhs == fiber.FiberClass(n, tuple(coords))
        ok = ok and lhs == 2 * fiber.fiber_class(n, "Lhalf")
    elapsed = time.monotonic() - start
    report(5, "fiber basis identities (canonical and hyperplane)", ok, elapsed)
    assert ok


def test_criterion_6_discriminant():
    start = time.monotonic()
    ratio = forms.compare_disc_conventions(100, seed=606, coeff_bound=50)
    ok = ratio in (Q(1), Q(-1))

    rng = random.Random(607)
    pairs = 0
    while pairs < 1000:
        degree = rng.choice([3, 4, 5])
        f = forms.BinaryForm(tuple(rng.randint(-9, 9)
                                   for _ in range(degree + 1)))
        if not any(f.coeffs):
            continue
        m = forms.UnimodularMatrix(1, rng.randint(-8, 8), 0, 1) \
            @ forms.UnimodularMatrix(1, 0, rng.randint(-8, 8), 1) \
            @ forms.UnimodularMatrix(0, -1, 1, 0)
        ok = ok and forms.disc(forms.act(f, m)) == forms.disc(f)
        pairs += 1

    for _ in range(50):
        degree = rng.choice([2, 3, 4, 5])
        r = rng.randint(-6, 6)
        roots = [r, r] + [rng.randint(-6, 6) for _ in range(degree - 2)]
        ok = ok and forms.disc(forms.form_from_roots(rng.randint(1, 4),
                                                     roots)) == 0
    elapsed = time.monotonic() - start
    report(6, f"discriminant: convention ratio {ratio}, invariance, "
              "repeated roots", ok, elapsed)
    assert ok


def test_criterion_7_counting_exponent():
    start = time.monotonic()
    grid = [100 * 2 ** k for k in range(9)]

    cubic = forms.BinaryForm((1, 0, -1, -1))
    slope3 = counting.fit_exponent(counting.count_series(cubic, grid)).slope
    ok = 0.52 <= slope3 <= 0.82

    rng = random.Random(20260808)
    quartic = forms.form_from_roots(1, rng.sample(range(-5, 6), 4))
    assert forms.disc(quartic) != 0
    slope4 = counting.fit_exponent(counting.count_series(quartic, grid)).slope
    ok = ok and 0.35 <= slope4 <= 0.65
    elapsed = time.monotonic() - start
    report(7, f"orbit growth exponents: n=3 slope {slope3:.3f} "
              f"(target 2/3), n=4 slope {slope4:.3f} (target 1/2)", ok,
           elapsed)
    assert ok
    assert elapsed < 300.0


def test_criterion_8_enumeration_oracle():
    start = time.monotonic()
    ok = len(list(counting.enumerate_unimodular(1))) == 20
    for bound in range(0, 7):
        brute = {(a, b, c, d)
                 for a in range(-bound, bound + 1)
                 for b in range(-bound, bound + 1)
                 for c in range(-bound, bound + 1)
                 for d in range(-bound, bound + 1)
                 if a * d - b * c == 1}
        got = [m.entries() for m in counting.enumerate_unimodular(bound)]
        ok = ok and len(got) == len(set(got)) and set(got) == brute
    elapsed = time.monotonic() - start
    report(8, "unimodular enumeration matches brute force for T<=6", ok,
           elapsed)
    assert ok
