"""Independent re-check of a `cone-cert --format json` certificate.

Imports nothing from effcone: the certificate is judged from its JSON alone.
For every coordinate j with minimum m_j, witness x, row multipliers y and
normalization multiplier nu it checks

* witness feasibility: A_i . x >= 0 for every row and sum(x) = 1;
* the witness attains the minimum: x_j = m_j;
* the Farkas identity sum_i y_i A_i + nu * (1, ..., 1) = e_j with y >= 0;
* the dual objective nu = m_j and complementary slackness y_i (A_i . x) = 0;

and that the minima are the known values 1/C(n+1, 3) for B[2] and 0 for
every other B[s] (verified exactly at n = 32), on the pinned pairing matrix.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb, gcd, lcm

# sha256 of the pairing matrix at n = 32, as sorted primitive integer rows
# (row order and positive row scaling do not change the cone).
PAIRING_FINGERPRINT = {
    32: "7b72bc59bb4b82adf1c031f641e52edfb0acb5d8b47557bc7466464099c508fc",
}


def _common(qs: list[Fraction]) -> tuple[list[int], int]:
    """(ints, den) with den > 0 and ints[k] / den == qs[k]."""
    den = lcm(*(q.denominator for q in qs)) if qs else 1
    return [q.numerator * (den // q.denominator) for q in qs], den


def _primitive(row: list[Fraction]) -> tuple[tuple[int, ...], Fraction]:
    """(R, d): integer row R and positive d with R / d == row, R primitive."""
    ints, den = _common(row)
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints), Fraction(den, g or 1)


def fingerprint(rows: list[list[Fraction]]) -> str:
    canon = sorted(_primitive(row)[0] for row in rows)
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def expected_minimum(label: str, n: int) -> Fraction:
    return Fraction(1, comb(n + 1, 3)) if label == "B[2]" else Fraction(0)


def check_cone_certificate(payload: dict, n: int) -> tuple[list[str], dict[str, int]]:
    """Return (errors, exact counters) for one `cone-cert` JSON payload."""
    stats = {"cone.cert_max_bits": 0, "cone.cert_nonzero_multipliers": 0}
    try:
        cert = payload["certificate"]
        labels = list(cert["variables"])
        rows = [[Fraction(v) for v in row] for row in cert["constraints"]]
        minima = [Fraction(cert["minima"][lab]) for lab in labels]
        witnesses = [[Fraction(v) for v in w] for w in cert["witnesses"]]
        mults = [[Fraction(v) for v in y] for y in cert["row_multipliers"]]
        nus = [Fraction(v) for v in cert["normalization_multipliers"]]
        flags = (payload["command"], payload["n"], payload["verdict"],
                 cert["normalization"], cert["feasible"], cert["pass"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"certificate JSON is malformed: {exc!r}"], stats

    errors: list[str] = []
    if flags != ("cone-cert", n, "pass", "sum = 1", True, True):
        errors.append(f"certificate header {flags} is not a pass at n={n}")
    if labels != [f"B[{s}]" for s in range(2, n + 1)]:
        errors.append("certificate variables are not B[2..n]")
        return errors, stats
    k = len(labels)
    if not (len(minima) == len(witnesses) == len(mults) == len(nus) == k):
        errors.append("certificate needs one minimum, witness and multiplier block per variable")
        return errors, stats
    if any(len(row) != k for row in rows) or fingerprint(rows) != PAIRING_FINGERPRINT.get(n):
        errors.append("certificate constraints are not the pinned pairing matrix")
        return errors, stats

    prim = [_primitive(row) for row in rows]
    numbers = [q for block in (minima, nus, *witnesses, *mults) for q in block]
    stats["cone.cert_max_bits"] = max(
        max(q.numerator.bit_length(), q.denominator.bit_length()) for q in numbers)
    stats["cone.cert_nonzero_multipliers"] = sum(1 for y in mults for v in y if v)

    for j, lab in enumerate(labels):
        x, y, nu, mn = witnesses[j], mults[j], nus[j], minima[j]
        where = f"coordinate {lab}"
        if len(x) != k or len(y) != len(rows):
            errors.append(f"{where}: witness or multiplier block has the wrong length")
            continue
        xs, xden = _common(x)
        slacks = [sum(r * v for r, v in zip(R, xs)) for R, _ in prim]  # d_i * xden * A_i.x
        if any(s < 0 for s in slacks):
            errors.append(f"{where}: witness violates a constraint")
        if sum(xs) != xden:
            errors.append(f"{where}: witness is not normalized")
        if x[j] != mn:
            errors.append(f"{where}: witness does not attain the minimum")
        if mn != expected_minimum(lab, n):
            errors.append(f"{where}: minimum {mn} != {expected_minimum(lab, n)}")
        if any(v < 0 for v in y):
            errors.append(f"{where}: negative row multiplier")
        # sum_i y_i A_i = sum_i (y_i / d_i) R_i; clear all denominators at once
        ws, wden = _common([v / d for v, (_, d) in zip(y, prim)] + [nu])
        nu_int = ws.pop()
        for col in range(k):
            lhs = sum(w * R[col] for w, (R, _) in zip(ws, prim) if w) + nu_int
            if lhs != (wden if col == j else 0):
                errors.append(f"{where}: Farkas identity fails in column {col}")
                break
        if nu != mn:
            errors.append(f"{where}: dual objective {nu} != minimum {mn}")
        if any(w and s for w, s in zip(ws, slacks)):
            errors.append(f"{where}: complementary slackness fails")
    return errors, stats
