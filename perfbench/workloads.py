"""Workload inputs, operations and exact references.

Nothing here imports effcone: the inputs are built and the outputs are
judged by the benchmark alone, so the program receives only the generated
command lines.

Workloads (why each was chosen is also recorded in BENCHMARK.json):

* ``cert``: the paper's exact claims at one n.  One operation runs
  ``cone-cert --n 32 --format json``, ``kodaira --n 32`` on both spaces and
  ``fiber-check --n 32``.  The simplex and certificate verification in
  ``cone`` do nearly all of the work; ``counting`` is idle.  The inputs are
  fixed, so the seed has no effect.
* ``count-cubic``: ``count`` on f.M with f = (1, 0, -1, -1), followed by
  ``fit``.  f has an irrational real root, so the column scan dominates.
* ``count-quartic``: the same on the split quartic (1, -3, -25, 75, 0) of
  acceptance criterion 7, where the shell search stops early and the
  partner-parameter root finding dominates.

On the count workloads M runs over the 20 matrices of SL2(Z) with entries in
{-1, 0, 1}.  The seed shuffles the order in which they are visited and
operation k uses the k-th matrix of that order (cyclically), so a run covers
nearly the whole set whatever the seed.  The orbit does not depend on M,
so every operation must reproduce the same pinned series.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import refcheck

WORKLOADS = ("cert", "count-cubic", "count-quartic")

CERT_N = 32


@dataclass(frozen=True)
class CountSpec:
    form: tuple[int, ...]
    bmax: int
    series: tuple[int, ...]          # pinned N(B) on the 9-point grid
    slope_window: tuple[float, float]  # acceptance criterion 7


COUNT_GRID = 9
COUNTS = {
    "count-cubic": CountSpec((1, 0, -1, -1), 51200,
                             (340, 564, 876, 1404, 2232, 3520, 5612, 8880, 14168),
                             (0.52, 0.82)),
    "count-quartic": CountSpec((1, -3, -25, 75, 0), 1638400,
                               (158, 220, 296, 438, 620, 888, 1276, 1798, 2580),
                               (0.35, 0.65)),
}

SL2_UNITS = tuple(m for m in itertools.product((-1, 0, 1), repeat=4)
                  if m[0] * m[3] - m[1] * m[2] == 1)


@dataclass(frozen=True)
class Step:
    """One in-process CLI call.  When `feed` is set, the previous step's
    stdout is written to that file first (the `fit` subcommand reads one)."""

    argv: tuple[str, ...]
    feed: str | None = None


@dataclass(frozen=True)
class Operation:
    label: str
    steps: tuple[Step, ...]


def substitute(xs: tuple[int, ...], m: tuple[int, int, int, int]) -> tuple[int, ...]:
    """Coefficients of f(a z + b w, c z + d w) for f = sum x_i z^(n-i) w^i."""
    a, b, c, d = m
    n = len(xs) - 1
    out = [0] * (n + 1)
    for i, x in enumerate(xs):
        term = [x]  # x * (a z + b w)^(n-i) * (c z + d w)^i, by powers of w
        for p, q in [(a, b)] * (n - i) + [(c, d)] * i:
            nxt = [0] * (len(term) + 1)
            for k, v in enumerate(term):
                nxt[k] += p * v
                nxt[k + 1] += q * v
            term = nxt
        for k, v in enumerate(term):
            out[k] += v
    return tuple(out)


def grid(bmax: int) -> list[int]:
    """The `count --grid 9` grid: bmax // 2^k, increasing."""
    return sorted({bmax // 2 ** k for k in range(COUNT_GRID)} - {0})


def make_ops(workload: str, seed: int, workdir: str) -> list[Operation]:
    """The cycle of operations a run repeats; the seed only orders it."""
    if workload == "cert":
        n = str(CERT_N)
        return [Operation(f"n={n}", (
            Step(("cone-cert", "--n", n, "--format", "json")),
            Step(("kodaira", "--n", n, "--space", "full")),
            Step(("kodaira", "--n", n, "--space", "fiber")),
            Step(("fiber-check", "--n", n)),
        ))]
    spec = COUNTS[workload]
    feed = f"{workdir}/series-{workload}.csv"
    ops = []
    for m in random.Random(seed).sample(SL2_UNITS, len(SL2_UNITS)):
        # one token, so that argparse does not read "-1,..." as an option
        coeffs = ",".join(map(str, substitute(spec.form, m)))
        ops.append(Operation(f"M={m}", (
            Step(("count", f"--coeffs={coeffs}", "--bmax", str(spec.bmax),
                  "--grid", str(COUNT_GRID), "--format", "csv")),
            Step(("fit", "--in", feed, "--format", "json"), feed=feed),
        )))
    return ops


# ---------------------------------------------------------------------------
# output checks: each returns (errors, exact counters taken from the output)
# ---------------------------------------------------------------------------

def _human_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _check_cert(results) -> tuple[list[str], dict[str, int]]:
    (rc_cert, out_cert), (rc_full, out_full), (rc_fib, out_fib), (rc_chk, out_chk) = results
    errors: list[str] = []
    stats = {"cone.cert_max_bits": 0, "cone.cert_nonzero_multipliers": 0}
    if rc_cert != 0:
        errors.append(f"cone-cert exit code {rc_cert}")
    try:
        payload = json.loads(out_cert)
    except json.JSONDecodeError as exc:
        errors.append(f"cone-cert output is not JSON: {exc}")
    else:
        errs, stats = refcheck.check_cone_certificate(payload, CERT_N)
        errors += errs
    expected = str(Fraction(2, CERT_N))
    for space, rc, out in (("full", rc_full, out_full), ("fiber", rc_fib, out_fib)):
        fields = _human_fields(out)
        if rc != 0 or fields.get("value") != expected or fields.get("verdict") != "pass":
            errors.append(f"kodaira --space {space} did not print {expected} with a pass "
                          f"(exit {rc}, value {fields.get('value')})")
    fields = _human_fields(out_chk)
    try:
        checks = json.loads(fields.get("checks", "[]"))
    except json.JSONDecodeError:
        checks = []
    if (rc_chk != 0 or fields.get("verdict") != "pass" or not isinstance(checks, list)
            or not checks
            or not all(isinstance(c, dict) and c.get("pass") is True for c in checks)):
        errors.append(f"fiber-check did not pass (exit {rc_chk})")
    return errors, stats


def fit_slope(points) -> float:
    """Least-squares slope of log N against log B."""
    pts = [(math.log(b), math.log(n)) for b, n in points if n >= 1]
    k = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    return (k * sxy - sx * sy) / (k * sxx - sx * sx)


def _check_count(spec: CountSpec, results) -> tuple[list[str], dict[str, int]]:
    (rc_count, out_count), (rc_fit, out_fit) = results
    errors: list[str] = []
    expected = list(zip(grid(spec.bmax), spec.series))
    lines = out_count.split()
    got = []
    if rc_count == 0 and lines and lines[0] == "B,N":
        try:
            got = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
        except ValueError:
            got = []
    if got != expected:
        errors.append(f"count series {got} != pinned {expected} (exit {rc_count})")
    try:
        fit = json.loads(out_fit) if rc_fit == 0 else {}
    except json.JSONDecodeError:
        fit = {}
    slope = fit.get("slope") if isinstance(fit, dict) else None
    lo, hi = spec.slope_window
    if not isinstance(slope, float) or not lo <= slope <= hi:
        errors.append(f"fitted slope {slope} outside [{lo}, {hi}] (exit {rc_fit})")
    elif abs(slope - fit_slope(expected)) > 1e-9 or fit.get("points_used") != len(expected):
        errors.append(f"fit {fit} disagrees with the pinned series")
    return errors, {"counting.forms_found": got[-1][1] if got and not errors else 0}


def check(workload: str, results) -> tuple[list[str], dict[str, int]]:
    """Judge one operation's (exit code, stdout) pairs against the references."""
    if workload == "cert":
        return _check_cert(results)
    return _check_count(COUNTS[workload], results)
