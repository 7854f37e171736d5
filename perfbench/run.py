"""effcone benchmark: calibrated time to a verified exact result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cert --seed 1 --seconds 40 --trace 0

Each operation runs the workload's subcommands through `effcone.cli.main`
in this process with stdout captured, and every output is checked against
exact references (see workloads.py and refcheck.py) outside the timed
region.  Right before and right after each operation a fixed pure-Python
int and Fraction calibration loop is timed; the headline `latency_cal.p50`
is the median over the run of (operation wall time / mean of the two
calibration times), which cancels most of the host's speed drift.  Operations repeat until `--seconds` have
passed (closed loop, one client).

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced runs of the same input, checks that both print the same
bytes and that the traced exact counters repeat, and prints the per-layer
metrics (see spans.py); the spans are written to perfbench/_work/.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 1 when any operation
failed, and 2, with no result, when effcone cannot be imported from this
checkout's src/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

CALIBRATION_ROUNDS = 9000  # about 0.1 s on a 2-core Xeon host

# A fresh interpreter imports effcone and builds the inputs, then prints the
# system-wide monotonic clock; set-up time is that reading minus the spawn time.
PROBE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import effcone.cli, workloads
workloads.make_ops(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter())
"""


class SourceGuardError(Exception):
    """effcone would not be imported from this checkout's src/."""


def import_checked_cli():
    """Import effcone.cli from this checkout's src/, never another copy."""
    if not (SRC / "effcone" / "__init__.py").is_file():
        raise SourceGuardError(f"no effcone package under {SRC}")
    sys.path.insert(0, str(SRC))
    import effcone
    import effcone.cli
    where = Path(effcone.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SourceGuardError(f"effcone resolves to {where}, outside {SRC}")
    return effcone.cli


def source_identity() -> dict[str, str]:
    """Commit hash (when the checkout is a git work tree), a digest of the
    program sources, and the interpreter version."""
    commit = "none"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "effcone").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version()}


def calibration_work() -> int:
    """Fixed pure-Python work in the program's mix: small-int list loops,
    big-integer products and gcds, Fraction sums and complex floats.  It
    imports nothing from effcone, so its time tracks only the host."""
    row = list(range(1, 33))
    acc = 0
    q = Fraction(0)
    z = 0.5 + 0.25j
    for i in range(1, CALIBRATION_ROUNDS + 1):
        row = [(v * 1103515245 + i) % 2147483647 for v in row[1:] + row[:1]]
        acc = (acc + gcd((row[0] * row[1]) ** 6, row[2] * row[3] + 1)) % 1000003
        q += Fraction(row[4] % 97, row[5] % 89 + 1)
        if q.denominator.bit_length() > 64:
            q = Fraction(q.numerator % 65537, 3)
        z = z * (0.6 - 0.7j) + complex(row[6] % 7, 1)
        z /= abs(z)
    return acc + q.numerator + int(z.real * 1000)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to `effcone` imported and
    the inputs built."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(BENCH),
                           workload, str(seed), str(WORK)],
                          capture_output=True, text=True, cwd=ROOT, timeout=60,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def run_operation(cli, op: workloads.Operation):
    """Run the operation's CLI calls; return (wall s, [(exit code, stdout)])."""
    results = []
    start = time.perf_counter()
    for step in op.steps:
        if step.feed:
            Path(step.feed).write_text(results[-1][1], encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(step.argv))
        results.append((code, out.getvalue()))
    return time.perf_counter() - start, results


class Run:
    """Measures one workload: calibrated operations plus their verdicts.

    The calibration timed right after an operation is also the one right
    before the next, and each operation's time is divided by the mean of
    the two around it: the host's speed swings by tens of percent within a
    second, and the bracket follows the speed the operation saw.
    """

    def __init__(self, cli, workload: str, ops: list[workloads.Operation]):
        self.cli = cli
        self.workload = workload
        self.ops = ops
        self.attempted = 0
        self.failures: list[str] = []
        self.calibrations: list[float] = []

    def _calibrate(self) -> float:
        gc.collect()
        start = time.perf_counter()
        calibration_work()
        self.calibrations.append(time.perf_counter() - start)
        return self.calibrations[-1]

    def measure(self, op: workloads.Operation, tracer=None, op_id=-1):
        """Run and check one operation between two calibrations.  Returns
        (ratio, stdout texts, exact counters), or None if it failed."""
        self.attempted += 1
        before = self.calibrations[-1] if self.calibrations else self._calibrate()
        try:
            if tracer is None:
                wall, results = run_operation(self.cli, op)
            else:
                with tracer.operation(op_id):
                    wall, results = run_operation(self.cli, op)
        except Exception:  # a crash inside the program is a failed operation
            results, errors = None, [traceback.format_exc(limit=3)]
        after = self._calibrate()
        if results is not None:
            errors, counters = workloads.check(self.workload, results)
        if errors:
            self.failures.append(f"{op.label}: {'; '.join(errors)}")
            return None
        counters["cli.out_bytes"] = sum(len(out.encode()) for _, out in results)
        return 2 * wall / (before + after), [out for _, out in results], counters

    def calib_iqr_frac(self) -> float:
        """Spread of the calibration times over the run: host noise."""
        return iqr_frac(self.calibrations)


def iqr_frac(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def plain_run(run: Run, seconds: float, seed: int) -> dict[str, tuple[float, str]]:
    """Untraced operations, with one setup probe after each.  Spreading the
    probes over the run makes setup_s follow the host's typical speed
    during the run rather than its speed in one moment."""
    probe_setup(run.workload, seed)  # may compile bytecode: not counted
    ratios, setups = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        outcome = run.measure(run.ops[run.attempted % len(run.ops)])
        if outcome:
            ratios.append(outcome[0])
        setups.append(probe_setup(run.workload, seed))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"# ops: {len(ratios)}  error_rate: {len(run.failures) / run.attempted}"
          f"  bench.calib_iqr_frac: {run.calib_iqr_frac()}")
    return {"latency_cal.p50": (median_or_zero(ratios), "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (rss_mib, "MiB")}


# Counters taken from the outputs, and exact counters that must repeat on
# every traced operation of a run.
OUTPUT_COUNTERS = ("cli.out_bytes", "cone.cert_max_bits",
                   "cone.cert_nonzero_multipliers", "counting.forms_found")
CALLS = ("cone.lp_min", "cone.verify_lp_minimum", "forms.disc")
EXACT = tuple(f"{span}.calls" for span in CALLS) + OUTPUT_COUNTERS

# (metric, span, "total" or "self"): seconds per traced operation; each also
# gets a `_share` metric, its fraction of the traced operation time.
LAYER_TIMES = (
    ("cone.lp_min.self_s", "cone.lp_min", "self"),
    ("cone.verify_lp_minimum_s", "cone.verify_lp_minimum", "total"),
    ("cone.dual_contained_in_orthant.self_s", "cone.dual_contained_in_orthant", "self"),
    ("cone.kodaira_energy_s", "cone.kodaira_energy", "total"),
    ("picard.pairing_matrix_s", "picard.pairing_matrix", "total"),
    ("picard.kodaira_full_s", "picard.kodaira_full", "total"),
    ("fiber.kodaira_fiber_s", "fiber.kodaira_fiber", "total"),
    ("cli.main.self_s", "cli.main", "self"),
    ("counting.count_series.self_s", "counting.count_series", "self"),
    ("forms.disc_s", "forms.disc", "total"),
    ("counting.fit_exponent_s", "counting.fit_exponent", "total"),
)


def share_name(metric: str) -> str:
    return metric[:-2] + "_share"


def layer_metrics(layers, counters) -> dict[str, float]:
    """Per-layer values of one traced operation."""
    op_s = layers[spans.ROOT_SPAN][1]
    values = {"trace.op_s": op_s}
    for metric, span, kind in LAYER_TIMES:
        calls, total, own = layers.get(span, (0, 0.0, 0.0))
        values[metric] = own if kind == "self" else total
        values[share_name(metric)] = values[metric] / op_s
    for span in CALLS:
        values[f"{span}.calls"] = layers.get(span, (0,))[0]
    values.update((name, counters.get(name, 0)) for name in OUTPUT_COUNTERS)
    found = values["counting.forms_found"]
    values["counting.s_per_kform"] = (
        values["counting.count_series.self_s"] / (found / 1000) if found else 0.0)
    return values


def traced_run(run: Run, seconds: float, seed: int) -> dict[str, tuple[float, str]]:
    tracer = spans.Tracer()
    plain, traced, per_op = [], [], []
    pair = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = run.ops[pair % len(run.ops)]
        first_traced = pair % 2 == 1  # alternate which side runs first
        outcomes = {}
        for is_traced in (first_traced, not first_traced):
            outcomes[is_traced] = run.measure(op, tracer if is_traced else None, pair)
        if outcomes[False]:
            plain.append(outcomes[False][0])
        if outcomes[True]:
            ratio, texts, counters = outcomes[True]
            values = layer_metrics(tracer.layers(pair), counters)
            if outcomes[False] and outcomes[False][1] != texts:
                run.failures.append(f"{op.label}: traced stdout differs from untraced")
            elif per_op and any(values[k] != per_op[0][k] for k in EXACT):
                run.failures.append(f"{op.label}: traced exact counters did not repeat")
            else:
                traced.append(ratio)
                per_op.append(values)
        pair += 1
    tracer.write(WORK / f"spans-{run.workload}-seed{seed}.jsonl")

    metrics = {}
    for name in per_op[0] if per_op else ():
        value = (per_op[0][name] if name in EXACT  # equal on every traced op
                 else median_or_zero(v[name] for v in per_op))
        metrics[name] = (value, unit_of(name))
    metrics["trace.overhead_cal"] = (median_or_zero(traced) - median_or_zero(plain),
                                     "ratio")
    metrics["bench.calib_iqr_frac"] = (run.calib_iqr_frac(), "frac")
    if per_op:
        covered = (metrics["cone.lp_min.self_share"][0]
                   + metrics["cone.verify_lp_minimum_share"][0]
                   if run.workload == "cert"
                   else metrics["counting.count_series.self_share"][0])
        print(f"# traced ops: {len(per_op)}  share of traced op time in the "
              f"dominant layer(s): {covered}")
    return metrics


def unit_of(metric: str) -> str:
    if metric.endswith("_share"):
        return "frac"
    if metric.endswith("_s"):
        return "s"
    if metric == "counting.s_per_kform":
        return "s/kform"
    if metric == "cli.out_bytes":
        return "bytes"
    if metric == "cone.cert_max_bits":
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_checked_cli()
    except (SourceGuardError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    identity = source_identity()
    print("# " + "  ".join(f"{k}: {v}" for k, v in identity.items())
          + f"  effcone: {SRC / 'effcone'}")
    if args.workload == "cert":
        print(f"# seed {args.seed} has no effect on cert: the inputs are fixed at "
              f"n={workloads.CERT_N}")
    else:
        print(f"# seed {args.seed} orders the 20 matrices M; the inputs are f.M")

    WORK.mkdir(exist_ok=True)
    run = Run(cli, args.workload, workloads.make_ops(args.workload, args.seed, str(WORK)))
    if args.trace:
        metrics = traced_run(run, args.seconds, args.seed)
    else:
        metrics = plain_run(run, args.seconds, args.seed)
    for failure in run.failures:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
