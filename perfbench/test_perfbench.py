"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import pytest

import refcheck
import run
import spans
import workloads

CLI = run.import_checked_cli()
COUNT_WORKLOADS = tuple(workloads.COUNTS)


def _first_op(workload: str, seed: int, tmp_path) -> workloads.Operation:
    return workloads.make_ops(workload, seed, str(tmp_path))[0]


@pytest.mark.parametrize("workload", COUNT_WORKLOADS)
def test_orbit_invariance_across_seeds(workload, tmp_path):
    """Different seeds start from different matrices M; the orbit, hence the
    pinned series and the fitted slope window, must not notice."""
    seeds = (1, 2, 3)
    ops = [_first_op(workload, seed, tmp_path) for seed in seeds]
    assert len({op.label for op in ops}) == len(seeds)
    series = []
    for op in ops:
        _, results = run.run_operation(CLI, op)
        errors, counters = workloads.check(workload, results)
        assert errors == []
        assert counters["counting.forms_found"] == workloads.COUNTS[workload].series[-1]
        series.append(results[0][1])
    assert len(set(series)) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_repeats(workload, tmp_path):
    """Two traced runs give the same exact counters, and tracing does not
    change a byte of the program's output."""
    op = _first_op(workload, 7, tmp_path)
    bench = run.Run(CLI, workload, [op])
    tracer = spans.Tracer()
    _, plain_texts, _ = bench.measure(op)
    traced = []
    for op_id in (0, 1):
        _, texts, counters = bench.measure(op, tracer, op_id)
        assert texts == plain_texts
        traced.append(run.layer_metrics(tracer.layers(op_id), counters))
    assert bench.failures == []
    assert [{k: v[k] for k in run.EXACT} for v in traced] == [
        {k: traced[0][k] for k in run.EXACT}] * 2
    if workload == "cert":
        assert traced[0]["cone.lp_min.calls"] == workloads.CERT_N - 1
        assert traced[0]["cone.verify_lp_minimum.calls"] == 2 * (workloads.CERT_N - 1)
    else:
        assert traced[0]["forms.disc.calls"] == 1


def _cert_payload(tmp_path) -> dict:
    _, results = run.run_operation(CLI, _first_op("cert", 0, tmp_path))
    return json.loads(results[0][1])


def test_certificate_recheck_rejects_tampering(tmp_path):
    payload = _cert_payload(tmp_path)
    errors, stats = refcheck.check_cone_certificate(payload, workloads.CERT_N)
    assert errors == [] and stats["cone.cert_nonzero_multipliers"] > 0

    bad = copy.deepcopy(payload)
    mults = bad["certificate"]["row_multipliers"][3]
    k = next(i for i, v in enumerate(mults) if v != "0")
    mults[k] = str(2 * Fraction(mults[k]))
    errors, _ = refcheck.check_cone_certificate(bad, workloads.CERT_N)
    assert any("Farkas" in e for e in errors)

    bad = copy.deepcopy(payload)
    bad["certificate"]["constraints"][0][0] = "12345"
    errors, _ = refcheck.check_cone_certificate(bad, workloads.CERT_N)
    assert errors == ["certificate constraints are not the pinned pairing matrix"]


def test_count_check_rejects_a_missed_form():
    spec = workloads.COUNTS["count-cubic"]
    points = list(zip(workloads.grid(spec.bmax), spec.series))
    points[-1] = (points[-1][0], points[-1][1] - 1)
    csv = "B,N\n" + "".join(f"{b},{n}\n" for b, n in points)
    fit = json.dumps({"slope": workloads.fit_slope(points), "points_used": 9})
    errors, counters = workloads.check("count-cubic", [(0, csv), (0, fit)])
    assert errors and counters["counting.forms_found"] == 0


def test_source_guard_refuses_another_tree(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path)
    with pytest.raises(run.SourceGuardError):
        run.import_checked_cli()
