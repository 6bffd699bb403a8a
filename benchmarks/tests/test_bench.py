"""Tests of the benchmark itself: op lists, tracing, statistics, checks, smoke runs.

    python3 -m pytest benchmarks/tests -q
"""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ops
import run
import stats
import tracing
import worker
import workloads
from tracing import Span, Tracer, self_times

from conftest import BENCH_DIR, ROOT


def _rounds(workload, seed, count):
    return list(itertools.islice(ops.op_rounds(workload, seed), count))


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_gives_identical_op_list(workload):
    first = _rounds(workload, 7, 20)
    assert json.dumps(first) == json.dumps(_rounds(workload, 7, 20))
    assert json.dumps(first) != json.dumps(_rounds(workload, 8, 20))


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_rounds_hold_a_fixed_op_mix(workload):
    def mix(ops_of_round):
        return sorted(repr([op.get(k) for k in ("kind", "suite", "r", "family", "cutoff")])
                      for op in ops_of_round)

    mixes = [mix(r) for r in _rounds(workload, 1, 6) + _rounds(workload, 2, 6)]
    assert all(m == mixes[0] for m in mixes)


def test_refusable_artifact_inputs_do_not_depend_on_the_seed():
    def inputs(seed):
        return sorted(ops.input_key(op) for op in _rounds("artifacts", seed, 3)[2]
                      if op.get("family") in ("coherent", "nbs", "nms") or op["kind"] == "simulate")

    assert len(inputs(1)) == 16
    assert inputs(1) == inputs(2)


def test_a_failed_input_is_not_issued_again(tmp_path, monkeypatch):
    def fake_run_op(op, workdir, tracer=None):
        status = "refused" if op["x"] == 1 else "ok"
        return {"status": status, "seconds": 1e-3, "bytes": 0, "detail": ""}

    monkeypatch.setattr(workloads, "run_op", fake_run_op)
    rounds = ([{"kind": "t", "x": x, "theta": [0.1 * i]} for x in range(12)]
              for i in itertools.count())
    done, records, _ = worker._loop(rounds, 0.0, 3, str(tmp_path))
    assert [r["status"] for r in records].count("refused") == 1
    assert len(done) == 12 + 11 + 11


def test_self_time_is_span_minus_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0),
        Span(1, "a", 1.0, 4.0, parent=0),
        Span(2, "b", 3.0, 6.0, parent=0),   # overlaps a: union of a and b is [1, 6]
        Span(3, "c", 8.0, 12.0, parent=0),  # runs past the parent: only [8, 10] counts
        Span(4, "d", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 4.0, 1.0])


def test_tail_rule_keeps_ten_ops_beyond_the_percentile():
    rng = np.random.default_rng(0)
    for count in itertools.chain(range(11, 400), (999, 1000, 1001, 12345, 200000)):
        pct = stats.tail_percentile(count)
        rank = stats.nearest_rank(count, pct)
        assert count - rank >= stats.TAIL_BEYOND
        # one step (0.1) higher would leave fewer than ten beyond, unless capped
        if pct < 99.9:
            assert count - stats.nearest_rank(count, pct + 0.1) < stats.TAIL_BEYOND
    values = rng.exponential(size=137)
    summary = stats.latency_summary(values)
    assert summary["beyond_tail"] >= 10
    assert sum(v * 1e3 > summary["tail_ms"] for v in values) == summary["beyond_tail"]
    assert stats.tail_percentile(10) is None


def test_failure_rate_bound_is_never_zero_and_covers_the_ratio():
    assert 0.0 < stats.failure_rate_upper(0, 1000) < 0.004
    assert stats.failure_rate_upper(30, 300) > 0.1
    assert stats.failure_rate_upper(5, 5) == 1.0


def test_tracer_patches_every_binding_and_restores_them():
    import fockbench
    from fockbench import fock, generation, states

    original = fock.apply_exponential
    constructor = states._CONSTRUCTORS["coherent"]
    tracer = Tracer()
    tracer.install(fockbench)
    try:
        assert generation.apply_exponential is fock.apply_exponential
        assert fock.apply_exponential is not original
        assert states._CONSTRUCTORS["coherent"] is not constructor
        tracer.active = True
        code = workloads._run_cli(["verify", "dynamical"])["code"]
        tracer.active = False
    finally:
        tracer.uninstall()
    assert code == 0
    assert fock.apply_exponential is original and generation.apply_exponential is original
    assert states._CONSTRUCTORS["coherent"] is constructor
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "generation.dynamical_binomial", "fock.apply_exponential"} <= names
    by_id = {s.id: s for s in tracer.spans}
    exp = next(s for s in tracer.spans if s.name == "fock.apply_exponential")
    chain = []
    while exp.parent is not None:
        exp = by_id[exp.parent]
        chain.append(exp.name)
    assert chain[-1] == "cli.main"
    metrics = tracing.layer_metrics(tracer.spans, 0, 0.0)
    assert set(metrics) == set(tracing.METRICS)
    assert metrics["generation.dynamical.self_s"]["value"] > 0
    assert metrics["fock.apply_exponential.calls"]["value"] > 0


def test_loglog_slope_recovers_the_exponent():
    points = [(d, 1e-9 * d ** 2.5) for d in (100, 200, 400, 800)]
    assert tracing.loglog_slope(points) == pytest.approx(2.5)
    assert tracing.loglog_slope([(100, 1.0), (100, 2.0)]) == 0.0


def test_verify_check_rederives_the_verdict():
    good = {"name": "x", "max_residual": 1e-14, "tolerance": 1e-12, "states_checked": 5,
            "passed": True}
    assert workloads._check_holds(good)
    assert not workloads._check_holds(dict(good, max_residual=1e-9))
    assert not workloads._check_holds(dict(good, states_checked=0))
    assert not workloads._check_holds({"name": "unknown", "passed": True})


def test_state_check_catches_a_plausible_wrong_amplitude(tmp_path):
    op = ops._state_op("nbs", "csv", eta2=[0.5], M=2.0, theta=[0.3])
    output = workloads.execute(op, str(tmp_path))
    workloads.check(op, output, str(tmp_path))  # the real output passes
    wrong_phase = dict(op, theta=[0.31])
    with pytest.raises(workloads.CheckFailed):
        workloads.check(wrong_phase, output, str(tmp_path))
    wrong_law = dict(op, eta2=[0.5 + 1e-6])
    with pytest.raises(workloads.CheckFailed):
        workloads.check(wrong_law, output, str(tmp_path))


@pytest.mark.parametrize("refusal", ("exit 2", "ValueError"))
def test_refusal_of_in_domain_input_is_a_failed_op(tmp_path, monkeypatch, refusal):
    op = ops._state_op("nbs", "csv", eta2=[0.95], M=3.5, theta=[0.0])

    def refuse(op, workdir):
        with open(os.path.join(workdir, "op.json"), "w", encoding="utf-8") as handle:
            handle.write("{")  # a partial artifact left behind
        if refusal == "ValueError":
            raise ValueError("tail mass 1.004e-12 exceeds tolerance 1e-12")
        return {"code": 2, "stdout": "", "stderr": "error: tail mass exceeds tolerance"}

    monkeypatch.setattr(workloads, "execute", refuse)
    result = workloads.run_op(op, str(tmp_path))
    assert result["status"] == "refused"
    assert os.listdir(tmp_path) == []
    ok = [["state:nbs", 0.01, "ok", 10, 0]] * 3
    _, failed, correct = run._outcome(
        {"records": ok + [["state:nbs", 0.01, result["status"], 0, 0]], "warmup_wrong": 0})
    assert failed == 1 and correct  # a failed op, not a wrong number


def test_error_rate_does_not_depend_on_how_many_rounds_ran():
    def records(rounds, failed_round=None):
        out = []
        for index in range(rounds):
            out += [["x", 0.01, "refused" if index == failed_round else "ok", 0, index]] * 7
        return out

    k = ops.ERROR_ROUNDS["large-basis"]
    clean = run.error_rate("large-basis", records(k))
    assert clean == run.error_rate("large-basis", records(k + 2))
    assert clean[1:] == (7 * k, 0) and clean[0] > 0
    assert run.error_rate("large-basis", records(k + 2, failed_round=0))[0] > clean[0]


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_reports_every_named_metric(workload, trace):
    spec = _benchmark_spec()
    assert workload in [w["name"] for w in spec["workloads"]]
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    run = json.loads(lines[-2])["run"]
    for key in ("fockbench_version", "git_commit", "python", "numpy", "scipy", "blas",
                "blas_threads_cap", "nproc", "seed", "ops"):
        assert key in run
    assert run["blas_threads_cap"] <= run["nproc"]
