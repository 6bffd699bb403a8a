"""fockbench benchmark: one workload, one seed, one JSON line of metrics.

    python3 benchmarks/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a fockbench checkout; the package is imported from its
``src/`` directory.  Each workload runs in a child process of its own as a
closed loop with one client (see README.md for the workloads and metrics).
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run.
The line before it holds the run block (software versions, thread cap, seed,
op count).  Full results, and the spans of a traced run, are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH_DIR)

from ops import ERROR_ROUNDS, WORKLOADS  # noqa: E402
from stats import failure_rate_upper, latency_summary  # noqa: E402
from worker import OVERRUN_S  # noqa: E402

SETUP_SAMPLES = 5  # set-up is timed in this many processes; the median is reported
# the watchdog allows --seconds, the worker's overrun, and this much for the
# set-up processes and the round still running when the overrun ends
SETUP_MARGIN_S = 60.0


class BenchError(Exception):
    pass


def _git_commit():
    """Commit of the checkout, or None when it is not a git repository."""
    # the ceiling keeps git from reporting a repository that merely encloses it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _spawn(args, mode, tag, deadline):
    """Run worker.py in ``mode``; return its result dict and its peak RSS in MB."""
    result = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{tag}.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--result", result]
    if mode == "trace":
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.DEVNULL, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    with open(result, encoding="utf-8") as handle:
        out = json.load(handle)
    os.remove(result)
    return out, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _failed(records):
    return sum(1 for r in records if r[2] != "ok")


def error_rate(workload, records):
    """error_rate over the first ERROR_ROUNDS rounds, with their op and failure counts.

    A fixed count of rounds keeps the bound from shrinking as a faster
    program fits more clean ops into the timed phase.
    """
    scored = [r for r in records if r[4] < ERROR_ROUNDS[workload]]
    failed = _failed(scored)
    return failure_rate_upper(failed, len(scored)), len(scored), failed


def _outcome(out):
    """Records of a run, its failed-op count, and whether no op was wrong."""
    records = out["records"]
    wrong = sum(1 for r in records if r[2] == "wrong") + out["warmup_wrong"]
    return records, _failed(records), wrong == 0


def _end_to_end(args, deadline):
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        out, _ = _spawn(args, "setup", f"setup{i}", deadline)
        setups.append(out["setup_s"])
    out, peak_mb = _spawn(args, "run", "run", deadline)
    setups.append(out["setup_s"])
    records, failed, correct = _outcome(out)
    rate, scored_ops, scored_failed = error_rate(args.workload, records)
    latency = latency_summary([r[1] for r in records if r[2] == "ok"])
    rounds = {}
    for r in records:
        ok, seconds = rounds.get(r[4], (0, 0.0))
        rounds[r[4]] = (ok + (r[2] == "ok"), seconds + r[1])
    metrics = {
        "ops_per_s": {"value": statistics.median(ok / s for ok, s in rounds.values()),
                      "unit": "1/s"},
        "op_ms.p50": {"value": latency["p50_ms"], "unit": "ms"},
        "op_ms.tail": {"value": latency["tail_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "error_rate": {"value": rate, "unit": "fraction"},
    }
    statuses = {}
    for r in records:
        statuses[r[2]] = statuses.get(r[2], 0) + 1
    detail = {"tail": {k: latency[k] for k in ("tail_percentile", "ops", "beyond_tail")},
              "statuses": statuses, "failed_share": failed / len(records),
              "error_rate_ops": scored_ops, "error_rate_failed": scored_failed,
              "setup_samples_s": setups, "failures": out["failures"], "records": records}
    return correct, len(records), failed, metrics, out["run"], detail


def _traced(args, deadline):
    out, _ = _spawn(args, "trace", "trace", deadline)
    records, failed, correct = _outcome(out)
    detail = {"failures": out["failures"], "records": records}
    return correct, len(records), failed, out["metrics"], out["run"], detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "fockbench", "__init__.py")):
        print(f"error: no fockbench sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + OVERRUN_S + SETUP_MARGIN_S
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        measure = _traced if args.trace else _end_to_end
        correct, attempted, failed, metrics, run, detail = measure(args, deadline)
    except (BenchError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run.update({"git_commit": _git_commit(), "trace": args.trace})
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"run": run, **summary, **detail}, handle, indent=1)
    print(json.dumps({"run": run, **{k: v for k, v in detail.items()
                                     if k not in ("records", "failures")}}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
