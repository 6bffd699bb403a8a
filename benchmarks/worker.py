"""One workload process: set up, run the closed loop, write the results.

Started by ``run.py``; not meant to be run by hand.  The BLAS thread cap is
written into the environment before numpy is first imported, which is the
only point at which OpenBLAS reads it.

Modes
    setup  import, warm up, report the set-up time, exit
    run    set up, then issue ops for ``--seconds`` with tracing off
    trace  set up, issue ops for ``--seconds`` with tracing on, each round
           also once with tracing off to measure the tracing overhead
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "FOCKBENCH_THREADS")

# One BLAS thread: a large-basis pass repeats to about 3% at one thread and
# to about 10% at two on a 2-core machine, and every workload shares the cap.
BLAS_THREADS = 1
OVERRUN_S = 60.0  # a run stops this long after --seconds whatever it has done

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _blas_info(np):
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return {"name": None, "version": None}


def _run_block(args, ops_run):
    import numpy as np
    import scipy

    import fockbench

    return {
        "fockbench_version": fockbench.__version__,
        "fockbench_path": os.path.relpath(os.path.dirname(fockbench.__file__), ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(np),
        "blas_threads_cap": BLAS_THREADS,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": ops_run,
    }


def _loop(rounds, seconds, min_rounds, workdir, tracer=None):
    """Closed loop with one client: each op starts after the previous one is checked.

    Stops at the first round boundary after ``seconds``, so every run holds
    whole rounds of its workload's op mix, and only once ``min_rounds``
    rounds have run and more than ten ops have succeeded (the tail
    percentile needs them), or OVERRUN_S more have passed.  An op whose
    inputs failed earlier in the run is not issued again (``ops.input_key``),
    so a deterministic refusal counts once per run however many rounds fit.
    With a tracer, every round also runs with the tracer uninstalled, before
    or after the traced pass in turn, so the tracing overhead is measured on
    the same ops under the same conditions.

    Returns (ops run, their records, records of the untraced passes).
    """
    import fockbench
    from ops import input_key
    from stats import TAIL_BEYOND
    from workloads import run_op

    def untraced_pass(ops):
        tracer.uninstall()
        try:
            return [run_op(op, workdir) for op in ops]
        finally:
            tracer.install(fockbench)

    done, records, untraced = [], [], []
    failed_inputs = set()
    ok = 0
    start = time.perf_counter()
    for index, ops in enumerate(rounds):
        elapsed = time.perf_counter() - start
        done_enough = index >= min_rounds and ok > TAIL_BEYOND
        if (elapsed >= seconds and done_enough) or elapsed >= seconds + OVERRUN_S:
            break
        ops = [op for op in ops if input_key(op) not in failed_inputs]
        if tracer is not None and index % 2:
            untraced += untraced_pass(ops)
        for op in ops:
            if tracer is not None:
                tracer.op = len(done)
            result = run_op(op, workdir, tracer)
            result["round"] = index
            done.append(op)
            ok += result["status"] == "ok"
            if result["status"] != "ok":
                failed_inputs.add(input_key(op))
            records.append(result)
        if tracer is not None and not index % 2:
            untraced += untraced_pass(ops)
    return done, records, untraced


def _label(op):
    if op["kind"] == "verify":
        return "verify:" + op["suite"] + (f":r{op['r']}:M{op['M']}" if "r" in op else "")
    if op["kind"] == "state":
        return "state:" + op["family"]
    if op["kind"] in ("nms_chain", "algebra"):
        return f"{op['kind']}:{op['cutoff']}"
    return op["kind"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before the parent started this process")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)

    import fockbench
    import ops as oplist
    from workloads import run_op

    workdir = os.path.join(os.path.dirname(os.path.abspath(args.result)),
                           f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        warmup = [run_op(op, workdir) for op in oplist.warmup_ops(args.workload)]
        setup_s = time.monotonic() - args.t0
        out = {"setup_s": setup_s,
               "warmup_wrong": sum(r["status"] == "wrong" for r in warmup)}
        if args.mode != "setup":
            rounds = oplist.op_rounds(args.workload, args.seed)
            tracer = None
            if args.mode == "trace":
                from tracing import Tracer

                tracer = Tracer()
                tracer.install(fockbench)
            # a traced run reports no error_rate, so it needs no fixed round count
            min_rounds = 1 if tracer is not None else oplist.ERROR_ROUNDS[args.workload]
            done, records, untraced = _loop(rounds, args.seconds, min_rounds, workdir, tracer)
            out["records"] = [[_label(op), r["seconds"], r["status"], r["bytes"], r["round"]]
                              for op, r in zip(done, records)]
            out["failures"] = [{"op": op, "status": r["status"], "detail": r["detail"]}
                               for op, r in zip(done, records) if r["status"] != "ok"][:100]
            out["run"] = _run_block(args, len(done))
            if tracer is not None:
                from tracing import layer_metrics

                tracer.uninstall()
                traced_s = sum(r["seconds"] for r in records)
                untraced_s = sum(r["seconds"] for r in untraced)
                overhead = 1.0 - untraced_s / traced_s
                out["metrics"] = layer_metrics(tracer.spans, sum(r["bytes"] for r in records),
                                               overhead)
                if args.spans:
                    tracer.dump(args.spans)
        with open(args.result, "w", encoding="utf-8") as handle:
            json.dump(out, handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
