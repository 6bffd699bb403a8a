"""Execute benchmark ops against fockbench and check every result.

``execute`` makes the op's calls and returns what they produced; ``check``
judges that output with references computed here, independently of the
library code under test.  An op ends in one of these statuses:

ok         ran and passed its check
refused    the program rejected in-domain input (ValueError, or CLI exit 2)
error      the program crashed (any other exception, or CLI exit 1)
wrong      the program returned a number that fails a deterministic check
deviation  a Monte Carlo estimate is off by more than 4 sigma (criterion 6);
           about one simulate op in a thousand trips this by chance

Every status other than ``ok`` counts as a failed op; only ``wrong`` makes a
run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
import traceback

import numpy as np
from scipy.special import gammaln

from fockbench import algebra, cli, fock, generation, states
from fockbench import distributions as dist

FIDELITY_TOL = 1e-8  # criterion 3
ALGEBRA_TOL = 1e-12
NORM_TOL = 1e-12
AMPLITUDE_TOL = 1e-10
PMF_REL_TOL = 1e-14
SIGMA_LIMIT = 4.0  # criterion 6
SIGMA_BINS = 21  # criterion 6 judges bins n = 0..20

# checks each `verify` suite reports on the seed code; a report with fewer
# checks has dropped one
MIN_CHECKS = {"algebra": 12, "disentangle": 5, "measure": 7, "limits": 4,
              "identity": 3, "dynamical": 3}


class CheckFailed(Exception):
    """The op's output is wrong; ``status`` says how it is judged."""

    def __init__(self, message, status="wrong"):
        super().__init__(message)
        self.status = status


# --- execution ----------------------------------------------------------------


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag the CLI no longer has
            code = exc.code if isinstance(exc.code, int) else 1
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def execute(op, workdir):
    """Make the op's calls; return their output for :func:`check`.

    ValueError and other exceptions propagate: the caller turns them into the
    ``refused`` and ``error`` statuses.
    """
    kind = op["kind"]
    if kind == "verify":
        return _run_cli(op["argv"])
    if kind == "state":
        base = os.path.join(workdir, "op")
        return _run_cli(op["argv"] + ["--out", base])
    if kind == "simulate":
        path = os.path.join(workdir, "simulate.csv")
        return _run_cli(op["argv"] + ["--out", path])
    if kind == "nms_chain":
        basis = fock.enumerate_basis(3, fock.Cutoff.total(op["cutoff"]))
        return generation.sequential_nms(op["eta"], op["theta"], op["M"], basis)
    if kind == "ms_chain":
        basis = fock.enumerate_basis(3, fock.Cutoff.total(op["M"]))
        return generation.sequential_ms(op["eta"], op["theta"], op["M"], basis)
    if kind == "algebra":
        basis = fock.enumerate_basis(3, fock.Cutoff.total(op["cutoff"]))
        return algebra.verify_algebra(algebra.su_r1_hp(basis, op["M"]))
    raise ValueError(f"unknown op kind {kind!r}")


def written_bytes(op, output, workdir):
    """Bytes a CLI op wrote: its output files plus its standard output."""
    if op["kind"] not in ("verify", "state", "simulate"):
        return 0
    total = len(output["stdout"].encode())
    for name in os.listdir(workdir):
        total += os.path.getsize(os.path.join(workdir, name))
    return total


# --- checks -------------------------------------------------------------------


def check(op, output, workdir):
    """Raise CheckFailed unless ``output`` is the right answer to ``op``."""
    kind = op["kind"]
    if kind in ("verify", "state", "simulate"):
        code = output["code"]
        if code == 2:
            raise CheckFailed(output["stderr"].strip(), "refused")
        if code == 1:
            raise CheckFailed(output["stderr"].strip(), "error")
        if code == 3:
            raise CheckFailed("verification suite failed")
        if code != 0:
            raise CheckFailed(f"exit code {code}", "error")
    if kind == "verify":
        _check_verify(op, json.loads(output["stdout"]))
    elif kind == "state":
        _check_state(op, os.path.join(workdir, "op"))
    elif kind == "simulate":
        _check_simulate(op, os.path.join(workdir, "simulate.csv"))
    elif kind == "nms_chain":
        _check_nms_chain(op, output)
    elif kind == "ms_chain":
        _check_ms_chain(op, output)
    else:
        _check_algebra(output)


def _require(condition, message, status="wrong"):
    if not condition:
        raise CheckFailed(message, status)


def _check_verify(op, report):
    suite = op["suite"]
    _require(report.get("schema") == "fockbench.verify/1", "unknown report schema")
    _require(report.get("suite") == suite, "report names another suite")
    checks = report.get("checks", [])
    expected = 1 if "r" in op else MIN_CHECKS[suite]
    _require(len(checks) >= expected, f"{len(checks)} checks, expected {expected}")
    for entry in checks:
        _require(_check_holds(entry), f"check {entry.get('name')} does not hold")
    _require(report.get("passed") is True, "report says failed")


def _check_holds(entry):
    """Re-derive one verify check's verdict from its numbers."""
    if entry.get("passed") is not True:
        return False
    tol = entry.get("tolerance")
    name = entry.get("name", "")
    if "max_residual" in entry:
        counted = entry.get("states_checked", 1)
        return entry["max_residual"] <= tol and counted > 0
    if "min_fidelity" in entry:
        return entry["min_fidelity"] >= 1.0 - tol
    if "max_entry_residual" in entry:
        return entry["max_entry_residual"] <= tol
    if "max_rel_error" in entry:
        return entry["max_rel_error"] <= tol
    values = entry.get("values")
    if values and name.startswith("tv_distance"):
        return all(a > b for a, b in zip(values, values[1:])) and values[-1] < 0.05
    if values and name.startswith("contraction_fidelity"):
        return all(a < b for a, b in zip(values, values[1:])) and values[-1] >= 0.999
    return False


def _reference_log_pmf(op, occ):
    """Log pmf of the op's counting law per basis state, from scipy's gammaln."""
    family = op["family"]
    n = occ.astype(float)
    if family == "coherent":
        a2 = op["alpha2"]
        return -a2 + n[:, 0] * math.log(a2) - gammaln(n[:, 0] + 1)
    if family == "binomial":
        (p,), m = op["eta2"], float(op["M"])
        k = n[:, 0]
        return (gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
                + k * math.log(p) + (m - k) * math.log1p(-p))
    if family == "nbs":
        (p,), m = op["eta2"], float(op["M"])
        k = n[:, 0]
        return gammaln(m + k) - gammaln(m) - gammaln(k + 1) + k * math.log(p) + m * math.log1p(-p)
    eta2 = np.asarray(op["eta2"], dtype=float)
    m = float(op["M"])
    if family == "ms":
        n0, rest = n[:, 0], n[:, 1:]
        return (gammaln(m + 1) - gammaln(n0 + 1) - gammaln(rest + 1).sum(axis=1)
                + rest @ np.log(eta2) + n0 * math.log1p(-eta2.sum()))
    total = n.sum(axis=1)
    return (gammaln(m + total) - gammaln(m) - gammaln(n + 1).sum(axis=1)
            + n @ np.log(eta2) + m * math.log1p(-eta2.sum()))


def _check_state(op, base):
    with open(base + "_state.json", encoding="utf-8") as handle:
        payload = json.load(handle)
    psi = fock.state_from_json_dict(payload)
    norm2 = psi.norm2()
    _require(abs(norm2 + payload["norm_deficit"] - 1.0) <= NORM_TOL,
             "squared norm plus norm deficit is not 1")
    _require(payload["norm_deficit"] <= states.DEFAULT_TAIL_TOL * (1 + 1e-6) + 1e-15,
             "norm deficit above the tail tolerance")
    occ = psi.basis.occupations
    log_p = _reference_log_pmf(op, occ)
    with np.errstate(under="ignore"):
        reference = np.exp(0.5 * log_p)
        phased = occ[:, 1:] if op["family"] == "ms" else occ
        reference = reference * np.exp(1j * (phased @ np.asarray(op["theta"])))
    worst = float(np.abs(psi.amplitudes - reference).max())
    _require(worst <= AMPLITUDE_TOL, f"amplitudes off the counting law by {worst:.2e}")

    probs = psi.amplitudes.real ** 2 + psi.amplitudes.imag ** 2
    pmf_path = f"{base}_pmf.{op['fmt']}"
    if op["fmt"] == "csv":
        with open(pmf_path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        pmf_occ = [tuple(int(v) for v in row[:-1]) for row in rows]
        pmf_p = np.array([float(row[-1]) for row in rows])
    else:
        with open(pmf_path, encoding="utf-8") as handle:
            entries = json.load(handle)["entries"]
        pmf_occ = [tuple(e["occupations"]) for e in entries]
        pmf_p = np.array([e["p"] for e in entries])
    _require(pmf_occ == list(psi.basis.states), "pmf rows do not follow the basis")
    gap = np.abs(pmf_p - probs) <= PMF_REL_TOL * probs + 1e-300
    _require(bool(gap.all()), "pmf differs from |amplitude|^2")


def _check_simulate(op, path):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    _require(rows[0] == ["n", "p", "p_hat", "stderr"], "unexpected simulate header")
    table = np.array([[float(v) for v in row] for row in rows[1:]])
    n, p, p_hat, stderr = table.T
    trials = op["trials"]
    _require(bool(np.array_equal(n, np.arange(len(n)))), "bins are not 0..n_max")
    m, eta2 = op["M"], op["eta2"]
    ref = np.exp(gammaln(m + n) - gammaln(m) - gammaln(n + 1)
                 + n * math.log(eta2) + m * math.log1p(-eta2))
    _require(bool(np.all(np.abs(p - ref) <= 1e-12 * ref + 1e-300)), "exact pmf column is wrong")
    counts = p_hat * trials
    _require(bool(np.all(np.abs(counts - np.round(counts)) <= 1e-6)), "p_hat is not counts/trials")
    _require(abs(counts.sum() - trials) <= 1e-6 * trials, "counts do not add up to the trials")
    q = np.maximum(p_hat, p)
    _require(bool(np.allclose(stderr, np.sqrt(q * (1.0 - q) / trials), rtol=1e-12, atol=0.0)),
             "stderr column is wrong")
    bins = min(SIGMA_BINS, len(n))
    sigma = np.abs(p_hat[:bins] - p[:bins]) / np.maximum(stderr[:bins], 1e-9)
    worst = float(sigma.max())
    _require(worst <= SIGMA_LIMIT, f"deviation of {worst:.2f} sigma", "deviation")


def _check_nms_chain(op, psi):
    eta = tuple(op["eta"])
    spec = states.StateSpec("neg_multinomial", dist.NegMultinomialParams(eta, op["M"]),
                            tuple(op["theta"]))
    series = states.neg_multinomial_state(spec, psi.basis, tail_tol=FIDELITY_TOL)
    fid = fock.fidelity(psi, series)
    _require(fid >= 1.0 - FIDELITY_TOL, f"chain fidelity 1-{1 - fid:.2e}")
    _require(abs(psi.norm2() - 1.0) <= FIDELITY_TOL, "chain is not norm preserving")


def _check_ms_chain(op, psi):
    m, eta = op["M"], tuple(op["eta"])
    spec = states.StateSpec("multinomial", dist.MultinomialParams(eta, m), tuple(op["theta"]))
    shell = fock.enumerate_basis(len(eta) + 1, fock.Cutoff.shell(m))
    target = states.multinomial_state(spec, shell)
    index = [shell.index_of((m - sum(occ),) + occ) for occ in psi.basis.states]
    overlap = float(abs(np.vdot(psi.amplitudes, target.amplitudes[index])))
    _require(overlap >= 1.0 - FIDELITY_TOL, f"chain overlap 1-{1 - overlap:.2e}")


def _check_algebra(reports):
    _require(len(reports) > 0, "no relations checked")
    for rep in reports:
        _require(rep["interior_count"] > 0, f"{rep['relation']}: no interior states")
        _require(rep["max_residual"] <= ALGEBRA_TOL,
                 f"{rep['relation']}: residual {rep['max_residual']:.2e}")


def run_op(op, workdir, tracer=None):
    """Execute and check one op.

    Returns {"status", "seconds", "bytes", "detail"}; ``seconds`` covers the
    op's calls only, not the check.  With a tracer, spans are recorded while
    the op runs and not while it is checked.
    """
    detail = ""
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        output = execute(op, workdir)
    except ValueError as exc:
        status, detail = "refused", str(exc)
    except Exception:  # a crash is a failed op, not a benchmark failure
        status, detail = "error", traceback.format_exc(limit=-3)
    else:
        status = "ok"
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    nbytes = 0
    try:
        if status == "ok":
            nbytes = written_bytes(op, output, workdir)
            check(op, output, workdir)
    except CheckFailed as exc:
        status, detail = exc.status, str(exc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, OSError) as exc:
        status, detail = "wrong", f"unreadable output: {type(exc).__name__}: {exc}"
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
    return {"status": status, "seconds": seconds, "bytes": nbytes, "detail": detail}
