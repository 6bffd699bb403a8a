"""The CLI's array writers against the per-entry writers they replaced.

The references below are the writers `fockbench state` and `fockbench
simulate` used before artifacts were rendered from arrays: `json.dump` of
`state_to_json_dict(psi)` plus the extra keys, a per-row CSV loop, a list of
pmf entry dicts, and a per-bin simulate loop.  Every artifact must match them
byte for byte.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from fockbench import cli
from fockbench import distributions as dist
from fockbench import states as st
from fockbench.fock import Cutoff, enumerate_basis, state_to_json_dict


def _fmt(x):
    return format(float(x), ".17g")


def _params_dict(params):
    out = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _reference_state_bytes(family, params, phases, psi):
    payload = state_to_json_dict(psi) | {
        "family": family,
        "parameters": _params_dict(params),
        "phases": list(phases),
        # a finite support lies wholly in the basis; an infinite one misses a
        # non-negative tail, so roundoff above |psi|^2 = 1 reads as no deficit
        "norm_deficit": (0.0 if family in ("binomial", "multinomial")
                         else max(0.0, 1.0 - psi.norm2())),
    }
    return (json.dumps(payload, indent=2) + "\n").encode()


def _reference_pmf_csv(psi):
    probs = st.number_distribution(psi).probabilities
    lines = [",".join([f"n{j}" for j in range(psi.basis.modes)] + ["p"])]
    for occ, p in zip(psi.basis.states, probs):
        lines.append(",".join([str(n) for n in occ] + [_fmt(p)]))
    return ("\n".join(lines) + "\n").encode()


def _reference_pmf_json(psi):
    probs = st.number_distribution(psi).probabilities
    entries = [{"occupations": list(occ), "p": float(p)}
               for occ, p in zip(psi.basis.states, probs)]
    return (json.dumps({"schema": "fockbench.pmf/1", "entries": entries}, indent=2)
            + "\n").encode()


def _reference_simulate(result):
    lines = ["n,p,p_hat,stderr"]
    for n, p, p_hat, err in zip(result.n, result.p, result.p_hat, result.stderr):
        lines.append(",".join([str(int(n)), _fmt(p), _fmt(p_hat), _fmt(err)]))
    return ("\n".join(lines) + "\n").encode()


def _eta(values):
    return tuple(math.sqrt(e) for e in values)


# argv, family, params, phases, basis (None: auto-sized), guard, and a text
# the state file must contain so the grid keeps covering its special case
CASES = {
    "coherent": (["--family", "coherent", "--alpha2", "2.5", "--theta", "0.3"],
                 "coherent", dist.PoissonParams(2.5), (0.3,), None, 0, None),
    "coherent-underflow": (
        ["--family", "coherent", "--alpha2", "0.5", "--theta", "2.265", "--cutoff", "330"],
        "coherent", dist.PoissonParams(0.5), (2.265,),
        enumerate_basis(1, Cutoff.per_mode(330)), 0, '"im": -0.0'),
    "binomial": (["--family", "binomial", "--eta2", "0.4", "--M", "6", "--theta", "-1.2"],
                 "binomial", dist.BinomialParams(0.4, 6.0), (-1.2,), None, 0, None),
    "nbs": (["--family", "nbs", "--eta2", "0.5", "--M", "1.5", "--theta", "2"],
            "neg_binomial", dist.NegBinomialParams(0.5, 1.5), (2.0,), None, 0, None),
    "ms-r1": (["--family", "ms", "--eta2", "0.3", "--M", "4"],
              "multinomial", dist.MultinomialParams(_eta([0.3]), 4), (0.0,), None, 0, None),
    "ms-r2": (["--family", "ms", "--eta2", "0.3,0.2", "--M", "3", "--theta", "0.4,0.9"],
              "multinomial", dist.MultinomialParams(_eta([0.3, 0.2]), 3), (0.4, 0.9),
              None, 0, None),
    "ms-r3-guard": (["--family", "ms", "--eta2", "0.2,0.2,0.1", "--M", "4",
                     "--theta", "1,2,3", "--guard", "2"],
                    "multinomial", dist.MultinomialParams(_eta([0.2, 0.2, 0.1]), 4),
                    (1.0, 2.0, 3.0), None, 2, None),
    "nms-r1": (["--family", "nms", "--eta2", "0.3", "--M", "2"],
               "neg_multinomial", dist.NegMultinomialParams(_eta([0.3]), 2.0), (0.0,),
               None, 0, None),
    "nms-r2-underflow": (
        ["--family", "nms", "--eta2", "1e-8,1e-9", "--M", "1.5", "--theta", "0.7,-2.5",
         "--cutoff", "90"],
        "neg_multinomial", dist.NegMultinomialParams(_eta([1e-8, 1e-9]), 1.5), (0.7, -2.5),
        enumerate_basis(2, Cutoff.total(90)), 0, None),
    "nms-r3": (["--family", "nms", "--eta2", "0.1,0.1,0.05", "--M", "1", "--theta", "5,4,3"],
               "neg_multinomial", dist.NegMultinomialParams(_eta([0.1, 0.1, 0.05]), 1.0),
               (5.0, 4.0, 3.0), None, 0, None),
}


def _case_state(name):
    _, family, params, phases, basis, guard, _ = CASES[name]
    spec = st.StateSpec(family, params, phases)
    if basis is not None:
        return st.build_state(spec, basis)
    return st.build_state(spec, guard=guard)


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_state_artifacts_match_per_entry_writers(tmp_path, capsys, name, fmt):
    argv, family, params, phases, _, _, marker = CASES[name]
    _run(["state", *argv, "--pmf-format", fmt, "--out", str(tmp_path / "a")], capsys)

    psi = _case_state(name)
    state_bytes = (tmp_path / "a_state.json").read_bytes()
    assert state_bytes == _reference_state_bytes(family, params, phases, psi)
    reference_pmf = _reference_pmf_csv(psi) if fmt == "csv" else _reference_pmf_json(psi)
    assert (tmp_path / f"a_pmf.{fmt}").read_bytes() == reference_pmf
    if marker is not None:
        assert marker in state_bytes.decode()


def test_grid_covers_the_edge_cases():
    """Zero amplitudes left out, and subnormal probabilities, occur in the grid."""
    for name in ("ms-r3-guard", "coherent-underflow", "nms-r2-underflow"):
        assert np.any(_case_state(name).amplitudes == 0.0), name
    for name in ("coherent-underflow", "nms-r2-underflow"):
        probs = st.number_distribution(_case_state(name)).probabilities
        assert np.any((probs > 0.0) & (probs < np.finfo(float).tiny)), name


def test_simulate_csv_matches_per_row_writer(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    _run(["simulate", "--eta2", "0.35", "--M", "3", "--trials", "20000", "--seed", "5",
          "--out", str(out)], capsys)
    result = dist.waiting_time_simulate(dist.NegBinomialParams(0.35, 3.0), 20000, 5)
    assert out.read_bytes() == _reference_simulate(result)
