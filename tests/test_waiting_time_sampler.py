"""The compact waiting-time sampler against the per-wave scatter loop it replaced.

The reference below is the loop `waiting_time_simulate` ran before it carried
only the live replicates: full-length failure and remaining-success arrays,
fancy-indexed through the active set every wave.  Both hand each wave's draws
to the live replicates in their original order, so the failure counts, and
the `simulate` CSV built from them, must agree exactly.
"""

import dataclasses

import numpy as np
import pytest

from fockbench import cli
from fockbench import distributions as dist


def _reference_failures(eta2, M, trials, seed):
    rng = np.random.default_rng(seed)
    remaining = np.full(trials, M, dtype=np.int64)
    failures = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    while active.size:
        fail = rng.random(active.size) < eta2
        failures[active[fail]] += 1
        remaining[active[~fail]] -= 1
        active = active[remaining[active] > 0]
    return failures


def _reference_simulate(p, trials, seed):
    """The sampler's result with the failure counts of the reference loop."""
    failures = _reference_failures(p.eta2, int(p.M), trials, seed)
    n_max = max(int(failures.max()), dist.neg_binomial_cutoff(p, 1e-12))
    counts = np.bincount(failures, minlength=n_max + 1)
    p_hat = counts / trials
    ns = np.arange(n_max + 1)
    exact = dist.neg_binomial_pmf(p, ns)
    q = np.maximum(p_hat, exact)
    return dist.WaitingTimeResult(n=ns, p=exact, p_hat=p_hat,
                                  stderr=np.sqrt(q * (1.0 - q) / trials),
                                  trials=int(trials), seed=int(seed))


def _assert_same(eta2, M, trials, seed):
    p = dist.NegBinomialParams(eta2, float(M))
    ours = dist.waiting_time_simulate(p, trials, seed)
    ref = _reference_simulate(p, trials, seed)
    # p_hat = counts / trials, so equal p_hat means equal counts
    for field in dataclasses.fields(ours):
        assert np.array_equal(getattr(ours, field.name), getattr(ref, field.name)), field.name


@pytest.mark.parametrize("eta2", [0.05, 0.35, 0.9, 0.97])
@pytest.mark.parametrize("M", [1, 3, 7])
@pytest.mark.parametrize("trials", [1, 10_000])
def test_counts_match_reference_loop(eta2, M, trials):
    for seed in (0, 5, 20240901):
        _assert_same(eta2, M, trials, seed)


@pytest.mark.parametrize("eta2, M, seed", [(0.05, 7, 3), (0.35, 3, 1), (0.9, 1, 11),
                                           (0.97, 1, 2), (0.9, 3, 7)])
def test_counts_match_reference_loop_at_a_million_trials(eta2, M, seed):
    _assert_same(eta2, M, 1_000_000, seed)


@pytest.mark.parametrize("eta2, M, trials, seed", [(0.35, 3, 1_000_000, 1), (0.97, 7, 10_000, 4),
                                                   (0.05, 1, 1, 9)])
def test_simulate_csv_bytes_match_reference_loop(tmp_path, monkeypatch, capsys,
                                                  eta2, M, trials, seed):
    argv = ["simulate", "--eta2", str(eta2), "--M", str(M), "--trials", str(trials),
            "--seed", str(seed), "--out"]
    assert cli.main(argv + [str(tmp_path / "ours.csv")]) == 0
    monkeypatch.setattr(dist, "waiting_time_simulate", _reference_simulate)
    assert cli.main(argv + [str(tmp_path / "ref.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_order_at_or_above_two_to_the_31_is_refused():
    with pytest.raises(ValueError, match="below 2"):
        dist.waiting_time_simulate(dist.NegBinomialParams(0.5, 2.0**31), 10, 1)
