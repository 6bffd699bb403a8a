"""The compact waiting-time sampler against the per-wave scatter loop it replaced.

The reference below is the loop `waiting_time_simulate` ran before it carried
only the live replicates: full-length failure and remaining-success arrays,
fancy-indexed through the active set every wave.  Both hand each wave's draws
to the live replicates in their original order, so the failure counts, and
the `simulate` CSV built from them, must agree exactly.
"""

import dataclasses
import re
import tracemalloc

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
    message = "M must be an integer in [1, 2147483647], got 2147483648.0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dist.waiting_time_simulate(dist.NegBinomialParams(0.5, 2.0**31), 10, 1)


@pytest.mark.parametrize("seed", [0, 17])
def test_counts_match_reference_loop_across_draw_chunks(seed):
    # three full draw chunks and a partial fourth in every early wave
    _assert_same(0.35, 3, 3 * dist.SAMPLER_CHUNK + 5, seed)


@pytest.mark.parametrize("eta2, trials", [(0.02, 300), (0.1, 500)])
def test_counts_match_reference_loop_through_waves_without_finishers(eta2, trials):
    # M = 200: the first 199 waves and the quiet waves after each drop skip
    # the finisher check, and waves with no finisher still get their bin
    for seed in (2, 29):
        _assert_same(eta2, 200, trials, seed)


@pytest.mark.parametrize("M, trials", [(255, 2000), (256, 2000), (256, 1)])
def test_counts_match_reference_loop_at_the_byte_boundary(M, trials):
    # M = 255 is the largest order held in one byte; 256 needs two
    for seed in (4, 31):
        _assert_same(0.3, M, trials, seed)


def test_sampler_peak_memory_at_a_million_trials():
    tracemalloc.start()
    try:
        dist.waiting_time_simulate(dist.NegBinomialParams(0.35, 3.0), 1_000_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def _rows(eta2, M):
    return dist.neg_binomial_cutoff(dist.NegBinomialParams(eta2, float(M)), 1e-12) + 1


def _cost(eta2, M, trials):
    return (trials + dist.WAVE_DRAWS) * M / (1.0 - eta2) + _rows(eta2, M) * dist.ROW_DRAWS


def test_budget_refuses_before_any_allocation_or_draw(monkeypatch):
    class Drew(Exception):
        pass

    def no_draws(*args, **kwargs):
        raise Drew

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    monkeypatch.setattr(np, "full", no_draws)
    at_limit = (dist.MAX_SAMPLER_DRAWS - _rows(0.5, 1) * dist.ROW_DRAWS) // 2 - dist.WAVE_DRAWS
    assert _cost(0.5, 1, at_limit) == dist.MAX_SAMPLER_DRAWS
    with pytest.raises(Drew):  # the largest run allowed reaches the generator
        dist.waiting_time_simulate(dist.NegBinomialParams(0.5, 1.0), at_limit, 1)
    with pytest.raises(ValueError, match=re.escape(f"the limit is {dist.MAX_SAMPLER_DRAWS:.4g}")):
        dist.waiting_time_simulate(dist.NegBinomialParams(0.5, 1.0), at_limit + 1, 1)


# (0.99999, 1, 1) samples within the budget, but its exact pmf runs to 2.76e6 rows
@pytest.mark.parametrize("eta2, M, trials", [(0.3, 2_000_000_000, 1), (0.9999, 3, 1_000_000),
                                             (0.35, 3, 10_000_000_000), (0.5, 1, 10**400),
                                             (0.99999, 1, 1)])
def test_simulate_over_budget_exits_two_naming_the_estimate(monkeypatch, capsys, eta2, M,
                                                            trials):
    def no_table(*args):
        raise AssertionError("the exact pmf was built before the budget was checked")

    monkeypatch.setattr(dist, "neg_binomial_pmf", no_table)
    argv = ["simulate", "--eta2", str(eta2), "--M", str(M), "--trials", str(trials),
            "--seed", "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    estimate = _cost(eta2, M, min(trials, 10**300))
    assert f"costs about {estimate:.4g} draws" in err, err


def test_budget_admits_every_input_the_tests_and_benchmark_run():
    # the largest: the million-trial cases above and the benchmark's simulate op
    for eta2, M, trials in [(0.9, 3, 1_000_000), (0.97, 1, 1_000_000), (0.35, 3, 1_000_000),
                            (0.97, 7, 10_000)]:
        assert 3 * _cost(eta2, M, trials) <= dist.MAX_SAMPLER_DRAWS
