"""The array-valued log-pmfs against 50-digit mpmath references, and their array contract.

Each log-pmf is a sum of log-gamma terms that can reach 1e7 while the result
is O(1), so double arithmetic can only match the reference to about one
rounding of the largest such term.  Every check therefore allows
1e-14 * (1 + max |log-gamma term|) absolute error.
"""

import math

import mpmath
import numpy as np
import pytest

from fockbench.distributions import (
    BinomialParams,
    MultinomialParams,
    NegBinomialParams,
    NegMultinomialParams,
    PoissonParams,
    binomial_log_pmf,
    binomial_pmf,
    multinomial_log_pmf,
    multinomial_pmf,
    multiple_poisson_log_pmf,
    multiple_poisson_pmf,
    neg_binomial_log_pmf,
    neg_binomial_pmf,
    neg_multinomial_log_pmf,
    neg_multinomial_pmf,
    poisson_log_pmf,
    poisson_pmf,
)

mpmath.mp.dps = 50


class _Terms:
    """Collects the log-gamma terms of one reference value."""

    def __init__(self):
        self.largest = 0.0

    def lg(self, x):
        value = mpmath.loggamma(mpmath.mpf(x))
        self.largest = max(self.largest, abs(float(value)))
        return value


def _xlogy(n, y):
    return mpmath.mpf(0) if n == 0 else n * mpmath.log(y)


def _poisson(p, n, t):
    a2 = mpmath.mpf(p.alpha2)
    return -a2 + _xlogy(n, a2) - t.lg(n + 1)


def _binomial(p, n, t):
    e2 = mpmath.mpf(p.eta2)
    return (t.lg(p.M + 1) - t.lg(n + 1) - t.lg(p.M - n + 1)
            + _xlogy(n, e2) + _xlogy(p.M - n, 1 - e2))


def _neg_binomial(p, n, t):
    e2, m = mpmath.mpf(p.eta2), mpmath.mpf(p.M)
    return t.lg(m + n) - t.lg(m) - t.lg(n + 1) + _xlogy(n, e2) + m * mpmath.log(1 - e2)


def _eta2(p):
    return [mpmath.mpf(e) ** 2 for e in p.eta]


def _multinomial(p, n_vec, t):
    e2 = _eta2(p)
    n0 = p.M - sum(n_vec)
    return (t.lg(p.M + 1) - t.lg(n0 + 1) - sum(t.lg(n + 1) for n in n_vec)
            + sum(_xlogy(n, e) for n, e in zip(n_vec, e2)) + _xlogy(n0, 1 - sum(e2)))


def _neg_multinomial(p, n_vec, t):
    e2, m = _eta2(p), mpmath.mpf(p.M)
    return (t.lg(m + sum(n_vec)) - t.lg(m) - sum(t.lg(n + 1) for n in n_vec)
            + sum(_xlogy(n, e) for n, e in zip(n_vec, e2)) + m * mpmath.log(1 - sum(e2)))


def _multiple_poisson(alpha, n_vec, t):
    a2 = [mpmath.mpf(a) ** 2 for a in alpha]
    return sum(-a + _xlogy(n, a) - t.lg(n + 1) for a, n in zip(a2, n_vec))


def _check(law, reference, params, counts):
    counts = np.asarray(counts)
    got = law(params, counts)
    assert got.shape == (len(counts),)
    for point, value in zip(counts.tolist(), got):
        terms = _Terms()
        ref = reference(params, point, terms)
        assert abs(value - float(ref)) <= 1e-14 * (1.0 + terms.largest), (point, value, ref)


def _around(mean, sd, top=None):
    """Counts from 0 through the bulk into the far tail."""
    points = {0, 1, 2}
    for z in (-6, -3, -1, 0, 1, 3, 6, 12):
        points.add(max(0, int(mean + z * sd)))
    return sorted(p for p in points if top is None or p <= top)


@pytest.mark.parametrize("alpha2", [1e-3, 1.0, 50.0, 1e4])
def test_poisson_reference(alpha2):
    _check(poisson_log_pmf, _poisson, PoissonParams(alpha2),
           _around(alpha2, math.sqrt(alpha2)))


@pytest.mark.parametrize("eta2,M", [(0.5, 3), (0.999, 50), (0.3, 10_000), (0.3, 1_000_000)])
def test_binomial_reference(eta2, M):
    mean, sd = M * eta2, math.sqrt(M * eta2 * (1 - eta2))
    _check(binomial_log_pmf, _binomial, BinomialParams(eta2, M), _around(mean, sd, M) + [M])


@pytest.mark.parametrize("eta2,M", [(0.999, 3.0), (0.5, 0.05), (0.999, 0.05),
                                    (0.3, 1e4), (0.3, 1e6)])
def test_neg_binomial_reference(eta2, M):
    mean = M * eta2 / (1 - eta2)
    _check(neg_binomial_log_pmf, _neg_binomial, NegBinomialParams(eta2, M),
           _around(mean, math.sqrt(mean) / (1 - eta2)))


def test_multinomial_reference():
    p = MultinomialParams((math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.19)), 10_000)
    counts = [(0, 0, 0), (10_000, 0, 0), (0, 0, 10_000), (5000, 3000, 1900),
              (4800, 3100, 2000), (1, 2, 3), (9000, 500, 400)]
    _check(multinomial_log_pmf, _multinomial, p, counts)


@pytest.mark.parametrize("M", [0.05, 2.5, 1e6])
def test_neg_multinomial_rank_three_near_criticality(M):
    # sum of eta_j^2 = 4091/4096, so the mean total is about 800 M.  Dyadic eta
    # keep 1 - sum eta_j^2 exact in double: rounded squares would be amplified
    # by M/(1 - sum eta_j^2), an error of the input, not of the formula.
    p = NegMultinomialParams((45 / 64, 35 / 64, 29 / 64), M)
    rest = 5 / 4096
    mean = [M * e * e / rest for e in p.eta]
    counts = [(0, 0, 0), (1, 0, 2), tuple(int(m) for m in mean),
              tuple(int(3 * m) + 5 for m in mean), (int(mean[0]), 0, int(mean[2]))]
    _check(neg_multinomial_log_pmf, _neg_multinomial, p, counts)


def test_multiple_poisson_reference():
    alpha = (0.1, 3.0, 100.0)
    counts = [(0, 0, 0), (1, 9, 10_000), (3, 30, 9_000), (0, 0, 12_000)]
    _check(multiple_poisson_log_pmf, _multiple_poisson, alpha, counts)


SINGLE_MODE = [
    (poisson_log_pmf, poisson_pmf, PoissonParams(2.5), 12),
    (binomial_log_pmf, binomial_pmf, BinomialParams(0.4, 7), 7),
    (neg_binomial_log_pmf, neg_binomial_pmf, NegBinomialParams(0.6, 0.7), 30),
]
MULTIMODE = [
    (multinomial_log_pmf, multinomial_pmf, MultinomialParams((0.5, 0.4), 6), 6),
    (neg_multinomial_log_pmf, neg_multinomial_pmf, NegMultinomialParams((0.5, 0.4), 1.5), 9),
    (multiple_poisson_log_pmf, multiple_poisson_pmf, (0.8, 1.3), 9),
]


@pytest.mark.parametrize("log_pmf,pmf,params,top", SINGLE_MODE)
def test_single_mode_array_matches_scalars(log_pmf, pmf, params, top):
    counts = np.arange(top + 1)
    for law in (log_pmf, pmf):
        scalars = [law(params, int(n)) for n in counts]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_array_equal(law(params, counts), scalars)


@pytest.mark.parametrize("log_pmf,pmf,params,top", MULTIMODE)
def test_multimode_array_matches_scalars(log_pmf, pmf, params, top):
    counts = np.array([(a, b) for a in range(top + 1) for b in range(top + 1 - a)])
    for law in (log_pmf, pmf):
        scalars = [law(params, tuple(int(n) for n in row)) for row in counts]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_array_equal(law(params, counts), scalars)


def _raises_for_each(laws, params, bad_points):
    for law in laws:
        for bad in bad_points:
            with pytest.raises(ValueError):
                law(params, bad)


@pytest.mark.parametrize("log_pmf,pmf,params,top", SINGLE_MODE)
def test_single_mode_bad_entry_raises(log_pmf, pmf, params, top):
    bad = [-1, 1.5, math.nan, math.inf]
    arrays = [np.array([0.0, 1.0, b, 2.0]) for b in bad]
    _raises_for_each((log_pmf, pmf), params, bad + arrays + [np.zeros((2, 2)), "3"])


@pytest.mark.parametrize("log_pmf,pmf,params,top", MULTIMODE)
def test_multimode_bad_entry_raises(log_pmf, pmf, params, top):
    bad = [(-1, 0), (0.5, 1), (math.nan, 0), (0, math.inf)]
    arrays = [np.array([(0, 0), b, (1, 1)], dtype=float) for b in bad]
    wrong_width = [(1, 2, 3), (1,), np.zeros((3, 3)), 2]
    _raises_for_each((log_pmf, pmf), params, bad + arrays + wrong_width)


def test_out_of_support_entry_raises():
    _raises_for_each((binomial_log_pmf, binomial_pmf), BinomialParams(0.4, 7),
                     [8, np.array([0, 8, 1])])
    _raises_for_each((multinomial_log_pmf, multinomial_pmf), MultinomialParams((0.5, 0.4), 6),
                     [(6, 1), np.array([(0, 0), (3, 4)])])
