import math
import re

import numpy as np
import pytest

from fockbench.distributions import (
    BinomialParams,
    MultinomialParams,
    NegBinomialParams,
    NegMultinomialParams,
    PoissonParams,
    binomial_pmf,
    matched_law,
    moments_from_gf,
    multinomial_pmf,
    multiple_poisson_pmf,
    neg_binomial_cutoff,
    neg_binomial_gf,
    neg_binomial_pmf,
    neg_multinomial_pmf,
    poisson_cutoff,
    poisson_limit_distance,
    poisson_pmf,
    slice_to_shell,
    waiting_time_simulate,
)

# Reference values for the real-M law p(n) = Gamma(M+n)/(Gamma(M) n!) x^n (1-x)^M
# at x = 0.4, M = 2.5, computed with 50-digit arithmetic and rounded once.
NEG_BINOMIAL_HALF_INTEGER = [
    0.27885480092693402,  # n=0
    0.27885480092693402,  # n=1
    0.19519836064885381,  # n=2
    0.11711901638931229,  # n=3
    0.064415459014121758,  # n=4
    0.033496038687343314,  # n=5
    0.016748019343671657,  # n=6
]


def test_binomial_simple_values():
    p = BinomialParams(0.5, 2)
    np.testing.assert_allclose(
        [binomial_pmf(p, n) for n in range(3)], [0.25, 0.5, 0.25], rtol=0, atol=1e-15
    )
    with pytest.raises(ValueError):
        binomial_pmf(p, 3)  # support ends at M


def test_neg_binomial_geometric_case():
    # M = 1 reduces to the geometric law (1-x) x^n
    p = NegBinomialParams(0.5, 1)
    for n in range(20):
        assert neg_binomial_pmf(p, n) == pytest.approx(0.5 ** (n + 1), rel=1e-14)


def test_neg_binomial_half_integer_oracle():
    p = NegBinomialParams(0.4, 2.5)
    got = [neg_binomial_pmf(p, n) for n in range(7)]
    np.testing.assert_allclose(got, NEG_BINOMIAL_HALF_INTEGER, rtol=1e-14, atol=0)


def test_neg_binomial_recurrence():
    # p(n+1)/p(n) = x (M+n)/(n+1) holds for any real M > 0
    for M in (0.7, 1.0, 2.5, 6.0):
        p = NegBinomialParams(0.35, M)
        for n in range(25):
            ratio = neg_binomial_pmf(p, n + 1) / neg_binomial_pmf(p, n)
            assert ratio == pytest.approx(0.35 * (M + n) / (n + 1), rel=1e-12)


def test_neg_binomial_normalization():
    p = NegBinomialParams(0.6, 3.2)
    total = sum(neg_binomial_pmf(p, n) for n in range(400))
    assert total == pytest.approx(1.0, abs=1e-13)


def test_generating_function_against_series():
    p = NegBinomialParams(0.4, 2.5)
    for t in (0.0, 0.3, 0.7, 1.0):
        series = sum(neg_binomial_pmf(p, n) * t ** n for n in range(300))
        assert neg_binomial_gf(p, t) == pytest.approx(series, rel=1e-13)
    # frozen spot value from 50-digit arithmetic
    assert neg_binomial_gf(p, 0.7) == pytest.approx(0.63393814526060893, rel=1e-15)


def test_generating_function_domain_guard():
    p = NegBinomialParams(0.5, 2)
    with pytest.raises(ValueError):
        neg_binomial_gf(p, 2.0)  # x*t = 1 pole crossed


def test_gf_moments():
    p = NegBinomialParams(0.25, 2)
    m = moments_from_gf(p)
    assert m.mean == pytest.approx(2 / 3, rel=1e-14)
    assert m.variance == pytest.approx((2 / 3) / 0.75, rel=1e-14)
    assert m.mandel_q == pytest.approx(0.25 / 0.75, rel=1e-14)
    # super-Poissonian for every parameter choice
    assert m.mandel_q > 0
    # cross-check against direct summation
    mean = sum(n * neg_binomial_pmf(p, n) for n in range(200))
    second = sum(n * n * neg_binomial_pmf(p, n) for n in range(200))
    assert m.mean == pytest.approx(mean, rel=1e-12)
    assert m.variance == pytest.approx(second - mean ** 2, rel=1e-12)


def test_poisson_pmf_and_cutoff():
    p = PoissonParams(1.0)
    assert poisson_pmf(p, 0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    n_max = poisson_cutoff(p, 1e-14)
    tail = 1.0 - sum(poisson_pmf(p, n) for n in range(n_max + 1))
    assert tail < 1e-14


def test_neg_binomial_cutoff_controls_tail():
    p = NegBinomialParams(0.6, 2.5)
    n_max = neg_binomial_cutoff(p, 1e-12)
    tail = 1.0 - sum(neg_binomial_pmf(p, n) for n in range(n_max + 1))
    assert 0 <= tail < 1e-12


def test_param_validation():
    with pytest.raises(ValueError):
        BinomialParams(1.2, 3)
    with pytest.raises(ValueError):
        BinomialParams(0.5, -1)
    with pytest.raises(ValueError):
        NegBinomialParams(0.5, 0.0)
    with pytest.raises(ValueError):
        MultinomialParams((0.9, 0.9), 2)  # sum of squares above one
    with pytest.raises(ValueError):
        NegMultinomialParams((0.0, 0.5), 2.0)  # zero component


_WHOLE_M = "M must be an integer in [1, 9007199254740992], got {!r}"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("make, message", [
    (lambda x: PoissonParams(x), "alpha2 must be a finite number, got {!r}"),
    (lambda x: BinomialParams(x, 3), "eta2 must be a finite number, got {!r}"),
    (lambda x: BinomialParams(0.5, x), _WHOLE_M),
    (lambda x: NegBinomialParams(x, 2.0), "eta2 must be a finite number, got {!r}"),
    (lambda x: NegBinomialParams(0.5, x), "M must be a finite number, got {!r}"),
    (lambda x: MultinomialParams((x, 0.3), 3), "eta must be a finite number, got {!r}"),
    (lambda x: MultinomialParams((0.3, 0.4), x), _WHOLE_M),
    (lambda x: NegMultinomialParams((0.3, x), 2.0), "eta must be a finite number, got {!r}"),
    (lambda x: NegMultinomialParams((0.3, 0.4), x), "M must be a finite number, got {!r}"),
])
def test_params_reject_non_finite(make, message, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(bad))}$"):
        make(bad)


def test_multinomial_matches_binomial_at_rank_one():
    p1 = MultinomialParams((math.sqrt(0.3),), 4)
    pb = BinomialParams(0.3, 4)
    for n in range(5):
        assert multinomial_pmf(p1, (n,)) == pytest.approx(binomial_pmf(pb, n), rel=1e-13)


def test_multinomial_normalization_on_shell():
    p = MultinomialParams((math.sqrt(0.3), math.sqrt(0.2)), 5)
    total = 0.0
    for n1 in range(6):
        for n2 in range(6 - n1):
            total += multinomial_pmf(p, (n1, n2))
    assert total == pytest.approx(1.0, abs=1e-14)


def test_neg_multinomial_marginal_is_neg_binomial():
    # summing the second index reproduces the rank-one law in the total strength
    eta = (math.sqrt(0.2), math.sqrt(0.1))
    p = NegMultinomialParams(eta, 2.0)
    marg = NegBinomialParams(0.3, 2.0)
    for n in range(8):
        total = sum(neg_multinomial_pmf(p, (k, n - k)) for k in range(n + 1))
        assert total == pytest.approx(neg_binomial_pmf(marg, n), rel=1e-12)


def test_poisson_limit_distance_decreases():
    for family in ("binomial", "neg_binomial"):
        distances = [poisson_limit_distance(family, M, 1.0) for M in (10, 100, 1000)]
        assert distances[0] > distances[1] > distances[2]
        assert distances[-1] < 0.05


def test_poisson_limit_requires_enough_levels():
    with pytest.raises(ValueError):
        poisson_limit_distance("binomial", 1, 2.0)  # binomial needs M > alpha^2


def test_matched_law_keeps_the_mean():
    assert matched_law("binomial", 10, 1.0) == BinomialParams(0.1, 10)
    assert matched_law("neg_binomial", 2.5, 1.0) == NegBinomialParams(1.0 / 3.5, 2.5)
    for M in (3, 7.5, 40):
        assert moments_from_gf(matched_law("neg_binomial", M, 1.0)).mean == pytest.approx(
            1.0, rel=1e-15)


@pytest.mark.parametrize("family, M, alpha2, message", [
    ("poisson", 10, 1.0, "unknown family 'poisson'"),
    ("binomial", 2, 2.0, "binomial matching needs M > alpha2, got M = 2, alpha2 = 2.0"),
    ("binomial", 0.5, 1.0, "binomial matching needs M > alpha2"),
    ("binomial", 10.5, 1.0, "M must be an integer in [1, 9007199254740992], got 10.5"),
], ids=["unknown-family", "M-at-alpha2", "M-below-alpha2", "fractional-binomial-M"])
def test_matched_law_refusals(family, M, alpha2, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        matched_law(family, M, alpha2)


def test_multiple_poisson_factorizes():
    alpha = (0.8, 1.3)
    for n in ((0, 0), (2, 1), (3, 4)):
        expect = poisson_pmf(PoissonParams(0.64), n[0]) * poisson_pmf(PoissonParams(1.69), n[1])
        assert multiple_poisson_pmf(alpha, n) == pytest.approx(expect, rel=1e-13)


def test_slice_to_shell_equal_amplitudes():
    sliced = slice_to_shell((1.0, 1.0), 2)
    np.testing.assert_allclose(
        [sliced[(2, 0)], sliced[(1, 1)], sliced[(0, 2)]], [0.25, 0.5, 0.25], rtol=1e-13
    )
    assert sum(sliced.values()) == pytest.approx(1.0, abs=1e-14)


def test_slice_to_shell_matches_multinomial():
    alphas = (0.7, 1.3, 0.4)
    M = 3
    sliced = slice_to_shell(alphas, M)
    norm = math.sqrt(sum(a * a for a in alphas))
    p = MultinomialParams(tuple(a / norm for a in alphas[1:]), M)
    for occ, prob in sliced.items():
        assert prob == pytest.approx(multinomial_pmf(p, occ[1:]), rel=1e-12)


def test_waiting_time_simulation_statistics():
    p = NegBinomialParams(0.3, 3)
    result = waiting_time_simulate(p, trials=200_000, seed=42)
    assert result.trials == 200_000
    for n in range(15):
        expect = neg_binomial_pmf(p, n)
        se = result.stderr[n] if n < len(result.stderr) else 0.0
        assert abs(result.p_hat[n] - expect) < 4 * max(se, 1e-6)


def test_waiting_time_simulation_deterministic():
    p = NegBinomialParams(0.4, 2)
    a = waiting_time_simulate(p, trials=5000, seed=7)
    b = waiting_time_simulate(p, trials=5000, seed=7)
    np.testing.assert_array_equal(a.p_hat, b.p_hat)
    c = waiting_time_simulate(p, trials=5000, seed=8)
    assert not np.array_equal(a.p_hat, c.p_hat)


def test_waiting_time_requires_integer_order():
    with pytest.raises(ValueError):
        waiting_time_simulate(NegBinomialParams(0.4, 2.5), trials=100, seed=1)
