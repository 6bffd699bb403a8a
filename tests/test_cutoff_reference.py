"""The tail cutoffs against 50-digit mpmath survival functions.

A cutoff is the smallest n with P(N > n) <= tol, so on every grid point the
reference survival must satisfy sf(n) <= tol < sf(n - 1).
"""

import mpmath
import pytest

from fockbench.distributions import (
    NegBinomialParams,
    PoissonParams,
    neg_binomial_cutoff,
    poisson_cutoff,
)

TOLS = (1e-8, 1e-12, 1e-14)


def _is_minimal(n, survival, tol):
    with mpmath.workdps(50):
        return survival(n) <= tol and (n == 0 or survival(n - 1) > tol)


@pytest.mark.parametrize("eta2", (0.05, 0.3, 0.6, 0.9, 0.97, 0.99))
@pytest.mark.parametrize("M", (0.05, 0.5, 2.0, 7.5, 50.0))
def test_neg_binomial_cutoff_is_minimal(eta2, M):
    def survival(n):
        # P(N > n) = I_eta2(n + 1, M), the regularized incomplete beta function
        return mpmath.betainc(n + 1, mpmath.mpf(M), 0, mpmath.mpf(eta2), regularized=True)

    for tol in TOLS:
        n = neg_binomial_cutoff(NegBinomialParams(eta2, M), tol)
        assert _is_minimal(n, survival, tol), (eta2, M, tol, n)


@pytest.mark.parametrize("alpha2", (0.1, 1.0, 5.0, 20.0, 60.0, 1000.0))
def test_poisson_cutoff_is_minimal(alpha2):
    def survival(n):
        # P(N > n) = P(n + 1, alpha2), the regularized lower incomplete gamma function
        return mpmath.gammainc(n + 1, 0, mpmath.mpf(alpha2), regularized=True)

    for tol in TOLS + (1e-16,):
        n = poisson_cutoff(PoissonParams(alpha2), tol)
        assert _is_minimal(n, survival, tol), (alpha2, tol, n)


def test_cutoffs_at_zero_mean_are_zero():
    assert poisson_cutoff(PoissonParams(0.0), 1e-14) == 0
    assert neg_binomial_cutoff(NegBinomialParams(0.0, 2.0), 1e-14) == 0


@pytest.mark.parametrize("tail_mass", (0.0, -1e-12, float("nan")))
def test_cutoffs_reject_non_positive_tail_mass(tail_mass):
    with pytest.raises(ValueError):
        poisson_cutoff(PoissonParams(5.0), tail_mass)
    with pytest.raises(ValueError):
        neg_binomial_cutoff(NegBinomialParams(0.5, 2.0), tail_mass)
