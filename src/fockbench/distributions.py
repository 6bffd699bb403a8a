"""Counting laws attached to the coherent-state families.

Poisson, binomial, negative binomial, multinomial and negative multinomial
probability mass functions (evaluated in log space), the negative-binomial
generating function and its moments, Poisson-limit distances, multiple-Poisson
shell slicing, and a Bernoulli waiting-time Monte Carlo sampler.

Each law is written once and evaluates a whole array of counts: shape (k,)
for the single-mode laws, (k, r) for the multimode ones.  A scalar count, or
an r-tuple for a multimode law, returns a Python float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammainc, gammaln, xlogy

from .fock import Cutoff, enumerate_basis

TAIL_MASS_POLICY = 1e-14  # infinite sums truncate once the tail mass beyond falls to this


def _check_finite(**fields):
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _as_eta_tuple(eta):
    eta = tuple(float(e) for e in eta)
    if not eta:
        raise ValueError("eta vector must have at least one component")
    if not all(math.isfinite(e) for e in eta):
        raise ValueError(f"eta components must be finite, got {eta}")
    if any(e <= 0.0 for e in eta):
        raise ValueError("eta components must be strictly positive (degenerate modes are rejected)")
    return eta


@dataclass(frozen=True)
class PoissonParams:
    alpha2: float  # mean photon number |alpha|^2

    def __post_init__(self):
        _check_finite(alpha2=self.alpha2)
        if self.alpha2 < 0:
            raise ValueError("alpha2 must be non-negative")


@dataclass(frozen=True)
class BinomialParams:
    eta2: float
    M: int

    def __post_init__(self):
        _check_finite(eta2=self.eta2, M=self.M)
        if not 0.0 <= self.eta2 <= 1.0:
            raise ValueError("eta2 must lie in [0, 1]")
        if int(self.M) != self.M or self.M < 1:
            raise ValueError("M must be a positive integer")
        object.__setattr__(self, "M", int(self.M))


@dataclass(frozen=True)
class NegBinomialParams:
    eta2: float
    M: float  # real M > 0 is allowed

    def __post_init__(self):
        _check_finite(eta2=self.eta2, M=self.M)
        if not 0.0 <= self.eta2 < 1.0:
            raise ValueError("eta2 must lie in [0, 1)")
        if not self.M > 0:
            raise ValueError("M must be positive")


@dataclass(frozen=True)
class MultinomialParams:
    eta: tuple  # (eta_1 .. eta_r), all > 0, sum of squares <= 1
    M: int

    def __post_init__(self):
        object.__setattr__(self, "eta", _as_eta_tuple(self.eta))
        _check_finite(M=self.M)
        if sum(e * e for e in self.eta) > 1.0 + 1e-15:
            raise ValueError("sum of eta_j^2 must not exceed 1")
        if int(self.M) != self.M or self.M < 1:
            raise ValueError("M must be a positive integer")
        object.__setattr__(self, "M", int(self.M))

    @property
    def r(self):
        return len(self.eta)


@dataclass(frozen=True)
class NegMultinomialParams:
    eta: tuple
    M: float

    def __post_init__(self):
        object.__setattr__(self, "eta", _as_eta_tuple(self.eta))
        _check_finite(M=self.M)
        if sum(e * e for e in self.eta) >= 1.0:
            raise ValueError("sum of eta_j^2 must be below 1")
        if not self.M > 0:
            raise ValueError("M must be positive")

    @property
    def r(self):
        return len(self.eta)


def _counts(n, modes=None):
    """Validated counts as a float array, and whether ``n`` was one point.

    Single-mode laws (``modes`` None) take a scalar or a shape (k,) array;
    multimode laws take an r-tuple or a shape (k, r) array.  Any negative,
    non-integer or non-finite entry raises ValueError.
    """
    values = np.asarray(n)
    if values.dtype.kind not in "biuf":
        raise ValueError(f"counts must be numbers, got {n!r}")
    values = values.astype(float)
    point_ndim = 0 if modes is None else 1
    if values.ndim not in (point_ndim, point_ndim + 1):
        raise ValueError(f"counts must have {point_ndim} or {point_ndim + 1} dimensions, "
                         f"got shape {values.shape}")
    if modes is not None and values.shape[-1] != modes:
        raise ValueError(f"expected {modes} counts, got {values.shape[-1]}")
    if not np.all(np.isfinite(values) & (values >= 0) & (values == np.floor(values))):
        raise ValueError(f"counts must be non-negative integers, got {n!r}")
    return values, values.ndim == point_ndim


def _result(log_p, one_point):
    """A Python float for a single point, the array otherwise."""
    return float(log_p) if one_point else log_p


def _exp(log_p):
    # np.exp for a single point too, so it agrees with the array path bit for bit
    p = np.exp(log_p)
    return float(p) if isinstance(log_p, float) else p


def poisson_log_pmf(p: PoissonParams, n):
    n, one = _counts(n)
    return _result(-p.alpha2 + xlogy(n, p.alpha2) - gammaln(n + 1), one)


def poisson_pmf(p: PoissonParams, n):
    return _exp(poisson_log_pmf(p, n))


def binomial_log_pmf(p: BinomialParams, n):
    n, one = _counts(n)
    if np.any(n > p.M):
        raise ValueError(f"count {np.max(n):.0f} is outside the support 0..{p.M}")
    logc = gammaln(p.M + 1) - gammaln(n + 1) - gammaln(p.M - n + 1)
    return _result(logc + xlogy(n, p.eta2) + xlogy(p.M - n, 1.0 - p.eta2), one)


def binomial_pmf(p: BinomialParams, n):
    return _exp(binomial_log_pmf(p, n))


def neg_binomial_log_pmf(p: NegBinomialParams, n):
    n, one = _counts(n)
    logc = gammaln(p.M + n) - gammaln(p.M) - gammaln(n + 1)
    return _result(logc + xlogy(n, p.eta2) + p.M * math.log1p(-p.eta2), one)


def neg_binomial_pmf(p: NegBinomialParams, n):
    return _exp(neg_binomial_log_pmf(p, n))


def multinomial_log_pmf(p: MultinomialParams, n_vec):
    """log pmf at (n_1..n_r); the zeroth count is implied, n_0 = M - sum(n_vec)."""
    n_vec, one = _counts(n_vec, p.r)
    n0 = p.M - n_vec.sum(axis=-1)
    if np.any(n0 < 0):
        raise ValueError("counts exceed M")
    logc = gammaln(p.M + 1) - gammaln(n0 + 1) - gammaln(n_vec + 1).sum(axis=-1)
    rest = 1.0 - sum(e * e for e in p.eta)
    return _result(logc + xlogy(n_vec, np.square(p.eta)).sum(axis=-1) + xlogy(n0, max(rest, 0.0)),
                   one)


def multinomial_pmf(p: MultinomialParams, n_vec):
    return _exp(multinomial_log_pmf(p, n_vec))


def neg_multinomial_log_pmf(p: NegMultinomialParams, n_vec):
    n_vec, one = _counts(n_vec, p.r)
    logc = gammaln(p.M + n_vec.sum(axis=-1)) - gammaln(p.M) - gammaln(n_vec + 1).sum(axis=-1)
    rest = 1.0 - sum(e * e for e in p.eta)
    return _result(logc + xlogy(n_vec, np.square(p.eta)).sum(axis=-1) + p.M * math.log(rest),
                   one)


def neg_multinomial_pmf(p: NegMultinomialParams, n_vec):
    return _exp(neg_multinomial_log_pmf(p, n_vec))


def neg_binomial_gf(p: NegBinomialParams, t: float) -> float:
    """Probability generating function ((1 - eta^2) / (1 - eta^2 t))^M."""
    if p.eta2 * t >= 1.0:
        raise ValueError("generating function diverges for eta2 * t >= 1")
    return float(((1.0 - p.eta2) / (1.0 - p.eta2 * t)) ** p.M)


@dataclass(frozen=True)
class GfMoments:
    mean: float
    variance: float
    mandel_q: float


def moments_from_gf(p: NegBinomialParams) -> GfMoments:
    """Mean, variance and Mandel Q from the generating-function derivatives.

    G'(1) = M eta^2/(1-eta^2);  G''(1) + G'(1) - G'(1)^2 gives the variance
    M eta^2/(1-eta^2)^2; Q = variance/mean - 1 = eta^2/(1-eta^2) > 0
    (super-Poissonian for every eta2 > 0).
    """
    ratio = p.eta2 / (1.0 - p.eta2)
    mean = p.M * ratio
    variance = mean / (1.0 - p.eta2)
    return GfMoments(mean=mean, variance=variance, mandel_q=ratio)


def _smallest_within(survival, tail_mass):
    """Smallest n >= 0 with survival(n) <= tail_mass, for a decreasing survival.

    Doubling brackets it, bisection pins it down.
    """
    if not tail_mass > 0.0:
        raise ValueError(f"tail mass must be positive, got {tail_mass!r}")
    if survival(0) <= tail_mass:
        return 0
    lo, hi = 0, 1  # survival(lo) > tail_mass throughout
    while survival(hi) > tail_mass:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if survival(mid) > tail_mass else (lo, mid)
    return hi


def neg_binomial_cutoff(p: NegBinomialParams, tail_mass: float = TAIL_MASS_POLICY) -> int:
    """Smallest n_max whose tail mass is at most ``tail_mass``.

    The tail mass P(N > n_max) is the regularized incomplete beta I_eta2(n_max + 1, M).
    """
    return _smallest_within(lambda n: betainc(n + 1, p.M, p.eta2), tail_mass)


def poisson_cutoff(p: PoissonParams, tail_mass: float = TAIL_MASS_POLICY) -> int:
    """Smallest n_max whose tail mass is at most ``tail_mass``.

    The tail mass P(N > n_max) is the regularized lower incomplete gamma P(n_max + 1, alpha2).
    """
    return _smallest_within(lambda n: gammainc(n + 1, p.alpha2), tail_mass)


def poisson_limit_distance(family: str, M, alpha2: float) -> float:
    """Total-variation distance from the Poisson law with mean ``alpha2``.

    family "binomial" uses eta2 = alpha2/M (mean alpha2 as M grows);
    family "neg_binomial" uses eta2 = alpha2/(M + alpha2) (mean exactly
    alpha2 for every M).  The sum truncates under the 1e-14 tail policy.
    """
    if alpha2 <= 0:
        raise ValueError("alpha2 must be positive")
    pois = PoissonParams(alpha2)
    if family == "binomial":
        if M <= alpha2:
            raise ValueError("binomial matching needs M > alpha2")
        other = BinomialParams(alpha2 / M, int(M))
        n_top = other.M
    elif family == "neg_binomial":
        other = NegBinomialParams(alpha2 / (M + alpha2), float(M))
        n_top = neg_binomial_cutoff(other)
    else:
        raise ValueError(f"unknown family {family!r}")
    ns = np.arange(max(n_top, poisson_cutoff(pois)) + 1)
    if family == "binomial":
        q = np.zeros(len(ns))
        q[:other.M + 1] = binomial_pmf(other, ns[:other.M + 1])
    else:
        q = neg_binomial_pmf(other, ns)
    return 0.5 * float(np.abs(poisson_pmf(pois, ns) - q).sum())


def multiple_poisson_log_pmf(alpha, n_vec):
    """Independent Poisson modes with means alpha_j^2."""
    alpha = tuple(float(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("alpha components must be non-negative")
    n_vec, one = _counts(n_vec, len(alpha))
    a2 = np.square(alpha)
    return _result((-a2 + xlogy(n_vec, a2) - gammaln(n_vec + 1)).sum(axis=-1), one)


def multiple_poisson_pmf(alpha, n_vec):
    return _exp(multiple_poisson_log_pmf(alpha, n_vec))


def slice_to_shell(alpha, M: int) -> dict:
    """Multiple-Poisson law conditioned on total count M, renormalized.

    Returns {occupation tuple: probability} over all compositions of M into
    len(alpha) parts.  Coincides with the multinomial law at
    eta_j = alpha_j/|alpha| (zeroth mode implied).
    """
    alpha = tuple(float(a) for a in alpha)
    if any(a <= 0 for a in alpha):
        raise ValueError("alpha components must be strictly positive")
    shell = enumerate_basis(len(alpha), Cutoff.shell(M))
    logs = multiple_poisson_log_pmf(alpha, shell.occupations)
    weights = np.exp(logs - logs.max())
    return dict(zip(shell.states, (weights / weights.sum()).tolist()))


@dataclass(frozen=True)
class WaitingTimeResult:
    """Empirical waiting-time pmf: failures before the M-th success."""

    n: np.ndarray        # bin labels 0..n_max
    p: np.ndarray        # exact negative-binomial pmf per bin
    p_hat: np.ndarray    # empirical frequencies
    stderr: np.ndarray   # conservative per-bin standard error (see simulate docstring)
    trials: int
    seed: int


def waiting_time_simulate(p: NegBinomialParams, trials: int, seed: int) -> WaitingTimeResult:
    """Monte Carlo of the waiting-time construction behind the negative binomial.

    Each replicate runs Bernoulli trials with failure probability eta2 until
    the M-th success and records the failure count n.  All replicates advance
    in lockstep, one trial per wave, drawn from a single PCG64 stream, so the
    output is a deterministic function of (seed, trials).  The live
    replicates stay in their original order in one int64 array,
    successes_left * 2**32 + failures, so wave k hands its k-th draw to the
    k-th live replicate; finished replicates are binned and dropped each wave.
    Requires integer M below 2**31.
    """
    if int(p.M) != p.M:
        raise ValueError("waiting-time sampling needs integer M")
    M = int(p.M)
    if M >= 2**31:
        raise ValueError(f"waiting-time sampling needs M below 2**31, got {M}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if seed is None:
        raise ValueError("a seed is required for reproducible sampling")
    rng = np.random.default_rng(int(seed))
    live = np.full(trials, M << 32, dtype=np.int64)
    finished = []
    while live.size:
        live += np.where(rng.random(live.size) < p.eta2, 1, -(1 << 32))
        done = live < (1 << 32)  # no successes left: the low word is the failure count
        if done.any():
            finished.append(live[done])
            live = live[~done]
    failures = np.concatenate(finished)
    # bins cover the law's effective support even when the sample never
    # reached it, so sparse tail bins still come with a usable yardstick
    n_max = max(int(failures.max()), neg_binomial_cutoff(p, 1e-12))
    counts = np.bincount(failures, minlength=n_max + 1)
    p_hat = counts / trials
    ns = np.arange(n_max + 1)
    exact = neg_binomial_pmf(p, ns)
    # conservative standard error: sqrt(q(1-q)/trials) with q the larger of
    # the empirical and exact frequencies.  In the bulk the two agree; in
    # far-tail bins (expected counts below one) it keeps a deviation test
    # meaningful instead of flagging every single stray count
    q = np.maximum(p_hat, exact)
    stderr = np.sqrt(q * (1.0 - q) / trials)
    return WaitingTimeResult(n=ns, p=exact, p_hat=p_hat, stderr=stderr,
                             trials=int(trials), seed=int(seed))
