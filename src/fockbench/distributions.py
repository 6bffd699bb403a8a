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

from .fock import Cutoff, _real, _whole, enumerate_basis

TAIL_MASS_POLICY = 1e-14  # infinite sums truncate once the tail mass beyond falls to this
MAX_SAMPLER_DRAWS = 150_000_000  # waiting-time sampler budget, in draws (about 1.5 s)
SAMPLER_CHUNK = 1 << 16  # float64 draws the sampler holds at a time (512 KiB)
WAVE_DRAWS = 500  # interpreter cost of one sampler wave, counted in draws
ROW_DRAWS = 300  # cost of one exact-pmf row (pmf, stderr and a CSV line, about 3 us), in draws
_MAX_WHOLE_M = 2**53  # largest integer M of a finite-support law: its counts stay exact in float64


def _as_eta_tuple(eta):
    eta = tuple(_real("eta", e) for e in eta)
    if not eta:
        raise ValueError("eta vector must have at least one component")
    if any(e <= 0.0 for e in eta):
        raise ValueError("eta components must be strictly positive (degenerate modes are rejected)")
    return eta


@dataclass(frozen=True)
class PoissonParams:
    alpha2: float  # mean photon number |alpha|^2

    def __post_init__(self):
        object.__setattr__(self, "alpha2", _real("alpha2", self.alpha2))
        if self.alpha2 < 0:
            raise ValueError("alpha2 must be non-negative")


@dataclass(frozen=True)
class BinomialParams:
    eta2: float
    M: int

    def __post_init__(self):
        object.__setattr__(self, "M", _whole("M", self.M, 1, _MAX_WHOLE_M))
        object.__setattr__(self, "eta2", _real("eta2", self.eta2))
        if not 0.0 <= self.eta2 <= 1.0:
            raise ValueError("eta2 must lie in [0, 1]")


@dataclass(frozen=True)
class NegBinomialParams:
    eta2: float
    M: float  # real M > 0 is allowed

    def __post_init__(self):
        object.__setattr__(self, "M", _real("M", self.M))
        object.__setattr__(self, "eta2", _real("eta2", self.eta2))
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
        object.__setattr__(self, "M", _whole("M", self.M, 1, _MAX_WHOLE_M))
        if sum(e * e for e in self.eta) > 1.0 + 1e-15:
            raise ValueError("sum of eta_j^2 must not exceed 1")

    @property
    def r(self):
        return len(self.eta)


@dataclass(frozen=True)
class NegMultinomialParams:
    eta: tuple
    M: float

    def __post_init__(self):
        object.__setattr__(self, "eta", _as_eta_tuple(self.eta))
        object.__setattr__(self, "M", _real("M", self.M))
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
    t = _real("t", t)
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


def matched_law(family: str, M, alpha2: float):
    """The finite-M law of ``family`` whose Poisson limit has mean ``alpha2``.

    "binomial": BinomialParams with eta2 = alpha2/M, which needs a whole M > alpha2;
    "neg_binomial": NegBinomialParams with eta2 = alpha2/(M + alpha2), mean exactly
    alpha2 for every real M > 0.
    """
    _real("M", M)  # a non-number is refused here, not by the arithmetic below
    alpha2 = _real("alpha2", alpha2)
    if alpha2 <= 0:
        raise ValueError("alpha2 must be positive")
    if family == "binomial":
        if M <= alpha2:
            raise ValueError(f"binomial matching needs M > alpha2, got M = {M!r}, "
                             f"alpha2 = {alpha2!r}")
        return BinomialParams(alpha2 / M, M)
    if family == "neg_binomial":
        return NegBinomialParams(alpha2 / (M + alpha2), M)
    raise ValueError(f"unknown family {family!r}")


def poisson_limit_distance(family: str, M, alpha2: float) -> float:
    """Total-variation distance of :func:`matched_law` from the Poisson law with mean
    ``alpha2``; the sum truncates under the 1e-14 tail policy."""
    other = matched_law(family, M, alpha2)
    pois = PoissonParams(alpha2)
    binomial = family == "binomial"
    ns = np.arange(max(other.M if binomial else neg_binomial_cutoff(other),
                       poisson_cutoff(pois)) + 1)
    if binomial:
        q = np.zeros(len(ns))
        q[:other.M + 1] = binomial_pmf(other, ns[:other.M + 1])
    else:
        q = neg_binomial_pmf(other, ns)
    return 0.5 * float(np.abs(poisson_pmf(pois, ns) - q).sum())


def multiple_poisson_log_pmf(alpha, n_vec):
    """Independent Poisson modes with means alpha_j^2."""
    alpha = tuple(_real("alpha", a) for a in alpha)
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
    alpha = tuple(_real("alpha", a) for a in alpha)
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
    output is a deterministic function of (seed, trials).  A live replicate
    holds only the successes it still needs, in the smallest unsigned type
    that holds M (one byte below 256); the live replicates stay in their
    original order, so wave k hands its k-th draw to the k-th live replicate.
    Draws come off the stream SAMPLER_CHUNK at a time into one buffer.  A
    replicate that finishes in wave k had k - M failures, so the histogram is
    the number of replicates that finish in each wave; finished replicates are
    dropped after the wave.  No replicate can finish within min(left) - 1
    waves of a check, and those waves skip the check.

    Requires integer M below 2**31, and refuses a run whose expected cost,
    (trials + WAVE_DRAWS) * M / (1 - eta2) draws for the waves plus ROW_DRAWS per
    row of the exact pmf (to its 1e-12 tail cutoff), exceeds MAX_SAMPLER_DRAWS.
    """
    M = _whole("M", p.M, 1, 2**31 - 1)
    trials, seed = _whole("trials", trials, 1), _whole("seed", seed, 0)
    rows = neg_binomial_cutoff(p, 1e-12) + 1
    # the clamp keeps an absurd trial count from overflowing the float conversion
    draws = float(min(trials, 10**300) + WAVE_DRAWS) * M / (1.0 - p.eta2) + rows * ROW_DRAWS
    if draws > MAX_SAMPLER_DRAWS:
        raise ValueError(f"trials = {trials} at M = {M}, eta2 = {p.eta2:.17g} ({rows} pmf rows) "
                         f"costs about {draws:.4g} draws; the limit is {MAX_SAMPLER_DRAWS:.4g}")
    rng = np.random.default_rng(seed)
    left = np.full(trials, M, dtype=np.min_scalar_type(M))
    buf = np.empty(min(trials, SAMPLER_CHUNK))
    finished = []  # finished[n]: replicates whose M-th success came in wave M + n
    wave, check = 0, M  # no replicate can finish before wave `check`
    while left.size:
        for start in range(0, left.size, buf.size):
            part = left[start:start + buf.size]
            draw = buf[:part.size]
            rng.random(out=draw)
            part -= draw >= p.eta2
        wave += 1
        if wave < check:
            continue
        low = int(left.min())
        if low == 0:
            kept = left[left != 0]
            finished += [0] * (wave - M - len(finished))
            finished.append(left.size - kept.size)
            left = kept
            if not left.size:
                break
            low = int(left.min())
        check = wave + low
    # bins cover the law's effective support even when the sample never
    # reached it, so sparse tail bins still come with a usable yardstick
    n_max = max(len(finished) - 1, rows - 1)
    counts = np.zeros(n_max + 1, dtype=np.intp)
    counts[:len(finished)] = finished
    p_hat = counts / trials
    ns = np.arange(n_max + 1)
    exact = neg_binomial_pmf(p, ns)
    # conservative standard error: sqrt(q(1-q)/trials) with q the larger of
    # the empirical and exact frequencies.  In the bulk the two agree; in
    # far-tail bins (expected counts below one) it keeps a deviation test
    # meaningful instead of flagging every single stray count
    q = np.maximum(p_hat, exact)
    stderr = np.sqrt(q * (1.0 - q) / trials)
    return WaitingTimeResult(n=ns, p=exact, p_hat=p_hat, stderr=stderr, trials=trials, seed=seed)
