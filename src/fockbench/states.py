"""Coherent-state families as square roots of counting laws.

Every family is built by one rule: amplitude = sqrt(pmf(counts)) times
e^{i counts . theta}, with the counts read from the basis occupations and the
pmf evaluated on all of them at once by the array-valued log-pmfs of
:mod:`fockbench.distributions`.  The five ``*_state`` functions bind that rule
to one family each.  A finite support (binomial, multinomial) must lie wholly
inside the basis; for an infinite one the basis must carry all but at most
``tail_tol`` of the state's mass, and the truncated-tail deficit is the
documented error bound on every downstream expectation value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from .fock import Cutoff, StateVector, TruncatedBasis, _real, _whole, enumerate_basis

FAMILIES = ("coherent", "binomial", "neg_binomial", "multinomial", "neg_multinomial")

DEFAULT_TAIL_TOL = 1e-12

_PARAM_TYPES = {
    "coherent": dist.PoissonParams,
    "binomial": dist.BinomialParams,
    "neg_binomial": dist.NegBinomialParams,
    "multinomial": dist.MultinomialParams,
    "neg_multinomial": dist.NegMultinomialParams,
}


@dataclass(frozen=True)
class StateSpec:
    """Family name, distribution parameters, and per-mode phases."""

    family: str
    params: object
    phases: tuple = field(default=())

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        expected = _PARAM_TYPES[self.family]
        if not isinstance(self.params, expected):
            raise ValueError(f"{self.family} takes {expected.__name__} parameters")
        phases = tuple(_real("phases", t) for t in self.phases)
        n_phases = self.phase_count
        if not phases:
            phases = (0.0,) * n_phases
        if len(phases) != n_phases:
            raise ValueError(f"{self.family} needs {n_phases} phase(s), got {len(phases)}")
        object.__setattr__(self, "phases", phases)

    @property
    def phase_count(self) -> int:
        if self.family in ("coherent", "binomial", "neg_binomial"):
            return 1
        return self.params.r

    @property
    def modes(self) -> int:
        """Number of Fock modes the state occupies."""
        if self.family in ("coherent", "binomial", "neg_binomial"):
            return 1
        if self.family == "multinomial":
            return self.params.r + 1
        return self.params.r


def auto_basis(spec: StateSpec, tail_tol: float = DEFAULT_TAIL_TOL, guard: int = 0) -> TruncatedBasis:
    """Smallest basis whose closed-form tail mass is below ``tail_tol``.

    ``guard`` adds headroom levels for states that will be hit by raising
    operators afterwards.
    """
    tail_tol = _check_tail_tol(tail_tol)
    guard = _whole("guard", guard, 0)
    fam, p = spec.family, spec.params
    if fam == "coherent":
        n_max = dist.poisson_cutoff(p, tail_tol)
        return enumerate_basis(1, Cutoff.per_mode(n_max + guard))
    if fam == "binomial":
        return enumerate_basis(1, Cutoff.per_mode(p.M + guard))
    if fam == "neg_binomial":
        n_max = dist.neg_binomial_cutoff(p, tail_tol)
        return enumerate_basis(1, Cutoff.per_mode(n_max + guard))
    if fam == "multinomial":
        if guard == 0:
            return enumerate_basis(p.r + 1, Cutoff.shell(p.M))
        return enumerate_basis(p.r + 1, Cutoff.total(p.M + guard))
    # negative multinomial: the total-occupation marginal is negative binomial
    # with eta^2 = sum eta_j^2, which fixes the total cutoff.
    marginal = dist.NegBinomialParams(sum(e * e for e in p.eta), p.M)
    n_max = dist.neg_binomial_cutoff(marginal, tail_tol)
    return enumerate_basis(p.r, Cutoff.total(n_max + guard))


def _check_tail_tol(tail_tol):
    tail_tol = _real("tail_tol", tail_tol)
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    return tail_tol


def _check_deficit(deficit, tail_tol, family):
    # tiny multiplicative slack: the cutoff search can land the analytic tail
    # exactly on the tolerance, and the re-measured deficit then crosses it
    # by accumulation roundoff alone
    if deficit > tail_tol * (1.0 + 1e-6) + 1e-15:
        raise ValueError(
            f"basis cutoff too small for the {family} state: "
            f"tail mass {deficit:.3e} exceeds tolerance {tail_tol:.3e}"
        )


# family -> (log-pmf, the occupation columns it counts, finite support mask).
# An integer column gives the (k,) counts of a single-mode law, a slice the
# (k, r) counts of a multimode one; infinite-support laws have no mask.
_LAWS = {
    "coherent": (dist.poisson_log_pmf, 0, None),
    "binomial": (dist.binomial_log_pmf, 0, lambda p, occ: occ[:, 0] <= p.M),
    "neg_binomial": (dist.neg_binomial_log_pmf, 0, None),
    "multinomial": (dist.multinomial_log_pmf, slice(1, None),
                    lambda p, occ: occ.sum(axis=1) == p.M),
    "neg_multinomial": (dist.neg_multinomial_log_pmf, slice(None), None),
}


def _family_state(spec: StateSpec, basis: TruncatedBasis, tail_tol: float) -> StateVector:
    """amplitude = sqrt(pmf(counts)) e^{i counts . theta} on the law's support.

    A finite support (binomial, multinomial) must lie wholly inside the basis;
    an infinite one must leave at most ``tail_tol`` of the mass outside it.
    """
    tail_tol = _check_tail_tol(tail_tol)
    if basis.modes != spec.modes:
        raise ValueError(f"{spec.family} state needs a {spec.modes}-mode basis, got {basis.modes}")
    log_pmf, columns, finite_support = _LAWS[spec.family]
    occ = basis.occupations
    if finite_support is None:
        support = slice(None)
    else:
        support = finite_support(spec.params, occ)
        r, found = spec.phase_count, int(support.sum())
        size = math.comb(spec.params.M + r, r)
        if found != size:
            raise ValueError(f"basis holds {found} of the {size} states in the "
                             f"{spec.family} support (M={spec.params.M})")
    counts = occ[support][:, columns]
    phase = np.vecdot(counts.reshape(len(counts), -1), spec.phases)
    amps = np.zeros(len(basis), dtype=complex)
    amps[support] = np.exp(0.5 * log_pmf(spec.params, counts)) * np.exp(1j * phase)
    psi = StateVector(basis, amps)
    if finite_support is None:
        _check_deficit(1.0 - psi.norm2(), tail_tol, spec.family)
    return psi


def _bound_state(family, spec, basis, tail_tol):
    if spec.family != family:
        raise ValueError(f"spec is not a {family} spec")
    return _family_state(spec, basis, tail_tol)


def coherent_state(spec: StateSpec, basis: TruncatedBasis, tail_tol: float = DEFAULT_TAIL_TOL) -> StateVector:
    """Poisson-weighted state, amplitude(n) = e^{-a^2/2} alpha^n e^{i n theta}/sqrt(n!)."""
    return _bound_state("coherent", spec, basis, tail_tol)


def binomial_state(spec: StateSpec, basis: TruncatedBasis, tail_tol: float = DEFAULT_TAIL_TOL) -> StateVector:
    """Finite-support state; requires the basis to hold levels 0..M."""
    return _bound_state("binomial", spec, basis, tail_tol)


def neg_binomial_state(spec: StateSpec, basis: TruncatedBasis, tail_tol: float = DEFAULT_TAIL_TOL) -> StateVector:
    """Negative-binomial state of real order M > 0 on one mode."""
    return _bound_state("neg_binomial", spec, basis, tail_tol)


def multinomial_state(spec: StateSpec, basis: TruncatedBasis, tail_tol: float = DEFAULT_TAIL_TOL) -> StateVector:
    """State on the exact total-occupation shell sum(n) = M over r+1 modes."""
    return _bound_state("multinomial", spec, basis, tail_tol)


def neg_multinomial_state(spec: StateSpec, basis: TruncatedBasis, tail_tol: float = DEFAULT_TAIL_TOL) -> StateVector:
    """Negative-multinomial state of real order M > 0 on r modes."""
    return _bound_state("neg_multinomial", spec, basis, tail_tol)


def build_state(spec: StateSpec, basis: TruncatedBasis = None,
                tail_tol: float = DEFAULT_TAIL_TOL, guard: int = 0) -> StateVector:
    """The family state of ``spec``; builds an auto-sized basis when none is given."""
    if basis is None:
        basis = auto_basis(spec, tail_tol, guard)
    return _family_state(spec, basis, tail_tol)


def norm_deficit(psi: StateVector, family: str) -> float:
    """Mass of the ``family`` law that the basis of ``psi`` leaves out.

    Exactly 0.0 for a finite support (binomial, multinomial), which
    :func:`_family_state` requires to lie wholly inside the basis; otherwise
    1 - |psi|^2, floored at 0.0 where summation roundoff pushes |psi|^2 above 1.
    """
    if _LAWS[family][2] is not None:
        return 0.0
    return max(0.0, 1.0 - psi.norm2())


def quantum_gf(psi: StateVector, t: float) -> float:
    """<psi| t^N |psi> with N the total number operator (normalized input assumed)."""
    t = _real("t", t)
    if t < 0:
        raise ValueError("t must be non-negative")
    probs = np.abs(psi.amplitudes) ** 2
    totals = psi.basis.totals
    with np.errstate(divide="ignore"):
        weights = np.where(totals == 0, 1.0, t ** totals.astype(float))
    return float(np.dot(weights, probs))


def mean_occupation(psi: StateVector) -> float:
    probs = np.abs(psi.amplitudes) ** 2
    return float(np.dot(psi.basis.totals, probs))


def occupation_variance(psi: StateVector) -> float:
    probs = np.abs(psi.amplitudes) ** 2
    totals = psi.basis.totals.astype(float)
    mean = float(np.dot(totals, probs))
    return float(np.dot(totals * totals, probs) - mean * mean)
