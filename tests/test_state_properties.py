"""Property tests of the state families and of the state JSON form.

The modulus-square reference is each counting law written out per state in
pure Python (``math.lgamma``), independently of the array log-pmfs the states
are built from.
"""

import json
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as hs

from fockbench import cli
from fockbench import distributions as dist
from fockbench.fock import Cutoff, StateVector, enumerate_basis, state_from_json_dict
from fockbench.states import StateSpec, build_state


def _log_choose(top, counts):
    """log of top! / prod(counts!)."""
    return math.lgamma(top + 1) - sum(math.lgamma(n + 1) for n in counts)


def _xlogy(n, y):
    if n == 0:
        return 0.0
    return n * math.log(y) if y > 0 else -math.inf


def reference_log_pmf(family, p, occ):
    if family == "coherent":
        (n,) = occ
        return -p.alpha2 + _xlogy(n, p.alpha2) - math.lgamma(n + 1)
    if family == "binomial":
        (n,) = occ
        return (_log_choose(p.M, (n, p.M - n)) + _xlogy(n, p.eta2)
                + _xlogy(p.M - n, 1.0 - p.eta2))
    if family == "neg_binomial":
        (n,) = occ
        return (math.lgamma(p.M + n) - math.lgamma(p.M) - math.lgamma(n + 1)
                + _xlogy(n, p.eta2) + p.M * math.log1p(-p.eta2))
    eta2 = [e * e for e in p.eta]
    rest = 1.0 - sum(eta2)
    if family == "multinomial":
        n0, counts = occ[0], occ[1:]
        return (_log_choose(p.M, occ) + sum(_xlogy(n, e) for n, e in zip(counts, eta2))
                + _xlogy(n0, max(rest, 0.0)))
    return (math.lgamma(p.M + sum(occ)) - math.lgamma(p.M) - sum(math.lgamma(n + 1) for n in occ)
            + sum(_xlogy(n, e) for n, e in zip(occ, eta2)) + p.M * math.log(rest))


@hs.composite
def eta_vectors(draw, top):
    """1 to 3 strictly positive components whose squares sum to at most ``top``."""
    weights = draw(hs.lists(hs.floats(0.05, 1.0), min_size=1, max_size=3))
    total = draw(hs.floats(0.05, top))
    return tuple(math.sqrt(total * w / sum(weights)) for w in weights)


@hs.composite
def specs(draw):
    family = draw(hs.sampled_from(("coherent", "binomial", "neg_binomial", "multinomial",
                                   "neg_multinomial")))
    if family == "coherent":
        params = dist.PoissonParams(draw(hs.floats(0.01, 30.0)))
    elif family == "binomial":
        params = dist.BinomialParams(draw(hs.floats(0.0, 1.0)), draw(hs.integers(1, 40)))
    elif family == "neg_binomial":
        params = dist.NegBinomialParams(draw(hs.floats(0.0, 0.9)), draw(hs.floats(0.1, 20.0)))
    elif family == "multinomial":
        params = dist.MultinomialParams(draw(eta_vectors(0.95)), draw(hs.integers(1, 8)))
    else:
        params = dist.NegMultinomialParams(draw(eta_vectors(0.4)), draw(hs.floats(0.1, 3.0)))
    spec = StateSpec(family, params)
    phases = draw(hs.lists(hs.floats(-math.pi, math.pi), min_size=spec.phase_count,
                           max_size=spec.phase_count))
    return StateSpec(family, params, tuple(phases))


@given(specs())
def test_modulus_square_is_the_counting_law(spec):
    psi = build_state(spec)
    for occ, amp in zip(psi.basis.states, psi.amplitudes):
        pmf = math.exp(reference_log_pmf(spec.family, spec.params, occ))
        if pmf > 1e-250:
            assert math.isclose(abs(amp) ** 2, pmf, rel_tol=1e-10), (occ, abs(amp) ** 2, pmf)
        else:
            assert abs(amp) ** 2 <= 1e-240, occ


LIMITS = {"per_mode": {1: 40, 2: 12, 3: 5}, "total": {1: 40, 2: 15, 3: 8},
          "shell": {1: 40, 2: 40, 3: 15}}


@hs.composite
def states(draw):
    modes = draw(hs.integers(1, 3))
    kind = draw(hs.sampled_from(sorted(LIMITS)))
    basis = enumerate_basis(modes, Cutoff(kind, draw(hs.integers(0, LIMITS[kind][modes]))))
    amplitude = hs.one_of(hs.just(0j), hs.complex_numbers(allow_nan=False,
                                                          allow_infinity=False))
    amps = draw(hs.lists(amplitude, min_size=len(basis), max_size=len(basis)))
    return StateVector(basis, np.array(amps, dtype=complex))


@given(states())
def test_state_json_round_trip_is_exact(psi):
    back = state_from_json_dict(json.loads("".join(cli._state_pieces(psi))))
    assert back.basis == psi.basis
    assert np.array_equal(back.amplitudes, psi.amplitudes)
