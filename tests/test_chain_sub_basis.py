"""Sequential chains run each step on the modes it has filled.

The pump runs on the 1-mode basis of the caller's cutoff and transfer j on
the (j+1)-mode one, with the state widened by an empty mode in between.  The
reference below is the chain run on the caller's whole basis at every step.
Every step's generator keeps the states with empty trailing modes among
themselves, so on a total cutoff the two agree bit for bit; on a per-mode
cutoff the whole basis has larger column sums at states the chain never
reaches, a larger Chebyshev norm and so other roundoff.
"""

import cmath
import math
import re

import numpy as np
import pytest

from fockbench import generation
from fockbench.algebra import _hp_weight
from fockbench.fock import Cutoff, _monomial, apply_skew_exponential, enumerate_basis, vacuum_state
from fockbench.generation import _rotation_angles, sequential_ms, sequential_nms


def _full_basis_chain(eta, thetas, M, basis, compact):
    """The chain with every step on ``basis`` itself."""
    strength = math.sqrt(sum(e * e for e in eta))
    pump_angle = math.asin(strength) if compact else math.atanh(strength)
    phases = [thetas[0]] + [thetas[j] - thetas[j - 1] for j in range(1, len(thetas))]
    pump = _monomial(basis, create=(0,), weight=_hp_weight(M, compact))
    psi = apply_skew_exponential(pump_angle * cmath.exp(1j * phases[0]), pump, vacuum_state(basis))
    for j, angle in enumerate(_rotation_angles(eta), start=1):
        transfer = _monomial(basis, create=(j,), destroy=(j - 1,))
        psi = apply_skew_exponential(angle * cmath.exp(1j * phases[j]), transfer, psi)
    return psi


def _draws(rank, cutoff, seed):
    """Three (eta, thetas, real M, whole M) draws for one rank and cutoff."""
    rng = np.random.default_rng([rank, cutoff, seed])
    for _ in range(3):
        shares = rng.dirichlet(np.ones(rank)) * rng.uniform(0.05, 0.9)
        eta = tuple(float(e) for e in np.sqrt(shares))
        thetas = tuple(float(t) for t in rng.uniform(-math.pi, math.pi, rank))
        yield eta, thetas, float(rng.uniform(0.3, 5.0)), int(rng.integers(1, cutoff + 1))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("cutoff", [4, 8, 12, 16, 20])
def test_chains_on_total_cutoffs_match_the_full_basis_loop_bit_for_bit(rank, cutoff):
    basis = enumerate_basis(rank, Cutoff.total(cutoff))
    for eta, thetas, real_M, whole_M in _draws(rank, cutoff, 0):
        psi = sequential_nms(eta, thetas, real_M, basis)
        assert psi.basis is basis
        assert np.array_equal(psi.amplitudes,
                              _full_basis_chain(eta, thetas, real_M, basis, False).amplitudes)
        psi = sequential_ms(eta, thetas, whole_M, basis)
        assert psi.basis is basis
        assert np.array_equal(psi.amplitudes,
                              _full_basis_chain(eta, thetas, whole_M, basis, True).amplitudes)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("cutoff", [3, 5, 8])
def test_chains_on_per_mode_cutoffs_match_the_full_basis_loop_within_1e_15(rank, cutoff):
    basis = enumerate_basis(rank, Cutoff.per_mode(cutoff))
    for eta, thetas, real_M, whole_M in _draws(rank, cutoff, 1):
        for M, compact, chain in ((real_M, False, sequential_nms), (whole_M, True, sequential_ms)):
            psi = chain(eta, thetas, M, basis)
            reference = _full_basis_chain(eta, thetas, M, basis, compact)
            assert np.abs(psi.amplitudes - reference.amplitudes).max() <= 1e-15


def test_each_step_of_a_rank_three_chain_runs_on_the_modes_it_has_filled(monkeypatch):
    sizes = []

    def spy(zeta, raising, psi):
        sizes.append((len(raising.basis), len(psi.basis)))
        return apply_skew_exponential(zeta, raising, psi)

    monkeypatch.setattr(generation, "apply_skew_exponential", spy)
    basis = enumerate_basis(3, Cutoff.total(20))
    eta = tuple(math.sqrt(e) for e in (0.09, 0.06, 0.05))
    assert sequential_nms(eta, (0.2, 0.9, 1.7), 2.0, basis).basis is basis
    assert sizes == [(21, 21), (231, 231), (1771, 1771)]


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_a_basis_without_the_vacuum_is_refused_by_the_callers_vacuum(modes):
    shell = enumerate_basis(modes, Cutoff.shell(3))
    vacuum = (0,) * modes
    with pytest.raises(ValueError, match=f"^occupation {re.escape(str(vacuum))} is not in the "
                                         f"basis$"):
        sequential_nms((0.4, 0.3, 0.2)[:modes], (0.0,) * modes, 2.0, shell)
