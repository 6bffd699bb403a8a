import cmath
import math

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
    neg_binomial_log_pmf,
    neg_binomial_pmf,
    neg_multinomial_log_pmf,
    neg_multinomial_pmf,
    poisson_log_pmf,
    poisson_pmf,
)
from fockbench.fock import Cutoff, enumerate_basis, fidelity
from fockbench.states import (
    StateSpec,
    auto_basis,
    binomial_state,
    build_state,
    coherent_state,
    mean_occupation,
    multinomial_state,
    neg_binomial_state,
    neg_multinomial_state,
    number_distribution,
    occupation_variance,
    quantum_gf,
)


def _spec(family, params, phases=None):
    return StateSpec(family, params, phases if phases is not None else ())


def test_modulus_square_law_all_families():
    # every state family is the square root of its counting law, phase by phase
    cases = [
        ("coherent", PoissonParams(1.3), (0.7,), poisson_pmf),
        ("binomial", BinomialParams(0.35, 5), (0.2,), binomial_pmf),
        ("neg_binomial", NegBinomialParams(0.45, 2.5), (1.1,), neg_binomial_pmf),
    ]
    for family, params, phases, pmf in cases:
        spec = StateSpec(family, params, phases)
        psi = build_state(spec)
        for occ, amp in zip(psi.basis.states, psi.amplitudes):
            if abs(amp) ** 2 > 1e-18:
                assert abs(amp) ** 2 == pytest.approx(pmf(params, occ[0]), rel=1e-12)


def test_modulus_square_law_multimode():
    mp = MultinomialParams((math.sqrt(0.3), math.sqrt(0.2)), 4)
    psi = build_state(StateSpec("multinomial", mp, (0.4, 0.9)))
    for occ, amp in zip(psi.basis.states, psi.amplitudes):
        assert abs(amp) ** 2 == pytest.approx(multinomial_pmf(mp, occ[1:]), rel=1e-12)

    np_ = NegMultinomialParams((math.sqrt(0.2), math.sqrt(0.1)), 2.0)
    psi = build_state(StateSpec("neg_multinomial", np_, (0.4, 0.9)))
    for occ, amp in zip(psi.basis.states, psi.amplitudes):
        if abs(amp) ** 2 > 1e-20:
            assert abs(amp) ** 2 == pytest.approx(neg_multinomial_pmf(np_, occ), rel=1e-10)


def test_coherent_amplitude_value():
    # alpha = e^{i pi/2}, so <1|alpha> = i e^{-1/2}
    spec = StateSpec("coherent", PoissonParams(1.0), (math.pi / 2,))
    psi = build_state(spec)
    expect = 1j * math.exp(-0.5)
    assert abs(psi.amplitude((1,)) - expect) < 1e-14


def test_phase_covariance_exact():
    # amplitudes at phase theta are the theta=0 amplitudes times e^{i n theta}, bit for bit
    theta = 0.9
    base = build_state(StateSpec("neg_binomial", NegBinomialParams(0.4, 2.0), (0.0,)))
    rot = build_state(StateSpec("neg_binomial", NegBinomialParams(0.4, 2.0), (theta,)),
                      basis=base.basis)
    for occ, a0, at in zip(base.basis.states, base.amplitudes, rot.amplitudes):
        assert at == a0 * cmath.exp(1j * occ[0] * theta)


def test_norm_close_to_one():
    for family, params in (
        ("coherent", PoissonParams(2.0)),
        ("neg_binomial", NegBinomialParams(0.5, 3.0)),
        ("neg_multinomial", NegMultinomialParams((0.4, 0.3), 2.0)),
    ):
        psi = build_state(_spec(family, params))
        assert abs(psi.norm2() - 1.0) < 1e-10


def test_binomial_and_multinomial_norm_exact():
    # finite supports truncate nothing, so the norm deficit is pure roundoff
    psi = build_state(_spec("binomial", BinomialParams(0.3, 6)))
    assert abs(psi.norm2() - 1.0) < 1e-14
    psi = build_state(_spec("multinomial", MultinomialParams((0.5, 0.5), 3)))
    assert abs(psi.norm2() - 1.0) < 1e-14


def test_binomial_state_ignores_excess_headroom():
    # amplitudes above n = M must vanish identically in an oversized basis
    params = BinomialParams(0.4, 3)
    big = enumerate_basis(1, Cutoff.per_mode(10))
    psi = build_state(_spec("binomial", params), basis=big)
    for occ, amp in zip(big.states, psi.amplitudes):
        if occ[0] > 3:
            assert amp == 0.0


def test_multinomial_requires_full_shell():
    params = MultinomialParams((0.5, 0.5), 3)
    small = enumerate_basis(3, Cutoff.shell(2))
    with pytest.raises(ValueError):
        build_state(_spec("multinomial", params), basis=small)


def test_binomial_requires_levels_up_to_M():
    params = BinomialParams(0.4, 5)
    for cutoff in (Cutoff.per_mode(4), Cutoff.shell(5)):
        with pytest.raises(ValueError):
            build_state(_spec("binomial", params), basis=enumerate_basis(1, cutoff))


def test_family_constructors_refuse_other_families():
    spec = _spec("neg_binomial", NegBinomialParams(0.4, 2.0))
    basis = auto_basis(spec)
    for constructor in (coherent_state, binomial_state, multinomial_state, neg_multinomial_state):
        with pytest.raises(ValueError):
            constructor(spec, basis)
    np.testing.assert_array_equal(neg_binomial_state(spec, basis).amplitudes,
                                  build_state(spec, basis).amplitudes)


def test_one_rule_matches_per_state_loop():
    # the per-state formula amplitude = sqrt(pmf(counts)) e^{i counts . theta},
    # evaluated one basis state at a time with the scalar log-pmfs
    cases = [
        ("coherent", PoissonParams(3.1), (2.2,), enumerate_basis(1, Cutoff.per_mode(30)),
         poisson_log_pmf, lambda occ: occ[0], lambda occ: True),
        ("binomial", BinomialParams(0.35, 9), (5.9,), enumerate_basis(1, Cutoff.per_mode(14)),
         binomial_log_pmf, lambda occ: occ[0], lambda occ: occ[0] <= 9),
        ("neg_binomial", NegBinomialParams(0.55, 1.7), (4.4,),
         enumerate_basis(1, Cutoff.per_mode(80)),
         neg_binomial_log_pmf, lambda occ: occ[0], lambda occ: True),
        ("multinomial", MultinomialParams((0.5, 0.4, 0.3), 12), (1.3, 6.1, 3.7),
         enumerate_basis(4, Cutoff.total(13)),
         multinomial_log_pmf, lambda occ: occ[1:], lambda occ: sum(occ) == 12),
        ("neg_multinomial", NegMultinomialParams((0.5, 0.4, 0.3), 1.5), (1.3, 6.1, 3.7),
         enumerate_basis(3, Cutoff.total(60)),
         neg_multinomial_log_pmf, lambda occ: occ, lambda occ: True),
    ]
    for family, params, phases, basis, log_pmf, counts_of, in_support in cases:
        psi = build_state(StateSpec(family, params, phases), basis=basis)
        for occ, amp in zip(basis.states, psi.amplitudes):
            counts = counts_of(occ)
            expect = 0.0
            if in_support(occ):
                expect = (math.exp(0.5 * log_pmf(params, counts))
                          * cmath.exp(1j * float(np.dot(np.atleast_1d(counts), phases))))
            assert abs(amp - expect) <= 1e-15, (family, occ)


def test_auto_basis_covers_tail():
    spec = _spec("neg_binomial", NegBinomialParams(0.6, 2.5))
    basis = auto_basis(spec, tail_tol=1e-12)
    psi = build_state(spec, basis=basis)
    assert 1.0 - psi.norm2() < 1e-12


def test_phase_count_validation():
    with pytest.raises(ValueError):
        StateSpec("coherent", PoissonParams(1.0), (0.1, 0.2))
    with pytest.raises(ValueError):
        StateSpec("multinomial", MultinomialParams((0.5, 0.5), 2), (0.1,))
    with pytest.raises(ValueError):
        StateSpec("unknown_family", PoissonParams(1.0), ())


def test_number_distribution_matches_amplitudes():
    spec = _spec("neg_binomial", NegBinomialParams(0.5, 2.0))
    psi = build_state(spec)
    nd = number_distribution(psi)
    assert nd.probabilities.sum() == pytest.approx(psi.norm2(), abs=1e-14)
    assert nd.deficit == pytest.approx(1.0 - psi.norm2(), abs=1e-14)
    k = nd.basis.index_of((2,))
    assert nd.probabilities[k] == pytest.approx(
        neg_binomial_pmf(NegBinomialParams(0.5, 2.0), 2), rel=1e-12
    )


def test_quantum_gf_closed_form():
    eta2, M = 0.4, 2.5
    spec = _spec("neg_binomial", NegBinomialParams(eta2, M))
    basis = auto_basis(spec, tail_tol=1e-15)
    psi = build_state(spec, basis=basis, tail_tol=1e-15)
    for t in (0.0, 0.5, 1.0):
        expect = ((1 - eta2) / (1 - eta2 * t)) ** M
        assert quantum_gf(psi, t) == pytest.approx(expect, abs=2e-13)


def test_quantum_gf_at_zero_gives_vacuum_weight():
    spec = _spec("coherent", PoissonParams(1.5))
    psi = build_state(spec)
    assert quantum_gf(psi, 0.0) == pytest.approx(math.exp(-1.5), rel=1e-12)


def test_mean_and_variance():
    # second moments feel the truncation tail, so cut deeper than the default
    eta2, M = 0.25, 2
    spec = _spec("neg_binomial", NegBinomialParams(eta2, M))
    psi = build_state(spec, basis=auto_basis(spec, tail_tol=1e-16, guard=10))
    assert mean_occupation(psi) == pytest.approx(M * eta2 / (1 - eta2), rel=1e-12)
    assert occupation_variance(psi) == pytest.approx(M * eta2 / (1 - eta2) ** 2, rel=1e-12)


def test_multiple_coherent_limit_of_multinomial():
    # large M with eta ~ alpha/sqrt(M) approaches the product coherent state
    alpha = (0.6, 0.4)
    a2 = sum(a * a for a in alpha)
    fids = []
    for M in (8, 32, 128):
        eta = tuple(a / math.sqrt(M) for a in alpha)
        ms = build_state(_spec("multinomial", MultinomialParams(eta, M)))
        # compare the reduced number law on modes 1..r with independent Poissons
        probs = {}
        for occ, amp in zip(ms.basis.states, ms.amplitudes):
            probs[occ[1:]] = probs.get(occ[1:], 0.0) + abs(amp) ** 2
        dist = 0.0
        for occ, p in probs.items():
            q = 1.0
            for a, n in zip(alpha, occ):
                q *= poisson_pmf(PoissonParams(a * a), n)
            dist += abs(p - q)
        fids.append(dist)
    assert fids[0] > fids[1] > fids[2]
    assert fids[-1] < 0.02


def test_multinomial_reduces_to_binomial():
    eta2 = 0.35
    M = 4
    ms = build_state(_spec("multinomial", MultinomialParams((math.sqrt(eta2),), M)))
    bs = build_state(_spec("binomial", BinomialParams(eta2, M)))
    # the shell state on (n0, n1) carries the same law as the reduced state on n
    for occ, amp in zip(ms.basis.states, ms.amplitudes):
        assert abs(amp) ** 2 == pytest.approx(
            abs(bs.amplitude((occ[1],))) ** 2, rel=1e-12
        )


def test_coherent_two_ways_agree():
    spec = _spec("coherent", PoissonParams(1.7), (0.3,))
    basis = auto_basis(spec)
    a = coherent_state(spec, basis)
    b = build_state(spec, basis=basis)
    assert fidelity(a, b) == pytest.approx(1.0, abs=1e-14)
