import cmath
import math
import re
import time

import mpmath
import numpy as np
import pytest

from fockbench import fock
from fockbench.algebra import su2_hp, su11_hp
from fockbench.distributions import (
    BinomialParams,
    MultinomialParams,
    NegBinomialParams,
    NegMultinomialParams,
    binomial_pmf,
    neg_binomial_pmf,
)
from fockbench.fock import (
    Cutoff,
    StateVector,
    _rotation,
    basis_state,
    enumerate_basis,
    fidelity,
    op_skew_exponential,
)
from fockbench.generation import (
    ClassicalCurrent,
    TwoLevelDrive,
    coherent_amplitude,
    contraction_check,
    disentangled_product,
    disentangling_identity_check,
    displacement_state,
    displacement_zeta,
    dynamical_binomial,
    dynamical_binomial_target,
    dynamical_coherent,
    exp_form_state,
    operator_identity_check,
    path_equivalence,
    sequential_ms,
    sequential_nms,
)
from fockbench.states import StateSpec, auto_basis, build_state


# --- ladder-weight operator identity -----------------------------------------

def test_operator_identity_noncompact():
    reports = operator_identity_check(3.0, 4, variant="su11")
    assert reports[0]["residual"] == 0.0  # n = 0 compares vacua
    assert max(r["residual"] for r in reports) <= 1e-13


def test_operator_identity_compact_vanishes_beyond_top():
    # with the sqrt(M - N) weight the chain must die at n > M instead of erroring
    reports = operator_identity_check(3, 4, variant="su2")
    assert max(r["residual"] for r in reports) <= 1e-13
    assert reports[-1]["n"] == 4


def test_operator_identity_rejects_unknown_variant():
    with pytest.raises(ValueError):
        operator_identity_check(2.0, 3, variant="so3")


# --- exponential form ---------------------------------------------------------

def test_exp_form_matches_series_constructor():
    spec = StateSpec("neg_binomial", NegBinomialParams(0.25, 2), ())
    basis = auto_basis(spec, tail_tol=1e-14)
    series = build_state(spec, basis=basis, tail_tol=1e-14)
    exp_form = exp_form_state(su11_hp(basis, 2.0), 0.5)
    assert fidelity(exp_form, series) >= 1 - 1e-10


def test_exp_form_two_level_rotation():
    basis = enumerate_basis(1, Cutoff.per_mode(1))
    psi = exp_form_state(su2_hp(basis, 1), 1 / math.sqrt(2))
    np.testing.assert_allclose(psi.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-14)


def test_exp_form_zero_parameter_is_vacuum():
    basis = enumerate_basis(1, Cutoff.per_mode(6))
    psi = exp_form_state(su11_hp(basis, 2.0), 0.0)
    assert abs(psi.amplitude((0,)) - 1.0) < 1e-15
    assert abs(psi.norm2() - 1.0) < 1e-15


def test_exp_form_rejects_unit_disk_boundary():
    basis = enumerate_basis(1, Cutoff.per_mode(6))
    with pytest.raises(ValueError):
        exp_form_state(su11_hp(basis, 2.0), 1.0)


def test_exp_form_matches_series_entrywise_on_an_80_state_basis():
    # exp(eta K+) is nilpotent on the truncated basis, so its series takes one
    # pass and each level gets its single term, with no substep rounding
    spec = StateSpec("neg_binomial", NegBinomialParams(0.6, 2.5), (0.7,))
    basis = auto_basis(spec, tail_tol=1e-12, guard=16)
    assert len(basis) == 80
    series = build_state(spec, basis=basis)
    exp_form = exp_form_state(su11_hp(basis, 2.5), math.sqrt(0.6) * cmath.exp(0.7j))
    assert np.abs(exp_form.amplitudes - series.amplitudes).max() <= 1e-14


# --- displacement form --------------------------------------------------------

def test_displacement_parameter_maps():
    assert displacement_zeta("su11", 0.5, 0.0) == pytest.approx(math.atanh(0.5))
    z = displacement_zeta("su2", 0.6, 0.7)
    assert abs(z) == pytest.approx(math.atan2(0.6, math.sqrt(1 - 0.36)))
    assert cmath.phase(z) == pytest.approx(0.7)


def test_displacement_reproduces_noncompact_state():
    eta2, M, theta = 0.3, 2.0, 0.8
    spec = StateSpec("neg_binomial", NegBinomialParams(eta2, M), (theta,))
    basis = auto_basis(spec, tail_tol=1e-14, guard=16)
    target = build_state(spec, basis=basis, tail_tol=1e-14)
    psi = displacement_state(su11_hp(basis, M), math.sqrt(eta2), theta)
    assert fidelity(psi, target) >= 1 - 1e-8


def test_displacement_reproduces_compact_state():
    eta2, M, theta = 0.4, 3, 0.8
    spec = StateSpec("binomial", BinomialParams(eta2, M), (theta,))
    basis = enumerate_basis(1, Cutoff.per_mode(M))
    target = build_state(spec, basis=basis)
    psi = displacement_state(su2_hp(basis, M), math.sqrt(eta2), theta)
    assert fidelity(psi, target) >= 1 - 1e-10


def test_displacement_zero_is_vacuum():
    basis = enumerate_basis(1, Cutoff.per_mode(5))
    psi = displacement_state(su11_hp(basis, 1.5), 0.0)
    assert abs(psi.amplitude((0,)) - 1.0) < 1e-14


def test_displacement_flags_truncation_leak():
    # strong squeeze on a tiny basis pushes weight off the top: must be loud
    basis = enumerate_basis(1, Cutoff.per_mode(3))
    with pytest.raises(ValueError):
        displacement_state(su11_hp(basis, 2.0), 0.95)


# --- disentangling ------------------------------------------------------------

def test_disentangling_identity_two_level():
    basis = enumerate_basis(1, Cutoff.per_mode(1))
    real = su2_hp(basis, 1)
    rep = disentangling_identity_check(real, 0.35)
    assert rep["max_residual"] <= 1e-12
    rep = disentangling_identity_check(real, 0.3 + 0.4j)
    assert rep["max_residual"] <= 1e-12


def test_disentangling_identity_higher_blocks():
    for M in (2, 4):
        basis = enumerate_basis(1, Cutoff.per_mode(M))
        rep = disentangling_identity_check(su2_hp(basis, M), 0.8 + 0.2j)
        assert rep["max_residual"] <= 1e-12


@pytest.mark.parametrize("zeta", [19.5, -19.5j, 1e300], ids=["19.5", "-19.5j", "1e300"])
def test_su11_disentangling_refuses_a_zeta_whose_tanh_rounds_to_one(zeta):
    # tanh|zeta| rounds to 1 above |zeta| = 19.0615: ln(1 - |tau|^2) was a math domain error
    real = su11_hp(enumerate_basis(1, Cutoff.per_mode(6)), 2.0)
    message = rf"zeta = {re.escape(repr(complex(zeta)))} is too large .*tanh\|zeta\| rounds to 1"
    for check in (disentangled_product, disentangling_identity_check):
        with pytest.raises(ValueError, match=message):
            check(real, zeta)


def test_su11_disentangling_runs_just_below_the_rounding_edge():
    real = su11_hp(enumerate_basis(1, Cutoff.per_mode(6)), 2.0)
    assert math.tanh(19.06) < 1.0
    assert math.isfinite(disentangling_identity_check(real, 19.06)["max_residual"])


def test_disentangling_identity_noncompact():
    # hyperbolic version; truncation noise confined to the boundary rows
    basis = enumerate_basis(1, Cutoff.per_mode(40))
    real = su11_hp(basis, 2.0)
    fac = disentangled_product(real, 0.4 + 0.1j)
    psi = StateVector(basis, fac @ basis_state(basis, (0,)).amplitudes)
    spec = StateSpec("neg_binomial", NegBinomialParams(math.tanh(abs(0.4 + 0.1j)) ** 2, 2.0),
                     (cmath.phase(0.4 + 0.1j),))
    target = build_state(spec, basis=basis)
    assert fidelity(psi, target) >= 1 - 1e-10


def _mpmath_whole(real, zeta):
    """exp(zeta J+ - zeta* J-) of a realization by mpmath.expm at 40 digits, rounded to complex."""
    dense = _rotation(zeta, real.op("J+")).toarray()
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(dense.tolist())).tolist(), dtype=complex)


@pytest.mark.parametrize("M", [1, 2, 4, 8])
def test_whole_rotation_and_three_factor_product_match_mpmath(M):
    # the disentangle suite's zetas; at M = 8, zeta = 1.1i (|tau| = tan 1.1) the
    # product cancels its large factors and carries most of the error
    real = su2_hp(enumerate_basis(1, Cutoff.per_mode(M)), M)
    for zeta in (0.35, 0.3 + 0.4j, 1.1j, -0.8 + 0.2j):
        reference = _mpmath_whole(real, zeta)
        whole = op_skew_exponential(zeta, real.op("J+"))
        assert np.abs(whole - reference).max() <= 5e-16, zeta
        if M == 8 and zeta == 1.1j:
            assert np.abs(disentangled_product(real, zeta) - reference).max() <= 4e-12


def test_disentangled_product_zero_is_identity():
    basis = enumerate_basis(1, Cutoff.per_mode(4))
    prod = disentangled_product(su2_hp(basis, 4), 0.0)
    np.testing.assert_allclose(prod, np.eye(5), atol=0)


# --- route equivalence --------------------------------------------------------

def test_path_equivalence_noncompact():
    rep = path_equivalence("neg_binomial", 0.3, 2.5, theta=0.6)
    assert rep["fidelity_exp_vs_series"] >= 1 - 1e-8
    assert rep["fidelity_disp_vs_series"] >= 1 - 1e-8
    assert rep["fidelity_disp_vs_exp"] >= 1 - 1e-8
    assert rep["norm_leakage"] < 1e-8


def test_path_equivalence_near_critical_exp_route_is_exact_to_roundoff():
    rep = path_equivalence("neg_binomial", 0.97, 2.0)
    assert rep["cutoff"] == 1036
    assert 1 - rep["fidelity_exp_vs_series"] <= 1e-14


def test_path_equivalence_compact():
    rep = path_equivalence("binomial", 0.4, 5, theta=0.2)
    assert rep["fidelity_exp_vs_series"] >= 1 - 1e-10
    assert rep["fidelity_disp_vs_series"] >= 1 - 1e-10


# --- sequential chains --------------------------------------------------------

def test_sequential_chain_noncompact_rank_two():
    eta2 = (0.2, 0.1)
    thetas = (0.4, 0.9)
    eta = tuple(math.sqrt(e) for e in eta2)
    spec = StateSpec("neg_multinomial", NegMultinomialParams(eta, 2.0), thetas)
    basis = auto_basis(spec, tail_tol=1e-12, guard=6)
    target = build_state(spec, basis=basis)
    psi = sequential_nms(eta, thetas, 2.0, basis)
    assert fidelity(psi, target) >= 1 - 1e-8


def test_sequential_chain_intermediate_is_rank_one():
    # after the pump alone the first mode carries the full-strength rank-one law
    eta = (math.sqrt(0.3), 0.0)
    spec = StateSpec("neg_multinomial", NegMultinomialParams((0.4, 0.3), 2.0), ())
    basis = auto_basis(spec, tail_tol=1e-12, guard=6)
    psi = sequential_nms(eta, (0.0, 0.0), 2.0, basis)
    marginal = {}
    for occ, amp in zip(basis.states, psi.amplitudes):
        marginal[occ[0]] = marginal.get(occ[0], 0.0) + abs(amp) ** 2
    ref = NegBinomialParams(0.3, 2.0)
    for n in range(10):
        assert marginal.get(n, 0.0) == pytest.approx(neg_binomial_pmf(ref, n), abs=1e-10)


def test_sequential_chain_noncompact_rank_three():
    eta2 = (0.06, 0.03, 0.03)
    thetas = (0.3, 0.7, 1.1)
    eta = tuple(math.sqrt(e) for e in eta2)
    spec = StateSpec("neg_multinomial", NegMultinomialParams(eta, 2.0), thetas)
    basis = auto_basis(spec, tail_tol=1e-12, guard=6)
    target = build_state(spec, basis=basis)
    psi = sequential_nms(eta, thetas, 2.0, basis)
    assert fidelity(psi, target) >= 1 - 1e-8


def test_sequential_chain_rank_three_large_basis():
    # d = C(43, 3) = 12341: past the size a dense d x d operator could hold
    eta2 = (0.09, 0.06, 0.05)
    thetas = (0.2, 0.9, 1.7)
    eta = tuple(math.sqrt(e) for e in eta2)
    basis = enumerate_basis(3, Cutoff.total(40))
    assert len(basis) == 12341
    psi = sequential_nms(eta, thetas, 2.0, basis)
    assert abs(psi.norm2() - 1.0) <= 1e-12
    spec = StateSpec("neg_multinomial", NegMultinomialParams(eta, 2.0), thetas)
    assert fidelity(psi, build_state(spec, basis=basis)) >= 1 - 1e-8


def test_sequential_chain_compact():
    for eta2, thetas in (((0.3, 0.2), (0.4, 0.9)), ((0.3, 0.2, 0.1), (0.2, 0.5, 0.8))):
        eta = tuple(math.sqrt(e) for e in eta2)
        r = len(eta)
        M = 2
        spec = StateSpec("multinomial", MultinomialParams(eta, M), thetas)
        shell = enumerate_basis(r + 1, Cutoff.shell(M))
        target = build_state(spec, basis=shell)
        reduced = enumerate_basis(r, Cutoff.total(M))
        psi = sequential_ms(eta, thetas, M, reduced)
        # transcribe the shell target into the reduced picture for comparison
        amps = np.array([target.amplitudes[shell.index_of((M - sum(occ),) + occ)]
                         for occ in reduced.states])
        overlap = abs(np.vdot(psi.amplitudes, amps))
        assert overlap >= 1 - 1e-10


def test_sequential_chain_rejects_zero_lead():
    basis = enumerate_basis(2, Cutoff.total(8))
    with pytest.raises(ValueError):
        sequential_nms((0.0, 0.4), (0.0, 0.0), 2.0, basis)


def test_sequential_chain_rejects_overstrength():
    basis = enumerate_basis(2, Cutoff.total(8))
    with pytest.raises(ValueError):
        sequential_nms((0.8, 0.7), (0.0, 0.0), 2.0, basis)


_CHAIN_BASIS = enumerate_basis(2, Cutoff.total(8))


@pytest.mark.parametrize("build, message", [
    (lambda: sequential_nms((0.4, 0.3), (0.0, 0.0), math.inf, _CHAIN_BASIS),
     "M must be a finite number, got inf"),
    (lambda: sequential_nms((0.4, 0.3), (0.0, 0.0), math.nan, _CHAIN_BASIS),
     "M must be a finite number, got nan"),
    (lambda: sequential_ms((0.4, 0.3), (0.0, 0.0), math.inf, _CHAIN_BASIS),
     "M must be an integer in [1, inf], got inf"),
    (lambda: sequential_ms((0.4, 0.3), (0.0, 0.0), math.nan, _CHAIN_BASIS),
     "M must be an integer in [1, inf], got nan"),
    (lambda: sequential_nms((0.4, 0.3), (math.nan, 0.0), 2.0, _CHAIN_BASIS),
     "thetas must be a finite number, got nan"),
    (lambda: sequential_nms((0.4, 0.3), (0.0, math.inf), 2.0, _CHAIN_BASIS),
     "thetas must be a finite number, got inf"),
    (lambda: sequential_ms((0.4, 0.3), (-math.inf, 0.0), 8, _CHAIN_BASIS),
     "thetas must be a finite number, got -inf"),
    (lambda: sequential_nms((0.4, math.nan), (0.0, 0.0), 2.0, _CHAIN_BASIS),
     "eta must be a finite number, got nan"),
    (lambda: sequential_nms((math.nan, 0.3), (0.0, 0.0), 2.0, _CHAIN_BASIS),
     "eta must be a finite number, got nan"),
    (lambda: sequential_ms((math.inf, 0.3), (0.0, 0.0), 8, _CHAIN_BASIS),
     "eta must be a finite number, got inf"),
    (lambda: ClassicalCurrent(((0.0, 1.0, 0.5),), math.nan),
     "omega must be a finite number, got nan"),
    (lambda: ClassicalCurrent(((0.0, 1.0, 0.5),), math.inf),
     "omega must be a finite number, got inf"),
    (lambda: ClassicalCurrent(((0.0, 1.0, complex(0.5, math.nan)),), 1.0),
     "segments must be a finite number, got nan"),
    (lambda: ClassicalCurrent(((0.0, math.inf, 0.5),), 1.0),
     "segments must be a finite number, got inf"),
    (lambda: TwoLevelDrive(math.nan), "eta must be a finite number, got nan"),
    (lambda: TwoLevelDrive(math.inf), "eta must be a finite number, got inf"),
    (lambda: TwoLevelDrive(1.0, math.nan), "theta must be a finite number, got nan"),
    (lambda: dynamical_binomial(TwoLevelDrive(1.0), math.inf, 2),
     "t must be a finite number, got inf"),
    (lambda: dynamical_coherent(ClassicalCurrent(((0.0, 1.0, 0.5),), 0.0), math.nan,
                                enumerate_basis(1, Cutoff.per_mode(8))),
     "t must be a finite number, got nan"),
])
def test_generator_inputs_refuse_non_finite_values_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# --- dynamical generation -----------------------------------------------------

def test_two_level_evolution_half_transfer():
    # quarter-period pulse splits one excitation evenly across the two modes
    drive = TwoLevelDrive(eta=1.0)
    psi = dynamical_binomial(drive, math.pi / 4, 1)
    assert abs(abs(psi.amplitude((1, 0))) - 1 / math.sqrt(2)) < 1e-12
    assert abs(abs(psi.amplitude((0, 1))) - 1 / math.sqrt(2)) < 1e-12
    target = dynamical_binomial_target(drive, math.pi / 4, 1)
    assert fidelity(psi, target) >= 1 - 1e-10


def test_two_level_evolution_number_law():
    drive = TwoLevelDrive(eta=1.0, theta=0.0)
    t, M = 0.5, 3
    psi = dynamical_binomial(drive, t, M)
    law = BinomialParams(math.sin(t) ** 2, M)
    for occ, amp in zip(psi.basis.states, psi.amplitudes):
        n = occ[1]
        assert abs(amp) ** 2 == pytest.approx(binomial_pmf(law, n), abs=1e-12)


def test_two_level_evolution_starts_at_source():
    drive = TwoLevelDrive(eta=0.7, theta=0.3)
    psi = dynamical_binomial(drive, 0.0, 4)
    assert abs(psi.amplitude((4, 0)) - 1.0) < 1e-14


def test_two_level_target_tracks_phase():
    drive = TwoLevelDrive(eta=0.9, theta=1.1)
    t = 0.8
    psi = dynamical_binomial(drive, t, 2)
    target = dynamical_binomial_target(drive, t, 2)
    assert fidelity(psi, target) >= 1 - 1e-10


def test_classical_current_zero_driving_stays_vacuum():
    cur = ClassicalCurrent(segments=((0.0, 1.0, 0.0),), omega=0.9)
    basis = enumerate_basis(1, Cutoff.per_mode(8))
    psi = dynamical_coherent(cur, 1.0, basis)
    assert abs(abs(psi.amplitude((0,))) - 1.0) < 1e-12


def test_classical_current_static_segment():
    # omega = 0, constant current j: alpha(t) = -i j t
    j = 0.4 - 0.3j
    cur = ClassicalCurrent(segments=((0.0, 2.0, j),), omega=0.0)
    assert coherent_amplitude(cur, 1.5) == pytest.approx(-1j * j * 1.5, abs=1e-15)
    basis = enumerate_basis(1, Cutoff.per_mode(20))
    psi = dynamical_coherent(cur, 1.5, basis)
    alpha = -1j * j * 1.5
    from fockbench.distributions import PoissonParams
    spec = StateSpec("coherent", PoissonParams(abs(alpha) ** 2), (cmath.phase(alpha),))
    target = build_state(spec, basis=basis)
    assert fidelity(psi, target) >= 1 - 1e-8


def test_classical_current_accumulates_across_segments():
    cur = ClassicalCurrent(
        segments=((0.0, 0.7, 0.9 + 0.4j), (0.7, 1.5, -0.3 + 1.1j)), omega=1.3
    )
    # analytic antiderivative, segment by segment
    def alpha_ref(t):
        total = 0.0 + 0.0j
        for (t0, t1, j) in cur.segments:
            hi = min(t, t1)
            if hi <= t0:
                break
            total += -j * (cmath.exp(1j * cur.omega * hi) - cmath.exp(1j * cur.omega * t0)) / cur.omega
        return total
    for t in (0.3, 0.7, 1.1, 1.5):
        assert coherent_amplitude(cur, t) == pytest.approx(alpha_ref(t), abs=1e-14)
    basis = enumerate_basis(1, Cutoff.per_mode(45))
    psi = dynamical_coherent(cur, 1.5, basis)
    alpha = alpha_ref(1.5)
    from fockbench.distributions import PoissonParams
    spec = StateSpec("coherent", PoissonParams(abs(alpha) ** 2), (cmath.phase(alpha),))
    target = build_state(spec, basis=basis)
    assert fidelity(psi, target) >= 1 - 1e-8


def test_classical_current_validates_segments():
    with pytest.raises(ValueError):
        ClassicalCurrent(segments=((0.5, 1.0, 1.0),), omega=0.0)  # gap before first
    with pytest.raises(ValueError):
        ClassicalCurrent(segments=((0.0, 1.0, 1.0), (1.2, 2.0, 1.0)), omega=0.0)


def test_dynamical_time_window_enforced():
    cur = ClassicalCurrent(segments=((0.0, 1.0, 0.5),), omega=0.0)
    basis = enumerate_basis(1, Cutoff.per_mode(10))
    with pytest.raises(ValueError):
        dynamical_coherent(cur, 1.5, basis)


def test_drive_past_the_basis_is_refused():
    # |alpha|^2 = 9 on 11 levels: the unitary evolution kept norm 1 and returned a state
    # with 0.39 of its mass on the top level
    cur = ClassicalCurrent(segments=((0.0, 1.0, 3.0),), omega=0.0)
    with pytest.raises(ValueError, match=r"^the drive pressed 3\.901e-01 of squared norm"):
        dynamical_coherent(cur, 1.0, enumerate_basis(1, Cutoff.per_mode(10)))
    # the same drive on a basis wide enough for it is accepted
    psi = dynamical_coherent(cur, 1.0, enumerate_basis(1, Cutoff.per_mode(40)))
    assert abs(psi.norm2() - 1.0) < 1e-12


@pytest.mark.parametrize("levels, rho, work", [
    (45, r"1\.334e\+09", r"2\.183e\+12"),  # 1.3e9 terms of 90 entries
    (1, r"1e\+08", r"1\.504e\+11"),  # four entries, but 1e8 terms: their fixed cost counts
], ids=["46-levels", "2-levels"])
def test_drive_past_the_chebyshev_budget_is_refused_before_it_runs(monkeypatch, levels, rho,
                                                                   work):
    # j = 1e8 for one unit: Miller's recurrence alone would take about rho steps and a list
    # of as many floats before the first product
    monkeypatch.setattr(fock, "_bessel_j", lambda x: pytest.fail("the recurrence was started"))
    cur = ClassicalCurrent(segments=((0, 1, 1e8),), omega=0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^the Chebyshev expansion at rho = {rho} needs about "
                                         f"{work} entry-products, above the limit 2e\\+09$"):
        dynamical_coherent(cur, 1, enumerate_basis(1, Cutoff.per_mode(levels)))
    assert time.perf_counter() - start < 0.5


# --- contraction --------------------------------------------------------------

def test_contraction_improves_with_order():
    for family in ("binomial", "neg_binomial"):
        rows = contraction_check(family, (10, 100, 1000), alpha2=1.0)
        fids = [row["fidelity"] for row in rows]
        assert fids[0] < fids[1] < fids[2]
        assert fids[-1] >= 0.999


def test_contraction_requires_enough_levels():
    with pytest.raises(ValueError):
        contraction_check("binomial", (2,), alpha2=3.0)
