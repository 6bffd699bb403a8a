"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Each test times its own body against the stated budget and prints a single
summary line (visible with ``pytest -s`` or in captured output) before
asserting, so the full scorecard is readable even on a failing run.
"""

import math
import time

import numpy as np

from fockbench import checks
from fockbench.distributions import (
    BinomialParams,
    MultinomialParams,
    NegBinomialParams,
    NegMultinomialParams,
    PoissonParams,
    binomial_pmf,
    moments_from_gf,
    multinomial_pmf,
    neg_binomial_gf,
    neg_binomial_pmf,
    neg_multinomial_pmf,
    poisson_pmf,
    waiting_time_simulate,
)
from fockbench.fock import Cutoff, enumerate_basis, fidelity
from fockbench.generation import (
    ClassicalCurrent,
    TwoLevelDrive,
    path_equivalence,
    sequential_ms,
    sequential_nms,
)
from fockbench.states import (
    StateSpec,
    auto_basis,
    build_state,
    mean_occupation,
    occupation_variance,
    quantum_gf,
)

ETA2_GRID = (0.1, 0.3, 0.6)
M_GRID = (1, 2, 3, 5)


def _report(num, ok, elapsed, budget, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / {budget:.0f}s) {detail}"
    print(line)
    return line


def test_criterion_1_modulus_square_law():
    budget = 5.0
    start = time.time()
    worst = 0.0
    cases = 0

    def check(psi, pmf, occ_slice):
        nonlocal worst, cases
        for occ, amp in zip(psi.basis.states, psi.amplitudes):
            p = abs(amp) ** 2
            ref = pmf(occ_slice(occ))
            if ref > 1e-18:
                worst = max(worst, abs(p - ref) / ref)
                cases += 1

    for eta2 in ETA2_GRID:
        # coherent: mean matched to the grid strength
        spec = StateSpec("coherent", PoissonParams(eta2), ())
        check(build_state(spec), lambda occ: poisson_pmf(PoissonParams(eta2), occ), lambda o: o[0])
        for M in M_GRID:
            bp = BinomialParams(eta2, M)
            check(build_state(StateSpec("binomial", bp, ())),
                  lambda n: binomial_pmf(bp, n), lambda o: o[0])
            nb = NegBinomialParams(eta2, M)
            check(build_state(StateSpec("neg_binomial", nb, ())),
                  lambda n: neg_binomial_pmf(nb, n), lambda o: o[0])
            for r in (1, 2):
                eta = tuple(math.sqrt(eta2 / r) for _ in range(r))
                mp = MultinomialParams(eta, M)
                check(build_state(StateSpec("multinomial", mp, ())),
                      lambda nv: multinomial_pmf(mp, nv), lambda o: o[1:])
                np_ = NegMultinomialParams(eta, float(M))
                check(build_state(StateSpec("neg_multinomial", np_, ())),
                      lambda nv: neg_multinomial_pmf(np_, nv), lambda o: o)
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < budget
    _report(1, ok, elapsed, budget,
            f"five families, {cases} entries, worst relative error {worst:.2e}")
    assert worst <= 1e-12
    assert elapsed < budget


def test_criterion_2_algebra_suite():
    budget = 10.0
    start = time.time()
    records = checks.algebra_relations((
        ("su11_bilinear", 2, Cutoff.total(12), 3.0),
        ("su11_hp", 1, Cutoff.per_mode(14), 3.0),
        ("su2_bilinear", 2, Cutoff.shell(5), 5),
        ("su2_hp", 1, Cutoff.per_mode(5), 5),
        ("su_r1_bilinear", 3, Cutoff.total(8), 2.0),
        ("su_r1_hp", 2, Cutoff.total(6), 2.0),
        ("su_rp1_bilinear", 3, Cutoff.shell(3), 3),
        ("su_rp1_hp", 2, Cutoff.total(3), 3),
    ))
    # intertwining on full shells for (r, M) = (1, 3) and (2, 3)
    records += checks.intertwinings((
        (1, "su11_bilinear", "su11_hp", Cutoff.total(12), Cutoff.per_mode(5), 3.0),
        (1, "su2_bilinear", "su2_hp", Cutoff.shell(3), Cutoff.per_mode(3), 3),
        (2, "su_r1_bilinear", "su_r1_hp", Cutoff.total(12), Cutoff.total(5), 3.0),
        (2, "su_rp1_bilinear", "su_rp1_hp", Cutoff.shell(3), Cutoff.total(3), 3),
    ))
    worst = max(rec["max_residual"] for rec in records)
    passed = all(rec["passed"] for rec in records)  # each also counted some states
    elapsed = time.time() - start
    ok = passed and worst <= 1e-12 and elapsed < budget
    _report(2, ok, elapsed, budget,
            f"8 realizations + 4 intertwinings, worst residual {worst:.2e}")
    assert passed
    assert worst <= 1e-12
    assert elapsed < budget


def test_criterion_3_path_equivalence():
    budget = 30.0
    start = time.time()
    worst_fid = 1.0

    for family in ("binomial", "neg_binomial"):
        for eta2 in ETA2_GRID:
            for M in M_GRID:
                rep = path_equivalence(family, eta2, M, theta=0.3)
                worst_fid = min(worst_fid,
                                rep["fidelity_exp_vs_series"],
                                rep["fidelity_disp_vs_series"],
                                rep["fidelity_disp_vs_exp"])

    # sequential chains against direct construction, r = 2 and 3
    seq_cases = [
        ("neg_multinomial", (0.2, 0.1), (0.4, 0.9), 2.0),
        ("neg_multinomial", (0.06, 0.03, 0.03), (0.3, 0.7, 1.1), 2.0),
        ("multinomial", (0.3, 0.2), (0.4, 0.9), 2),
        ("multinomial", (0.3, 0.2, 0.1), (0.2, 0.5, 0.8), 2),
    ]
    for family, eta2s, thetas, M in seq_cases:
        eta = tuple(math.sqrt(e) for e in eta2s)
        r = len(eta)
        if family == "neg_multinomial":
            spec = StateSpec(family, NegMultinomialParams(eta, M), thetas)
            basis = auto_basis(spec, tail_tol=1e-12, guard=6)
            target = build_state(spec, basis=basis)
            psi = sequential_nms(eta, thetas, M, basis)
            worst_fid = min(worst_fid, fidelity(psi, target))
        else:
            spec = StateSpec(family, MultinomialParams(eta, M), thetas)
            shell = enumerate_basis(r + 1, Cutoff.shell(M))
            target = build_state(spec, basis=shell)
            reduced = enumerate_basis(r, Cutoff.total(M))
            psi = sequential_ms(eta, thetas, M, reduced)
            amps = np.array([target.amplitudes[shell.index_of((M - sum(occ),) + occ)]
                             for occ in reduced.states])
            worst_fid = min(worst_fid, float(abs(np.vdot(psi.amplitudes, amps))))

    elapsed = time.time() - start
    ok = worst_fid >= 1 - 1e-8 and elapsed < budget
    _report(3, ok, elapsed, budget,
            f"24 route triples + 4 chains, worst fidelity 1-{1 - worst_fid:.2e}")
    assert worst_fid >= 1 - 1e-8
    assert elapsed < budget


def test_criterion_4_resolution_of_unity():
    budget = 120.0
    start = time.time()
    records = checks.resolutions([(1, M, 64) for M in (1, 2, 3)] + [(2, M, 24) for M in (1, 2)]
                                 + [(3, 6, None), (5, 8, None)])
    worst_r1, worst_r2, worst_high = (
        max(rec["max_entry_residual"] for rec in records if rec["r"] in ranks)
        for ranks in ((1,), (2,), (3, 5)))
    passed = all(rec["passed"] for rec in records)
    elapsed = time.time() - start
    ok = passed and worst_r1 <= 1e-8 and worst_r2 <= 1e-4 and worst_high <= 1e-4 \
        and elapsed < budget
    _report(4, ok, elapsed, budget,
            f"r=1 residual {worst_r1:.2e} (<=1e-8), r=2 residual {worst_r2:.2e} (<=1e-4), "
            f"r=3,5 residual {worst_high:.2e} (<=1e-4)")
    assert passed
    assert worst_r1 <= 1e-8
    assert worst_r2 <= 1e-4
    assert worst_high <= 1e-4
    assert elapsed < budget


def test_criterion_5_poisson_limits_and_contraction():
    budget = 10.0
    start = time.time()
    # TV distances fall below 0.05 and fidelities rise to at least 0.999
    records = checks.limits(("binomial", "neg_binomial"), (10, 100, 1000), 1.0)
    tvs, fids = records[::2], records[1::2]
    details = [f"{tv['name'].removeprefix('tv_distance_')}: TV {tv['values'][2]:.4f}, "
               f"fid {fid['values'][2]:.6f}" for tv, fid in zip(tvs, fids)]
    worst_tv = max(tv["values"][2] for tv in tvs)
    worst_fid = min(fid["values"][2] for fid in fids)
    passed = all(rec["passed"] for rec in records)  # each sequence is also monotone
    elapsed = time.time() - start
    ok = passed and worst_tv < 0.05 and worst_fid >= 0.999 and elapsed < budget
    _report(5, ok, elapsed, budget, "; ".join(details))
    assert passed
    assert worst_tv < 0.05
    assert worst_fid >= 0.999
    assert elapsed < budget


def test_criterion_6_waiting_time_monte_carlo():
    budget = 10.0
    start = time.time()
    params = NegBinomialParams(0.3, 3)
    run1 = waiting_time_simulate(params, trials=1_000_000, seed=20240901)
    run2 = waiting_time_simulate(params, trials=1_000_000, seed=20240901)
    deterministic = np.array_equal(run1.p_hat, run2.p_hat)
    worst_sigma = 0.0
    for n in range(21):
        se = max(run1.stderr[n], 1e-9)
        worst_sigma = max(worst_sigma, abs(run1.p_hat[n] - run1.p[n]) / se)
    elapsed = time.time() - start
    ok = deterministic and worst_sigma <= 4.0 and elapsed < budget
    _report(6, ok, elapsed, budget,
            f"1e6 replicates, worst deviation {worst_sigma:.2f} sigma, "
            f"deterministic={deterministic}")
    assert deterministic
    assert worst_sigma <= 4.0
    assert elapsed < budget


def test_criterion_7_dynamical_generation():
    budget = 5.0
    start = time.time()
    records = checks.two_level_drives(TwoLevelDrive(eta=0.8, theta=0.5), (1, 3),
                                      (0.3, math.pi / 4, 1.1))
    current = ClassicalCurrent(
        segments=((0.0, 0.7, 0.9 + 0.4j), (0.7, 1.5, -0.3 + 1.1j)), omega=1.3
    )
    records.append(checks.current_drive(current, enumerate_basis(1, Cutoff.per_mode(45)),
                                        (0.4, 0.7, 1.5)))
    worst_binomial = min(rec["min_fidelity"] for rec in records[:-1])
    worst_coherent = records[-1]["min_fidelity"]
    passed = all(rec["passed"] for rec in records)
    elapsed = time.time() - start
    ok = passed and worst_binomial >= 1 - 1e-10 and worst_coherent >= 1 - 1e-8 \
        and elapsed < budget
    _report(7, ok, elapsed, budget,
            f"two-level fid 1-{1 - worst_binomial:.2e}, current fid 1-{1 - worst_coherent:.2e}")
    assert passed
    assert worst_binomial >= 1 - 1e-10
    assert worst_coherent >= 1 - 1e-8
    assert elapsed < budget


def test_criterion_8_quantum_generating_function():
    budget = 2.0
    start = time.time()
    eta2, M = 0.4, 2.5
    spec = StateSpec("neg_binomial", NegBinomialParams(eta2, M), ())
    basis = auto_basis(spec, tail_tol=1e-14, guard=30)
    psi = build_state(spec, basis=basis, tail_tol=1e-14)
    worst = 0.0
    for t in (0.0, 0.5, 1.0):  # the closed form ((1 - eta2) / (1 - eta2 t))^M
        worst = max(worst, abs(quantum_gf(psi, t) - neg_binomial_gf(spec.params, t)))
    closed = moments_from_gf(spec.params)  # M eta2 / (1 - eta2) and mean / (1 - eta2)
    worst = max(worst, abs(mean_occupation(psi) - closed.mean))
    worst = max(worst, abs(occupation_variance(psi) - closed.variance))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < budget
    _report(8, ok, elapsed, budget, f"gf and moments, worst deviation {worst:.2e}")
    assert worst <= 1e-10
    assert elapsed < budget
