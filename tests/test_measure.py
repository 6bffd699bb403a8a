import math
import time

import numpy as np
import pytest
from scipy.special import gammaln, roots_legendre

from fockbench import checks
from fockbench.cli import main
from fockbench.distributions import BinomialParams, MultinomialParams, binomial_pmf
from fockbench.fock import Cutoff, enumerate_basis, fidelity
from fockbench.measure import (
    MAX_NODES,
    MIN_NODES,
    MeasureSpec,
    _gauss_legendre,
    _shell_quadrature,
    measure_density,
    projected_state,
    resolution_check,
    slicing_check,
)
from fockbench.states import StateSpec, build_state


def test_density_normalization_constant():
    # at the origin the density is (M+r)!/(M! pi^r)
    assert measure_density(MeasureSpec(r=1, M=1), (0,)) == pytest.approx(2 / math.pi, rel=1e-15)
    assert measure_density(MeasureSpec(r=2, M=1), (0, 0)) == pytest.approx(
        6 / math.pi ** 2, rel=1e-15
    )
    assert measure_density(MeasureSpec(r=1, M=3), (0,)) == pytest.approx(4 / math.pi, rel=1e-15)


def test_density_falls_off_isotropically():
    spec = MeasureSpec(r=1, M=2)
    at_origin = measure_density(spec, (0,))
    away = measure_density(spec, (1.0,))
    assert away == pytest.approx(at_origin / 4, rel=1e-14)  # (1+|xi|^2)^{r+1} = 4
    rotated = measure_density(spec, (1j,))
    assert rotated == pytest.approx(away, rel=1e-15)


def test_projected_state_at_origin():
    psi = projected_state(MeasureSpec(r=2, M=3), (0, 0))
    assert abs(psi.amplitude((3, 0, 0)) - 1.0) < 1e-14
    assert abs(psi.norm2() - 1.0) < 1e-14


def test_projected_state_balanced_point():
    psi = projected_state(MeasureSpec(r=1, M=1), (1.0,))
    np.testing.assert_allclose(
        sorted(abs(a) for a in psi.amplitudes), [1 / math.sqrt(2)] * 2, atol=1e-14
    )


def test_projected_state_is_normalized_everywhere():
    rng = np.random.default_rng(2)
    spec = MeasureSpec(r=2, M=4)
    for _ in range(5):
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = projected_state(spec, xi)
        assert abs(psi.norm2() - 1.0) < 1e-12


def test_projected_state_matches_shell_family():
    # xi parametrizes the same shell states as the probability-root family
    # with eta = xi / sqrt(1 + |xi|^2)
    M = 3
    for xi in (0.3, 0.9, 2.1):
        psi = projected_state(MeasureSpec(r=1, M=M), (xi,))
        eta = xi / math.sqrt(1 + xi * xi)
        target = build_state(StateSpec("multinomial", MultinomialParams((eta,), M), (0.0,)))
        assert fidelity(psi, target) >= 1 - 1e-12


def test_resolution_rank_one():
    for M in (1, 2, 3):
        report = resolution_check(MeasureSpec(r=1, M=M))
        assert report["max_entry_residual"] <= 1e-8
        assert report["trace_residual"] <= 1e-8


def test_resolution_rank_two():
    for M in (1, 2):
        report = resolution_check(MeasureSpec(r=2, M=M))
        assert report["max_entry_residual"] <= 1e-4


def test_resolution_is_actually_exact_quadrature():
    # the compactified integrand is polynomial, so default nodes sit far past
    # the exactness threshold and the residual is pure roundoff
    report = resolution_check(MeasureSpec(r=1, M=4))
    assert report["max_entry_residual"] < 1e-12


def test_resolution_angular_aliasing_control():
    # with fewer angular nodes than M+1 the off-diagonal phases alias back in
    # (8 radial nodes stay exact on the diagonal, degree 15 >= M); past it they cancel
    coarse = resolution_check(MeasureSpec(r=1, M=12, nodes=8))
    assert coarse["max_entry_residual"] > 1e-3
    fine = resolution_check(MeasureSpec(r=1, M=12, nodes=16))
    assert fine["max_entry_residual"] < 1e-12


@pytest.mark.parametrize("n", [*range(MIN_NODES, 130), 200, 333, 500, 777, 999, MAX_NODES])
def test_gauss_legendre_is_bit_identical_to_scipy(n):
    # the numpy route repeats scipy's steps, so the rule is the same to the bit,
    # over the default node range and both ends of [MIN_NODES, MAX_NODES]
    x, w = _gauss_legendre(n)
    x_ref, w_ref = roots_legendre(n)
    assert x.tobytes() == x_ref.tobytes()
    assert w.tobytes() == w_ref.tobytes()


def test_gauss_legendre_solves_each_node_count_once():
    # the default verify grid runs five checks on one --nodes value: the O(n^3)
    # solve is paid once, and the shared arrays cannot be changed by a caller
    _gauss_legendre.cache_clear()
    checks.SUITES["measure"](nodes=40)
    assert _gauss_legendre.cache_info().misses == 1
    x, w = _gauss_legendre(40)
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 0.0
    assert not x.flags.writeable


def _per_node_quadrature(spec):
    """The shell quadrature as a sum of one weighted outer product per radial node."""
    r, M = spec.r, spec.M
    occ = enumerate_basis(r + 1, Cutoff.shell(M)).occupations.astype(float)
    nprime = occ[:, 1:]
    log_coeff = 0.5 * (gammaln(M + 1) - gammaln(occ + 1.0).sum(axis=1))
    x, w = roots_legendre(spec.nodes_radial)
    u1, w1 = 0.5 * (x + 1.0), 0.5 * w
    phi = 2.0 * np.pi * np.arange(spec.nodes_angular) / spec.nodes_angular
    phis = np.array(np.meshgrid(*([phi] * r), indexing="ij")).reshape(r, -1)
    ang = np.exp(1j * (nprime @ phis))
    ang_weight = (2.0 * np.pi / spec.nodes_angular) ** r
    const = math.exp(gammaln(M + r + 1) - gammaln(M + 1)) / math.pi ** r
    total = np.zeros((len(occ), len(occ)), dtype=complex)
    for idx in np.ndindex(*([spec.nodes_radial] * r)):
        u = u1[list(idx)]
        s_part = np.cumprod(1.0 / (1.0 - u))
        s_prev = np.concatenate(([1.0], s_part[:-1]))
        jac = 0.5 ** r * np.prod(s_prev / (1.0 - u) ** 2)
        one_plus = s_part[-1]
        radial = np.exp(log_coeff + 0.5 * (nprime @ np.log(u * s_part))
                        - 0.5 * M * math.log(one_plus))
        vecs = radial[:, None] * ang
        weight = const * jac * np.prod(w1[list(idx)]) * ang_weight / one_plus ** (r + 1)
        total += weight * (vecs @ vecs.conj().T)
    return total


@pytest.mark.parametrize("r, M", [(1, 1), (1, 3), (1, 6), (2, 1), (2, 3),
                                  (3, 1), (3, 2), (4, 1)])
def test_factored_quadrature_matches_per_node_sum(r, M):
    spec = MeasureSpec(r=r, M=M)
    basis = enumerate_basis(r + 1, Cutoff.shell(M))
    factored = np.vstack(list(_shell_quadrature(spec, basis)))
    np.testing.assert_allclose(factored, _per_node_quadrature(spec), rtol=0, atol=1e-14)


def _density_quadrature(spec):
    """The paper's integral of dmu(xi) |xi><xi|, from ``measure_density`` and ``projected_state``.

    The same tensor rule as the factored quadrature: Gauss-Legendre in each u_j of the
    nested compactification, with xi_j = rho_j e^{i phi_j} and uniform angles.
    """
    r = spec.r
    x, w = roots_legendre(spec.nodes_radial)
    u1, w1 = 0.5 * (x + 1.0), 0.5 * w
    phi = 2.0 * np.pi * np.arange(spec.nodes_angular) / spec.nodes_angular
    phases = np.exp(1j * np.array(np.meshgrid(*([phi] * r), indexing="ij")).reshape(r, -1).T)
    ang_weight = (2.0 * np.pi / spec.nodes_angular) ** r
    total = 0
    for idx in np.ndindex(*([spec.nodes_radial] * r)):
        u = u1[list(idx)]
        s_part = np.cumprod(1.0 / (1.0 - u))  # 1 + rho_1^2 + ... + rho_j^2
        s_prev = np.concatenate(([1.0], s_part[:-1]))
        rho = np.sqrt(s_part - s_prev)
        # d^2 xi = prod_j rho_j drho_j dphi_j, and rho_j drho_j = s_{j-1} du_j / (2 (1 - u_j)^2)
        jac = 0.5 ** r * np.prod(s_prev / (1.0 - u) ** 2)
        amps = np.array([projected_state(spec, rho * phase).amplitudes for phase in phases])
        weight = measure_density(spec, rho) * jac * np.prod(w1[list(idx)]) * ang_weight
        total = total + weight * (amps.T @ amps.conj())
    return total


@pytest.mark.parametrize("r, M, nodes", [(1, 1, None), (1, 3, None), (1, 6, None),
                                         (2, 1, 8), (2, 2, 8)])
def test_density_and_projected_states_integrate_to_the_factored_quadrature(r, M, nodes):
    # ties the paper's measure and shell states to the sum-factorised rule resolution_check runs
    spec = MeasureSpec(r=r, M=M, nodes=nodes)
    basis = enumerate_basis(r + 1, Cutoff.shell(M))
    factored = np.vstack(list(_shell_quadrature(spec, basis)))
    np.testing.assert_allclose(_density_quadrature(spec), factored, rtol=0, atol=1e-14)


def test_resolution_any_rank_without_flag():
    report = resolution_check(MeasureSpec(r=3, M=1))
    assert report["max_entry_residual"] < 1e-10


def test_oversize_shell_is_refused_up_front():
    # r = 10, M = 30 holds C(40, 10) ~ 8.5e8 states: refused before enumeration
    start = time.perf_counter()
    assert main(["verify", "measure", "--r", "10", "--M", "30"]) == 2
    assert time.perf_counter() - start < 1.0


def test_default_nodes_exact_past_the_rank_floor():
    # r > M + 4: exactness needs ceil((M + r) / 2) = 11 radial nodes, past max(8, M + 2)
    spec = MeasureSpec(r=20, M=2)
    assert (spec.nodes_radial, spec.nodes_angular) == (11, 8)
    assert resolution_check(spec)["max_entry_residual"] < 1e-12


def test_node_floor_enforced():
    for nodes in (4, 6):
        with pytest.raises(ValueError, match=r"nodes must be an integer in \[8, 1000\]"):
            MeasureSpec(r=1, M=1, nodes=nodes)


def test_nodes_sets_both_counts():
    spec = MeasureSpec(r=2, M=3, nodes=9)
    assert (spec.nodes_radial, spec.nodes_angular) == (9, 9)
    assert resolution_check(spec)["nodes"] == {"radial": 9, "angular": 9}


@pytest.mark.parametrize("fields", [
    {"r": 1.5, "M": 2}, {"r": 0, "M": 2}, {"r": math.nan, "M": 2}, {"r": "3", "M": 2},
    {"r": 1, "M": 2.5}, {"r": 1, "M": math.inf}, {"r": 1, "M": 0}, {"r": 1, "M": 999},
    {"r": 1, "M": 2, "nodes": 8.5}, {"r": 1, "M": 2, "nodes": math.inf},
    {"r": 1, "M": 2, "nodes": 1001}, {"r": 1, "M": 2, "nodes": 10 ** 9},
    {"r": 10 ** 4, "M": 1},  # default radial nodes (M + r) / 2 past the ceiling
    {"r": True, "M": 2}, {"r": 1, "M": True}, {"r": 1, "M": 2, "nodes": True},
    {"r": 1, "M": 10 ** 400},  # an integer beyond float range
])
def test_spec_rejects_bad_fields(fields):
    with pytest.raises(ValueError):
        MeasureSpec(**fields)


def test_slicing_equal_amplitudes_reduces_to_binomial():
    out = slicing_check((1.0, 1.0), 2)
    assert out["max_rel_error"] <= 1e-12
    assert out["compared"] == 3


def test_slicing_generic_amplitudes():
    out = slicing_check((0.7, 1.3, 0.4), 3)
    assert out["max_rel_error"] <= 1e-12
    assert out["compared"] == math.comb(3 + 2, 2)


def test_slicing_zero_shell_is_point_mass():
    out = slicing_check((1.0, 2.0), 0)
    assert out["max_rel_error"] <= 1e-15
    assert out["compared"] == 1


def test_slicing_validates_inputs():
    with pytest.raises(ValueError):
        slicing_check((1.0,), 2)  # needs at least two modes
    with pytest.raises(ValueError):
        slicing_check((1.0, -0.5), 2)


def test_slicing_matches_rank_one_closed_form():
    # two modes conditioned on total M carry the binomial law in the
    # relative strength, independent of the overall scale
    from fockbench.distributions import slice_to_shell

    alphas = (0.9, 0.6)
    M = 2
    sliced = slice_to_shell(alphas, M)
    law = BinomialParams(0.36 / (0.36 + 0.81), M)
    for n in range(M + 1):
        assert sliced[(M - n, n)] == pytest.approx(binomial_pmf(law, n), rel=1e-13)
    out = slicing_check(alphas, M)
    assert out["max_rel_error"] <= 1e-13
