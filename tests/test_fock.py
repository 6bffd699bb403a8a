import json
import math
import re

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from fockbench import cli, fock
from fockbench.algebra import su2_hp, su11_hp, su_rp1_bilinear, su_rp1_hp
from fockbench.distributions import PoissonParams
from fockbench.fock import (
    Cutoff,
    LinearOperator,
    _bessel_j,
    _chebyshev_exponential,
    _ladder_series,
    _strictly_triangular,
    annihilation_op,
    apply_exponential,
    apply_skew_exponential,
    basis_state,
    creation_op,
    diagonal_op,
    enumerate_basis,
    fidelity,
    inner,
    op_exponential,
    op_skew_exponential,
    state_from_json_dict,
    vacuum_state,
)
from fockbench.generation import TwoLevelDrive, dynamical_binomial, operator_identity_check
from fockbench.states import StateSpec, auto_basis


def test_enumeration_order_two_modes_total_two():
    basis = enumerate_basis(2, Cutoff.total(2))
    assert basis.states == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))


def test_enumeration_sizes():
    assert len(enumerate_basis(1, Cutoff.per_mode(7))) == 8
    assert len(enumerate_basis(2, Cutoff.per_mode(3))) == 16
    # shell of 3 modes with total 3: C(5,2) = 10
    assert len(enumerate_basis(3, Cutoff.shell(3))) == 10
    # total cutoff of 3 modes: C(3+M, 3) summed grades
    assert len(enumerate_basis(3, Cutoff.total(4))) == 35


def test_enumeration_grading():
    basis = enumerate_basis(3, Cutoff.total(5))
    totals = basis.totals
    assert np.all(np.diff(totals) >= 0)  # grades never decrease
    shell = enumerate_basis(3, Cutoff.shell(4))
    assert np.all(shell.totals == 4)


def test_index_round_trip():
    basis = enumerate_basis(2, Cutoff.total(6))
    for i, occ in enumerate(basis.states):
        assert basis.index_of(occ) == i
        assert basis.rank(occ) >= 0
    assert basis.rank((7, 0)) < 0
    with pytest.raises(ValueError):
        basis.index_of((7, 0))
    # whole floats name the same state; anything else lies outside the basis
    assert basis.index_of((1.0, 2.0)) == basis.index_of((1, 2))
    for occ in ((1.5, 2), (float("nan"), 0), (float("inf"), 0), (-1, 2)):
        assert basis.rank(occ) < 0
    for occ in ((1.5, 2), (float("nan"), 0), (float("inf"), 0), (-1, 2), (1, 2, 0), (1,)):
        with pytest.raises(ValueError):
            basis.index_of(occ)
    assert basis.rank([[0, 1], [0.5, 1], [9, 9], [-1, 1]]).tolist() == [1, -1, -1, -1]


def test_rank_refuses_rows_of_the_wrong_width():
    two = enumerate_basis(2, Cutoff.total(6))
    with pytest.raises(ValueError, match="4 entries, the basis has 2 modes"):
        two.rank([[1, 2, 0, 0], [0, 0, 1, 1]])
    three = enumerate_basis(3, Cutoff.total(6))
    with pytest.raises(ValueError, match="2 entries, the basis has 3 modes"):
        three.rank([[1, 2], [0, 0], [1, 1]])
    one = enumerate_basis(1, Cutoff.per_mode(6))
    with pytest.raises(ValueError, match="3 entries, the basis has 1 modes"):
        one.rank(np.arange(3))  # three levels are three rows of one entry, not one row
    with pytest.raises(ValueError, match="0 entries"):
        one.rank(2)
    # one row of the basis width, a column of rows, and no rows at all still rank
    assert three.rank([0, 1, 0]).tolist() == [three.index_of((0, 1, 0))]
    assert one.rank(np.arange(3)[:, None]).tolist() == [0, 1, 2]
    empty = three.rank(np.zeros((0, 3), dtype=np.int64))
    assert empty.shape == (0,) and empty.dtype == np.int64


def test_state_cap_enforced(monkeypatch):
    monkeypatch.setattr(fock, "MAX_BASIS_STATES", 50)
    with pytest.raises(ValueError, match="cutoff yields 100 basis states, above the cap of 50"):
        enumerate_basis(2, Cutoff.per_mode(9))
    assert len(enumerate_basis(1, Cutoff.per_mode(49))) == 50


def test_ladder_actions():
    basis = enumerate_basis(1, Cutoff.per_mode(5))
    raise_ = creation_op(basis, 0)
    lower = annihilation_op(basis, 0)
    for n in range(5):
        up = raise_.apply(basis_state(basis, (n,)))
        assert abs(up.amplitude((n + 1,)) - np.sqrt(n + 1)) < 1e-15
    for n in range(1, 6):
        down = lower.apply(basis_state(basis, (n,)))
        assert abs(down.amplitude((n - 1,)) - np.sqrt(n)) < 1e-15
    # out-of-basis target is dropped, not wrapped
    top = raise_.apply(basis_state(basis, (5,)))
    assert top.norm2() == 0.0


def test_annihilation_is_exact_adjoint():
    basis = enumerate_basis(2, Cutoff.total(5))
    for mode in range(2):
        a = annihilation_op(basis, mode)
        adag = creation_op(basis, mode)
        assert np.array_equal(a.matrix.toarray(), adag.matrix.conj().T.toarray())


def _dense_commutator(a, b):
    a, b = a.matrix.toarray(), b.matrix.toarray()
    return a @ b - b @ a


def test_commutator_identity_on_interior():
    basis = enumerate_basis(2, Cutoff.per_mode(6))
    comm = _dense_commutator(annihilation_op(basis, 0), creation_op(basis, 0))
    for occ in basis.states:
        if occ[0] < 6:  # interior in the acted mode
            out = comm @ basis_state(basis, occ).amplitudes
            assert abs(out[basis.index_of(occ)] - 1.0) < 1e-14


def test_cross_mode_commutators_vanish():
    basis = enumerate_basis(2, Cutoff.per_mode(4))
    c = _dense_commutator(annihilation_op(basis, 0), creation_op(basis, 1))
    assert np.max(np.abs(c)) == 0.0


def test_number_operators():
    basis = enumerate_basis(2, Cutoff.total(4))
    n0 = diagonal_op(basis, basis.occupations[:, 0])
    ntot = sum(diagonal_op(basis, basis.occupations[:, mode]).matrix.toarray()
               for mode in range(basis.modes))
    for occ in basis.states:
        psi = basis_state(basis, occ)
        assert abs(n0.apply(psi).amplitude(occ) - occ[0]) < 1e-15
        assert abs((ntot @ psi.amplitudes)[basis.index_of(occ)] - sum(occ)) < 1e-15


def _random_generator(shape, d, seed, norm):
    """A random d x d generator of the given shape ("general": none), at 1-norm ``norm``."""
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if shape == "skew":
        mat = mat - mat.conj().T
    elif shape == "ladder":
        mat = np.tril(mat, -1)
    return mat * (norm / np.linalg.norm(mat, 1))


def _eye(d):
    return np.eye(d, dtype=complex)


@pytest.mark.parametrize("shape", ["skew", "ladder"])
def test_op_exponential_matches_scipy(shape):
    basis = enumerate_basis(1, Cutoff.per_mode(11))
    mat = _random_generator(shape, len(basis), 11, 2.0)
    if shape == "skew":
        ours = _chebyshev_exponential(mat, _eye(len(basis)))
    else:
        ours = _ladder_series(mat, _eye(len(basis)))
    ref = scipy.linalg.expm(mat)
    np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)


def _swap_map(basis):
    """The map sending |0> to |1> and |1> to |0>: one step up and one down, no ladder."""
    target = np.full(len(basis), -1)
    target[:2] = [1, 0]
    return LinearOperator(basis, target, np.where(target >= 0, 1.0, 0.0), [False] * len(basis))


@pytest.mark.parametrize("make", [
    _swap_map,
    lambda basis: LinearOperator(basis, [0, 2, -1, -1], [1.0, 1.0, 0.0, 0.0], [False] * 4),
    lambda basis: diagonal_op(basis, [1.0, 2.0, 3.0, 4.0]),
])
def test_exponentials_refuse_a_map_that_is_not_a_ladder(make):
    basis = enumerate_basis(1, Cutoff.per_mode(3))
    op = make(basis)
    with pytest.raises(ValueError, match="strictly triangular"):
        op_exponential(op)
    with pytest.raises(ValueError, match="strictly triangular"):
        apply_exponential(op, vacuum_state(basis))


def test_op_exponential_inverse_pair():
    basis = enumerate_basis(1, Cutoff.per_mode(9))
    d = len(basis)
    mat = _random_generator("skew", d, 5, 4.5)
    assert np.array_equal(mat, -mat.conj().T)
    fwd = _chebyshev_exponential(mat, _eye(d))
    back = _chebyshev_exponential(-mat, _eye(d))
    resid = np.max(np.abs(fwd @ back - np.eye(d)))
    assert resid < 1e-11


def test_op_exponential_zero_is_identity():
    basis = enumerate_basis(2, Cutoff.total(3))
    d = len(basis)
    nowhere = LinearOperator(basis, [-1] * d, np.zeros(d), [False] * d)
    assert np.array_equal(op_exponential(nowhere), np.eye(d))
    assert np.array_equal(op_skew_exponential(0.7j, nowhere), np.eye(d))
    zero = np.zeros((d, d), dtype=complex)
    assert np.array_equal(_chebyshev_exponential(zero, _eye(d)), np.eye(d))
    assert np.array_equal(_ladder_series(zero, _eye(d)), np.eye(d))


def test_op_exponential_nilpotent_terminates_exactly():
    # creation operator is strictly lower triangular in grading order, so its
    # exponential is a finite sum; the series routine must reproduce it to
    # roundoff
    basis = enumerate_basis(1, Cutoff.per_mode(4))
    adag = creation_op(basis, 0)
    out = op_exponential(adag)
    expect = np.eye(len(basis), dtype=complex)
    power = np.eye(len(basis), dtype=complex)
    fact = 1.0
    for k in range(1, 6):
        power = adag.matrix.toarray() @ power
        fact *= k
        expect += power / fact
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-15)


def _taylor_polynomial(mat):
    """sum_k mat^k / k! for a nilpotent ``mat``, term by term until a power vanishes."""
    total = np.eye(len(mat), dtype=complex)
    term = total
    for k in range(1, len(mat) + 1):
        term = mat @ term / k
        total = total + term
    assert not term.any()
    return total


def _random_strictly_triangular(d, lower):
    rng = np.random.default_rng(31)
    mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.tril(mat, -1) if lower else np.triu(mat, 1)


def _scaled(scale, op):
    """scale * op as a dense array, scaled as op_exponential scales it."""
    return scale * op.matrix.toarray()


@pytest.mark.parametrize("generator", [
    lambda: creation_op(enumerate_basis(1, Cutoff.per_mode(9)), 0).matrix.toarray(),
    lambda: _scaled(0.8, su2_hp(enumerate_basis(1, Cutoff.per_mode(4)), 4).op("J+")),
    lambda: _scaled(-0.6 + 0.5j, su2_hp(enumerate_basis(1, Cutoff.per_mode(6)), 6).op("J-")),
    lambda: _scaled(0.5 - 0.3j, su11_hp(enumerate_basis(1, Cutoff.per_mode(12)), 2.5).op("K+")),
    lambda: _scaled(0.7 + 0.2j, su11_hp(enumerate_basis(1, Cutoff.per_mode(12)), 2.5).op("K-")),
    lambda: _random_strictly_triangular(8, lower=True),
    lambda: _random_strictly_triangular(8, lower=False),
])
def test_op_exponential_of_a_nilpotent_generator_is_its_taylor_polynomial(generator):
    dense = generator()
    assert _strictly_triangular(dense)
    expect = _taylor_polynomial(dense)
    out = _ladder_series(dense, _eye(len(dense)))
    assert np.abs(out - expect).max() <= 1e-15 * np.abs(expect).max()


def test_op_exponential_scale_multiplies_the_generator():
    real = su2_hp(enumerate_basis(1, Cutoff.per_mode(4)), 4)
    for label, scale in (("J+", 0.3 - 0.8j), ("J-", -1.2)):
        op = real.op(label)
        assert _strictly_triangular(op.matrix)
        assert np.array_equal(op_exponential(op, scale),
                              _ladder_series(_scaled(scale, op), _eye(len(real.basis))))


def test_apply_exponential_matches_matrix_route():
    basis = enumerate_basis(2, Cutoff.total(6))
    mat = _random_generator("ladder", len(basis), 23, 3.0)
    psi = vacuum_state(basis)
    via_vec = _ladder_series(scipy.sparse.csr_array(mat), psi.amplitudes)
    via_mat = _ladder_series(mat, _eye(len(basis))) @ psi.amplitudes
    np.testing.assert_allclose(via_vec, via_mat, rtol=0, atol=1e-12)
    ladder = creation_op(basis, 1)
    np.testing.assert_allclose(apply_exponential(ladder, psi, 0.4 - 0.3j).amplitudes,
                               op_exponential(ladder, 0.4 - 0.3j) @ psi.amplitudes,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("x", [5e-324, 1e-20, 1e-6, 1e-3, 0.1, 1.0, 3.7, 10.0, 31.4, 100.0, 299.9])
def test_bessel_coefficients_match_mpmath(x):
    j = _bessel_j(x)
    with mpmath.workdps(40):
        reference = [float(mpmath.besselj(k, x)) for k in range(len(j) + 1)]
    assert np.abs(j - reference[:-1]).max() <= 1e-15
    # the series stops at the first order past x whose coefficient is below 1e-16
    cutoff = len(j)
    assert cutoff > x and abs(reference[cutoff]) < 1.1e-16
    assert all(abs(v) >= 1e-16 for k, v in enumerate(reference[:cutoff]) if k > x)


def _chebyshev_work(gen, columns):
    """Miller's start order for rho = ||gen||_1 times the entry-products of one term."""
    rho = float(abs(gen).sum(axis=0).max())
    stored = gen.size if isinstance(gen, np.ndarray) else gen.nnz
    return (int(rho + 20 * rho ** (1 / 3)) + 30) * (stored * columns + fock.CHEBYSHEV_TERM_COST)


@pytest.mark.parametrize("route, columns", [
    (lambda ladder, psi: apply_skew_exponential(2.5 - 1j, ladder, psi).amplitudes, None),
    (lambda ladder, psi: op_skew_exponential(2.5 - 1j, ladder), "d"),
])
def test_chebyshev_work_at_its_budget_runs_and_one_past_it_is_refused(monkeypatch, route,
                                                                        columns):
    basis = enumerate_basis(2, Cutoff.total(6))
    ladder, psi = creation_op(basis, 1), vacuum_state(basis)
    gen = fock._rotation(2.5 - 1j, ladder)
    work = (_chebyshev_work(gen.toarray(), len(basis)) if columns
            else _chebyshev_work(gen, 1))
    expect = route(ladder, psi)
    monkeypatch.setattr(fock, "MAX_CHEBYSHEV_WORK", work)
    assert np.array_equal(route(ladder, psi), expect)
    monkeypatch.setattr(fock, "MAX_CHEBYSHEV_WORK", work - 1)
    monkeypatch.setattr(fock, "_bessel_j", lambda x: pytest.fail("the loop was started"))
    message = f"needs about {work:.4g} entry-products, above the limit {work - 1:.4g}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        route(ladder, psi)


def test_skew_exponential_of_zero_generator_returns_the_input():
    basis = enumerate_basis(2, Cutoff.total(4))
    psi = vacuum_state(basis)
    psi.amplitudes[3] = 0.5j
    out = apply_skew_exponential(0.0, creation_op(basis, 1), psi)
    assert out is not psi and out.amplitudes is not psi.amplitudes
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_skew_exponential_matches_dense_rotation():
    basis = enumerate_basis(1, Cutoff.per_mode(12))
    adag = creation_op(basis, 0)
    zeta = 0.9 - 0.4j
    dense = adag.matrix.toarray()
    psi = vacuum_state(basis)
    expect = scipy.linalg.expm(zeta * dense - np.conj(zeta) * dense.conj().T) @ psi.amplitudes
    out = apply_skew_exponential(zeta, adag, psi)
    np.testing.assert_allclose(out.amplitudes, expect, rtol=0, atol=1e-14)


@pytest.mark.parametrize("route", [_ladder_series, _chebyshev_exponential])
@pytest.mark.parametrize("shape", ["diagonal", "ladder", "skew"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_exponentials_refuse_a_non_finite_generator(route, shape, bad):
    mat = np.zeros((5, 5), dtype=complex)
    if shape == "diagonal":
        mat[2, 2] = bad
    elif shape == "ladder":
        mat[1, 0] = bad
    else:
        mat[1, 0], mat[0, 1] = bad, -bad
    for block in (vacuum_state(enumerate_basis(1, Cutoff.per_mode(4))).amplitudes, _eye(5)):
        with pytest.raises(ValueError, match="generator norm is not finite"):
            route(mat, block)


@pytest.mark.parametrize("route", [
    lambda op, psi: apply_exponential(op, psi),
    lambda op, psi: op_exponential(op),
    lambda op, psi: apply_skew_exponential(0.5, op, psi),
    lambda op, psi: op_skew_exponential(0.5j, op),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_public_exponentials_refuse_a_non_finite_ladder(route, bad):
    basis = enumerate_basis(1, Cutoff.per_mode(4))
    ladder = LinearOperator(basis, [1, 2, 3, 4, -1], [1.0, bad, 1.0, 1.0, 0.0], [False] * 5)
    with pytest.raises(ValueError, match="generator norm is not finite"):
        route(ladder, vacuum_state(basis))


def test_state_vector_norm2_and_inner():
    basis = enumerate_basis(1, Cutoff.per_mode(3))
    a = basis_state(basis, (1,))
    b = basis_state(basis, (2,))
    combo = type(a)(basis, a.amplitudes + 1j * b.amplitudes)
    assert abs(combo.norm2() - 2.0) < 1e-15
    assert abs(inner(a, combo) - 1.0) < 1e-15
    assert abs(inner(b, combo) - (-1j) * -1) < 1e-15  # vdot conjugates the left


def test_fidelity_bounds_and_errors():
    basis = enumerate_basis(1, Cutoff.per_mode(3))
    a = basis_state(basis, (0,))
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-15)
    zero = type(a)(basis, np.zeros(len(basis)))
    with pytest.raises(ValueError):
        fidelity(a, zero)


def test_ladder_record_is_its_column_map():
    basis = enumerate_basis(1, Cutoff.per_mode(2))
    op = creation_op(basis, 0)
    assert op.target.dtype == np.int64 and op.weight.dtype == np.complex128
    assert op.target.tolist() == [1, 2, -1]
    assert op.weight.tolist() == [1.0, np.sqrt(2.0), 0.0]
    assert op.lossy.tolist() == [False, False, True]  # |2> would go to |3>, outside


@pytest.mark.parametrize("target, weight, lossy", [
    ([1, 2], [1.0, 1.0, 0.0], [False] * 3),  # too few targets
    ([1, 2, -1], [1.0, 1.0], [False] * 3),  # too few weights
    ([[1, 2, -1]], [1.0, 1.0, 0.0], [False] * 3),  # targets of the wrong shape
    ([1, 2, -1], [1.0, 1.0, 0.0], [False] * 2),  # too few loss flags
    ([1, 2, -1], [1.0, 1.0, 0.0], [False] * 4),  # too many loss flags
    ([1, 2, -1], [1.0, 1.0, 0.0], [[False] * 3]),  # loss flags of the wrong shape
])
def test_column_map_refuses_a_malformed_record(target, weight, lossy):
    with pytest.raises(ValueError, match="column map needs 3 targets, weights and loss flags"):
        LinearOperator(enumerate_basis(1, Cutoff.per_mode(2)), target, weight, lossy)


@pytest.mark.parametrize("target", [
    [1, 3, -1],  # one past the basis
    [1, 2, -2],  # below "nowhere"
])
def test_column_map_refuses_targets_outside_the_basis(target):
    with pytest.raises(ValueError, match=r"targets must lie in \[-1, 3\)"):
        LinearOperator(enumerate_basis(1, Cutoff.per_mode(2)), target, [1.0, 1.0, 0.0],
                       [False] * 3)


def test_column_map_copies_its_input_and_builds_any_map_in_csr_order():
    basis = enumerate_basis(1, Cutoff.per_mode(3))
    target, weight = np.array([2, 0, 0, -1]), np.array([0.5, 1.0, 2.0, 0.0])
    lossy = np.array([False, False, False, True])
    op = LinearOperator(basis, target, weight, lossy)
    target[0], weight[0], lossy[0] = 3, 9.0, True  # the record keeps what it was given
    assert op.lossy.tolist() == [False, False, False, True]
    for part in (op.target, op.weight, op.lossy):
        with pytest.raises(ValueError, match="read-only"):
            part[1] = part[2]
    dense = np.zeros((4, 4), dtype=complex)
    dense[2, 0], dense[0, 1], dense[0, 2] = 0.5, 1.0, 2.0
    assert np.array_equal(op.matrix.toarray(), dense)
    assert op.matrix.has_sorted_indices
    ladder = LinearOperator(basis, [-1, 0, 0, 1], [0.0, 1.0, 2.0, 0.5], [False] * 4)
    assert np.array_equal(op_exponential(ladder, 0.3),
                          _ladder_series(0.3 * ladder.matrix.toarray(), _eye(len(basis))))


def test_serialization_round_trip():
    basis = enumerate_basis(2, Cutoff.total(3))
    rng = np.random.default_rng(3)
    psi = vacuum_state(basis)
    psi.amplitudes[:] = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    d = json.loads("".join(cli._state_pieces(psi)))
    assert d["schema"] == "fockbench.state/1"
    back = state_from_json_dict(d)
    assert back.basis.states == basis.states
    np.testing.assert_allclose(back.amplitudes, psi.amplitudes, rtol=0, atol=0)


def test_cutoff_json_round_trip():
    for cut in (Cutoff.per_mode(5), Cutoff.total(7), Cutoff.shell(2)):
        assert Cutoff.from_json_dict(cut.to_json_dict()) == cut


@pytest.mark.parametrize("occupations", [[7, 0], [1, 0, 0], [0.5, 1], [-1, 1]])
def test_state_from_json_rejects_entries_outside_the_basis(occupations):
    psi = vacuum_state(enumerate_basis(2, Cutoff.total(6)))
    payload = json.loads("".join(cli._state_pieces(psi)))
    payload["entries"].append({"occupations": occupations, "re": 1.0, "im": 0.0})
    with pytest.raises(ValueError):
        state_from_json_dict(payload)


# every library entry point that takes a whole number, with that argument left open
INTEGER_ARGUMENTS = {
    "Cutoff": lambda x: Cutoff("total", x),
    "enumerate_basis": lambda x: enumerate_basis(x, Cutoff.total(2)),
    "creation_op": lambda x: creation_op(enumerate_basis(2, Cutoff.total(2)), x),
    "auto_basis": lambda x: auto_basis(StateSpec("coherent", PoissonParams(1.0), (0.0,)),
                                       guard=x),
    "su_rp1_bilinear": lambda x: su_rp1_bilinear(enumerate_basis(2, Cutoff.shell(3)), x),
    "su_rp1_hp": lambda x: su_rp1_hp(enumerate_basis(1, Cutoff.per_mode(3)), x),
    "operator_identity_check": lambda x: operator_identity_check(x, 4, variant="su2"),
    "dynamical_binomial": lambda x: dynamical_binomial(TwoLevelDrive(1.0), 0.5, x),
}


@pytest.mark.parametrize("bad", [math.inf, math.nan, 2.5], ids=["inf", "nan", "2.5"])
@pytest.mark.parametrize("entry", list(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_inf_nan_and_fractions_with_value_error(entry, bad):
    # int(inf) raised OverflowError and int(nan) a message about conversion
    with pytest.raises(ValueError, match=r"must be an integer in \[\d+, "):
        INTEGER_ARGUMENTS[entry](bad)
