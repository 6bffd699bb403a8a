import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from fockbench.algebra import su2_hp, su11_hp
from fockbench.fock import (
    Cutoff,
    LinearOperator,
    _bessel_j,
    _column_images,
    _one_norm,
    _rotation,
    _series_exponential,
    _strictly_triangular,
    annihilation_op,
    apply_exponential,
    apply_skew_exponential,
    basis_state,
    commutator,
    creation_op,
    enumerate_basis,
    fidelity,
    identity_op,
    inner,
    number_op,
    op_exponential,
    state_from_json_dict,
    state_to_json_dict,
    total_number_op,
    vacuum_state,
)


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
        assert basis.contains(occ)
    assert not basis.contains((7, 0))
    with pytest.raises(ValueError):
        basis.index_of((7, 0))
    # whole floats name the same state; anything else lies outside the basis
    assert basis.index_of((1.0, 2.0)) == basis.index_of((1, 2))
    for occ in ((1.5, 2), (float("nan"), 0), (float("inf"), 0), (-1, 2), (1, 2, 0), (1,)):
        assert not basis.contains(occ)
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


def test_state_cap_enforced():
    with pytest.raises(ValueError):
        enumerate_basis(2, Cutoff.per_mode(9), max_states=50)


def test_ladder_actions():
    basis = enumerate_basis(1, Cutoff.per_mode(5))
    raise_ = creation_op(basis, 0)
    lower = annihilation_op(basis, 0)
    for n in range(5):
        up = raise_ @ basis_state(basis, (n,))
        assert abs(up.amplitude((n + 1,)) - np.sqrt(n + 1)) < 1e-15
    for n in range(1, 6):
        down = lower @ basis_state(basis, (n,))
        assert abs(down.amplitude((n - 1,)) - np.sqrt(n)) < 1e-15
    # out-of-basis target is dropped, not wrapped
    top = raise_ @ basis_state(basis, (5,))
    assert top.norm() == 0.0


def test_annihilation_is_exact_adjoint():
    basis = enumerate_basis(2, Cutoff.total(5))
    for mode in range(2):
        a = annihilation_op(basis, mode)
        adag = creation_op(basis, mode)
        assert np.array_equal(a.matrix.toarray(), adag.matrix.conj().T.toarray())


def test_commutator_identity_on_interior():
    basis = enumerate_basis(2, Cutoff.per_mode(6))
    comm = commutator(annihilation_op(basis, 0), creation_op(basis, 0))
    for occ in basis.states:
        if occ[0] < 6:  # interior in the acted mode
            out = comm @ basis_state(basis, occ)
            assert abs(out.amplitude(occ) - 1.0) < 1e-14


def test_cross_mode_commutators_vanish():
    basis = enumerate_basis(2, Cutoff.per_mode(4))
    c = commutator(annihilation_op(basis, 0), creation_op(basis, 1))
    assert np.max(np.abs(c.matrix.toarray())) == 0.0


def test_number_operators():
    basis = enumerate_basis(2, Cutoff.total(4))
    n0 = number_op(basis, 0)
    ntot = total_number_op(basis)
    for occ in basis.states:
        psi = basis_state(basis, occ)
        assert abs((n0 @ psi).amplitude(occ) - occ[0]) < 1e-15
        assert abs((ntot @ psi).amplitude(occ) - sum(occ)) < 1e-15


def test_op_exponential_matches_scipy():
    rng = np.random.default_rng(11)
    basis = enumerate_basis(1, Cutoff.per_mode(11))
    d = len(basis)
    mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat *= 2.0 / np.linalg.norm(mat, 1)
    ours = op_exponential(LinearOperator(basis, mat))
    ref = scipy.linalg.expm(mat)
    np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)


def test_op_exponential_inverse_pair():
    rng = np.random.default_rng(5)
    basis = enumerate_basis(1, Cutoff.per_mode(9))
    d = len(basis)
    mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat *= 4.5 / np.linalg.norm(mat, 1)
    fwd = op_exponential(LinearOperator(basis, mat))
    back = op_exponential(LinearOperator(basis, -mat))
    resid = np.max(np.abs(fwd @ back - np.eye(d)))
    assert resid < 1e-11


def test_op_exponential_zero_is_identity():
    basis = enumerate_basis(2, Cutoff.total(3))
    out = op_exponential(LinearOperator(basis, np.zeros((len(basis), len(basis)))))
    assert np.array_equal(out, np.eye(len(basis)))


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


@pytest.mark.parametrize("generator", [
    lambda: creation_op(enumerate_basis(1, Cutoff.per_mode(9)), 0),
    lambda: 0.8 * su2_hp(enumerate_basis(1, Cutoff.per_mode(4)), 4).op("J+"),
    lambda: (-0.6 + 0.5j) * su2_hp(enumerate_basis(1, Cutoff.per_mode(6)), 6).op("J-"),
    lambda: (0.5 - 0.3j) * su11_hp(enumerate_basis(1, Cutoff.per_mode(12)), 2.5).op("K+"),
    lambda: (0.7 + 0.2j) * su11_hp(enumerate_basis(1, Cutoff.per_mode(12)), 2.5).op("K-"),
    lambda: LinearOperator(enumerate_basis(1, Cutoff.per_mode(7)),
                           _random_strictly_triangular(8, lower=True)),
    lambda: LinearOperator(enumerate_basis(1, Cutoff.per_mode(7)),
                           _random_strictly_triangular(8, lower=False)),
])
def test_op_exponential_of_a_nilpotent_generator_is_its_taylor_polynomial(generator):
    op = generator()
    dense = op.matrix.toarray()
    assert _strictly_triangular(op.matrix) and _strictly_triangular(dense)
    expect = _taylor_polynomial(dense)
    out = op_exponential(op)
    assert np.abs(out - expect).max() <= 1e-15 * np.abs(expect).max()


def test_op_exponential_scale_multiplies_the_generator():
    real = su2_hp(enumerate_basis(1, Cutoff.per_mode(4)), 4)
    for label, scale in (("J+", 0.3 - 0.8j), ("J0", math.log1p(0.5)), ("J-", -1.2)):
        op = real.op(label)
        assert np.array_equal(op_exponential(op, scale), op_exponential(scale * op))


def _substep_series(mat, block):
    """The Taylor action with ceil(||mat||_1) substeps for every ``mat``, nilpotent or not."""
    steps = max(1, math.ceil(_one_norm(mat)))
    scaled = mat / steps
    out = block.astype(complex)
    for _ in range(steps):
        term, k = out, 0
        while True:
            k += 1
            term = scaled @ term
            term /= k
            out += term
            if not np.vdot(term, term).real > 1e-30 * np.vdot(out, out).real:
                break
    return out


def test_rotation_and_diagonal_generators_keep_their_substeps_bit_for_bit():
    real = su11_hp(enumerate_basis(1, Cutoff.per_mode(30)), 2.5)
    rotation = _rotation(1.1 - 0.6j, real.raising["K+"]).matrix
    diagonal = (0.9 * real.op("K0")).matrix
    psi = vacuum_state(real.basis).amplitudes + 0.25
    identity = np.eye(len(real.basis), dtype=complex)
    for mat in (rotation, diagonal):
        assert not _strictly_triangular(mat) and _one_norm(mat) > 2
        assert np.array_equal(_series_exponential(mat, psi), _substep_series(mat, psi))
        dense = mat.toarray()
        assert np.array_equal(_series_exponential(dense, identity),
                              _substep_series(dense, identity))


def test_apply_exponential_matches_matrix_route():
    rng = np.random.default_rng(23)
    basis = enumerate_basis(2, Cutoff.total(6))
    d = len(basis)
    mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat *= 3.0 / np.linalg.norm(mat, 1)
    op = LinearOperator(basis, mat)
    psi = vacuum_state(basis)
    via_vec = apply_exponential(op, psi)
    via_mat = op_exponential(op) @ psi.amplitudes
    np.testing.assert_allclose(via_vec.amplitudes, via_mat, rtol=0, atol=1e-12)


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


def test_skew_exponential_of_zero_generator_returns_the_input():
    basis = enumerate_basis(2, Cutoff.total(4))
    psi = vacuum_state(basis)
    psi.amplitudes[3] = 0.5j
    out = apply_skew_exponential(0.0 * creation_op(basis, 1), psi)
    assert out is not psi and out.amplitudes is not psi.amplitudes
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_skew_exponential_matches_dense_rotation():
    basis = enumerate_basis(1, Cutoff.per_mode(12))
    adag = creation_op(basis, 0)
    zeta = 0.9 - 0.4j
    gen = zeta * adag - np.conj(zeta) * adag.adjoint()
    psi = vacuum_state(basis)
    expect = scipy.linalg.expm(gen.matrix.toarray()) @ psi.amplitudes
    out = apply_skew_exponential(gen, psi)
    np.testing.assert_allclose(out.amplitudes, expect, rtol=0, atol=1e-14)


@pytest.mark.parametrize("route", [apply_exponential, apply_skew_exponential])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_exponentials_refuse_a_non_finite_generator(route, bad):
    basis = enumerate_basis(1, Cutoff.per_mode(4))
    mat = np.zeros((5, 5), dtype=complex)
    mat[1, 0], mat[0, 1] = bad, -bad
    with pytest.raises(ValueError, match="generator norm is not finite"):
        route(LinearOperator(basis, mat), vacuum_state(basis))


def test_state_vector_normalization_and_inner():
    basis = enumerate_basis(1, Cutoff.per_mode(3))
    a = basis_state(basis, (1,))
    b = basis_state(basis, (2,))
    combo = type(a)(basis, a.amplitudes + 1j * b.amplitudes)
    assert abs(combo.norm2() - 2.0) < 1e-15
    unit = combo.normalized()
    assert abs(unit.norm() - 1.0) < 1e-15
    assert abs(inner(a, combo) - 1.0) < 1e-15
    assert abs(inner(b, combo) - (-1j) * -1) < 1e-15  # vdot conjugates the left


def test_fidelity_bounds_and_errors():
    basis = enumerate_basis(1, Cutoff.per_mode(3))
    a = basis_state(basis, (0,))
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-15)
    zero = a.copy()
    zero.amplitudes[:] = 0
    with pytest.raises(ValueError):
        fidelity(a, zero)


def test_adjoint_involution_exact():
    basis = enumerate_basis(2, Cutoff.total(3))
    op = creation_op(basis, 1)
    assert np.array_equal(op.adjoint().adjoint().matrix.toarray(), op.matrix.toarray())


def test_operator_shape_validation():
    basis = enumerate_basis(1, Cutoff.per_mode(2))
    with pytest.raises(ValueError):
        LinearOperator(basis, np.zeros((2, 2)))


def test_column_images_read_the_ladder_map_and_refuse_two_entries():
    basis = enumerate_basis(1, Cutoff.per_mode(2))
    target, weight = _column_images(creation_op(basis, 0))
    assert target.tolist() == [1, 2, -1]
    assert weight.tolist() == [1.0, np.sqrt(2.0), 0.0]
    both = creation_op(basis, 0) + annihilation_op(basis, 0)  # |1> goes to |0> and |2>
    with pytest.raises(ValueError, match="more than one state"):
        _column_images(both)


def test_serialization_round_trip():
    basis = enumerate_basis(2, Cutoff.total(3))
    rng = np.random.default_rng(3)
    psi = vacuum_state(basis)
    psi.amplitudes[:] = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    d = state_to_json_dict(psi)
    assert d["schema"] == "fockbench.state/1"
    back = state_from_json_dict(d)
    assert back.basis.states == basis.states
    np.testing.assert_allclose(back.amplitudes, psi.amplitudes, rtol=0, atol=0)


def test_cutoff_json_round_trip():
    for cut in (Cutoff.per_mode(5), Cutoff.total(7), Cutoff.shell(2)):
        assert Cutoff.from_json_dict(cut.to_json_dict()) == cut


def test_identity_op_is_identity():
    basis = enumerate_basis(2, Cutoff.per_mode(2))
    psi = basis_state(basis, (1, 2))
    out = identity_op(basis) @ psi
    assert np.array_equal(out.amplitudes, psi.amplitudes)


@pytest.mark.parametrize("occupations", [[7, 0], [1, 0, 0], [0.5, 1], [-1, 1]])
def test_state_from_json_rejects_entries_outside_the_basis(occupations):
    payload = state_to_json_dict(vacuum_state(enumerate_basis(2, Cutoff.total(6))))
    payload["entries"].append({"occupations": occupations, "re": 1.0, "im": 0.0})
    with pytest.raises(ValueError):
        state_from_json_dict(payload)
