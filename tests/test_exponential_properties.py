"""The Chebyshev action against scipy's dense exponential, and the generators that may use it.

The Chebyshev expansion is exact only for skew-Hermitian generators.  Only
``fock`` builds one: ``apply_skew_exponential`` and ``op_skew_exponential``
take (zeta, ladder) and build the rotation zeta X - zeta* X^dag themselves.
So the tests here check four things: the action agrees with
``scipy.linalg.expm`` on the generators those builds give, the generators are
skew-Hermitian exactly, the one non-normal route (exp(tau K+)) never reaches
the expansion, and no module but ``fock`` names the builder or the expansion.
"""

import ast
import cmath
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given
from hypothesis import strategies as hs

from fockbench import fock, generation
from fockbench.algebra import su2_hp, su11_hp, su_r1_hp, su_rp1_hp
from fockbench.fock import (
    Cutoff,
    LinearOperator,
    StateVector,
    _monomial,
    _one_norm,
    _rotation,
    apply_skew_exponential,
    creation_op,
    diagonal_op,
    enumerate_basis,
)

SRC = pathlib.Path(__file__).parent.parent / "src" / "fockbench"


def _pump(basis, M, compact):
    """b_1^dag sqrt(M -+ N), the chains' pump ladder."""
    if compact:
        weight = lambda occ: np.sqrt(np.maximum(M - occ.sum(axis=1), 0.0))
    else:
        weight = lambda occ: np.sqrt(M + occ.sum(axis=1))
    return _monomial(basis, create=(0,), weight=weight)


def _transfer(basis, j):
    """b_{j+1}^dag b_j, the chains' transfer ladder."""
    return _monomial(basis, create=(j,), destroy=(j - 1,))


def _drive(basis, omega, j, dt):
    """(zeta, ladder, diagonal) of -i dt (omega N + j a^dag + j* a), as dynamical_coherent
    passes them to apply_skew_exponential for one step."""
    calls = []

    def record(zeta, raising, psi, diagonal=None):
        calls.append((zeta, raising, diagonal))
        return psi

    current = generation.ClassicalCurrent(((0.0, dt, j),), omega)
    with mock.patch.object(generation, "apply_skew_exponential", record):
        generation.dynamical_coherent(current, dt, basis)
    (call,) = calls
    return call


def _dense_drive(basis, omega, j, dt):
    """-i dt (omega N + j a^dag + j* a) by dense arithmetic: H first, then its scaling."""
    up = creation_op(basis, 0).matrix.toarray()
    n = np.diag(basis.occupations[:, 0].astype(float))
    return (-1j * dt) * (omega * n + j * up + np.conj(j) * up.conj().T)


def _random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    return StateVector(basis, amps / np.linalg.norm(amps))


def _assert_matches_expm(psi, zeta, ladder, diagonal=None):
    out = apply_skew_exponential(zeta, ladder, psi, diagonal)
    reference = scipy.linalg.expm(_rotation(zeta, ladder, diagonal).toarray()) @ psi.amplitudes
    assert np.abs(out.amplitudes - reference).max() <= 1e-13
    assert abs(out.norm2() - psi.norm2()) <= 1e-14


_zetas = hs.builds(cmath.rect, hs.floats(0.0, 1.5), hs.floats(-math.pi, math.pi))


@given(rank=hs.integers(1, 3), cutoff=hs.integers(1, 10), compact=hs.booleans(),
       M=hs.integers(1, 6), real_M=hs.floats(0.1, 6.0), step=hs.integers(0, 2),
       zeta=_zetas, seed=hs.integers(0, 2**32 - 1))
def test_chebyshev_matches_expm_on_chain_rotations(rank, cutoff, compact, M, real_M, step,
                                                    zeta, seed):
    basis = enumerate_basis(rank, Cutoff.total(cutoff))
    if step == 0 or rank == 1:
        ladder = _pump(basis, M if compact else real_M, compact)
    else:
        ladder = _transfer(basis, min(step, rank - 1))
    _assert_matches_expm(_random_state(basis, seed), zeta, ladder)


@given(levels=hs.integers(1, 30), omega=hs.floats(0.0, 3.0),
       j=hs.builds(cmath.rect, hs.floats(0.0, 2.0), hs.floats(-math.pi, math.pi)),
       dt=hs.floats(1e-3, 2.0), seed=hs.integers(0, 2**32 - 1))
def test_chebyshev_matches_expm_on_current_drives(levels, omega, j, dt, seed):
    basis = enumerate_basis(1, Cutoff.per_mode(levels))
    _assert_matches_expm(_random_state(basis, seed), *_drive(basis, omega, j, dt))


@given(levels=hs.integers(1, 30), omega=hs.floats(-3.0, 3.0) | hs.just(0.0),
       j=hs.builds(cmath.rect, hs.floats(0.0, 2.0) | hs.just(0.0), hs.floats(-math.pi, math.pi)),
       dt=hs.floats(1e-3, 2.0))
@example(levels=12, omega=0.0, j=0.9 + 0.4j, dt=0.7)
@example(levels=12, omega=1.3, j=0j, dt=0.7)
@example(levels=12, omega=0.0, j=0j, dt=0.7)
def test_one_pass_drive_equals_dense_arithmetic(levels, omega, j, dt):
    # each entry is one product, (-i dt)(j sqrt(n+1)), its mirror or (-i dt)(omega n),
    # rounded as building H and then scaling it rounds them; (-i dt j) sqrt(n+1) is not
    basis = enumerate_basis(1, Cutoff.per_mode(levels))
    assert np.array_equal(_rotation(*_drive(basis, omega, j, dt)).toarray(),
                          _dense_drive(basis, omega, j, dt))


def _arithmetic_rotation(zeta, ladder, diagonal=None):
    """zeta X - zeta* X^dag by dense arithmetic, the reference for fock._rotation."""
    assert diagonal is None  # the chains build no drive
    dense = ladder.matrix.toarray()
    return scipy.sparse.csr_array(zeta * dense - np.conj(zeta) * dense.conj().T)


def _column_sum_norm(mat):
    return float(abs(mat).sum(axis=0).max())


@given(rank=hs.integers(1, 3), cutoff=hs.integers(1, 10),
       ladder=hs.sampled_from(["pump", "compact pump", "transfer", "su_r1_hp", "su_rp1_hp"]),
       M=hs.integers(1, 6), real_M=hs.floats(0.1, 6.0), mode=hs.integers(1, 3), zeta=_zetas)
def test_one_pass_rotation_equals_operator_arithmetic(rank, cutoff, ladder, M, real_M, mode,
                                                      zeta):
    basis = enumerate_basis(rank, Cutoff.total(M if ladder == "su_rp1_hp" else cutoff))
    mode = min(mode, rank)
    if ladder == "pump":
        x = _pump(basis, real_M, compact=False)
    elif ladder == "compact pump":
        x = _pump(basis, M, compact=True)
    elif ladder == "transfer" and rank > 1:
        x = _transfer(basis, min(mode, rank - 1))
    elif ladder == "transfer":  # rank one has no transfer: the su(1,1) ladder
        x = su11_hp(basis, real_M).op("K+")
    elif ladder == "su_rp1_hp":
        x = su_rp1_hp(basis, M).op(f"J{mode}0")
    else:
        x = su_r1_hp(basis, real_M).op(f"K+{mode}")
    gen = _rotation(zeta, x)
    reference = _arithmetic_rotation(zeta, x)
    assert np.array_equal(gen.toarray(), reference.toarray())
    # the bincount column sums add in the order abs(mat).sum(axis=0) does
    assert _one_norm(gen) == _column_sum_norm(gen)
    assert _one_norm(gen) == _column_sum_norm(reference)
    assert _one_norm(x.matrix) == _column_sum_norm(x.matrix)


def test_rotation_refuses_all_but_one_entry_per_row_and_column_off_the_diagonal():
    basis = enumerate_basis(1, Cutoff.per_mode(2))
    for target in ([2, 2, -1],  # two sources onto state 2: two entries in row 2
                   [0, 2, -1]):  # state 0 onto itself: an entry on the diagonal
        with pytest.raises(ValueError, match="one entry per row"):
            _rotation(0.5j, LinearOperator(basis, target, [1.0, 1.0, 0.0], [False] * 3))
    wide = enumerate_basis(2, Cutoff.total(3))
    with pytest.raises(ValueError, match="one entry per row"):
        _rotation(0.5, diagonal_op(wide, wide.occupations[:, 1]))
    empty = _rotation(0.5, LinearOperator(basis, [-1, -1, -1], np.zeros(3), [False] * 3))
    assert empty.nnz == 0


@pytest.mark.parametrize("zeta, diagonal", [
    (0.5, [0.0, 1.0, 2.0]),  # a real zeta would make the diagonal Hermitian
    (-0.5j + 1e-300, [0.0, 1.0, 2.0]),  # barely off the imaginary axis
    (-0.5j, [0.0, 1.0j, 2.0]),  # a complex diagonal has a Hermitian part too
    (-0.5j, [0.0, math.nan, 2.0]),
    (-0.5j, [0.0, math.inf, 2.0]),
])
def test_rotation_refuses_a_diagonal_that_is_not_skew_hermitian(zeta, diagonal):
    basis = enumerate_basis(1, Cutoff.per_mode(2))
    psi = StateVector(basis, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="diagonal needs finite real values and an imaginary"):
        apply_skew_exponential(zeta, creation_op(basis, 0), psi, np.array(diagonal))


@pytest.mark.parametrize("zeta", [math.nan, math.inf, complex(0.5, -math.inf), "0.5", True])
def test_rotation_refuses_a_zeta_that_is_no_finite_number(zeta):
    basis = enumerate_basis(1, Cutoff.per_mode(3))
    with pytest.raises(ValueError, match="zeta must be a finite number"):
        apply_skew_exponential(zeta, creation_op(basis, 0), StateVector(basis, [1, 0, 0, 0]))


def test_only_fock_builds_or_expands_a_skew_hermitian_generator():
    # a generator reaching the Chebyshev expansion from outside fock could be any matrix
    names = {"_rotation", "_chebyshev_exponential"}
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # a name used, an attribute read, an import (as) or a definition
            if names & {getattr(node, field, None) for field in ("id", "attr", "name", "asname")}:
                users.add(path.stem)
    assert users == {"fock"}


def _skew_hermitian_exactly(gen):
    dense = gen.toarray()
    return np.array_equal(dense, -dense.conj().T)


def test_exp_form_route_never_reaches_chebyshev(monkeypatch):
    def refuse(*args):
        raise AssertionError("exp(tau K+) is not normal; it must stay on the ladder series")

    monkeypatch.setattr(fock, "apply_skew_exponential", refuse)
    monkeypatch.setattr(generation, "apply_skew_exponential", refuse)
    monkeypatch.setattr(fock, "_chebyshev_exponential", refuse)
    real = su11_hp(enumerate_basis(1, Cutoff.per_mode(30)), 2.0)
    assert generation.exp_form_state(real, 0.5 * cmath.exp(0.3j)).norm2() > 0
    compact = su2_hp(enumerate_basis(1, Cutoff.per_mode(4)), 4)
    assert generation.exp_form_state(compact, 0.4).norm2() > 0


_ETA = tuple(math.sqrt(e) for e in (0.09, 0.06, 0.05))


# the rotation and drive routes on the bases that verify and the benchmark use
@pytest.mark.parametrize("route", [
    lambda: generation.sequential_nms(_ETA, (0.2, 0.9, 1.7), 2.0,
                                      enumerate_basis(3, Cutoff.total(16))),
    lambda: generation.sequential_nms(_ETA, (-0.4, 2.2, 0.1), 2.0,
                                      enumerate_basis(3, Cutoff.total(20))),
    lambda: generation.sequential_ms(tuple(math.sqrt(e) for e in (0.2, 0.2, 0.1)),
                                     (0.3, 0.6, 0.9), 16, enumerate_basis(3, Cutoff.total(16))),
    lambda: generation.displacement_state(
        su11_hp(enumerate_basis(1, Cutoff.per_mode(60)), 2.0), math.sqrt(0.3), 0.4),
    lambda: generation.displacement_state(
        su2_hp(enumerate_basis(1, Cutoff.per_mode(5)), 5), math.sqrt(0.6), -1.1),
    lambda: generation.dynamical_binomial(generation.TwoLevelDrive(1.0, 0.6), 0.5, 3),
    lambda: generation.dynamical_coherent(
        generation.ClassicalCurrent(((0.0, 0.7, 0.9 + 0.4j), (0.7, 1.5, -0.3 + 1.1j)), 1.3),
        1.5, enumerate_basis(1, Cutoff.per_mode(45))),
])
def test_rotation_and_drive_routes_pass_exactly_skew_hermitian_generators(monkeypatch, route):
    def refuse(*args):
        raise AssertionError("a skew-Hermitian generator must take the Chebyshev route")

    generators = []
    build = fock._rotation

    def record(*args):
        generators.append(build(*args))
        return generators[-1]

    monkeypatch.setattr(fock, "apply_exponential", refuse)
    monkeypatch.setattr(generation, "apply_exponential", refuse)
    monkeypatch.setattr(fock, "_rotation", record)
    assert abs(route().norm2() - 1.0) <= 1e-12
    assert generators and all(_skew_hermitian_exactly(gen) for gen in generators)


@pytest.mark.parametrize("chain", [
    lambda: generation.sequential_nms(_ETA, (0.2, 0.9, 1.7), 2.0,
                                      enumerate_basis(3, Cutoff.total(16))),
    lambda: generation.sequential_ms(tuple(math.sqrt(e) for e in (0.2, 0.2, 0.1)),
                                     (0.3, 0.6, 0.9), 16, enumerate_basis(3, Cutoff.total(16))),
])
def test_chains_at_969_states_match_the_arithmetic_generator_bit_for_bit(monkeypatch, chain):
    fast = chain().amplitudes
    monkeypatch.setattr(fock, "_rotation", _arithmetic_rotation)
    monkeypatch.setattr(fock, "_one_norm", lambda mat: _column_sum_norm(mat))
    assert np.array_equal(chain().amplitudes, fast)
