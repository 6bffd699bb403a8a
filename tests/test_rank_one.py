"""su(1,1) and su(2) as the rank-one su(r,1) and su(r+1) realizations.

The references below build the four rank-one realizations and their
relation lists directly, ladder monomial by monomial and diagonal by diagonal; the library derives them from
the rank-r constructors and must give the same generators bit for bit.
"""

import numpy as np
import pytest

from fockbench.algebra import relations_for, su2_bilinear, su2_hp, su11_bilinear, su11_hp
from fockbench.fock import Cutoff, _monomial, diagonal_op, enumerate_basis

REAL_M = (0.3, 2.5, 7.7)
INT_M = (1, 2, 3, 4, 5)


def _reference_su11_bilinear(basis, M):
    occ = basis.occupations
    return {
        "K+": _monomial(basis, create=(0, 1)),
        "K-": _monomial(basis, destroy=(0, 1)),
        "K0": diagonal_op(basis, 0.5 * (occ[:, 0] + occ[:, 1] + 1)),
        "N0": diagonal_op(basis, occ[:, 0]),
        "N1": diagonal_op(basis, occ[:, 1]),
    }


def _reference_su11_hp(basis, M):
    w = lambda occ: np.sqrt(M + occ[:, 0])
    occ = basis.occupations
    return {
        "K+": _monomial(basis, create=(0,), weight=w),
        "K-": _monomial(basis, destroy=(0,), weight=w),
        "K0": diagonal_op(basis, occ[:, 0] + M / 2.0),
        "N0": diagonal_op(basis, M - 1 + occ[:, 0]),
        "N1": diagonal_op(basis, occ[:, 0]),
    }


def _reference_su2_bilinear(basis, M):
    occ = basis.occupations
    return {
        "J+": _monomial(basis, create=(1,), destroy=(0,)),
        "J-": _monomial(basis, create=(0,), destroy=(1,)),
        "J0": diagonal_op(basis, 0.5 * (occ[:, 1] - occ[:, 0])),
        "N0": diagonal_op(basis, occ[:, 0]),
        "N1": diagonal_op(basis, occ[:, 1]),
    }


def _reference_su2_hp(basis, M):
    w = lambda occ: np.sqrt(np.maximum(M - occ[:, 0], 0))
    occ = basis.occupations
    return {
        "J+": _monomial(basis, create=(0,), weight=w),
        "J-": _monomial(basis, destroy=(0,), weight=w),
        "J0": diagonal_op(basis, occ[:, 0] - M / 2.0),
        "N0": diagonal_op(basis, M - occ[:, 0]),
        "N1": diagonal_op(basis, occ[:, 0]),
    }


SU11_RELATIONS = [
    ("[K+,K-] + 2 K0", [(1, ("K+", "K-")), (-1, ("K-", "K+")), (2, ("K0",))]),
    ("[K0,K+] - K+", [(1, ("K0", "K+")), (-1, ("K+", "K0")), (-1, ("K+",))]),
    ("[K0,K-] + K-", [(1, ("K0", "K-")), (-1, ("K-", "K0")), (1, ("K-",))]),
]

SU2_RELATIONS = [
    ("[J+,J-] - 2 J0", [(1, ("J+", "J-")), (-1, ("J-", "J+")), (-2, ("J0",))]),
    ("[J0,J+] - J+", [(1, ("J0", "J+")), (-1, ("J+", "J0")), (-1, ("J+",))]),
    ("[J0,J-] + J-", [(1, ("J0", "J-")), (-1, ("J-", "J0")), (1, ("J-",))]),
]


def _cases():
    for M in REAL_M + INT_M:
        for cutoff in (Cutoff.total(6), Cutoff.total(12)):
            yield su11_bilinear, _reference_su11_bilinear, enumerate_basis(2, cutoff), M
        yield su11_hp, _reference_su11_hp, enumerate_basis(1, Cutoff.per_mode(14)), M
    for M in INT_M:
        for cutoff in (Cutoff.shell(M), Cutoff.total(M + 2)):
            yield su2_bilinear, _reference_su2_bilinear, enumerate_basis(2, cutoff), M
        for cutoff in (Cutoff.per_mode(M), Cutoff.total(M)):
            yield su2_hp, _reference_su2_hp, enumerate_basis(1, cutoff), M


@pytest.mark.parametrize("build, reference, basis, M", list(_cases()))
def test_rank_one_generators_match_direct_construction(build, reference, basis, M):
    real = build(basis, M)
    expected = reference(basis, M)
    assert real.labels == list(expected)
    assert real.rank == 1
    for label, op in expected.items():
        got, want = real.op(label).matrix, op.matrix
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (label, name)
        assert real.op(label).lossy.tobytes() == op.lossy.tobytes(), label
    relations = SU11_RELATIONS if real.algebra == "su11" else SU2_RELATIONS
    assert relations_for(real) == relations


@pytest.mark.parametrize("build, basis", [
    (su11_bilinear, enumerate_basis(3, Cutoff.total(4))),
    (su11_hp, enumerate_basis(2, Cutoff.total(4))),
    (su2_bilinear, enumerate_basis(1, Cutoff.per_mode(3))),
    (su2_hp, enumerate_basis(1, Cutoff.per_mode(4))),  # levels 0..M+1 for M = 3
])
def test_rank_one_constructors_refuse_the_wrong_basis(build, basis):
    with pytest.raises(ValueError):
        build(basis, 3)
