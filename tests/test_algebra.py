import json
import re

import numpy as np
import pytest
import scipy.sparse

from fockbench.algebra import (
    intertwining_check,
    relations_for,
    su2_bilinear,
    su2_hp,
    su11_bilinear,
    su11_hp,
    su_r1_bilinear,
    su_r1_hp,
    su_rp1_bilinear,
    su_rp1_hp,
    verify_algebra,
)
from fockbench import checks, fock
from fockbench.fock import Cutoff, LinearOperator, basis_state, enumerate_basis


def _worst(reports):
    vals = [r["max_residual"] for r in reports if r["max_residual"] is not None]
    assert vals, "no interior states were checked"
    return max(vals)


def test_su11_bilinear_relations():
    basis = enumerate_basis(2, Cutoff.total(12))
    reports = verify_algebra(su11_bilinear(basis, 3.0))
    assert _worst(reports) < 1e-12
    assert all(r["interior_count"] > 0 for r in reports)


def test_su11_hp_relations_real_order():
    basis = enumerate_basis(1, Cutoff.per_mode(14))
    for M in (1.0, 2.5, 4.0):
        reports = verify_algebra(su11_hp(basis, M))
        assert _worst(reports) < 1e-12


def test_su11_lowest_weight():
    # K0 |0> = (M/2) |0> in the reduced picture
    basis = enumerate_basis(1, Cutoff.per_mode(8))
    real = su11_hp(basis, 2.5)
    k0 = real.op("K0")
    vac = basis_state(basis, (0,))
    out = k0.apply(vac)
    assert abs(out.amplitude((0,)) - 1.25) < 1e-14


def test_su2_hp_two_level_block():
    # M = 1 restricts the ladder to a single excitation: a Pauli-type block
    basis = enumerate_basis(1, Cutoff.per_mode(1))
    real = su2_hp(basis, 1)
    jp = real.op("J+").matrix.toarray()
    jm = real.op("J-").matrix.toarray()
    np.testing.assert_allclose(jp, np.array([[0, 0], [1, 0]], dtype=complex), atol=1e-15)
    np.testing.assert_allclose(jm, jp.conj().T, atol=0)
    comm = jp @ jm - jm @ jp
    np.testing.assert_allclose(comm, np.diag([-1.0, 1.0]), atol=1e-15)


def test_su2_relations():
    basis = enumerate_basis(2, Cutoff.total(8))
    reports = verify_algebra(su2_bilinear(basis, 5))
    assert _worst(reports) < 1e-12
    reduced = enumerate_basis(1, Cutoff.per_mode(5))
    reports = verify_algebra(su2_hp(reduced, 5))
    assert _worst(reports) < 1e-12


def test_su2_hp_ladder_annihilates_top():
    basis = enumerate_basis(1, Cutoff.per_mode(3))
    real = su2_hp(basis, 3)
    top = real.op("J+").apply(basis_state(basis, (3,)))
    assert top.norm2() == 0.0


def test_rank_two_noncompact_relations():
    basis = enumerate_basis(3, Cutoff.total(8))
    reports = verify_algebra(su_r1_bilinear(basis, 2.0))
    assert _worst(reports) < 1e-12
    reduced = enumerate_basis(2, Cutoff.total(6))
    reports = verify_algebra(su_r1_hp(reduced, 2.0))
    assert _worst(reports) < 1e-12


def test_rank_two_compact_relations():
    basis = enumerate_basis(3, Cutoff.shell(3))
    reports = verify_algebra(su_rp1_bilinear(basis, 3))
    assert _worst(reports) < 1e-12
    reduced = enumerate_basis(2, Cutoff.total(3))
    reports = verify_algebra(su_rp1_hp(reduced, 3))
    assert _worst(reports) < 1e-12


def test_relation_reports_are_json_ready():
    basis = enumerate_basis(1, Cutoff.per_mode(6))
    reports = verify_algebra(su11_hp(basis, 2.0))
    text = json.dumps(reports)
    assert "max_residual" in text


def test_relations_listing_nonempty():
    basis = enumerate_basis(1, Cutoff.per_mode(4))
    real = su11_hp(basis, 1.0)
    rels = relations_for(real)
    assert len(rels) >= 3


def _corrupt(real, label, column):
    """Put into ``real`` a rebuilt raising record whose weight in ``column`` is 1.5x larger."""
    op = real.op(label)
    weight = op.weight.copy()
    weight[column] *= 1.5
    real.generators[label] = LinearOperator(real.basis, op.target, weight, op.lossy)


def _corrupted_k_plus():
    """su11_hp with the K+ entry of column 2 (row 3) scaled by 1.5."""
    real = su11_hp(enumerate_basis(1, Cutoff.per_mode(10)), 2.0)
    assert real.op("K+").target[2] == 3
    _corrupt(real, "K+", 2)
    return real


def test_corrupted_generator_fails_loudly():
    # negative control: breaking one entry of the record must blow up the residual
    real = _corrupted_k_plus()
    reports = verify_algebra(real)
    assert _worst(reports) > 0.1


def _all_realizations():
    return [
        su11_bilinear(enumerate_basis(2, Cutoff.total(8)), 2.0),
        su11_hp(enumerate_basis(1, Cutoff.per_mode(9)), 2.5),
        su2_bilinear(enumerate_basis(2, Cutoff.shell(4)), 4),
        su2_hp(enumerate_basis(1, Cutoff.per_mode(4)), 4),
        su_r1_bilinear(enumerate_basis(3, Cutoff.total(6)), 2.0),
        su_r1_hp(enumerate_basis(2, Cutoff.total(6)), 1.5),
        su_rp1_bilinear(enumerate_basis(3, Cutoff.shell(3)), 3),
        su_rp1_hp(enumerate_basis(2, Cutoff.total(3)), 3),
    ]


def test_every_generator_has_at_most_one_entry_per_column():
    for real in _all_realizations():
        d = len(real.basis)
        for label in real.labels:
            assert real.op(label).matrix.nnz <= d, (real.algebra, real.form, label)


def _map_csr(op):
    """The CSR of a ladder map: its entries in source order, row pointers from a target count."""
    d = len(op.target)
    source = np.flatnonzero(op.target >= 0)
    indptr = np.zeros(d + 1, dtype=np.int64)
    np.cumsum(np.bincount(op.target[source], minlength=d), out=indptr[1:])
    return scipy.sparse.csr_array((op.weight[source], source, indptr), shape=(d, d))


def test_every_generator_matrix_is_its_column_map_built_once():
    for real in _all_realizations():
        d = len(real.basis)
        for label in real.labels:
            op = real.op(label)
            want = _map_csr(op)
            got = op.matrix
            assert got is op.matrix, label
            assert got.dtype == np.complex128 and got.shape == (d, d), label
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (label, name)
            rows = np.repeat(np.arange(d), np.diff(got.indptr))
            assert np.bincount(rows, minlength=d).max(initial=0) <= 1, label
            assert np.bincount(got.indices, minlength=d).max(initial=0) <= 1, label
            for field in (op.target, op.weight, got.data, got.indices, got.indptr):
                with pytest.raises(ValueError, match="read-only"):
                    field[0] = field[0]


def test_algebra_suite_builds_no_csr_matrix(monkeypatch):
    expected = checks.SUITES["algebra"]()

    def refuse(*args, **kwargs):
        raise AssertionError("verify algebra built a CSR matrix")

    monkeypatch.setattr(fock.sp, "csr_array", refuse)
    assert checks.SUITES["algebra"]() == expected


def _dense_reports(real):
    """verify_algebra's reports from dense matrix products and an explicit mask."""
    d = len(real.basis)
    dense = {label: real.op(label).matrix.toarray() for label in real.labels}
    reports = []
    for name, terms in relations_for(real):
        acc = np.zeros((d, d), dtype=complex)
        mask = np.ones(d, dtype=bool)
        for coeff, labels in terms:
            if not labels:
                acc += coeff * np.eye(d)
            elif len(labels) == 1:
                acc += coeff * dense[labels[0]]
                mask &= ~real.op(labels[0]).lossy
            else:
                a, b = labels
                acc += coeff * (dense[a] @ dense[b])
                target_b = real.op(b).target
                reached = target_b >= 0
                second = np.ones(d, dtype=bool)
                second[reached] = ~real.op(a).lossy[target_b[reached]]
                mask &= ~real.op(b).lossy & second
        col_res = np.abs(acc[:, mask]).max(axis=0)
        worst = int(np.argmax(col_res))
        reports.append({"relation": name, "max_residual": float(col_res[worst]),
                        "worst_state": list(real.basis.states[np.flatnonzero(mask)[worst]]),
                        "interior_count": int(mask.sum())})
    return reports


def test_verify_algebra_matches_dense_reference():
    for real in _all_realizations()[::2] + [su_r1_hp(enumerate_basis(3, Cutoff.total(5)), 2.0)]:
        assert verify_algebra(real) == _dense_reports(real), (real.algebra, real.form)


def test_verify_algebra_matches_dense_reference_on_corrupted_generator():
    real = _corrupted_k_plus()
    reports = verify_algebra(real)
    assert reports == _dense_reports(real)
    assert _worst(reports) > 0.1


def test_intertwining_noncompact():
    M = 3
    reduced = enumerate_basis(1, Cutoff.per_mode(5))
    parent = enumerate_basis(2, Cutoff.total(M - 1 + 2 * 5))
    reports = intertwining_check(su11_bilinear(parent, float(M)), su11_hp(reduced, float(M)))
    assert reports
    assert _worst(reports) <= 1e-12


def test_intertwining_compact_shell():
    M = 3
    reduced = enumerate_basis(2, Cutoff.total(M))
    parent = enumerate_basis(3, Cutoff.shell(M))
    reports = intertwining_check(su_rp1_bilinear(parent, M), su_rp1_hp(reduced, M))
    assert _worst(reports) <= 1e-12


def test_intertwining_rank_two_noncompact():
    M = 2
    reduced = enumerate_basis(2, Cutoff.total(5))
    parent = enumerate_basis(3, Cutoff.total(M - 1 + 10))
    reports = intertwining_check(su_r1_bilinear(parent, float(M)), su_r1_hp(reduced, float(M)))
    assert _worst(reports) <= 1e-12


def _dense_intertwining_reports(bilinear, reduced, M):
    """intertwining_check's reports from the dense product B E - E R and an explicit mask,
    for the noncompact shell n0 = M - 1 + sum(n'), embedded one index_of per reduced state."""
    parent, small = bilinear.basis, reduced.basis
    rows = [parent.index_of((M - 1 + sum(occ),) + occ) for occ in small.states]
    e = np.zeros((len(parent), len(small)))
    e[rows, np.arange(len(small))] = 1.0
    reports = []
    for label in reduced.labels:
        diff = bilinear.op(label).matrix.toarray() @ e - e @ reduced.op(label).matrix.toarray()
        mask = ~reduced.op(label).lossy & ~bilinear.op(label).lossy[rows]
        col_res = np.abs(diff[:, mask]).max(axis=0)
        worst = int(np.argmax(col_res))
        reports.append({"label": label, "max_residual": float(col_res[worst]),
                        "worst_state": list(small.states[np.flatnonzero(mask)[worst]]),
                        "interior_count": int(mask.sum())})
    return reports


def test_intertwining_corrupted_reduced_generator_fails_loudly():
    # negative control: breaking one entry of a reduced generator must show up
    M = 2
    reduced = enumerate_basis(2, Cutoff.total(4))
    parent = enumerate_basis(3, Cutoff.total(M - 1 + 8))
    bilinear, hp = su_r1_bilinear(parent, float(M)), su_r1_hp(reduced, float(M))
    _corrupt(hp, "K+2", np.flatnonzero(hp.op("K+2").target >= 0)[4])  # its 5th stored entry
    reports = intertwining_check(bilinear, hp)
    assert reports == _dense_intertwining_reports(bilinear, hp, M)
    assert _worst(reports) > 0.1
    assert [r["label"] for r in reports if r["max_residual"] > 0.1] == ["K+2"]


@pytest.mark.parametrize("bilinear, reduced, message", [
    (lambda: su11_hp(enumerate_basis(1, Cutoff.per_mode(5)), 3.0),
     lambda: su11_bilinear(enumerate_basis(2, Cutoff.total(12)), 3.0),
     "bilinear realization first"),
    # su(r,1) bilinears against su(r+1) weights share only N0, N1 and N2, which agree
    (lambda: su_r1_bilinear(enumerate_basis(3, Cutoff.total(8)), 3.0),
     lambda: su_rp1_hp(enumerate_basis(2, Cutoff.total(3)), 3),
     "a su_r1 bilinear realization cannot be compared with a su_rp1 reduced one"),
    (lambda: su_r1_bilinear(enumerate_basis(3, Cutoff.total(12)), 3.0),
     lambda: su_r1_hp(enumerate_basis(1, Cutoff.per_mode(5)), 3.0),
     "exactly one more mode"),
    # su_r1_hp takes a real M, but only a whole M has a constraint shell
    (lambda: su11_bilinear(enumerate_basis(2, Cutoff.total(12)), 2.5),
     lambda: su11_hp(enumerate_basis(1, Cutoff.per_mode(5)), 2.5),
     "M must be an integer in [1, inf], got 2.5"),
    # the reduced state (5,) at M = 3 sits at the parent row (7, 5), past total 11
    (lambda: su11_bilinear(enumerate_basis(2, Cutoff.total(11)), 3.0),
     lambda: su11_hp(enumerate_basis(1, Cutoff.per_mode(5)), 3.0),
     "reduced state (5,) embeds to (7, 5), outside the bilinear basis"),
], ids=["wrong-order", "different-algebras", "not-one-mode-wider", "fractional-M",
        "parent-row-outside"])
def test_intertwining_refusals(bilinear, reduced, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        intertwining_check(bilinear(), reduced())


def test_compact_reduced_realization_rejects_wrong_simplex():
    basis = enumerate_basis(2, Cutoff.total(2))  # 6 states, not the 10 of total <= 3
    with pytest.raises(ValueError):
        su_rp1_hp(basis, 3)


def test_labels_cover_rank():
    basis = enumerate_basis(2, Cutoff.total(4))
    real = su_r1_hp(basis, 1.5)
    # r = 2 noncompact set: 2 raising, 2 lowering, 2 mixing, 3 diagonal
    assert real.rank == 2
    for lbl in ("K+1", "K+2", "K-1", "K-2", "N1", "N2", "N0"):
        assert lbl in real.labels
