"""Property tests of graded-lex ranking and ladder monomials.

The references are built independently of fockbench's enumerator: every
occupation in a box, filtered by :func:`admits` and sorted by (total,
occupations), and a per-state loop for each monomial.
"""

import itertools
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as hs

from fockbench.fock import (
    Cutoff,
    _monomial,
    annihilation_op,
    creation_op,
    diagonal_op,
    enumerate_basis,
)

# largest cutoff value per (kind, modes) that keeps a basis below ~1000 states
# and the reference box of (value + 1)^modes occupations below ~5e4
LIMITS = {"per_mode": {1: 40, 2: 15, 3: 7, 4: 4, 5: 3, 6: 2},
          "total": {1: 40, 2: 30, 3: 12, 4: 8, 5: 5, 6: 4},
          "shell": {1: 40, 2: 40, 3: 25, 4: 12, 5: 6, 6: 5}}


@hs.composite
def bases(draw, max_modes=4):
    modes = draw(hs.integers(1, max_modes))
    kind = draw(hs.sampled_from(sorted(LIMITS)))
    value = draw(hs.integers(0, LIMITS[kind][modes]))
    return enumerate_basis(modes, Cutoff(kind, value))


def admits(cutoff, occ):
    """Whether the occupation tuple ``occ`` lies inside ``cutoff``, read off its definition."""
    if any(n < 0 for n in occ):
        return False
    if cutoff.kind == "per_mode":
        return all(n <= cutoff.value for n in occ)
    if cutoff.kind == "total":
        return sum(occ) <= cutoff.value
    return sum(occ) == cutoff.value


def reference_order(basis):
    # no entry of any admitted state exceeds the cutoff value
    box = itertools.product(range(basis.cutoff.value + 1), repeat=basis.modes)
    return sorted((occ for occ in box if admits(basis.cutoff, occ)), key=lambda o: (sum(o), o))


@given(bases())
def test_enumeration_is_graded_lex_over_admitted_states(basis):
    assert basis.states == tuple(reference_order(basis))
    assert len(basis) == basis.cutoff.size(basis.modes)


# entries no basis holds: huge or extreme integers, and floats that are
# non-integral, non-finite or at least 2^62
_HUGE = [2**62, 2**63 - 1, -2**63]
_ODD_FLOATS = [0.5, -0.5, 2.25, 2.0**62, 2.0**63, -2.0**62, math.nan, math.inf, -math.inf]


def _reference_rank(index, row):
    key = tuple(int(v) if float(v).is_integer() else v for v in row)
    return index.get(key, -1)


@given(bases(max_modes=6), hs.data())
def test_rank_inverts_enumeration_and_flags_outsiders(basis, data):
    assert np.array_equal(basis.rank(basis.occupations), np.arange(len(basis)))
    index = {occ: i for i, occ in enumerate(reference_order(basis))}
    hi = basis.cutoff.value * basis.modes + 3  # reaches over every total bound
    entry = hs.integers(-3, hi)

    def rows(entries):
        return data.draw(hs.lists(hs.lists(entries, min_size=basis.modes, max_size=basis.modes),
                                  min_size=1, max_size=20))

    int_rows = rows(hs.one_of(entry, entry, entry, hs.sampled_from(_HUGE)))
    float_rows = rows(hs.one_of(entry.map(float), hs.sampled_from(_ODD_FLOATS)))
    for drawn in (int_rows, float_rows):
        expected = [_reference_rank(index, row) for row in drawn]
        assert basis.rank(drawn).tolist() == expected
        for row, want in zip(drawn, expected):
            assert basis.rank(row)[0] == want  # one row at a time, as index_of asks


def _weight(kind):
    """A weight on the (n, modes) occupation rows and its per-state twin."""
    if kind == "none":
        return None, None
    if kind == "sqrt":
        return (lambda occ: np.sqrt(1.5 + occ.sum(axis=1)),
                lambda occ: math.sqrt(1.5 + sum(occ)))
    # clamped: zero from total 5 up, so some states are annihilated
    return (lambda occ: np.sqrt(np.maximum(5 - occ.sum(axis=1), 0.0)),
            lambda occ: math.sqrt(max(5 - sum(occ), 0.0)))


@given(bases(), hs.data())
def test_monomial_matches_per_state_loop(basis, data):
    modes = hs.integers(0, basis.modes - 1)
    create = tuple(data.draw(hs.lists(modes, max_size=2)))
    destroy = tuple(data.draw(hs.lists(modes, max_size=2)))
    weight, weight_one = _weight(data.draw(hs.sampled_from(["none", "sqrt", "clamped"])))
    op = _monomial(basis, create=create, destroy=destroy, weight=weight)
    target, lossy = op.target, op.lossy
    assert not op.weight[target < 0].any()  # a state sent nowhere carries no weight
    index = {occ: i for i, occ in enumerate(basis.states)}
    dense = op.matrix.toarray()
    expected = np.zeros_like(dense)
    for s, occ in enumerate(basis.states):
        occ2, amp, alive = list(occ), 1.0, True
        for k in destroy:
            if occ2[k] == 0:
                alive = False
                break
            amp *= math.sqrt(occ2[k])
            occ2[k] -= 1
        if alive and weight_one is not None:
            amp *= weight_one(occ2)
            alive = amp != 0.0
        if not alive:
            assert target[s] == -1 and not lossy[s]
            continue
        for j in create:
            amp *= math.sqrt(occ2[j] + 1)
            occ2[j] += 1
        inside = admits(basis.cutoff, occ2)
        assert lossy[s] == (not inside)
        assert target[s] == (index[tuple(occ2)] if inside else -1)
        if inside:
            expected[index[tuple(occ2)], s] = amp
    assert np.array_equal(dense, expected)  # bit-exact: same factors, same order


@given(bases(), hs.data())
def test_diagonal_op_is_the_weight_only_monomial_bit_for_bit(basis, data):
    # the one diagonal builder and the general monomial agree on every array,
    # zero weights included: both send such a state nowhere
    weight, _ = _weight(data.draw(hs.sampled_from(["sqrt", "clamped"])))
    diag, mono = diagonal_op(basis, weight(basis.occupations)), _monomial(basis, weight=weight)
    for name in ("target", "weight", "lossy"):
        a, b = getattr(diag, name), getattr(mono, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("data", "indices", "indptr"):
        a, b = getattr(diag.matrix, name), getattr(mono.matrix, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@given(bases(), hs.data())
def test_annihilation_is_bit_exact_adjoint_of_creation(basis, data):
    mode = data.draw(hs.integers(0, basis.modes - 1))
    lower = annihilation_op(basis, mode).matrix
    raise_ = creation_op(basis, mode).matrix
    assert np.array_equal(lower.toarray(), raise_.toarray().conj().T)
    # and the lowering monomial built on its own lands on the same entries
    assert np.array_equal(lower.toarray(), _monomial(basis, destroy=(mode,)).matrix.toarray())
