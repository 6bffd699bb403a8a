"""Property tests of graded-lex ranking and ladder monomials.

The references are built independently of fockbench's enumerator: every
occupation in a box, filtered by ``Cutoff.admits`` and sorted by (total,
occupations), and a per-state loop for each monomial.
"""

import itertools
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as hs

from fockbench.fock import Cutoff, _monomial, annihilation_op, creation_op, enumerate_basis

# largest cutoff value per (kind, modes) that keeps a basis below ~1000 states
LIMITS = {"per_mode": {1: 40, 2: 15, 3: 7, 4: 4},
          "total": {1: 40, 2: 30, 3: 12, 4: 8},
          "shell": {1: 40, 2: 40, 3: 25, 4: 12}}


@hs.composite
def bases(draw):
    modes = draw(hs.integers(1, 4))
    kind = draw(hs.sampled_from(sorted(LIMITS)))
    value = draw(hs.integers(0, LIMITS[kind][modes]))
    return enumerate_basis(modes, Cutoff(kind, value))


def reference_order(basis):
    top = basis.cutoff.value * (basis.modes if basis.cutoff.kind == "per_mode" else 1)
    box = itertools.product(range(top + 1), repeat=basis.modes)
    return sorted((occ for occ in box if basis.cutoff.admits(occ)), key=lambda o: (sum(o), o))


@given(bases())
def test_enumeration_is_graded_lex_over_admitted_states(basis):
    assert basis.states == tuple(reference_order(basis))
    assert len(basis) == basis.cutoff.size(basis.modes)


@given(bases(), hs.data())
def test_rank_inverts_enumeration_and_flags_outsiders(basis, data):
    assert np.array_equal(basis.rank(basis.occupations), np.arange(len(basis)))
    index = {occ: i for i, occ in enumerate(reference_order(basis))}
    hi = basis.cutoff.value * basis.modes + 3
    rows = data.draw(hs.lists(hs.lists(hs.integers(-3, hi), min_size=basis.modes,
                                       max_size=basis.modes), min_size=1, max_size=20))
    expected = [index.get(tuple(row), -1) for row in rows]
    assert basis.rank(rows).tolist() == expected
    for row, want in zip(rows, expected):
        assert basis.contains(row) == (want >= 0)


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
    matrix, lossy, target = _monomial(basis, create=create, destroy=destroy, weight=weight)
    index = {occ: i for i, occ in enumerate(basis.states)}
    dense = matrix.toarray()
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
        inside = basis.cutoff.admits(occ2)
        assert lossy[s] == (not inside)
        assert target[s] == (index[tuple(occ2)] if inside else -1)
        if inside:
            expected[index[tuple(occ2)], s] = amp
    assert np.array_equal(dense, expected)  # bit-exact: same factors, same order


@given(bases(), hs.data())
def test_annihilation_is_bit_exact_adjoint_of_creation(basis, data):
    mode = data.draw(hs.integers(0, basis.modes - 1))
    lower = annihilation_op(basis, mode).matrix
    raise_ = creation_op(basis, mode).matrix
    assert np.array_equal(lower.toarray(), raise_.toarray().conj().T)
    # and the lowering monomial built on its own lands on the same entries
    assert np.array_equal(lower.toarray(), _monomial(basis, destroy=(mode,))[0].toarray())
