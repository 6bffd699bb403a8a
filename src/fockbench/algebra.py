"""Lie-algebra realizations on truncated Fock spaces.

Two pictures of the same ladder structure: bilinear (multi-boson) generators
on a parent space carrying a conserved constraint, and reduced single-sector
generators with square-root number weights (one boson per independent mode).
su(1,1) and su(2) are the rank-one cases of su(r,1) and su(r+1): their
constructors build the rank-one realization, rename its ladder pair and add
the Cartan generator.
``verify_algebra`` checks the structure relations entrywise, restricted to
*interior* basis states -- states that no monomial in the relation pushes out
of the truncated basis -- so truncation artifacts never masquerade as algebra
violations.  ``intertwining_check`` confirms the two pictures' generators
agree on the constraint shell that ties them, which it reads off the pair.
A realization is one table from label to generator (raising, then lowering,
then diagonal), and every generator is its column map
(target, weight, lossy): it sends a basis state to at most one basis state.
So neither check forms an operator product: both walk those images and
truncation flags, column by column, and build no matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (LinearOperator, TruncatedBasis, _monomial, _real, _row_totals, _whole,
                   diagonal_op)


def _hp_weight(M, compact):
    """The Holstein-Primakoff weight on occupation rows: sqrt(M + sum N), or for the
    compact algebra sqrt(M - sum N) clamped at zero, which annihilates at the shell edge."""
    if compact:
        return lambda occ: np.sqrt(np.maximum(M - _row_totals(occ), 0))
    return lambda occ: np.sqrt(M + _row_totals(occ))


@dataclass
class AlgebraRealization:
    """A named set of generators on one basis.

    ``generators`` maps each label to its operator, raising ones first, then
    lowering, then diagonal.  Each is held as its column map (``target``,
    ``weight``, ``lossy``): where it sends a state, with what weight, and
    whether truncation dropped that image, which drives the interior-state
    masking in :func:`verify_algebra` and :func:`intertwining_check`.
    """

    algebra: str
    form: str
    basis: TruncatedBasis
    M: float
    generators: dict

    def op(self, label: str) -> LinearOperator:
        try:
            return self.generators[label]
        except KeyError:
            raise KeyError(f"no generator labelled {label!r}") from None

    @property
    def labels(self):
        return list(self.generators)

    @property
    def rank(self) -> int:
        if self.form == "bilinear":
            return self.basis.modes - 1
        return self.basis.modes


def _r_family(algebra, form, basis, M, raising, lowering, n0):
    """Bundle an r-family realization from its ladder pairs and zeroth-mode number.

    Adds the mode-swapping generators Kjk/Jjk (j != k >= 1; j > k raising) and
    the numbers Nj, after N0 with values ``n0``.  Label j is mode j - shift,
    with shift 0 in the bilinear picture and 1 in the reduced one.
    """
    shift = 0 if form == "bilinear" else 1
    r = basis.modes - 1 + shift
    letter = "K" if algebra == "su_r1" else "J"
    for j in range(1, r + 1):
        for k in range(1, r + 1):
            if j != k:
                group = raising if j > k else lowering
                group[f"{letter}{j}{k}"] = _monomial(basis, create=(j - shift,),
                                                      destroy=(k - shift,))
    diagonal = {"N0": diagonal_op(basis, n0)}
    for j in range(1, r + 1):
        diagonal[f"N{j}"] = diagonal_op(basis, basis.occupations[:, j - shift])
    return AlgebraRealization(algebra, form, basis, M, {**raising, **lowering, **diagonal})


def _rank_one(real, algebra, cartan):
    """The rank-one ``real`` as su11 or su2: ladder pair renamed, Cartan generator first.

    K+1/K-1 become K+/K-, J10/J01 become J+/J-, and K0 or J0 (values
    ``cartan``) joins the diagonal ahead of the numbers.
    """
    letter = "K" if algebra == "su11" else "J"
    (_, raising), (_, lowering), *number_ops = real.generators.items()
    return AlgebraRealization(algebra, real.form, real.basis, real.M, {
        letter + "+": raising, letter + "-": lowering,
        letter + "0": diagonal_op(real.basis, cartan), **dict(number_ops)})


def su11_bilinear(basis: TruncatedBasis, M: float) -> AlgebraRealization:
    """K+ = a0^dag a1^dag, K- = a0 a1, K0 = (N0 + N1 + 1)/2 on a two-mode space."""
    if basis.modes != 2:
        raise ValueError("su11_bilinear needs a 2-mode basis")
    occ = basis.occupations
    return _rank_one(su_r1_bilinear(basis, M), "su11", 0.5 * (occ[:, 0] + occ[:, 1] + 1))


def su11_hp(basis: TruncatedBasis, M: float) -> AlgebraRealization:
    """Reduced form K+ = b^dag sqrt(M + N), K0 = N + M/2 on one mode; real M > 0."""
    if basis.modes != 1:
        raise ValueError("su11_hp needs a 1-mode basis")
    return _rank_one(su_r1_hp(basis, M), "su11", basis.occupations[:, 0] + M / 2.0)


def su2_bilinear(basis: TruncatedBasis, M: int) -> AlgebraRealization:
    """J+ = a1^dag a0, J0 = (N1 - N0)/2; spin M/2 lives on the shell sum(n) = M."""
    if basis.modes != 2:
        raise ValueError("su2_bilinear needs a 2-mode basis")
    occ = basis.occupations
    return _rank_one(su_rp1_bilinear(basis, M), "su2", 0.5 * (occ[:, 1] - occ[:, 0]))


def su2_hp(basis: TruncatedBasis, M: int) -> AlgebraRealization:
    """Reduced form J+ = b^dag sqrt(M - N), J0 = N - M/2 on exactly the levels 0..M."""
    if basis.modes != 1:
        raise ValueError("su2_hp needs a 1-mode basis")
    return _rank_one(su_rp1_hp(basis, M), "su2", basis.occupations[:, 0] - M / 2.0)


def su_r1_bilinear(basis: TruncatedBasis, M: float) -> AlgebraRealization:
    """u(r,1) bilinears on r+1 modes: K+j = a0^dag aj^dag, Kjk = aj^dag ak, Nj."""
    r = basis.modes - 1
    if r < 1:
        raise ValueError("su_r1_bilinear needs at least 2 modes")
    M = _real("M", M)
    if not M > 0:
        raise ValueError("M must be positive")
    raising = {f"K+{j}": _monomial(basis, create=(0, j)) for j in range(1, r + 1)}
    lowering = {f"K-{j}": _monomial(basis, destroy=(0, j)) for j in range(1, r + 1)}
    return _r_family("su_r1", "bilinear", basis, M, raising, lowering,
                     basis.occupations[:, 0])


def su_r1_hp(basis: TruncatedBasis, M: float) -> AlgebraRealization:
    """Reduced u(r,1): K+j = bj^dag sqrt(M + N1 + ... + Nr) on r modes.

    The zeroth-mode number operator survives as the diagonal M - 1 + sum(N),
    the value pinned by the constraint n0 - sum(n') = M - 1.
    """
    r = basis.modes
    M = _real("M", M)
    if not M > 0:
        raise ValueError("M must be positive")
    w = _hp_weight(M, compact=False)
    raising = {f"K+{j}": _monomial(basis, create=(j - 1,), weight=w) for j in range(1, r + 1)}
    lowering = {f"K-{j}": _monomial(basis, destroy=(j - 1,), weight=w) for j in range(1, r + 1)}
    return _r_family("su_r1", "holstein_primakoff", basis, M, raising, lowering,
                     M - 1 + basis.totals)


def su_rp1_bilinear(basis: TruncatedBasis, M: int) -> AlgebraRealization:
    """u(r+1) bilinears Jjk = aj^dag ak on r+1 modes (all j != k), plus Nj."""
    r = basis.modes - 1
    if r < 1:
        raise ValueError("su_rp1_bilinear needs at least 2 modes")
    M = _whole("M", M, 1)
    raising = {f"J{j}0": _monomial(basis, create=(j,), destroy=(0,)) for j in range(1, r + 1)}
    lowering = {f"J0{j}": _monomial(basis, create=(0,), destroy=(j,)) for j in range(1, r + 1)}
    return _r_family("su_rp1", "bilinear", basis, M, raising, lowering,
                     basis.occupations[:, 0])


def su_rp1_hp(basis: TruncatedBasis, M: int) -> AlgebraRealization:
    """Reduced u(r+1): Jj0 = bj^dag sqrt(M - sum(N)) on the states sum(n) <= M.

    The basis must hold exactly that simplex (C(M+r, r) states); larger bases
    would carry spectator states on which the relations cannot close.
    """
    r = basis.modes
    M = _whole("M", M, 1)
    expected = math.comb(M + r, r)
    totals = basis.totals
    if len(basis) != expected or (totals > M).any():
        raise ValueError(
            f"su_rp1_hp needs exactly the {expected} states with total occupation <= {M}"
        )
    w = _hp_weight(M, compact=True)
    raising = {f"J{j}0": _monomial(basis, create=(j - 1,), weight=w) for j in range(1, r + 1)}
    lowering = {f"J0{j}": _monomial(basis, destroy=(j - 1,), weight=w) for j in range(1, r + 1)}
    return _r_family("su_rp1", "holstein_primakoff", basis, M, raising, lowering, M - totals)


# --- structure relations -------------------------------------------------
#
# A relation is a named list of (coefficient, labels) terms that must sum to
# zero; labels of length two mean an operator product A @ B, length one a bare
# generator, and the empty tuple the identity.


def _rank_one_relations(up, down, cartan, sign):
    """su(1,1) with sign +1, su(2) with sign -1: [up,down] = -2 sign cartan.

    The Cartan generator raises by one under ``up`` and lowers by one under
    ``down`` in both.
    """
    return [
        (f"[{up},{down}] {'+' if sign > 0 else '-'} 2 {cartan}",
         [(1, (up, down)), (-1, (down, up)), (2 * sign, (cartan,))]),
        (f"[{cartan},{up}] - {up}", [(1, (cartan, up)), (-1, (up, cartan)), (-1, (up,))]),
        (f"[{cartan},{down}] + {down}", [(1, (cartan, down)), (-1, (down, cartan)), (1, (down,))]),
    ]


def _su_r1_relations(r):
    rel = []
    for j in range(1, r + 1):
        rel.append((
            f"[K+{j},K-{j}] + N0 + N{j} + 1",
            [(1, (f"K+{j}", f"K-{j}")), (-1, (f"K-{j}", f"K+{j}")),
             (1, ("N0",)), (1, (f"N{j}",)), (1, ())],
        ))
        rel.append((
            f"[N0,K+{j}] - K+{j}",
            [(1, ("N0", f"K+{j}")), (-1, (f"K+{j}", "N0")), (-1, (f"K+{j}",))],
        ))
        rel.append((
            f"[N{j},K+{j}] - K+{j}",
            [(1, (f"N{j}", f"K+{j}")), (-1, (f"K+{j}", f"N{j}")), (-1, (f"K+{j}",))],
        ))
    for j in range(1, r + 1):
        for k in range(1, r + 1):
            if j == k:
                continue
            rel.append((
                f"[K+{j},K-{k}] + K{j}{k}",
                [(1, (f"K+{j}", f"K-{k}")), (-1, (f"K-{k}", f"K+{j}")), (1, (f"K{j}{k}",))],
            ))
            rel.append((
                f"[K{j}{k},K+{k}] - K+{j}",
                [(1, (f"K{j}{k}", f"K+{k}")), (-1, (f"K+{k}", f"K{j}{k}")), (-1, (f"K+{j}",))],
            ))
            rel.append((
                f"[K{j}{k},K{k}{j}] - N{j} + N{k}",
                [(1, (f"K{j}{k}", f"K{k}{j}")), (-1, (f"K{k}{j}", f"K{j}{k}")),
                 (-1, (f"N{j}",)), (1, (f"N{k}",))],
            ))
    return rel


def _su_rp1_relations(r):
    # gl(r+1) structure: [Ejk, Elm] = d_kl Ejm - d_mj Elk with Ejj = Nj.
    # In the reduced form J{j}0/J0{j} stand in for the zeroth column/row.
    def lbl(j, k):
        return f"N{j}" if j == k else f"J{j}{k}"

    rel = []
    for j in range(r + 1):
        for k in range(r + 1):
            if j == k:
                continue
            rel.append((
                f"[J{j}{k},J{k}{j}] - N{j} + N{k}",
                [(1, (lbl(j, k), lbl(k, j))), (-1, (lbl(k, j), lbl(j, k))),
                 (-1, (f"N{j}",)), (1, (f"N{k}",))],
            ))
            rel.append((
                f"[N{j},J{j}{k}] - J{j}{k}",
                [(1, (f"N{j}", lbl(j, k))), (-1, (lbl(j, k), f"N{j}")), (-1, (lbl(j, k),))],
            ))
            for l in range(r + 1):
                if l in (j, k):
                    continue
                rel.append((
                    f"[J{j}{k},J{k}{l}] - J{j}{l}",
                    [(1, (lbl(j, k), lbl(k, l))), (-1, (lbl(k, l), lbl(j, k))),
                     (-1, (lbl(j, l),))],
                ))
    return rel


def relations_for(realization: AlgebraRealization):
    if realization.algebra == "su11":
        return _rank_one_relations("K+", "K-", "K0", 1)
    if realization.algebra == "su2":
        return _rank_one_relations("J+", "J-", "J0", -1)
    if realization.algebra == "su_r1":
        return _su_r1_relations(realization.rank)
    if realization.algebra == "su_rp1":
        return _su_rp1_relations(realization.rank)
    raise ValueError(f"unknown algebra {realization.algebra!r}")


def _images(op):
    """Where a generator sends each basis state, with what weight, and whether lossily.

    Each array has one extra slot at the end, a sink for "no image": a target
    of -1 indexes it, and it sends itself to -1 with weight 0 and no loss.
    """
    return np.append(op.target, -1), np.append(op.weight, 0), np.append(op.lossy, False)


def _worst_column(rows, values, checked, occupations):
    """Largest column residual of a sum of terms, each with one image per column.

    ``rows[t][s]`` and ``values[t][s]`` are where term t sends column s and
    with what value (row -1 and value 0 for none).  Images of a column that
    share a row add up, in term order.  Only the ``checked`` columns count.
    Returns (max_residual, worst_state, interior_count); the first two are
    None when no column is checked.
    """
    rows, values = np.array(rows), np.array(values)
    same_row = rows[:, None, :] == rows[None, :, :]
    col_res = np.abs(np.where(same_row, values[None, :, :], 0).sum(axis=1)).max(axis=0)
    count = int(checked.sum())
    if count == 0:
        return None, None, 0
    col_res = col_res[checked]
    worst = int(np.argmax(col_res))
    return float(col_res[worst]), occupations[np.flatnonzero(checked)[worst]].tolist(), count


def verify_algebra(realization: AlgebraRealization) -> list:
    """Entrywise residuals of the structure relations on interior states.

    Interior states are those that no monomial in the relation pushes out of
    the basis.  Returns one report dict per relation:
    {"relation", "max_residual", "worst_state", "interior_count"}.
    """
    d = len(realization.basis)
    images = {label: _images(op) for label, op in realization.generators.items()}
    reports = []
    for name, terms in relations_for(realization):
        rows, values = [], []
        interior = np.ones(d, dtype=bool)
        for coeff, labels in terms:
            if not labels:
                rows.append(np.arange(d))
                values.append(np.full(d, coeff, dtype=complex))
                continue
            # labels act right-to-left: (A, B) means A @ B
            row, weight, lossy = (x[:d] for x in images[labels[-1]])
            interior &= ~lossy
            if len(labels) == 2:
                target_a, weight_a, lossy_a = images[labels[0]]
                interior &= ~lossy_a[row]
                weight = weight_a[row] * weight
                row = target_a[row]
            rows.append(row)
            values.append(coeff * weight)
        residual, worst, count = _worst_column(rows, values, interior,
                                               realization.basis.occupations)
        reports.append({"relation": name, "max_residual": residual,
                        "worst_state": worst, "interior_count": count})
    return reports


def intertwining_check(bilinear: AlgebraRealization, reduced: AlgebraRealization) -> list:
    """Compare bilinear and reduced generator actions on the constraint shell.

    The shell comes from the pair itself: M is the reduced realization's (a
    whole number), and reduced state n' sits at the parent row (n0, n') with
    n0 = M - 1 + sum(n') for su(1,1) and su(r,1), n0 = M - sum(n') for su(2)
    and su(r+1).  For every shared label L checks (B_L E - E R_L) column by
    column, E that embedding, skipping columns where either picture truncates.
    Column s has two images: B_L's image of the parent row s embeds to, and
    -R_L's image carried up to the parent by E.  Returns per-label report dicts
    {"label", "max_residual", "worst_state", "interior_count"}.
    """
    if bilinear.form != "bilinear" or reduced.form != "holstein_primakoff":
        raise ValueError("pass the bilinear realization first, the reduced one second")
    if bilinear.algebra != reduced.algebra:
        raise ValueError(f"a {bilinear.algebra} bilinear realization cannot be compared with "
                         f"a {reduced.algebra} reduced one")
    if bilinear.basis.modes != reduced.basis.modes + 1:
        raise ValueError("the bilinear basis must have exactly one more mode than the reduced one")
    M = _whole("M", reduced.M, 1)
    occ, totals = reduced.basis.occupations, reduced.basis.totals
    n0 = M - totals if reduced.algebra in ("su2", "su_rp1") else M - 1 + totals
    embedded = np.column_stack((n0, occ))
    parent_rows = bilinear.basis.rank(embedded)
    if (parent_rows < 0).any():
        first = int(np.argmax(parent_rows < 0))
        raise ValueError(f"reduced state {tuple(occ[first].tolist())} embeds to "
                         f"{tuple(embedded[first].tolist())}, outside the bilinear basis")
    sink = np.append(parent_rows, -1)  # the sink -1 stays -1
    reports = []
    shared = [l for l in reduced.labels if l in set(bilinear.labels)]
    for label in shared:
        b, r = bilinear.op(label), reduced.op(label)
        checked = ~r.lossy & ~b.lossy[parent_rows]
        residual, worst, count = _worst_column(
            [b.target[parent_rows], sink[r.target]], [b.weight[parent_rows], -r.weight],
            checked, occ)
        reports.append({"label": label, "max_residual": residual,
                        "worst_state": worst, "interior_count": count})
    return reports
