"""Lie-algebra realizations on truncated Fock spaces.

Two pictures of the same ladder structure: bilinear (multi-boson) generators
on a parent space carrying a conserved constraint, and reduced single-sector
generators with square-root number weights (one boson per independent mode).
``verify_algebra`` checks the structure relations entrywise, restricted to
*interior* basis states -- states that no monomial in the relation pushes out
of the truncated basis -- so truncation artifacts never masquerade as algebra
violations.  Every generator sends a basis state to at most one basis state,
so the check walks those images instead of forming operator products.
``ConstraintSubspace`` transports states between the two pictures
and ``intertwining_check`` confirms the generators agree under that transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fock import LinearOperator, TruncatedBasis, _monomial

@dataclass
class AlgebraRealization:
    """A named set of generators with truncation metadata.

    ``raising``/``lowering``/``diagonal`` map generator labels to operators.
    ``targets[label][s]`` is the single basis state a generator sends state s
    to (-1 if annihilated or truncated) and ``lossy[label][s]`` flags sources
    whose exact image was dropped by truncation; both drive the interior-state
    masking in :func:`verify_algebra`.
    """

    algebra: str
    form: str
    basis: TruncatedBasis
    M: float
    raising: dict
    lowering: dict
    diagonal: dict
    lossy: dict = field(repr=False)
    targets: dict = field(repr=False)

    def op(self, label: str) -> LinearOperator:
        for group in (self.raising, self.lowering, self.diagonal):
            if label in group:
                return group[label]
        raise KeyError(f"no generator labelled {label!r}")

    @property
    def labels(self):
        return list(self.raising) + list(self.lowering) + list(self.diagonal)

    @property
    def rank(self) -> int:
        if self.algebra in ("su11", "su2"):
            return 1
        if self.form == "bilinear":
            return self.basis.modes - 1
        return self.basis.modes


def _bundle(algebra, form, basis, M, raising, lowering, diagonal):
    ops = {k: LinearOperator(basis, m) for k, (m, _, _) in
           {**raising, **lowering, **diagonal}.items()}
    return AlgebraRealization(
        algebra=algebra,
        form=form,
        basis=basis,
        M=M,
        raising={k: ops[k] for k in raising},
        lowering={k: ops[k] for k in lowering},
        diagonal={k: ops[k] for k in diagonal},
        lossy={k: l for k, (_, l, _) in {**raising, **lowering, **diagonal}.items()},
        targets={k: t for k, (_, _, t) in {**raising, **lowering, **diagonal}.items()},
    )


def su11_bilinear(basis: TruncatedBasis, M: float) -> AlgebraRealization:
    """K+ = a0^dag a1^dag, K- = a0 a1, K0 = (N0 + N1 + 1)/2 on a two-mode space."""
    if basis.modes != 2:
        raise ValueError("su11_bilinear needs a 2-mode basis")
    if not M > 0:
        raise ValueError("M must be positive")
    raising = {"K+": _monomial(basis, create=(0, 1))}
    lowering = {"K-": _monomial(basis, destroy=(0, 1))}
    diagonal = {
        "K0": _monomial(basis, weight=lambda occ: 0.5 * (occ[:, 0] + occ[:, 1] + 1)),
        "N0": _monomial(basis, weight=lambda occ: occ[:, 0]),
        "N1": _monomial(basis, weight=lambda occ: occ[:, 1]),
    }
    return _bundle("su11", "bilinear", basis, M, raising, lowering, diagonal)


def su11_hp(basis: TruncatedBasis, M: float) -> AlgebraRealization:
    """Reduced form K+ = b^dag sqrt(M + N), K0 = N + M/2 on one mode; real M > 0."""
    if basis.modes != 1:
        raise ValueError("su11_hp needs a 1-mode basis")
    if not M > 0:
        raise ValueError("M must be positive")
    w = lambda occ: np.sqrt(M + occ[:, 0])
    raising = {"K+": _monomial(basis, create=(0,), weight=w)}
    lowering = {"K-": _monomial(basis, destroy=(0,), weight=w)}
    diagonal = {
        "K0": _monomial(basis, weight=lambda occ: occ[:, 0] + M / 2.0),
        "N0": _monomial(basis, weight=lambda occ: M - 1 + occ[:, 0]),
        "N1": _monomial(basis, weight=lambda occ: occ[:, 0]),
    }
    return _bundle("su11", "holstein_primakoff", basis, M, raising, lowering, diagonal)


def su2_bilinear(basis: TruncatedBasis, M: int) -> AlgebraRealization:
    """J+ = a1^dag a0, J0 = (N1 - N0)/2; spin M/2 lives on the shell sum(n) = M."""
    if basis.modes != 2:
        raise ValueError("su2_bilinear needs a 2-mode basis")
    if int(M) != M or M < 1:
        raise ValueError("M must be a positive integer")
    raising = {"J+": _monomial(basis, create=(1,), destroy=(0,))}
    lowering = {"J-": _monomial(basis, create=(0,), destroy=(1,))}
    diagonal = {
        "J0": _monomial(basis, weight=lambda occ: 0.5 * (occ[:, 1] - occ[:, 0])),
        "N0": _monomial(basis, weight=lambda occ: occ[:, 0]),
        "N1": _monomial(basis, weight=lambda occ: occ[:, 1]),
    }
    return _bundle("su2", "bilinear", basis, int(M), raising, lowering, diagonal)


def su2_hp(basis: TruncatedBasis, M: int) -> AlgebraRealization:
    """Reduced form J+ = b^dag sqrt(M - N) on exactly the levels 0..M."""
    if basis.modes != 1:
        raise ValueError("su2_hp needs a 1-mode basis")
    if int(M) != M or M < 1:
        raise ValueError("M must be a positive integer")
    M = int(M)
    if not np.array_equal(np.sort(basis.occupations[:, 0]), np.arange(M + 1)):
        raise ValueError(
            f"su2_hp needs the basis to hold exactly levels 0..{M} (spin-M/2 block)"
        )
    w = lambda occ: np.sqrt(np.maximum(M - occ[:, 0], 0))
    raising = {"J+": _monomial(basis, create=(0,), weight=w)}
    lowering = {"J-": _monomial(basis, destroy=(0,), weight=w)}
    diagonal = {
        "J0": _monomial(basis, weight=lambda occ: occ[:, 0] - M / 2.0),
        "N0": _monomial(basis, weight=lambda occ: M - occ[:, 0]),
        "N1": _monomial(basis, weight=lambda occ: occ[:, 0]),
    }
    return _bundle("su2", "holstein_primakoff", basis, M, raising, lowering, diagonal)


def su_r1_bilinear(basis: TruncatedBasis, M: float) -> AlgebraRealization:
    """u(r,1) bilinears on r+1 modes: K+j = a0^dag aj^dag, Kjk = aj^dag ak, Nj."""
    r = basis.modes - 1
    if r < 1:
        raise ValueError("su_r1_bilinear needs at least 2 modes")
    if not M > 0:
        raise ValueError("M must be positive")
    raising, lowering, diagonal = {}, {}, {}
    for j in range(1, r + 1):
        raising[f"K+{j}"] = _monomial(basis, create=(0, j))
        lowering[f"K-{j}"] = _monomial(basis, destroy=(0, j))
    for j in range(1, r + 1):
        for k in range(1, r + 1):
            if j == k:
                continue
            group = raising if j > k else lowering
            group[f"K{j}{k}"] = _monomial(basis, create=(j,), destroy=(k,))
    for j in range(r + 1):
        diagonal[f"N{j}"] = _monomial(basis, weight=lambda occ, j=j: occ[:, j])
    return _bundle("su_r1", "bilinear", basis, M, raising, lowering, diagonal)


def su_r1_hp(basis: TruncatedBasis, M: float) -> AlgebraRealization:
    """Reduced u(r,1): K+j = bj^dag sqrt(M + N1 + ... + Nr) on r modes.

    The zeroth-mode number operator survives as the diagonal M - 1 + sum(N),
    the value pinned by the constraint n0 - sum(n') = M - 1.
    """
    r = basis.modes
    if not M > 0:
        raise ValueError("M must be positive")
    w = lambda occ: np.sqrt(M + occ.sum(axis=1))
    raising, lowering, diagonal = {}, {}, {}
    for j in range(1, r + 1):
        raising[f"K+{j}"] = _monomial(basis, create=(j - 1,), weight=w)
        lowering[f"K-{j}"] = _monomial(basis, destroy=(j - 1,), weight=w)
    for j in range(1, r + 1):
        for k in range(1, r + 1):
            if j == k:
                continue
            group = raising if j > k else lowering
            group[f"K{j}{k}"] = _monomial(basis, create=(j - 1,), destroy=(k - 1,))
    diagonal["N0"] = _monomial(basis, weight=lambda occ: M - 1 + occ.sum(axis=1))
    for j in range(1, r + 1):
        diagonal[f"N{j}"] = _monomial(basis, weight=lambda occ, j=j: occ[:, j - 1])
    return _bundle("su_r1", "holstein_primakoff", basis, M, raising, lowering, diagonal)


def su_rp1_bilinear(basis: TruncatedBasis, M: int) -> AlgebraRealization:
    """u(r+1) bilinears Jjk = aj^dag ak on r+1 modes (all j != k), plus Nj."""
    r = basis.modes - 1
    if r < 1:
        raise ValueError("su_rp1_bilinear needs at least 2 modes")
    if int(M) != M or M < 1:
        raise ValueError("M must be a positive integer")
    raising, lowering, diagonal = {}, {}, {}
    for j in range(r + 1):
        for k in range(r + 1):
            if j == k:
                continue
            group = raising if j > k else lowering
            group[f"J{j}{k}"] = _monomial(basis, create=(j,), destroy=(k,))
    for j in range(r + 1):
        diagonal[f"N{j}"] = _monomial(basis, weight=lambda occ, j=j: occ[:, j])
    return _bundle("su_rp1", "bilinear", basis, int(M), raising, lowering, diagonal)


def su_rp1_hp(basis: TruncatedBasis, M: int) -> AlgebraRealization:
    """Reduced u(r+1): Jj0 = bj^dag sqrt(M - sum(N)) on the states sum(n) <= M.

    The basis must hold exactly that simplex (C(M+r, r) states); larger bases
    would carry spectator states on which the relations cannot close.
    """
    r = basis.modes
    if int(M) != M or M < 1:
        raise ValueError("M must be a positive integer")
    M = int(M)
    expected = math.comb(M + r, r)
    if len(basis) != expected or (basis.totals > M).any():
        raise ValueError(
            f"su_rp1_hp needs exactly the {expected} states with total occupation <= {M}"
        )
    w = lambda occ: np.sqrt(np.maximum(M - occ.sum(axis=1), 0))
    raising, lowering, diagonal = {}, {}, {}
    for j in range(1, r + 1):
        raising[f"J{j}0"] = _monomial(basis, create=(j - 1,), weight=w)
        lowering[f"J0{j}"] = _monomial(basis, destroy=(j - 1,), weight=w)
    for j in range(1, r + 1):
        for k in range(1, r + 1):
            if j == k:
                continue
            group = raising if j > k else lowering
            group[f"J{j}{k}"] = _monomial(basis, create=(j - 1,), destroy=(k - 1,))
    diagonal["N0"] = _monomial(basis, weight=lambda occ: M - occ.sum(axis=1))
    for j in range(1, r + 1):
        diagonal[f"N{j}"] = _monomial(basis, weight=lambda occ, j=j: occ[:, j - 1])
    return _bundle("su_rp1", "holstein_primakoff", basis, M, raising, lowering, diagonal)


# --- structure relations -------------------------------------------------
#
# A relation is a named list of (coefficient, labels) terms that must sum to
# zero; labels of length two mean an operator product A @ B, length one a bare
# generator, and the empty tuple the identity.


def _su11_relations():
    return [
        ("[K+,K-] + 2 K0", [(1, ("K+", "K-")), (-1, ("K-", "K+")), (2, ("K0",))]),
        ("[K0,K+] - K+", [(1, ("K0", "K+")), (-1, ("K+", "K0")), (-1, ("K+",))]),
        ("[K0,K-] + K-", [(1, ("K0", "K-")), (-1, ("K-", "K0")), (1, ("K-",))]),
    ]


def _su2_relations():
    return [
        ("[J+,J-] - 2 J0", [(1, ("J+", "J-")), (-1, ("J-", "J+")), (-2, ("J0",))]),
        ("[J0,J+] - J+", [(1, ("J0", "J+")), (-1, ("J+", "J0")), (-1, ("J+",))]),
        ("[J0,J-] + J-", [(1, ("J0", "J-")), (-1, ("J-", "J0")), (1, ("J-",))]),
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
        return _su11_relations()
    if realization.algebra == "su2":
        return _su2_relations()
    if realization.algebra == "su_r1":
        return _su_r1_relations(realization.rank)
    if realization.algebra == "su_rp1":
        return _su_rp1_relations(realization.rank)
    raise ValueError(f"unknown algebra {realization.algebra!r}")


def _images(realization, label):
    """Where a generator sends each basis state, with what weight, and whether lossily.

    The weights are read from the generator's matrix.  Each array has one
    extra slot at the end, a sink for "no image": a target of -1 indexes it,
    and it sends itself to -1 with weight 0 and no loss.
    """
    d = len(realization.basis)
    matrix = realization.op(label).matrix
    weight = np.zeros(d + 1, dtype=complex)
    weight[matrix.indices] = matrix.data
    return (np.append(realization.targets[label], -1), weight,
            np.append(realization.lossy[label], False))


def verify_algebra(realization: AlgebraRealization, relations=None) -> list:
    """Entrywise residuals of the structure relations on interior states.

    Interior states are those that no monomial in the relation pushes out of
    the basis.  Returns one report dict per relation:
    {"relation", "max_residual", "worst_state", "interior_count"}.
    """
    if relations is None:
        relations = relations_for(realization)
    d = len(realization.basis)
    images = {label: _images(realization, label) for label in realization.labels}
    reports = []
    for name, terms in relations:
        # one image per term and source column: its row and its value
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
        rows, values = np.array(rows), np.array(values)
        # images of a column that share a row add up, in term order
        same_row = rows[:, None, :] == rows[None, :, :]
        col_res = np.abs(np.where(same_row, values[None, :, :], 0).sum(axis=1)).max(axis=0)
        count = int(interior.sum())
        if count == 0:
            reports.append({"relation": name, "max_residual": None,
                            "worst_state": None, "interior_count": 0})
            continue
        col_res = col_res[interior]
        worst_local = int(np.argmax(col_res))
        worst_state = realization.basis.occupations[np.flatnonzero(interior)[worst_local]]
        reports.append({
            "relation": name,
            "max_residual": float(col_res[worst_local]),
            "worst_state": worst_state.tolist(),
            "interior_count": count,
        })
    return reports


@dataclass
class ConstraintSubspace:
    """Identification of the reduced space with a constrained parent sector.

    For the non-compact pair the parent shell is n0 - sum(n') = M - 1; for the
    compact pair it is sum(n) = M.  ``embed``/``project`` translate occupation
    vectors and the column-isometry ``isometry()`` transports matrices.
    """

    parent: TruncatedBasis
    reduced: TruncatedBasis
    M: int
    kind: str  # "su_r1" or "su_rp1"

    def __post_init__(self):
        if self.kind not in ("su_r1", "su_rp1"):
            raise ValueError("kind must be 'su_r1' or 'su_rp1'")
        if int(self.M) != self.M or self.M < 1:
            raise ValueError("M must be a positive integer")
        self.M = int(self.M)
        if self.parent.modes != self.reduced.modes + 1:
            raise ValueError("parent must have exactly one more mode than the reduced space")
        occ = self.reduced.occupations
        totals = occ.sum(axis=1)
        n0 = self.M - 1 + totals if self.kind == "su_r1" else self.M - totals
        rows = self.parent.rank(np.column_stack((n0, occ)))
        if (rows < 0).any():
            first = tuple(occ[int(np.argmax(rows < 0))].tolist())
            raise ValueError(
                f"reduced state {first} embeds to {self.embed(first)}, outside the parent basis"
            )
        self._rows = rows

    def embed(self, occ):
        occ = tuple(occ)
        if self.kind == "su_r1":
            n0 = self.M - 1 + sum(occ)
        else:
            n0 = self.M - sum(occ)
            if n0 < 0:
                raise ValueError(f"occupation {occ} exceeds the shell total {self.M}")
        return (n0,) + occ

    def project(self, occ):
        occ = tuple(occ)
        expected = self.embed(occ[1:])
        if occ != expected:
            raise ValueError(f"parent state {occ} is not on the constrained shell")
        return occ[1:]

    @property
    def shell_indices(self):
        return tuple(self._rows.tolist())

    def isometry(self) -> sp.csr_array:
        """Parent x reduced CSR matrix with orthonormal columns spanning the shell."""
        rows = self._rows
        return sp.csr_array((np.ones(len(rows)), (rows, np.arange(len(rows)))),
                            shape=(len(self.parent), len(self.reduced)))


def intertwining_check(bilinear: AlgebraRealization, reduced: AlgebraRealization,
                       subspace: ConstraintSubspace) -> list:
    """Compare bilinear and reduced generator actions through the embedding.

    For every shared label L checks (B_L E - E R_L) column by column, skipping
    columns where either picture truncates.  Returns per-label report dicts.
    """
    if bilinear.form != "bilinear" or reduced.form != "holstein_primakoff":
        raise ValueError("pass the bilinear realization first, the reduced one second")
    if bilinear.basis != subspace.parent or reduced.basis != subspace.reduced:
        raise ValueError("realizations do not match the subspace bases")
    e = subspace.isometry()
    parent_rows = subspace._rows
    reports = []
    shared = [l for l in reduced.labels if l in set(bilinear.labels)]
    for label in shared:
        diff = bilinear.op(label).matrix @ e - e @ reduced.op(label).matrix
        ok = ~reduced.lossy[label]
        ok &= ~bilinear.lossy[label][parent_rows]
        count = int(ok.sum())
        if count == 0:
            reports.append({"label": label, "max_residual": None,
                            "worst_state": None, "checked_count": 0})
            continue
        col_res = np.zeros(len(reduced.basis))
        np.maximum.at(col_res, diff.indices, np.abs(diff.data))
        col_res = col_res[ok]
        worst_local = int(np.argmax(col_res))
        worst_state = reduced.basis.occupations[np.flatnonzero(ok)[worst_local]]
        reports.append({
            "label": label,
            "max_residual": float(col_res[worst_local]),
            "worst_state": worst_state.tolist(),
            "checked_count": count,
        })
    return reports
