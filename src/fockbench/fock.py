"""Truncated multi-mode bosonic Fock spaces.

Bases are finite slices of the occupation-number lattice, enumerated in graded
lexicographic order (total occupation ascending, then lexicographic within each
total).  States are dense complex vectors over such a basis; operators are
complex CSR matrices, and every ladder monomial among them has at most one
nonzero per column.  Ladder operators silently drop any transition that would
leave the basis, so truncation error shows up only as missing tail mass,
never as an exception.  One truncated-Taylor series computes both the action
exp(A)|psi> and the small whole-operator exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

OccupationVector = tuple  # tuple of non-negative ints, one entry per mode

MAX_BASIS_STATES = 2_000_000


@dataclass(frozen=True)
class Cutoff:
    """Truncation rule for a basis.

    kind is one of "per_mode" (every n_j <= value), "total"
    (sum n_j <= value) or "shell" (sum n_j == value exactly).
    """

    kind: str
    value: int

    def __post_init__(self):
        if self.kind not in ("per_mode", "total", "shell"):
            raise ValueError(f"unknown cutoff kind {self.kind!r}")
        if int(self.value) != self.value or self.value < 0:
            raise ValueError(f"cutoff value must be a non-negative integer, got {self.value!r}")
        object.__setattr__(self, "value", int(self.value))

    @classmethod
    def per_mode(cls, value):
        return cls("per_mode", value)

    @classmethod
    def total(cls, value):
        return cls("total", value)

    @classmethod
    def shell(cls, value):
        return cls("shell", value)

    def admits(self, occ) -> bool:
        """Whether an occupation vector lies inside this cutoff."""
        if any(n < 0 for n in occ):
            return False
        if self.kind == "per_mode":
            return all(n <= self.value for n in occ)
        if self.kind == "total":
            return sum(occ) <= self.value
        return sum(occ) == self.value

    def size(self, modes: int) -> int:
        """Number of basis states this cutoff yields for the given mode count."""
        if self.kind == "per_mode":
            return (self.value + 1) ** modes
        if self.kind == "total":
            return math.comb(self.value + modes, modes)
        return math.comb(self.value + modes - 1, modes - 1)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Cutoff":
        return cls(d["kind"], d["value"])


def _compositions(total, modes, bound):
    """Yield occupation tuples with the given total, lexicographically ascending."""
    if modes == 1:
        if total <= bound:
            yield (total,)
        return
    for first in range(min(total, bound) + 1):
        for rest in _compositions(total - first, modes - 1, bound):
            yield (first,) + rest


class TruncatedBasis:
    """A graded-lexicographically ordered slice of the Fock lattice.

    Construct via :func:`enumerate_basis`.  Two bases compare equal when they
    have the same mode count and cutoff (the state list is a pure function of
    those).
    """

    def __init__(self, modes: int, cutoff: Cutoff, states):
        self.modes = modes
        self.cutoff = cutoff
        self.states = tuple(states)
        self._index = {occ: i for i, occ in enumerate(self.states)}

    def __len__(self):
        return len(self.states)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedBasis)
            and self.modes == other.modes
            and self.cutoff == other.cutoff
        )

    def __hash__(self):
        return hash((self.modes, self.cutoff))

    def __repr__(self):
        return (
            f"TruncatedBasis(modes={self.modes}, cutoff={self.cutoff.kind}:"
            f"{self.cutoff.value}, size={len(self)})"
        )

    @property
    def size(self):
        return len(self.states)

    def index_of(self, occ) -> int:
        """Position of an occupation vector in the basis; ValueError if absent."""
        try:
            return self._index[tuple(occ)]
        except KeyError:
            raise ValueError(f"occupation {tuple(occ)} is not in the basis") from None

    def contains(self, occ) -> bool:
        return tuple(occ) in self._index

    def state(self, i) -> OccupationVector:
        return self.states[i]

    @property
    def occupations(self) -> np.ndarray:
        """All occupation vectors as an (size, modes) int array."""
        arr = getattr(self, "_occ_arr", None)
        if arr is None:
            arr = np.array(self.states, dtype=np.int64).reshape(len(self.states), self.modes)
            self._occ_arr = arr
        return arr

    @property
    def totals(self) -> np.ndarray:
        return self.occupations.sum(axis=1)


def enumerate_basis(modes: int, cutoff: Cutoff, max_states: int = MAX_BASIS_STATES) -> TruncatedBasis:
    """Enumerate the truncated basis in graded lexicographic order.

    Raises ValueError when the cutoff yields an empty basis or more than
    ``max_states`` states.
    """
    if int(modes) != modes or modes < 1:
        raise ValueError(f"modes must be a positive integer, got {modes!r}")
    modes = int(modes)
    count = cutoff.size(modes)
    if count == 0:
        raise ValueError("cutoff yields an empty basis")
    if count > max_states:
        raise ValueError(
            f"cutoff yields {count} basis states, above the cap of {max_states}"
        )
    if cutoff.kind == "shell":
        totals = [cutoff.value]
        bound = cutoff.value
    elif cutoff.kind == "total":
        totals = range(cutoff.value + 1)
        bound = cutoff.value
    else:
        totals = range(modes * cutoff.value + 1)
        bound = cutoff.value
    states = []
    for t in totals:
        states.extend(_compositions(t, modes, bound))
    return TruncatedBasis(modes, cutoff, states)


def _check_same_basis(a, b):
    if a.basis != b.basis:
        raise ValueError("operands live on different bases")


@dataclass
class StateVector:
    """Complex amplitudes over a truncated basis."""

    basis: TruncatedBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (len(self.basis),):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, basis has {len(self.basis)} states"
            )
        self.amplitudes = amps

    def norm2(self) -> float:
        """Squared norm."""
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.basis, self.amplitudes / n)

    def amplitude(self, occ) -> complex:
        return complex(self.amplitudes[self.basis.index_of(occ)])

    def copy(self) -> "StateVector":
        return StateVector(self.basis, self.amplitudes.copy())


def basis_state(basis: TruncatedBasis, occ) -> StateVector:
    """The basis vector |occ>."""
    amps = np.zeros(len(basis), dtype=complex)
    amps[basis.index_of(occ)] = 1.0
    return StateVector(basis, amps)


def vacuum_state(basis: TruncatedBasis) -> StateVector:
    return basis_state(basis, (0,) * basis.modes)


@dataclass
class LinearOperator:
    """Operator over a truncated basis, held as a complex CSR matrix.

    Dense input is accepted and converted.
    """

    basis: TruncatedBasis
    matrix: sp.csr_array

    def __post_init__(self):
        mat = sp.csr_array(self.matrix, dtype=complex)
        d = len(self.basis)
        if mat.shape != (d, d):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({d}, {d})")
        self.matrix = mat

    def apply(self, psi: StateVector) -> StateVector:
        _check_same_basis(self, psi)
        return StateVector(self.basis, self.matrix @ psi.amplitudes)

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(self.basis, self.matrix.conj().T)

    def __matmul__(self, other):
        if isinstance(other, StateVector):
            return self.apply(other)
        _check_same_basis(self, other)
        return LinearOperator(self.basis, self.matrix @ other.matrix)

    def __add__(self, other):
        _check_same_basis(self, other)
        return LinearOperator(self.basis, self.matrix + other.matrix)

    def __sub__(self, other):
        _check_same_basis(self, other)
        return LinearOperator(self.basis, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return LinearOperator(self.basis, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return LinearOperator(self.basis, -self.matrix)


def _column_map(target, weight):
    """CSR matrix sending basis state s to ``target[s]`` with ``weight[s]``.

    Sources with a negative target have no image.  No two sources may share a
    target, which holds for every monomial: it shifts occupations by a fixed
    vector.  So each row, like each column, holds at most one entry, and the
    CSR arrays come straight from the inverse map.
    """
    d = len(target)
    source = np.full(d, -1, dtype=np.int64)
    alive = target >= 0
    source[target[alive]] = np.flatnonzero(alive)
    hit = source >= 0
    indices = source[hit]
    indptr = np.concatenate(([0], np.cumsum(hit)))
    return sp.csr_array((np.asarray(weight)[indices], indices, indptr), shape=(d, d))


def _monomial(basis, create=(), destroy=(), weight=None):
    """Build prod(a_j^dag) * weight(occ) * prod(a_k) with exact loss tracking.

    ``weight`` is evaluated on the occupation vector after the destruction
    step; a zero weight annihilates the state exactly (used for clamped
    square roots at representation boundaries).  Returns the CSR matrix, a
    boolean ``lossy`` vector marking source states whose exact image falls
    outside the basis with non-zero amplitude, and a ``target`` index vector
    (-1 where the state is annihilated or its image left the basis).
    """
    d = len(basis)
    amps = np.zeros(d, dtype=complex)
    lossy = np.zeros(d, dtype=bool)
    target = np.full(d, -1, dtype=np.int64)
    for s, occ in enumerate(basis.states):
        occ2 = list(occ)
        amp = 1.0
        alive = True
        for k in destroy:
            if occ2[k] == 0:
                alive = False
                break
            amp *= math.sqrt(occ2[k])
            occ2[k] -= 1
        if not alive:
            continue
        if weight is not None:
            amp *= weight(occ2)
            if amp == 0.0:
                continue
        for j in create:
            amp *= math.sqrt(occ2[j] + 1)
            occ2[j] += 1
        t = basis._index.get(tuple(occ2))
        if t is None:
            lossy[s] = True
        else:
            amps[s] = amp
            target[s] = t
    return _column_map(target, amps), lossy, target


def identity_op(basis: TruncatedBasis) -> LinearOperator:
    return LinearOperator(basis, sp.eye_array(len(basis), dtype=complex, format="csr"))


def diagonal_op(basis: TruncatedBasis, values) -> LinearOperator:
    """Diagonal operator; ``values`` is a callable on occupation tuples or an array."""
    if callable(values):
        diag = np.array([values(occ) for occ in basis.states], dtype=complex)
    else:
        diag = np.asarray(values, dtype=complex)
        if diag.shape != (len(basis),):
            raise ValueError("diagonal length does not match basis size")
    return LinearOperator(basis, _column_map(np.arange(len(basis)), diag))


def _check_mode(basis, mode):
    if int(mode) != mode or not 0 <= mode < basis.modes:
        raise ValueError(f"mode {mode!r} out of range for a {basis.modes}-mode basis")
    return int(mode)


def creation_op(basis: TruncatedBasis, mode: int) -> LinearOperator:
    """a_mode^dagger; transitions leaving the basis are dropped silently."""
    return LinearOperator(basis, _monomial(basis, create=(_check_mode(basis, mode),))[0])


def annihilation_op(basis: TruncatedBasis, mode: int) -> LinearOperator:
    """a_mode, built as the exact adjoint of :func:`creation_op`."""
    return creation_op(basis, mode).adjoint()


def number_op(basis: TruncatedBasis, mode: int) -> LinearOperator:
    mode = _check_mode(basis, mode)
    return diagonal_op(basis, lambda occ: occ[mode])


def total_number_op(basis: TruncatedBasis) -> LinearOperator:
    return diagonal_op(basis, lambda occ: sum(occ))


def commutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    return a @ b - b @ a


def _series_exponential(mat, block):
    """exp(mat) @ block, for a dense or sparse ``mat`` and a vector or matrix ``block``.

    The truncated-Taylor action of Al-Mohy and Higham (SIAM J. Sci. Comput.
    33 (2011) 488) with a fixed schedule: ceil(||mat||_1) substeps, each a
    Taylor series summed until its term is at most 1e-15 of the running sum
    (2-norm for a vector, Frobenius for a matrix).
    """
    steps = max(1, math.ceil(abs(mat).sum(axis=0).max()))
    scaled = mat / steps
    out = block
    for _ in range(steps):
        term, k = out, 0
        while True:
            k += 1
            term = scaled @ term
            term /= k
            out = out + term
            # squared norms (vdot flattens a matrix to its Frobenius norm); a NaN stops too
            if not np.vdot(term, term).real > 1e-30 * np.vdot(out, out).real:
                break
    return out


def op_exponential(a: LinearOperator) -> LinearOperator:
    """The whole exponential exp(a), summed densely; meant for small bases."""
    identity = np.eye(len(a.basis), dtype=complex)
    return LinearOperator(a.basis, _series_exponential(a.matrix.toarray(), identity))


def apply_exponential(a: LinearOperator, psi: StateVector) -> StateVector:
    """exp(a) |psi> without forming the exponential: sparse products on the vector."""
    _check_same_basis(a, psi)
    return StateVector(psi.basis, _series_exponential(a.matrix, psi.amplitudes))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> (conjugate-linear in the first argument)."""
    _check_same_basis(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 / (<a|a><b|b>); raises on a zero-norm argument."""
    na, nb = a.norm2(), b.norm2()
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity is undefined for a zero-norm state")
    return abs(inner(a, b)) ** 2 / (na * nb)


def state_to_json_dict(psi: StateVector, threshold: float = 0.0) -> dict:
    """Serialize a state; entries with |amplitude| <= threshold are omitted."""
    entries = []
    for occ, amp in zip(psi.basis.states, psi.amplitudes):
        if abs(amp) > threshold:
            entries.append({"occupations": list(occ), "re": float(amp.real), "im": float(amp.imag)})
    return {
        "schema": "fockbench.state/1",
        "modes": psi.basis.modes,
        "cutoff": psi.basis.cutoff.to_json_dict(),
        "entries": entries,
    }


def state_from_json_dict(d: dict) -> StateVector:
    basis = enumerate_basis(d["modes"], Cutoff.from_json_dict(d["cutoff"]))
    amps = np.zeros(len(basis), dtype=complex)
    for entry in d["entries"]:
        amps[basis.index_of(tuple(entry["occupations"]))] = entry["re"] + 1j * entry["im"]
    return StateVector(basis, amps)
