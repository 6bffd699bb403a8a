"""Truncated multi-mode bosonic Fock spaces.

Bases are finite slices of the occupation-number lattice, held as one
(size, modes) int64 occupation array in graded lexicographic order (total
occupation ascending, then lexicographic within each total).  A vectorised
rank, built from per-basis tables of bounded-composition counts, maps any
occupation rows back to their indices, one table lookup per mode column.
States are dense complex vectors over such a basis; operators are complex CSR
matrices, and every ladder monomial among them is computed on the whole
occupation array at once and has at most one nonzero per column.  A rotation
generator zeta X - zeta* X^dag is built in one pass from its ladder's CSR
arrays.  Ladder operators silently drop any transition that would leave the
basis, so truncation error shows up only as missing tail mass, never as an
exception.  The action exp(A)|psi> of a skew-Hermitian generator (a rotation
or -i dt H) is a Chebyshev expansion; a truncated-Taylor series computes the
action of any other generator, in one pass for a nilpotent ladder, and the
small whole exponentials, which are dense arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


def _row_totals(occ):
    """Total occupation of each row of an (n, modes) int64 array, one column add at a time."""
    total = occ[:, 0].copy()
    for j in range(1, occ.shape[1]):
        total += occ[:, j]
    return total


class TruncatedBasis:
    """A graded-lexicographically ordered slice of the Fock lattice.

    The basis is its (size, modes) int64 ``occupations`` array, one row per
    state in graded-lex order; ``states`` is a tuple-of-tuples view of it,
    built on first use and cached, and :meth:`rank` maps occupation rows back
    to their row index.  Construct via :func:`enumerate_basis`.  Two bases
    compare equal when they have the same mode count and cutoff (the array is
    a pure function of those).
    """

    def __init__(self, modes: int, cutoff: Cutoff, occupations):
        self.modes = modes
        self.cutoff = cutoff
        occupations.flags.writeable = False
        self.occupations = occupations
        self._states = None
        self._rank_table = None

    def __len__(self):
        return len(self.occupations)

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
    def states(self) -> tuple:
        """The occupation rows as a tuple of int tuples (built once, then cached)."""
        if self._states is None:
            self._states = tuple(map(tuple, self.occupations.tolist()))
        return self._states

    def _table(self):
        """Lookup table F with rank(occ) = sum_j F[r-1-j, rem_j], rem_j = sum(occ[j:]).

        Knuth's combinatorial number system for bounded compositions
        (TAOCP 4A, 7.2.1.3): with Q[m][k] the number of m-part compositions
        with parts <= bound and total below k, a row's lex rank within its
        total is sum_j Q[r-1-j][rem_j + 1] - Q[r-1-j][rem_{j+1} + 1], and the
        Q[r][total] states of lower totals come first (none for a shell).
        Row k of the returned table serves rem_{r-1-k}, the last mode first.
        """
        if self._rank_table is None:
            r, bound = self.modes, self.cutoff.value
            top = r * bound if self.cutoff.kind == "per_mode" else bound
            q = np.zeros((r + 1, top + 2), dtype=np.int64)
            q[0, 1:] = 1
            for m in range(1, r + 1):
                # compositions of u into m parts: Q[m-1][u+1] - Q[m-1][u-bound]
                counts = q[m - 1, 1:].copy()
                counts[bound + 1:] -= q[m - 1, 1:top - bound + 1]
                np.cumsum(counts, out=q[m, 1:])
            inner = q[:, 1:].copy()
            inner[[0, r]] = 0
            table = inner[:-1] - inner[1:]
            if self.cutoff.kind != "shell":
                table[-1] += q[r, :-1]
            self._rank_table = table
        return self._rank_table

    def rank(self, occ) -> np.ndarray:
        """Graded-lex index of each occupation row, -1 for rows outside the basis.

        ``occ`` is one row or an array of rows, each ``modes`` wide; any other
        width raises ValueError.  The table lookups run column by column, last
        mode first, carrying the suffix total ``rem``, the largest entry seen
        (as unsigned, so a negative entry exceeds every bound) and the rank.
        """
        occ = np.asarray(occ)
        width = occ.shape[-1] if occ.ndim else 0
        if width != self.modes:
            raise ValueError(f"occupation rows have {width} entries, the basis has "
                             f"{self.modes} modes")
        if occ.dtype.kind == "f":  # a non-integral entry lies outside every basis
            whole = np.isfinite(occ) & (np.round(occ) == occ) & (np.abs(occ) < 2.0**62)
            occ = np.where(whole, occ, -1)
        cols = occ.astype(np.int64, copy=False).reshape(-1, self.modes).T
        unsigned = cols.view(np.uint64)
        table = self._table()
        rem = cols[-1].copy()
        largest = unsigned[-1].copy()
        # rows outside the basis may index anywhere; clip keeps the lookup in bounds
        found = table[0].take(rem, mode="clip")
        for k in range(2, self.modes + 1):
            rem += cols[-k]
            np.maximum(largest, unsigned[-k], out=largest)
            found += table[k - 1].take(rem, mode="clip")
        value = self.cutoff.value
        inside = largest <= value
        if self.cutoff.kind == "total":
            inside &= rem <= value
        elif self.cutoff.kind == "shell":
            inside &= rem == value
        return np.where(inside, found, -1)

    def index_of(self, occ) -> int:
        """Position of an occupation vector in the basis; ValueError if absent."""
        index = int(self.rank(occ)[0]) if len(occ) == self.modes else -1
        if index < 0:
            raise ValueError(f"occupation {tuple(occ)} is not in the basis")
        return index

    def contains(self, occ) -> bool:
        return len(occ) == self.modes and int(self.rank(occ)[0]) >= 0

    @property
    def totals(self) -> np.ndarray:
        return _row_totals(self.occupations)


def enumerate_basis(modes: int, cutoff: Cutoff, max_states: int = MAX_BASIS_STATES) -> TruncatedBasis:
    """Enumerate the truncated basis in graded lexicographic order.

    The rows are written level by level: each prefix (n_0 .. n_{j-1}) with
    occupation ``rem`` still to place spawns one child per admissible n_j, in
    ascending order, so the leaves come out sorted.  Raises ValueError when
    the cutoff yields an empty basis or more than ``max_states`` states,
    before anything is allocated.
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
    bound = cutoff.value
    if cutoff.kind == "shell":
        rem = np.array([bound], dtype=np.int64)
    else:
        rem = np.arange((modes if cutoff.kind == "per_mode" else 1) * bound + 1)
    levels = []
    for after in range(modes - 1, 0, -1):  # modes still to place after this one
        low = np.maximum(rem - after * bound, 0)
        width = np.minimum(rem, bound) - low + 1
        parent = np.repeat(np.arange(len(rem)), width)
        value = np.arange(len(parent)) - np.repeat(np.cumsum(width) - width - low, width)
        levels.append((parent, value))
        rem = rem[parent] - value
    occ = np.empty((len(rem), modes), dtype=np.int64)
    occ[:, -1] = rem
    row = slice(None)
    for j in range(modes - 2, -1, -1):
        parent, value = levels[j]
        occ[:, j] = value[row]
        row = parent[row]
    return TruncatedBasis(modes, cutoff, occ)


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
        mat = self.matrix
        if not (isinstance(mat, sp.csr_array) and mat.dtype == complex):
            mat = sp.csr_array(mat, dtype=complex)
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


def _column_map(d, source, target, weight):
    """d x d CSR matrix sending basis state ``source[i]`` to ``target[i]`` with ``weight[i]``.

    Both index arrays must ascend.  They do for every ladder monomial: it
    shifts all occupations by one fixed vector, which keeps totals and
    lexicographic comparisons, hence graded-lex order.  So each row, like
    each column, holds at most one entry, and the pairs are already in CSR
    order.
    """
    indptr = np.zeros(d + 1, dtype=np.int64)  # entries in the rows above each row
    np.cumsum(np.bincount(target, minlength=d), out=indptr[1:])
    return sp.csr_array((np.asarray(weight, dtype=complex), source, indptr), shape=(d, d))


def _monomial(basis, create=(), destroy=(), weight=None):
    """Build prod(a_j^dag) * weight(occ) * prod(a_k) with exact loss tracking.

    Works on the whole occupation array at once.  ``weight`` takes the
    (n, modes) occupation rows left after the destruction step and returns n
    values; a zero weight annihilates the state exactly (used for clamped
    square roots at representation boundaries).  The factors multiply in a
    fixed order -- each destroy sqrt(n), the weight, each create sqrt(n+1) --
    so every entry is the same float whatever the basis size.  Returns the
    operator, whose matrix is the only record of where each state goes and
    with what weight (:func:`_column_images` reads it back), and a boolean
    ``lossy`` vector marking source states whose exact image falls outside
    the basis with non-zero amplitude -- the one fact the matrix cannot hold.
    """
    occ = basis.occupations
    d = len(occ)
    if destroy:
        alive = True
        for k in set(destroy):
            alive = alive & (occ[:, k] >= destroy.count(k))
        source = np.flatnonzero(alive)
        rows = occ.take(source, axis=0)
    else:
        source = np.arange(d)
        rows = occ.copy() if create else occ
    amp = 1.0  # the first factor replaces it exactly: 1.0 * x == x
    for k in destroy:
        amp = amp * np.sqrt(rows[:, k])
        rows[:, k] -= 1
    if weight is not None:
        amp = amp * weight(rows)
        kept = amp != 0.0
        if not kept.all():
            source, rows, amp = source[kept], rows[kept], amp[kept]
    for j in create:
        amp = amp * np.sqrt(rows[:, j] + 1)
        rows[:, j] += 1
    if isinstance(amp, float):  # no factor at all: the identity
        amp = np.ones(d)
    image = basis.rank(rows) if create or destroy else source.copy()
    lost = image < 0
    lossy = np.zeros(d, dtype=bool)
    lossy[source] = lost
    if np.count_nonzero(lost):
        source, image, amp = source[~lost], image[~lost], amp[~lost]
    return LinearOperator(basis, _column_map(d, source, image, amp)), lossy


def _column_images(op):
    """Where ``op`` sends each basis state, and with what weight, read off its matrix.

    Returns ``target`` (-1 for a state the operator annihilates or sends out
    of the basis) and the complex ``weight`` (0 there).  Only operators with
    at most one entry per column, as every ladder monomial has, have such a
    map; any other raises ValueError.
    """
    mat = op.matrix
    d = mat.shape[1]
    if np.bincount(mat.indices, minlength=d).max() > 1:
        raise ValueError("operator sends a basis state to more than one state")
    target = np.full(d, -1, dtype=np.int64)
    target[mat.indices] = np.repeat(np.arange(d), np.diff(mat.indptr))
    weight = np.zeros(d, dtype=complex)
    weight[mat.indices] = mat.data
    return target, weight


def _rotation(zeta, raising):
    """zeta X - zeta* X^dag: the rotation (or displacement) generator of the ladder X.

    Built in one pass from X's CSR arrays.  X holds at most one entry per row
    and per column, off the diagonal, as every raising or transfer monomial
    does (any other X raises ValueError).  So row i of the generator holds
    X's entry of row i, then the X^dag entry that X's entry in column i
    mirrors, written -conj(zeta w), which equals -(zeta* w*) exactly.
    """
    mat = raising.matrix
    d = mat.shape[0]
    per_row = np.diff(mat.indptr)
    per_col = np.bincount(mat.indices, minlength=d)
    rows = np.flatnonzero(per_row)  # the row of each entry, in storage order
    cols = mat.indices
    if per_row.max(initial=0) > 1 or per_col.max(initial=0) > 1 or (rows == cols).any():
        raise ValueError("a rotation needs a ladder with at most one entry per row and "
                         "per column, none on the diagonal")
    up = mat.data * zeta
    indptr = np.zeros(d + 1, dtype=cols.dtype)
    np.cumsum(per_row + per_col, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=cols.dtype)
    data = np.empty(indptr[-1], dtype=complex)
    at_up = indptr[rows]
    at_down = indptr[cols] + per_row[cols]
    indices[at_up] = cols
    data[at_up] = up
    indices[at_down] = rows
    data[at_down] = -np.conj(up)
    return LinearOperator(raising.basis, sp.csr_array((data, indices, indptr), shape=(d, d)))


def identity_op(basis: TruncatedBasis) -> LinearOperator:
    return LinearOperator(basis, sp.eye_array(len(basis), dtype=complex, format="csr"))


def diagonal_op(basis: TruncatedBasis, values) -> LinearOperator:
    """Diagonal operator from one value per basis state."""
    diag = np.asarray(values, dtype=complex)
    if diag.shape != (len(basis),):
        raise ValueError("diagonal length does not match basis size")
    index = np.arange(len(basis))
    return LinearOperator(basis, _column_map(len(basis), index, index, diag))


def _check_mode(basis, mode):
    if int(mode) != mode or not 0 <= mode < basis.modes:
        raise ValueError(f"mode {mode!r} out of range for a {basis.modes}-mode basis")
    return int(mode)


def creation_op(basis: TruncatedBasis, mode: int) -> LinearOperator:
    """a_mode^dagger; transitions leaving the basis are dropped silently."""
    return _monomial(basis, create=(_check_mode(basis, mode),))[0]


def annihilation_op(basis: TruncatedBasis, mode: int) -> LinearOperator:
    """a_mode, built as the exact adjoint of :func:`creation_op`."""
    return creation_op(basis, mode).adjoint()


def number_op(basis: TruncatedBasis, mode: int) -> LinearOperator:
    return diagonal_op(basis, basis.occupations[:, _check_mode(basis, mode)])


def total_number_op(basis: TruncatedBasis) -> LinearOperator:
    return diagonal_op(basis, basis.totals)


def commutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    return a @ b - b @ a


def _one_norm(mat):
    """||mat||_1, the largest absolute column sum; ValueError when it is not finite.

    A CSR ``mat`` has its columns summed by ``bincount`` over its stored
    entries, in storage order, as ``abs(mat).sum(axis=0)`` sums them.
    """
    if isinstance(mat, np.ndarray):
        sums = np.abs(mat).sum(axis=0)
    else:
        sums = np.bincount(mat.indices, np.abs(mat.data), minlength=mat.shape[1])
    norm = float(sums.max())
    if not math.isfinite(norm):
        raise ValueError("generator norm is not finite")
    return norm


def _strictly_triangular(mat):
    """Whether ``mat`` (dense or CSR) is zero on and above, or on and below, its diagonal.

    Such a matrix is nilpotent.  Every raising or lowering ladder monomial is
    one in graded order: it shifts each occupation by one fixed vector, so it
    moves every state strictly up the order or strictly down it.
    """
    if isinstance(mat, np.ndarray):
        return not np.triu(mat).any() or not np.tril(mat).any()
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    return bool((mat.indices < rows).all() or (mat.indices > rows).all())


def _series_exponential(mat, block):
    """exp(mat) @ block, for a dense or sparse ``mat`` and a vector or matrix ``block``.

    The truncated-Taylor action of Al-Mohy and Higham (SIAM J. Sci. Comput.
    33 (2011) 488) with a fixed schedule: substeps, each a Taylor series
    summed until its term is at most 1e-15 of the running sum (2-norm for a
    vector, Frobenius for a matrix).  A strictly triangular (nilpotent)
    ``mat`` takes one pass: its series is a polynomial of degree below d, so
    the term vanishes exactly within d products.  Any other ``mat`` takes
    ceil(||mat||_1) substeps.
    """
    norm = _one_norm(mat)  # refuses a non-finite generator on either schedule
    steps = 1 if _strictly_triangular(mat) else max(1, math.ceil(norm))
    scaled = mat / steps
    out = block.astype(complex)
    for _ in range(steps):
        term, k = out, 0
        while True:
            k += 1
            term = scaled @ term
            term /= k
            out += term
            # squared norms (vdot flattens a matrix to its Frobenius norm); a NaN stops too
            if not np.vdot(term, term).real > 1e-30 * np.vdot(out, out).real:
                break
    return out


def _bessel_j(x):
    """J_0(x), J_1(x), ... for x > 0, up to the first order k > x with |J_k(x)| < 1e-16.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started well
    past that order (the turning region around k = x is O(x^{1/3}) wide),
    rescaled before it can overflow and normalised by J_0 + 2 sum J_{2k} = 1.
    """
    if x < 2e-16:  # J_1(x) = x/2 is below the cutoff already and J_0(x) rounds to 1
        return np.ones(1)
    start = int(x + 20 * x ** (1 / 3)) + 30
    j = [0.0, 1.0]  # J_{start+1}, J_start, ... downward
    for k in range(start, 0, -1):
        j.append(2 * k / x * j[-1] - j[-2])
        if abs(j[-1]) > 1e150:
            j = [v / abs(j[-1]) for v in j]
    j = np.array(j[::-1])
    j /= j[0] + 2 * j[2::2].sum()
    return j[:np.argmax((np.arange(len(j)) > x) & (np.abs(j) < 1e-16))]


def op_exponential(a: LinearOperator, scale: complex = 1.0) -> np.ndarray:
    """The whole exponential exp(scale * a) as a dense d x d array; meant for small bases.

    ``scale`` multiplies ``a``'s dense matrix, which costs less than scaling
    its CSR form; the series then runs on that array with the identity as its
    block.  The result is an array, not an operator: CSR is the form of
    generators, and a dense exponential is none.
    """
    return _series_exponential(scale * a.matrix.toarray(), np.eye(len(a.basis), dtype=complex))


def apply_exponential(a: LinearOperator, psi: StateVector) -> StateVector:
    """exp(a) |psi> without forming the exponential: sparse products on the vector."""
    _check_same_basis(a, psi)
    return StateVector(psi.basis, _series_exponential(a.matrix, psi.amplitudes))


def apply_skew_exponential(a: LinearOperator, psi: StateVector) -> StateVector:
    """exp(a) |psi> for a skew-Hermitian ``a`` (a^H = -a), by Chebyshev expansion.

    Tal-Ezer and Kosloff (J. Chem. Phys. 81 (1984) 3967): rho = ||a||_1 bounds
    the spectrum of the Hermitian i*a, and exp(a) = J_0(rho) + 2 sum_k (-i)^k
    J_k(rho) T_k(i*a/rho).  Folding (-i)^k into the Chebyshev recurrence
    leaves phi_{k+1} = (2/rho) a phi_k + phi_{k-1}, one sparse product per
    term, with phi_0 = psi and phi_1 = (a/rho) psi.  The terms are fixed by
    rho alone (:func:`_bessel_j`); no norm is tested in the loop.  ``a`` must
    be skew-Hermitian by construction (a rotation generator, or -i dt H);
    that is not checked here, and any other generator gives a wrong result.
    """
    _check_same_basis(a, psi)
    mat = a.matrix
    rho = _one_norm(mat)
    if rho == 0.0:
        return psi.copy()
    j = _bessel_j(rho)
    scaled = mat * (2.0 / rho)
    prev, cur = None, psi.amplitudes
    out = j[0] * cur
    for c in (2 * j[1:]).tolist():  # a float factor is cheaper than a numpy scalar
        nxt = scaled @ cur
        if prev is None:
            nxt *= 0.5  # phi_1 = (a/rho) psi
        else:
            nxt += prev
        out += c * nxt
        prev, cur = cur, nxt
    return StateVector(psi.basis, out)


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
    for occ, amp in zip(psi.basis.occupations.tolist(), psi.amplitudes):
        if abs(amp) > threshold:
            entries.append({"occupations": occ, "re": float(amp.real), "im": float(amp.imag)})
    return {
        "schema": "fockbench.state/1",
        "modes": psi.basis.modes,
        "cutoff": psi.basis.cutoff.to_json_dict(),
        "entries": entries,
    }


def state_from_json_dict(d: dict) -> StateVector:
    basis = enumerate_basis(d["modes"], Cutoff.from_json_dict(d["cutoff"]))
    entries = d["entries"]
    amps = np.zeros(len(basis), dtype=complex)
    if entries:
        occ = [entry["occupations"] for entry in entries]
        if any(len(row) != basis.modes for row in occ):
            raise ValueError(f"state entries need {basis.modes} occupations each")
        index = basis.rank(occ)
        if (index < 0).any():
            outside = tuple(occ[int(np.argmax(index < 0))])
            raise ValueError(f"occupation {outside} is not in the basis")
        amps[index] = [entry["re"] + 1j * entry["im"] for entry in entries]
    return StateVector(basis, amps)
