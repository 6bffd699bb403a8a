"""Truncated multi-mode bosonic Fock spaces.

Bases are finite slices of the occupation-number lattice, held as one
(size, modes) int64 occupation array in graded lexicographic order (total
occupation ascending, then lexicographic within each total).  A vectorised
rank, built from per-basis tables of bounded-composition counts, maps any
occupation rows back to their indices, one table lookup per mode column.
States are dense complex vectors over such a basis.  An operator is its
column map and carries no arithmetic: per state its image (``target``, -1 for
none), its ``weight`` and whether truncation dropped it (``lossy``).  Ladder
monomials are computed on the whole occupation array at once and silently
drop any transition leaving the basis, so truncation error shows up only as
missing tail mass (and in ``lossy``), never as an exception.

Exponentials form a 2 x 2 grid, picked by the caller, never by testing a generator:

                          on a state                whole, dense (small bases)
    ladder                apply_exponential         op_exponential
    rotation of a ladder  apply_skew_exponential    op_skew_exponential

A ladder (the only generator the first row takes) is nilpotent, so its
exponential is a finite Taylor polynomial.  The rotation zeta X - zeta* X^dag
of a ladder X is built inside the second row's functions, so their Chebyshev
expansion only receives the skew-Hermitian generator it is exact for.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

MAX_BASIS_STATES = 2_000_000
# entry-products a Chebyshev expansion may take, terms x (stored entries x block columns +
# CHEBYSHEV_TERM_COST): about 10 s on one core, which does ~1.8e8 entry-products/s at d = 2e4
# and spends ~8.6 us (1500 of them) on each term's dispatch and loop however small d is
MAX_CHEBYSHEV_WORK = 2 * 10 ** 9
CHEBYSHEV_TERM_COST = 1500


def _whole(name, value, low, high=math.inf):
    """``value`` as an int in [low, high]; ValueError for NaN, inf, 2.5, "3", true, ..."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value))
            and low <= value <= high and value == int(value)):
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def _real(name, value):
    """``value`` as a finite float; ValueError for NaN, inf, 10**400, "3", true, ..."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _complex(name, value):
    """``value`` as a complex whose two parts pass :func:`_real`; a real is its real part."""
    number = isinstance(value, numbers.Complex) and not isinstance(value, bool)
    x, y = (value.real, value.imag) if number else (value, 0)
    return complex(_real(name, x), _real(name, y))


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
        object.__setattr__(self, "value", _whole("cutoff value", self.value, 0))

    @classmethod
    def per_mode(cls, value):
        return cls("per_mode", value)

    @classmethod
    def total(cls, value):
        return cls("total", value)

    @classmethod
    def shell(cls, value):
        return cls("shell", value)

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

    @property
    def totals(self) -> np.ndarray:
        return _row_totals(self.occupations)


def enumerate_basis(modes: int, cutoff: Cutoff) -> TruncatedBasis:
    """Enumerate the truncated basis in graded lexicographic order.

    The rows are written level by level: each prefix (n_0 .. n_{j-1}) with
    occupation ``rem`` still to place spawns one child per admissible n_j, in
    ascending order, so the leaves come out sorted.  Raises ValueError when
    the cutoff yields an empty basis or more than ``MAX_BASIS_STATES`` states,
    before anything is allocated.
    """
    modes = _whole("modes", modes, 1)
    count = cutoff.size(modes)
    if count == 0:
        raise ValueError("cutoff yields an empty basis")
    if count > MAX_BASIS_STATES:
        raise ValueError(
            f"cutoff yields {count} basis states, above the cap of {MAX_BASIS_STATES}"
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

    def amplitude(self, occ) -> complex:
        return complex(self.amplitudes[self.basis.index_of(occ)])


def basis_state(basis: TruncatedBasis, occ) -> StateVector:
    """The basis vector |occ>."""
    amps = np.zeros(len(basis), dtype=complex)
    amps[basis.index_of(occ)] = 1.0
    return StateVector(basis, amps)


def vacuum_state(basis: TruncatedBasis) -> StateVector:
    return basis_state(basis, (0,) * basis.modes)


class LinearOperator:
    """The operator sending state s to ``target[s]`` (-1: nowhere) with ``weight[s]``.

    ``lossy[s]`` marks a state whose exact image left the basis, the one fact
    the matrix cannot hold.  All three are copied into read-only arrays, as the
    cached ``matrix``'s are, so they cannot drift apart.  An operator only acts
    (:meth:`apply`); it has no sum, product or adjoint.
    """

    def __init__(self, basis: TruncatedBasis, target, weight, lossy):
        d = len(basis)
        target, weight = np.array(target, dtype=np.int64), np.array(weight, dtype=complex)
        lossy = np.array(lossy, dtype=bool)
        if target.shape != (d,) or weight.shape != (d,) or lossy.shape != (d,):
            raise ValueError(f"a column map needs {d} targets, weights and loss flags")
        if ((target < -1) | (target >= d)).any():
            raise ValueError(f"a column map's targets must lie in [-1, {d})")
        target.flags.writeable = weight.flags.writeable = lossy.flags.writeable = False
        self.basis, self.target, self.weight, self.lossy = basis, target, weight, lossy
        self._matrix = None

    @property
    def matrix(self) -> sp.csr_array:
        """The CSR matrix; a map's entries go in by target, then by source, which is already
        their order for a ladder monomial: it shifts all occupations by one fixed vector,
        which keeps graded-lex order.  Each of its rows then holds at most one entry."""
        if self._matrix is None:
            d = len(self.target)
            source = np.flatnonzero(self.target >= 0)
            source = source[np.argsort(self.target[source], kind="stable")]
            indptr = np.zeros(d + 1, dtype=np.int64)  # entries in the rows above each row
            np.cumsum(np.bincount(self.target[source], minlength=d), out=indptr[1:])
            self._matrix = sp.csr_array((self.weight[source], source, indptr), shape=(d, d))
            for part in (self._matrix.data, self._matrix.indices, self._matrix.indptr):
                part.flags.writeable = False
        return self._matrix

    def apply(self, psi: StateVector) -> StateVector:
        _check_same_basis(self, psi)
        return StateVector(self.basis, self.matrix @ psi.amplitudes)


def _monomial(basis, create=(), destroy=(), weight=None):
    """Build prod(a_j^dag) * weight(occ) * prod(a_k) with exact loss tracking.

    Works on the whole occupation array at once.  ``weight`` takes the
    (n, modes) occupation rows left after the destruction step and returns n
    values; a zero weight annihilates the state exactly (used for clamped
    square roots at representation boundaries).  The factors multiply in a
    fixed order -- each destroy sqrt(n), the weight, each create sqrt(n+1) --
    so every entry is the same float whatever the basis size.  Returns the
    operator as its column map: ``target`` -1 and ``weight`` 0 for a state
    sent nowhere, and ``lossy`` set for a source state whose exact image falls
    outside the basis with non-zero amplitude.
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
    image = basis.rank(rows)
    lossy = np.zeros(d, dtype=bool)
    lossy[source] = image < 0
    target = np.full(d, -1, dtype=np.int64)
    target[source] = image
    weight = np.zeros(d, dtype=complex)
    weight[source] = amp
    weight[lossy] = 0.0  # an image outside the basis is none
    return LinearOperator(basis, target, weight, lossy)


def _rotation(zeta, raising, diagonal=None):
    """zeta X - zeta* X^dag: the rotation (or displacement) generator of the ladder X.

    Returns the CSR matrix, built in one pass from X's column map.  X must send
    no two states to one state and none to itself, as every raising or transfer
    monomial does (any other X raises ValueError).  So row i of the generator
    holds X's entry of row i, then the X^dag entry that X's entry in column i
    mirrors, written -conj(zeta w), which equals -(zeta* w*) exactly.  A
    ``diagonal`` (one finite real value per state, with an imaginary zeta; else
    ValueError) adds zeta diag(diagonal), an entry on every row between those
    two: the drive -i dt (omega N + j a^dag + j* a) is zeta = -i dt, X = j a^dag
    and diagonal omega N, whose rows then hold their three entries in column
    order.  So the generator is skew-Hermitian exactly, whatever the arguments.
    """
    zeta = _complex("zeta", zeta)
    if not np.isfinite(raising.weight).all():
        raise ValueError("generator norm is not finite")
    if diagonal is not None and not (
            zeta.real == 0 and np.isrealobj(diagonal) and np.isfinite(diagonal).all()):
        raise ValueError("a rotation's diagonal needs finite real values and an imaginary zeta")
    d = len(raising.target)
    per_col = raising.target >= 0  # a map holds at most one entry per column
    cols = np.flatnonzero(per_col)  # the column of each entry
    rows = raising.target[cols]
    per_row = np.bincount(rows, minlength=d)
    if per_row.max(initial=0) > 1 or (rows == cols).any():
        raise ValueError("a rotation needs a ladder with at most one entry per row and per "
                         "column, none on the diagonal")
    up = raising.weight[cols] * zeta
    per_entry = per_row + per_col
    if diagonal is not None:
        per_entry += 1
    indptr = np.zeros(d + 1, dtype=cols.dtype)
    np.cumsum(per_entry, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=cols.dtype)
    data = np.empty(indptr[-1], dtype=complex)
    at_up = indptr[rows]
    at_down = indptr[cols] + per_row[cols]
    if diagonal is not None:
        at_diag = indptr[:-1] + per_row
        indices[at_diag] = np.arange(d)
        data[at_diag] = zeta * diagonal
        at_down += 1
    indices[at_up] = cols
    data[at_up] = up
    indices[at_down] = rows
    data[at_down] = -np.conj(up)
    return sp.csr_array((data, indices, indptr), shape=(d, d))


def diagonal_op(basis: TruncatedBasis, values) -> LinearOperator:
    """Diagonal operator from one value per basis state; a zero value sends its state nowhere."""
    diag = np.asarray(values, dtype=complex)
    if diag.shape != (len(basis),):
        raise ValueError("diagonal length does not match basis size")
    kept = diag != 0.0
    return LinearOperator(basis, np.where(kept, np.arange(len(basis)), -1),
                          np.where(kept, diag, 0.0), np.zeros(len(basis), dtype=bool))


def _check_mode(basis, mode):
    return _whole("mode", mode, 0, basis.modes - 1)


def creation_op(basis: TruncatedBasis, mode: int) -> LinearOperator:
    """a_mode^dagger; transitions leaving the basis are dropped silently."""
    return _monomial(basis, create=(_check_mode(basis, mode),))


def annihilation_op(basis: TruncatedBasis, mode: int) -> LinearOperator:
    """a_mode; its entries are bit for bit those of :func:`creation_op`, transposed."""
    return _monomial(basis, destroy=(_check_mode(basis, mode),))


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

    Every ladder monomial is, in graded order: it shifts each occupation by one
    fixed vector, so it moves every state strictly up or strictly down.
    """
    rows, cols = mat.nonzero()  # a NaN counts as non-zero
    return bool((cols < rows).all() or (cols > rows).all())


def _ladder_series(mat, block):
    """exp(mat) @ block for a strictly triangular ``mat`` and a vector or matrix ``block``.

    Such a ``mat`` (a raising or lowering ladder, dense or CSR) is nilpotent, so its
    finite Taylor series is summed until a term is at most 1e-15 of the running sum.
    """
    _one_norm(mat)  # refuses a non-finite generator first
    if not _strictly_triangular(mat):
        raise ValueError("the series exponential needs a strictly triangular (ladder) generator")
    out = block.astype(complex)
    term = out
    for k in range(1, mat.shape[0] + 1):  # mat^d = 0 ends the series within d products
        term = mat @ term
        term /= k
        out += term
        # squared norms (vdot flattens a matrix to its Frobenius norm); a NaN stops too
        if not np.vdot(term, term).real > 1e-30 * np.vdot(out, out).real:
            break
    return out


def _miller_start(x):
    """Where Miller's recurrence for J_k(x) starts: past x by its O(x^{1/3}) turning region."""
    return int(x + 20 * x ** (1 / 3)) + 30


def _bessel_j(x):
    """J_0(x), J_1(x), ... for x > 0, up to the first order k > x with |J_k(x)| < 1e-16.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started well
    past that order (:func:`_miller_start`), rescaled before it can overflow
    and normalised by J_0 + 2 sum J_{2k} = 1.
    """
    if x < 2e-16:  # J_1(x) = x/2 is below the cutoff already and J_0(x) rounds to 1
        return np.ones(1)
    j = [0.0, 1.0]  # J_{start+1}, J_start, ... downward
    for k in range(_miller_start(x), 0, -1):
        j.append(2 * k / x * j[-1] - j[-2])
        if abs(j[-1]) > 1e150:
            j = [v / abs(j[-1]) for v in j]
    j = np.array(j[::-1])
    j /= j[0] + 2 * j[2::2].sum()
    return j[:np.argmax((np.arange(len(j)) > x) & (np.abs(j) < 1e-16))]


def _chebyshev_exponential(mat, block):
    """exp(mat) @ block for a skew-Hermitian ``mat`` and a vector or matrix ``block``.

    Tal-Ezer and Kosloff (J. Chem. Phys. 81 (1984) 3967): with rho = ||mat||_1, exp(mat)
    = J_0(rho) + 2 sum_k (-i)^k J_k(rho) T_k(i*mat/rho).  Folding (-i)^k into the
    recurrence leaves phi_{k+1} = (2/rho) mat phi_k + phi_{k-1}, one product per term,
    with as many terms as rho alone fixes (:func:`_bessel_j`).  Work above
    ``MAX_CHEBYSHEV_WORK`` raises ValueError before the coefficients are computed.
    """
    rho = _one_norm(mat)
    stored = mat.size if isinstance(mat, np.ndarray) else mat.nnz
    work = _miller_start(rho) * (stored * math.prod(block.shape[1:]) + CHEBYSHEV_TERM_COST)
    if work > MAX_CHEBYSHEV_WORK:
        raise ValueError(f"the Chebyshev expansion at rho = {rho:.4g} needs about {work:.4g} "
                         f"entry-products, above the limit {MAX_CHEBYSHEV_WORK:.4g}")
    j = _bessel_j(rho)
    if len(j) == 1:  # rho < 2e-16: exp(mat) rounds to the identity, and 2/rho may overflow
        return block.copy()
    scaled = mat * (2.0 / rho)
    prev, cur = None, block
    out = j[0] * cur
    for c in (2 * j[1:]).tolist():  # a float factor is cheaper than a numpy scalar
        nxt = scaled @ cur
        if prev is None:
            nxt *= 0.5  # phi_1 = (mat/rho) block
        else:
            nxt += prev
        out += c * nxt
        prev, cur = cur, nxt
    return out


def op_exponential(a: LinearOperator, scale: complex = 1.0) -> np.ndarray:
    """The whole exponential exp(scale * a) of a strictly triangular (ladder) ``a`` as a dense
    d x d array, by its series; else ValueError.  Meant for small bases.

    ``scale`` multiplies ``a``'s dense matrix, which costs less than scaling
    its CSR form.  The result is an array, not an operator: a dense
    exponential is no generator.
    """
    scale = _complex("scale", scale)
    _one_norm(a.matrix)  # refuses a non-finite generator before scaling can turn an inf into NaN
    return _ladder_series(scale * a.matrix.toarray(), np.eye(len(a.target), dtype=complex))


def op_skew_exponential(zeta: complex, raising: LinearOperator) -> np.ndarray:
    """The whole rotation exp(zeta X - zeta* X^dag) of the ladder X = ``raising`` as a dense
    d x d array, by the Chebyshev loop on the identity; meant for small bases."""
    generator = _rotation(zeta, raising).toarray()
    return _chebyshev_exponential(generator, np.eye(len(generator), dtype=complex))


def apply_exponential(a: LinearOperator, psi: StateVector, scale: complex = 1.0) -> StateVector:
    """exp(scale * a) |psi> for a strictly triangular (ladder) ``a`` by sparse products; else
    ValueError.  ``scale`` multiplies ``a``'s CSR entries, after a non-finite ``a`` is refused."""
    scale = _complex("scale", scale)
    _check_same_basis(a, psi)
    _one_norm(a.matrix)  # refuses a non-finite generator before scaling can turn an inf into NaN
    return StateVector(psi.basis, _ladder_series(a.matrix * scale, psi.amplitudes))


def apply_skew_exponential(zeta: complex, raising: LinearOperator, psi: StateVector,
                           diagonal=None) -> StateVector:
    """exp(zeta X - zeta* X^dag + zeta diag(diagonal)) |psi> by Chebyshev expansion, for the
    ladder X = ``raising``.  The generator is built here (:func:`_rotation`), so it is
    skew-Hermitian by construction, the one kind the expansion is exact for."""
    _check_same_basis(raising, psi)
    generator = _rotation(zeta, raising, diagonal)
    return StateVector(psi.basis, _chebyshev_exponential(generator, psi.amplitudes))


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
