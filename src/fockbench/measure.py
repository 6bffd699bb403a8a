"""Shell coherent states, the overcompleteness measure, and their numerical checks.

The fixed-total shell of r+1 modes carries a C(M+r, r)-dimensional symmetric
representation.  Its coherent projections |xi>, xi in C^r, come with a measure
whose integral of |xi><xi| is the shell projector; :func:`resolution_check`
verifies that identity by tensor quadrature.  Radial directions are mapped to
the unit cube by the nested compactification

    u_j = rho_j^2 / (1 + rho_1^2 + ... + rho_j^2),

under which the integrand becomes a polynomial in u (and a trigonometric
polynomial in the angles), so Gauss-Legendre x uniform-angle rules are exact
beyond small node counts instead of merely convergent, and factor over the r
dimensions: r one-dimensional sums per matrix entry, d^2 r for d states, any rank.

The Gauss-Legendre nodes come from :func:`_gauss_legendre`, scipy's
roots_legendre steps run on numpy's dense eigvalsh and bit-identical to it.
Its cost is O(n^3) in the node count n (an 8 MB temporary at 1000 nodes), paid
once per node count in a process, and no ``verify`` path loads scipy.linalg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import eval_legendre, gammaln

from . import distributions as dist
from .fock import Cutoff, StateVector, TruncatedBasis, _real, _whole, enumerate_basis

DEFAULT_NODES = {1: 64, 2: 24}  # per-rank floors of the default nodes
# M <= MAX_NODES - 2 keeps the default exact rule under the node ceiling, and the
# radial table and c_n in double range (at r = 1 they leave it near M = 1020)
MIN_NODES, MAX_NODES = 8, 1000
# largest d^2 r a resolution check accepts; r = 6, M = 8 (5.4e7) takes ~1.3 s on one core
MAX_PAIR_WORK = 10 ** 8
BLOCK_ROWS = 64  # rows of the quadrature result formed at a time


@dataclass(frozen=True)
class MeasureSpec:
    """Rank, shell total, and quadrature nodes per real dimension.

    ``nodes`` sets both node counts, ``nodes_radial`` and ``nodes_angular``; left
    out, each is the smallest count that is exact, and at least its rank's floor.
    """

    r: int
    M: int
    nodes: int = None
    nodes_radial: int = field(init=False)
    nodes_angular: int = field(init=False)

    def __post_init__(self):
        r, M = _whole("r", self.r, 1), _whole("M", self.M, 1, MAX_NODES - 2)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "M", M)
        if self.nodes is None:
            floor = DEFAULT_NODES.get(r, MIN_NODES)
            # Gauss-Legendre with n nodes is exact to degree 2n - 1 >= M + r - 1, the top
            # degree of a diagonal entry; n uniform angles resolve phases |n_k - m_k| <= M
            radial, angular = max(floor, M + 2, -(-(M + r) // 2)), max(floor, M + 1)
            if radial > MAX_NODES:  # M + 1 and M + 2 stay within it, (M + r) / 2 may not
                raise ValueError(f"an exact rule at r = {r} needs {radial} radial nodes, "
                                 f"above the ceiling {MAX_NODES}")
        else:
            radial = angular = _whole("nodes", self.nodes, MIN_NODES, MAX_NODES)
        object.__setattr__(self, "nodes_radial", radial)
        object.__setattr__(self, "nodes_angular", angular)


def measure_density(spec: MeasureSpec, xi) -> float:
    """(M+r)!/M! / (pi^r (1+|xi|^2)^{r+1}) at the point xi in C^r."""
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    if xi.shape != (spec.r,):
        raise ValueError(f"xi must have {spec.r} components")
    s = float(np.sum(np.abs(xi) ** 2))
    log_c = gammaln(spec.M + spec.r + 1) - gammaln(spec.M + 1)
    return float(math.exp(log_c) / math.pi ** spec.r / (1.0 + s) ** (spec.r + 1))


def projected_state(spec: MeasureSpec, xi) -> StateVector:
    """Normalized shell state with amplitudes sqrt(M!/prod n!) xi^n' (1+|xi|^2)^{-M/2}.

    Lives on the graded shell basis of r+1 modes with total M; the zeroth
    mode soaks up the complement M - sum(n').  Norm is 1 by construction,
    independent of any quadrature.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    if xi.shape != (spec.r,):
        raise ValueError(f"xi must have {spec.r} components")
    basis = enumerate_basis(spec.r + 1, Cutoff.shell(spec.M))
    occ = basis.occupations
    s = float(np.sum(np.abs(xi) ** 2))
    log_mag = 0.5 * (gammaln(spec.M + 1) - gammaln(occ + 1.0).sum(axis=1))
    mono = np.prod(xi ** occ[:, 1:], axis=1)
    return StateVector(basis, np.exp(log_mag) * mono * (1.0 + s) ** (-spec.M / 2.0))


@lru_cache
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], bit for bit those of scipy's roots_legendre.

    The same steps as scipy's Golub-Welsch route on numpy: eigenvalues of the
    Legendre Jacobi matrix (held dense and upper-bidiagonal, so LAPACK's
    tridiagonal reduction leaves it as it is and dsterf solves it, as under
    scipy's banded solver), one Newton step, weights from the log-normalised
    1 / (P_{n-1} P_n'), symmetrised and scaled to sum to 2.  The dense solve
    is O(n^3), so each node count is solved once per process and its read-only
    arrays are shared by every check that uses it.
    """
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k * np.sqrt(1.0 / (4 * k * k - 1)), 1), UPLO="U")
    y = eval_legendre(n, x)
    dy = (-n * x * y + n * eval_legendre(n - 1, x)) / (1 - x ** 2)
    x -= y / dy
    fm = eval_legendre(n - 1, x)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.)
    w = 1.0 / (fm * dy)
    w, x = (w + w[::-1]) / 2, (x - x[::-1]) / 2
    w = w * (2.0 / w.sum())
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _shell_quadrature(spec: MeasureSpec, basis: TruncatedBasis):
    """Consecutive BLOCK_ROWS-row blocks of integral dmu(xi) |xi><xi| on the shell ``basis``.

    The tensor Gauss x uniform rule, reassociated into r one-dimensional sums
    per entry (sum factorisation): entry (n, m) is
    K c_n c_m prod_k T[a_k, 2 e_k] Ang[n_k - m_k] with a_k = n_k + m_k,
    2 e_k = 2M + 2k - 2 - sum_{j >= k} a_j, T[a, b] = sum_p w_p u_p^{a/2}
    (1 - u_p)^{b/2} over the radial nodes, Ang[delta] the numerical mean of
    e^{i delta phi} over the uniform angles, and K = (M+r)!/M! entering as one
    factor M + k per dimension, which keeps the running product in range.
    """
    r, M = spec.r, spec.M
    coeff = np.exp(0.5 * (gammaln(M + 1) - gammaln(basis.occupations + 1.0).sum(axis=1)))
    cols = np.ascontiguousarray(basis.occupations[:, 1:].T)  # (r, d)
    x, w = _gauss_legendre(spec.nodes_radial)
    u = 0.5 * (x + 1.0)
    half = 0.5 * np.arange(2 * M + 2 * r - 1)
    table = (0.5 * w * u ** half[:2 * M + 1, None]) @ ((1.0 - u) ** half[:, None]).T
    phi = 2.0 * np.pi * np.arange(spec.nodes_angular) / spec.nodes_angular
    ang = np.exp(1j * np.arange(-M, M + 1)[:, None] * phi).mean(axis=1)
    for start in range(0, len(basis), BLOCK_ROWS):
        rows = cols[:, start:start + BLOCK_ROWS, None]
        out = coeff[start:start + BLOCK_ROWS, None] * coeff
        tail = 0
        for k in range(r - 1, -1, -1):
            a = rows[k] + cols[k]
            tail = tail + a
            out = out * table[a, 2 * M + 2 * k - tail] * ((M + k + 1) * ang)[rows[k] - cols[k] + M]
        yield out


def resolution_check(spec: MeasureSpec) -> dict:
    """Quadrature of the overcompleteness integral against the shell identity.

    Accumulates integral dmu(xi) |xi><xi| over C^r with the nested radial
    substitution described in the module docstring and a uniform angular rule
    (exact once the angular node count exceeds M), then reports the entrywise
    and trace residuals against the identity on the shell basis.  Any rank
    runs; shells with d^2 r above MAX_PAIR_WORK are refused before the basis
    is built, and the d x d result is consumed in row blocks, never held whole.
    """
    d = Cutoff.shell(spec.M).size(spec.r + 1)
    if d * d * spec.r > MAX_PAIR_WORK:
        raise ValueError(f"the r = {spec.r}, M = {spec.M} shell holds {d} states; d^2 r = "
                         f"{d * d * spec.r:.4g} exceeds the limit {MAX_PAIR_WORK:.4g}")
    basis = enumerate_basis(spec.r + 1, Cutoff.shell(spec.M))
    worst, worst_at, trace = -1.0, (0, 0), 0.0
    for start, block in zip(range(0, d, BLOCK_ROWS), _shell_quadrature(spec, basis)):
        rows = np.arange(len(block))
        trace += block[rows, start + rows].sum()
        block[rows, start + rows] -= 1.0
        diff = np.abs(block)
        flat = int(np.argmax(diff))
        if diff.flat[flat] > worst:  # strict: the first maximum in row-major order wins
            worst, worst_at = float(diff.flat[flat]), divmod(start * d + flat, d)
    return {
        "r": spec.r,
        "M": spec.M,
        "nodes": {"radial": spec.nodes_radial, "angular": spec.nodes_angular},
        "max_entry_residual": worst,
        "trace_residual": float(abs(trace - d)),
        "worst_entry": {"row": basis.occupations[worst_at[0]].tolist(),
                        "col": basis.occupations[worst_at[1]].tolist()},
    }


def slicing_check(alphas, M: int) -> dict:
    """Conditioned multiple-Poisson law on a shell versus the closed-form pmf.

    Slicing independent Poisson modes with amplitudes ``alphas`` to total
    count M must reproduce the multinomial law with eta_j = alpha_j/|alpha|
    (zeroth mode implied).  Reports the worst relative error over the shell.
    """
    alphas = tuple(_real("alphas", a) for a in alphas)
    if len(alphas) < 2:
        raise ValueError("alphas must cover the zeroth mode plus at least one more")
    if any(a <= 0 for a in alphas):
        raise ValueError("alpha components must be strictly positive")
    M = _whole("M", M, 0)
    sliced = dist.slice_to_shell(alphas, M)
    if M == 0:
        # a zero-quantum shell holds a single point mass
        err = abs(sliced[(0,) * len(alphas)] - 1.0)
        return {"alphas": list(alphas), "M": 0, "max_rel_error": float(err), "compared": 1}
    norm = math.sqrt(sum(a * a for a in alphas))
    params = dist.MultinomialParams(tuple(a / norm for a in alphas[1:]), M)
    occs = np.array(list(sliced))
    probs = np.array(list(sliced.values()))
    ref = dist.multinomial_pmf(params, occs[:, 1:])
    worst = np.max(np.abs(probs - ref) / ref)
    return {"alphas": list(alphas), "M": M, "max_rel_error": float(worst),
            "compared": len(sliced)}
