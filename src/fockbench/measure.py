"""Shell projectors, overcompleteness measures, and their numerical checks.

The fixed-total shell of r+1 modes carries a C(M+r, r)-dimensional symmetric
representation.  Its coherent projections |xi>, xi in C^r, come with a measure
whose integral of |xi><xi| is the shell projector; :func:`resolution_check`
verifies that identity by tensor quadrature.  Radial directions are mapped to
the unit cube by the nested compactification

    u_j = rho_j^2 / (1 + rho_1^2 + ... + rho_j^2),

under which the integrand becomes a polynomial in u (and a trigonometric
polynomial in the angles), so Gauss-Legendre x uniform-angle rules are exact
beyond small node counts instead of merely convergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, roots_legendre

from . import distributions as dist
from .fock import (Cutoff, LinearOperator, StateVector, TruncatedBasis, diagonal_op,
                   enumerate_basis)

DEFAULT_NODES = {1: (64, 64), 2: (24, 24)}

MIN_NODES = 8


def projector_fixed_M(basis: TruncatedBasis, M: int) -> LinearOperator:
    """Orthogonal projector onto the shell sum(n) = M inside ``basis``.

    The basis must contain the complete shell (all C(M+r, r) states with
    r = modes - 1), otherwise the projector would have the wrong rank.
    """
    if int(M) != M or M < 0:
        raise ValueError("M must be a non-negative integer")
    M = int(M)
    on_shell = basis.totals == M
    expected = math.comb(M + basis.modes - 1, basis.modes - 1)
    if int(on_shell.sum()) != expected:
        raise ValueError(
            f"basis holds {int(on_shell.sum())} of the {expected} shell states with total {M}"
        )
    return diagonal_op(basis, on_shell)


@dataclass(frozen=True)
class MeasureSpec:
    """Rank, shell total, and quadrature node counts per real dimension."""

    r: int
    M: int
    nodes_radial: int = None
    nodes_angular: int = None

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 1:
            raise ValueError("r must be a positive integer")
        if int(self.M) != self.M or self.M < 1:
            raise ValueError("M must be a positive integer")
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "M", int(self.M))
        default = DEFAULT_NODES.get(self.r, (max(MIN_NODES, self.M + 2),
                                              max(MIN_NODES, self.M + 1)))
        nrad = default[0] if self.nodes_radial is None else int(self.nodes_radial)
        nang = default[1] if self.nodes_angular is None else int(self.nodes_angular)
        if nrad < MIN_NODES or nang < MIN_NODES:
            raise ValueError(f"node counts below {MIN_NODES} per dimension are not allowed")
        object.__setattr__(self, "nodes_radial", nrad)
        object.__setattr__(self, "nodes_angular", nang)


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


def _shell_quadrature(spec: MeasureSpec):
    """The shell basis and the quadrature of integral dmu(xi) |xi><xi| on it.

    Each node's vector is radial_p o ang, with one real radial factor per
    radial node and the same angular factor at every node, so the node sum
    sum_p w_p (radial_p o ang)(radial_p o ang)^H is (R diag(w) R^T) o (A A^H):
    the same finite quadrature, reassociated into two matrix products.
    """
    r, M = spec.r, spec.M
    nrad, nang = spec.nodes_radial, spec.nodes_angular
    basis = enumerate_basis(r + 1, Cutoff.shell(M))
    occ_all = basis.occupations.astype(float)
    nprime = occ_all[:, 1:]  # (d, r)
    log_coeff = 0.5 * (gammaln(M + 1) - gammaln(occ_all + 1.0).sum(axis=1))

    x, w = roots_legendre(nrad)
    u1 = 0.5 * (x + 1.0)
    w1 = 0.5 * w
    uu = np.stack([g.ravel() for g in np.meshgrid(*([u1] * r), indexing="ij")], axis=1)
    wprod = np.prod(
        np.stack([g.ravel() for g in np.meshgrid(*([w1] * r), indexing="ij")], axis=1), axis=1
    )
    # rho_j^2 = u_j * prod_{k<=j} (1-u_k)^{-1}; the triangular Jacobian gives
    # d(rho^2)/d(u) = prod_j [prod_{k<j} (1-u_k)^{-1}] / (1-u_j)^2, and each
    # rho drho contributes a further factor 1/2.
    s_part = np.cumprod(1.0 / (1.0 - uu), axis=1)
    rho2 = uu * s_part
    s_prev = np.hstack([np.ones((uu.shape[0], 1)), s_part[:, :-1]])
    jac = (0.5 ** r) * np.prod(s_prev / (1.0 - uu) ** 2, axis=1)
    one_plus = s_part[:, -1]  # 1 + |rho|^2, exactly

    phi = 2.0 * np.pi * np.arange(nang) / nang
    phis = np.stack([g.ravel() for g in np.meshgrid(*([phi] * r), indexing="ij")], axis=1)
    ang = np.exp(1j * (nprime @ phis.T))  # (d, nang^r)
    ang_weight = (2.0 * np.pi / nang) ** r

    const = math.exp(gammaln(M + r + 1) - gammaln(M + 1)) / math.pi ** r
    radial = np.exp(log_coeff[:, None] + 0.5 * (nprime @ np.log(rho2).T)
                    - 0.5 * M * np.log(one_plus))  # (d, nrad^r)
    weight = const * jac * wprod * ang_weight / one_plus ** (r + 1)
    return basis, ((radial * weight) @ radial.T) * (ang @ ang.conj().T)


def resolution_check(spec: MeasureSpec, tolerance: float = None,
                     allow_high_rank: bool = False) -> dict:
    """Quadrature of the overcompleteness integral against the shell identity.

    Accumulates integral dmu(xi) |xi><xi| over C^r with the nested radial
    substitution described in the module docstring and a uniform angular rule
    (exact once the angular node count exceeds M), then reports the entrywise
    and trace residuals against the identity on the shell basis.  Rank r >= 3
    costs nodes^r radial and nodes^r angular evaluations per basis state and
    must be requested explicitly.
    """
    if spec.r >= 3 and not allow_high_rank:
        raise ValueError(
            "rank >= 3 quadrature grows as nodes^r; pass allow_high_rank=True to run it"
        )
    basis, accumulated = _shell_quadrature(spec)
    d = len(basis)
    diff = np.abs(accumulated - np.eye(d))
    worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
    report = {
        "r": spec.r,
        "M": spec.M,
        "nodes": {"radial": spec.nodes_radial, "angular": spec.nodes_angular},
        "max_entry_residual": float(diff[worst]),
        "trace_residual": float(abs(np.trace(accumulated) - d)),
        "worst_entry": {"row": list(basis.states[worst[0]]), "col": list(basis.states[worst[1]])},
    }
    if tolerance is not None:
        report["tolerance"] = float(tolerance)
        report["passed"] = bool(report["max_entry_residual"] <= tolerance)
    return report


def slicing_check(alphas, M: int) -> dict:
    """Conditioned multiple-Poisson law on a shell versus the closed-form pmf.

    Slicing independent Poisson modes with amplitudes ``alphas`` to total
    count M must reproduce the multinomial law with eta_j = alpha_j/|alpha|
    (zeroth mode implied).  Reports the worst relative error over the shell.
    """
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) < 2:
        raise ValueError("alphas must cover the zeroth mode plus at least one more")
    if any(a <= 0 for a in alphas):
        raise ValueError("alpha components must be strictly positive")
    if int(M) != M or M < 0:
        raise ValueError("M must be a non-negative integer")
    M = int(M)
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
