"""State-generation routes and their cross-checks.

Every family admits several construction paths -- amplitude series, pure
raising exponentials, unitary displacement, sequential rotation chains, and
driven time evolution.  These must all land on the same rays; the functions
here build each route so callers can compare fidelities.  All evolutions are
generated by piecewise-constant operators, so time ordering reduces to a
finite product of exponentials.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from . import states as st
from .algebra import AlgebraRealization, _hp_weight, su2_bilinear, su2_hp, su11_hp
from .fock import (
    Cutoff,
    StateVector,
    _complex,
    _monomial,
    _real,
    _whole,
    apply_exponential,
    apply_skew_exponential,
    basis_state,
    creation_op,
    enumerate_basis,
    fidelity,
    op_exponential,
    op_skew_exponential,
    vacuum_state,
)

DISPLACEMENT_GUARD = 16  # extra levels above the series cutoff for unitary routes
LEAK_TOL = 1e-8  # boundary mass (or norm drift) above which a displacement is refused


def _ladder(realization, reduced=False):
    """(raising, lowering, Cartan) labels of an su11 or su2 realization.

    Any other realization raises ValueError, and so does a bilinear one when
    ``reduced`` asks for the single-mode form.
    """
    if realization.algebra not in ("su11", "su2") or (
            reduced and realization.form != "holstein_primakoff"):
        raise ValueError(f"expected {'a reduced' if reduced else 'an'} su11 or su2 "
                         f"realization, got {realization.algebra} {realization.form}")
    letter = "K" if realization.algebra == "su11" else "J"
    return letter + "+", letter + "-", letter + "0"


def exp_form_state(realization: AlgebraRealization, eta_c: complex) -> StateVector:
    """Normalized pure-raising exponential acting on the vacuum.

    su(1,1): (1-|z|^2)^{M/2} exp(z K+) |0>  with z = eta_c;
    su(2):   (1-|z|^2)^{M/2} exp(tau J+) |0> with tau = z/sqrt(1-|z|^2).
    Requires a reduced (single-mode) su11 or su2 realization.
    """
    up, _, _ = _ladder(realization, reduced=True)
    z = _complex("eta_c", eta_c)
    if abs(z) >= 1.0:
        raise ValueError("|eta_c| must be below 1")
    coeff = z if realization.algebra == "su11" else z / math.sqrt(1.0 - abs(z) ** 2)
    psi = apply_exponential(realization.op(up), vacuum_state(realization.basis), coeff)
    prefactor = (1.0 - abs(z) ** 2) ** (realization.M / 2.0)
    return StateVector(psi.basis, prefactor * psi.amplitudes)


def operator_identity_check(M: float, n_max: int, variant: str = "su11") -> list:
    """Residuals of (b^dag g(N))^n |0> = g(0) g(1) ... g(n-1) (b^dag)^n |0>.

    g(N) = sqrt(M + N) for variant "su11", sqrt(M - N) clamped at zero for
    variant "su2"; in the latter case both sides vanish identically once
    n exceeds M, and the check confirms that too.  Returns one dict per n.
    """
    if variant not in ("su11", "su2"):
        raise ValueError("variant must be 'su11' or 'su2'")
    n_max = _whole("n_max", n_max, 1)
    if variant == "su2":
        M = _whole("M", M, 1)
        basis = enumerate_basis(1, Cutoff.per_mode(M))
        ladder = su2_hp(basis, M).op("J+")
        g = lambda k: math.sqrt(max(M - k, 0.0))
    else:
        basis = enumerate_basis(1, Cutoff.per_mode(n_max))
        ladder = su11_hp(basis, M).op("K+")
        g = lambda k: math.sqrt(M + k)
    # bare (b^dag)^n |0> has amplitude sqrt(n!) on level n, so both sides carry
    # g(0)...g(n-1) sqrt(n!) there; an n_max that takes it (or n!, where g(0)...g(n-1)
    # is not 0) past double range is refused before any ladder is applied
    targets, scalar = [], 1.0
    for n in range(1, n_max + 1):
        scalar *= g(n - 1)
        try:
            target = scalar * math.sqrt(math.factorial(n)) if scalar else 0.0
        except OverflowError:  # n! as a float
            target = math.inf
        if not math.isfinite(target):
            raise ValueError(f"n_max must be at most {n - 1} for the {variant} identity at "
                             f"M = {M}: level {n} leaves double range, got {n_max}")
        targets.append(target)
    reports = []
    lhs = vacuum_state(basis)
    levels = basis.rank(np.arange(1, n_max + 1)[:, None])
    for n in range(1, n_max + 1):
        lhs = ladder.apply(lhs)
        rhs = np.zeros(len(basis), dtype=complex)
        if targets[n - 1] != 0.0:
            rhs[levels[n - 1]] = targets[n - 1]
        reports.append({"n": n, "residual": float(np.abs(lhs.amplitudes - rhs).max())})
    return reports


def displacement_zeta(algebra: str, eta: float, theta: float) -> complex:
    """Displacement parameter landing on the series state at (eta, theta)."""
    eta, theta = _real("eta", eta), _real("theta", theta)
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    if algebra == "su11":
        return cmath.exp(1j * theta) * math.atanh(eta)
    if algebra == "su2":
        return cmath.exp(1j * theta) * math.atan2(eta, math.sqrt(1.0 - eta * eta))
    raise ValueError("algebra must be 'su11' or 'su2'")


def displacement_state(realization: AlgebraRealization, eta: float,
                       theta: float = 0.0) -> StateVector:
    """exp(zeta K+ - zeta* K-) |0> on the reduced space.

    The truncated lowering generator is the exact adjoint of the raising one,
    so the evolution is unitary even on an undersized basis and the norm
    cannot flag truncation trouble.  What can: squared amplitude sitting on
    boundary states, the ones the raising generator would push out of the
    basis.  More than ``LEAK_TOL`` of that mass (or of series-truncation norm
    drift) raises -- enlarge the basis with a guard band instead.
    """
    label, _, _ = _ladder(realization, reduced=True)
    zeta = displacement_zeta(realization.algebra, eta, theta)
    psi = apply_skew_exponential(zeta, realization.op(label), vacuum_state(realization.basis))
    leakage = displacement_leakage(realization, psi)
    if leakage > LEAK_TOL:
        raise ValueError(
            f"displacement pressed {leakage:.3e} of squared norm against the cutoff; "
            f"increase the basis guard band"
        )
    return psi


def displacement_leakage(realization: AlgebraRealization, psi: StateVector) -> float:
    """Truncation-pressure reading: boundary mass plus any norm drift.

    Boundary mass is |amplitude|^2 summed over states the raising generator
    maps out of the basis; an exact compact block has none, so there the
    reading reduces to the series norm drift alone.
    """
    up, _, _ = _ladder(realization)
    boundary = realization.op(up).lossy
    pressed = float(np.sum(np.abs(psi.amplitudes[boundary]) ** 2))
    return max(pressed, abs(1.0 - psi.norm2()))


def disentangled_product(realization: AlgebraRealization, zeta: complex) -> np.ndarray:
    """Raising x diagonal x lowering factorization of the displacement exponential.

    su(2):  exp(zeta J+ - zeta* J-) = exp(tau J+) exp(ln(1+|tau|^2) J0) exp(-tau* J-)
            with tau = (zeta/|zeta|) tan|zeta|;
    su(1,1): same shape with tau = (zeta/|zeta|) tanh|zeta| and middle factor
            exp(ln(1-|tau|^2) K0).
    Returns the three-factor product as a dense d x d array (the identity for
    zeta = 0), for entrywise comparison with the one-shot exponential.  The
    outer factors are nilpotent ladders, whose series take one pass; the middle
    one is diagonal, the entrywise exponential of its weights.  An su(1,1)
    zeta with tanh|zeta| rounding to 1 (|zeta| above about 19.06) raises
    ValueError: its middle factor ln(1 - |tau|^2) diverges.
    """
    plus, minus, diag = _ladder(realization)
    z = _complex("zeta", zeta)
    if z == 0:
        return np.eye(len(realization.basis), dtype=complex)
    phase = z / abs(z)
    if realization.algebra == "su2":
        tau = phase * math.tan(abs(z))
        middle_log = math.log1p(abs(tau) ** 2)
    else:
        tau = phase * math.tanh(abs(z))
        if not abs(tau) < 1.0:
            raise ValueError(f"zeta = {z} is too large for the su(1,1) disentangling: "
                             f"tanh|zeta| rounds to 1, so ln(1 - |tau|^2) diverges")
        middle_log = math.log1p(-abs(tau) ** 2)
    first = op_exponential(realization.op(plus), tau)
    middle = np.diag(np.exp(middle_log * realization.op(diag).weight))
    last = op_exponential(realization.op(minus), -tau.conjugate())
    return first @ middle @ last


def disentangling_identity_check(realization: AlgebraRealization, zeta: complex) -> dict:
    """Entrywise residual between exp(zeta K+ - h.c.) and its three-factor product."""
    up, _, _ = _ladder(realization)
    zeta = _complex("zeta", zeta)
    product = disentangled_product(realization, zeta)  # refuses a zeta it cannot factor first
    whole = op_skew_exponential(zeta, realization.op(up))
    return {"algebra": realization.algebra, "M": realization.M,
            "zeta": zeta, "max_residual": float(abs(whole - product).max())}


def path_equivalence(family: str, eta2: float, M, theta: float = 0.0) -> dict:
    """Fidelities between the series, exponential-form and displacement routes.

    The negative-binomial basis holds the series to ``states.DEFAULT_TAIL_TOL``
    plus ``DISPLACEMENT_GUARD`` levels.
    """
    if family == "neg_binomial":
        spec = st.StateSpec("neg_binomial", dist.NegBinomialParams(eta2, M), (theta,))
        basis = st.auto_basis(spec, guard=DISPLACEMENT_GUARD)
        series = st.neg_binomial_state(spec, basis)
        real = su11_hp(basis, spec.params.M)
    elif family == "binomial":
        spec = st.StateSpec("binomial", dist.BinomialParams(eta2, M), (theta,))
        basis = enumerate_basis(1, Cutoff.per_mode(spec.params.M))
        series = st.binomial_state(spec, basis)
        real = su2_hp(basis, spec.params.M)
    else:
        raise ValueError("family must be 'neg_binomial' or 'binomial'")
    eta = math.sqrt(spec.params.eta2)
    exp_route = exp_form_state(real, eta * cmath.exp(1j * theta))
    disp_route = displacement_state(real, eta, theta)
    return {
        "family": family,
        "eta2": eta2,
        "M": M,
        "theta": theta,
        "cutoff": basis.cutoff.value,
        "fidelity_exp_vs_series": fidelity(exp_route, series),
        "fidelity_disp_vs_series": fidelity(disp_route, series),
        "fidelity_disp_vs_exp": fidelity(disp_route, exp_route),
        "norm_leakage": displacement_leakage(real, disp_route),
    }


# --- sequential rotation chains ------------------------------------------
#
# The chains need only one generator per step, so the operators are built
# directly instead of through a full realization, which would build a dozen
# generators on the largest bases used here.


def _rotation_angles(eta):
    """Splitting angles for the transfer steps.

    Step j (rotating mode j into mode j+1) keeps magnitude eta_j on mode j and
    passes the remainder on: tan(angle_j)^2 = sum_{k>j} eta_k^2 / eta_j^2.
    """
    angles = []
    for j in range(len(eta) - 1):
        rest = math.sqrt(sum(e * e for e in eta[j + 1:]))
        angles.append(math.atan2(rest, eta[j]))
    return angles


def _widen(psi, wider):
    """``psi`` as a state of ``wider``, the basis of one more mode, that mode empty."""
    occ = psi.basis.occupations
    rows = np.zeros((len(occ), wider.modes), dtype=np.int64)
    rows[:, :-1] = occ
    amps = np.zeros(len(wider), dtype=complex)
    amps[wider.rank(rows)] = psi.amplitudes
    return StateVector(wider, amps)


def _rotation_chain(eta, thetas, M, basis, compact):
    """The pump rotation on the vacuum, then the transfer rotations down the chain.

    The pump raises mode 1 with b_1^dag sqrt(M -+ sum N); transfer j moves
    mode j into mode j+1 with b_{j+1}^dag b_j.  Each step runs on the modes it
    has filled: the pump on the 1-mode basis of the caller's cutoff, transfer
    j on the (j+1)-mode one, the last step on ``basis`` itself, and the state
    is widened by an empty mode in between.  Every generator keeps states with
    empty trailing modes among themselves, so the amplitudes are those of the
    chain run on ``basis`` throughout: bit-identical on a total cutoff, where
    each step's norm rho lies at a state the chain reaches, and within 1e-15
    on a per-mode one, where the full basis has larger column sums at states
    it never reaches and so a longer Chebyshev series.
    """
    basis.index_of((0,) * basis.modes)  # the caller's vacuum, refused before any sub-basis
    strength = math.sqrt(sum(e * e for e in eta))
    pump_angle = math.asin(strength) if compact else math.atanh(strength)
    # successive rotations compose phases down the chain, so each internal
    # rotation carries the increment over the previous mode's phase
    phases = [thetas[0]] + [thetas[j] - thetas[j - 1] for j in range(1, len(thetas))]
    subs = [enumerate_basis(m, basis.cutoff) for m in range(1, basis.modes)] + [basis]
    pump = _monomial(subs[0], create=(0,), weight=_hp_weight(M, compact))
    psi = apply_skew_exponential(pump_angle * cmath.exp(1j * phases[0]), pump,
                                 vacuum_state(subs[0]))
    for j, angle in enumerate(_rotation_angles(eta), start=1):
        psi = _widen(psi, subs[j])
        transfer = _monomial(subs[j], create=(j,), destroy=(j - 1,))
        psi = apply_skew_exponential(angle * cmath.exp(1j * phases[j]), transfer, psi)
    return psi


def _check_chain_args(eta, thetas, basis):
    eta = tuple(_real("eta", e) for e in eta)
    if not eta:
        raise ValueError("eta must have at least one component")
    if eta[0] <= 0.0:
        raise ValueError("eta_1 must be positive (the pump feeds mode 1 first)")
    if any(e < 0 for e in eta):
        raise ValueError("eta components must be non-negative")
    if sum(e * e for e in eta) >= 1.0:
        raise ValueError("sum of eta_j^2 must be below 1")
    thetas = tuple(_real("thetas", t) for t in thetas) if thetas else (0.0,) * len(eta)
    if len(thetas) != len(eta):
        raise ValueError("thetas must match eta in length")
    if basis.modes != len(eta):
        raise ValueError(f"basis must have {len(eta)} modes, got {basis.modes}")
    return eta, thetas


def sequential_nms(eta, thetas, M: float, basis) -> StateVector:
    """Negative-multinomial state from one pump plus transfer rotations.

    First exp[rho(e^{i.}K+1 - h.c.)] with tanh^2 rho = sum eta_j^2 feeds
    mode 1, then transfer rotations (1,2), (2,3), ... split the excitation so
    mode j ends with weight eta_j and phase thetas[j-1].  ``basis`` has one
    mode per eta component (the reduced picture); its total cutoff bounds the
    truncation leakage exactly as for the direct series constructor.  Each
    step runs on the modes it has filled (:func:`_rotation_chain`), with the
    amplitudes of the whole-basis loop: bit-identical on a total cutoff,
    within 1e-15 on a per-mode one.
    """
    eta, thetas = _check_chain_args(eta, thetas, basis)
    M = _real("M", M)
    if not M > 0:
        raise ValueError("M must be positive")
    return _rotation_chain(eta, thetas, M, basis, compact=False)


def sequential_ms(eta, thetas, M: int, basis) -> StateVector:
    """Multinomial state from a chain of rotations on the reduced simplex.

    The first rotation has sin(rho) = |eta| (so tan^2 rho = sum eta^2 /
    (1 - sum eta^2)), the rest split mode j into mode j+1 exactly as in the
    negative-multinomial chain.  ``basis`` must contain the full simplex
    sum(n) <= M; the clamped square-root weight annihilates exactly at the
    shell boundary, so no mass ever leaves it.  Each step runs on the modes it
    has filled, as in :func:`sequential_nms`: bit-identical to the
    whole-basis loop on a total cutoff, within 1e-15 on a per-mode one.
    """
    M = _whole("M", M, 1)
    eta, thetas = _check_chain_args(eta, thetas, basis)
    r = basis.modes
    inside = int((basis.totals <= M).sum())
    if inside != math.comb(M + r, r):
        raise ValueError(f"basis must contain the full simplex of total occupation <= {M}")
    return _rotation_chain(eta, thetas, M, basis, compact=True)


# --- dynamical generation --------------------------------------------------


@dataclass(frozen=True)
class TwoLevelDrive:
    """Resonant collection of two-level systems: coupling rate and phase."""

    eta: float
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "eta", _real("eta", self.eta))
        object.__setattr__(self, "theta", _real("theta", self.theta))
        if self.eta <= 0:
            raise ValueError("eta must be positive")


def dynamical_binomial(drive: TwoLevelDrive, t: float, M: int) -> StateVector:
    """Evolve |M, 0> on the two-mode shell under the resonant coupling.

    The rotating-frame generator integrates to eta*t (e^{i theta} J+ -
    e^{-i theta} J-) with J+ = a1^dag a0, which lands on the binomial state
    with modulus parameter sin(eta t) and phase theta.
    """
    M, t = _whole("M", M, 1), _real("t", t)
    if t < 0:
        raise ValueError("t must be non-negative")
    basis = enumerate_basis(2, Cutoff.shell(M))
    real = su2_bilinear(basis, M)
    zeta = drive.eta * t * cmath.exp(1j * drive.theta)
    return apply_skew_exponential(zeta, real.op("J+"), basis_state(basis, (M, 0)))


def dynamical_binomial_target(drive: TwoLevelDrive, t: float, M: int) -> StateVector:
    """Closed-form binomial state the evolution should reach at time t."""
    M, t = _whole("M", M, 1), _real("t", t)
    eta_b = abs(math.sin(drive.eta * t))
    basis = enumerate_basis(2, Cutoff.shell(M))
    if eta_b == 0.0:
        return basis_state(basis, (M, 0))
    spec = st.StateSpec("multinomial", dist.MultinomialParams((eta_b,), M), (drive.theta,))
    return st.multinomial_state(spec, basis)


@dataclass(frozen=True)
class ClassicalCurrent:
    """Piecewise-constant classical current coupled linearly to one mode.

    ``segments`` is a sequence of (t_start, t_end, j) with complex amplitude
    j, contiguous from t = 0; ``omega`` is the mode frequency.
    """

    segments: tuple
    omega: float

    def __post_init__(self):
        segs = tuple((_real("segments", a), _real("segments", b), _complex("segments", c))
                     for a, b, c in self.segments)
        if not segs:
            raise ValueError("at least one segment is required")
        if abs(segs[0][0]) > 1e-15:
            raise ValueError("the first segment must start at t = 0")
        for (a0, b0, _), (a1, _, _) in zip(segs, segs[1:]):
            if b0 <= a0 or abs(a1 - b0) > 1e-12:
                raise ValueError("segments must be contiguous with positive length")
        if segs[-1][1] <= segs[-1][0]:
            raise ValueError("segments must have positive length")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "omega", _real("omega", self.omega))

    @property
    def t_end(self):
        return self.segments[-1][1]


def coherent_amplitude(current: ClassicalCurrent, t: float) -> complex:
    """alpha(t) = -i * integral_0^t j(t') e^{i omega t'} dt', exact per segment."""
    t = _real("t", t)
    if t < 0 or t > current.t_end + 1e-12:
        raise ValueError("t outside the driven window")
    alpha = 0.0 + 0.0j
    w = current.omega
    for (t0, t1, j) in current.segments:
        hi = min(t1, t)
        if hi <= t0:
            break
        if w == 0.0:
            alpha += -1j * j * (hi - t0)
        else:
            alpha += -j * (cmath.exp(1j * w * hi) - cmath.exp(1j * w * t0)) / w
    return alpha


def dynamical_coherent(current: ClassicalCurrent, t: float, basis) -> StateVector:
    """Drive the vacuum with the classical current and return the state at time t.

    Evolution runs in the lab frame, where H = omega N + j a^dag + j* a is
    constant on each segment, then rotates by e^{i omega N t} into the frame
    carrying the closed-form amplitude of :func:`coherent_amplitude`.  The
    remaining time-dependent global phase is irrelevant to fidelity checks.
    The evolution is unitary on any basis, so, as in :func:`displacement_state`, more
    than ``LEAK_TOL`` of squared norm on the top level after a segment raises.
    """
    if basis.modes != 1:
        raise ValueError("dynamical_coherent needs a 1-mode basis")
    t = _real("t", t)
    if t < 0 or t > current.t_end + 1e-12:
        raise ValueError("t outside the driven window")
    energies = current.omega * basis.occupations[:, 0]  # omega N, the diagonal of H
    boundary = creation_op(basis, 0).lossy
    psi = vacuum_state(basis)
    for (t0, t1, j) in current.segments:
        hi = min(t1, t)
        if hi <= t0:
            break
        # -i dt H in one pass, each entry the product (-i dt)(j sqrt(n+1)), its mirror
        # -conj of that, or (-i dt)(omega n): the bits of building H first, then scaling it
        drive = _monomial(basis, create=(0,), weight=lambda occ: np.full(len(occ), j))
        psi = apply_skew_exponential(-1j * (hi - t0), drive, psi, energies)
        pressed = float(np.sum(np.abs(psi.amplitudes[boundary]) ** 2))
        if pressed > LEAK_TOL:
            raise ValueError(f"the drive pressed {pressed:.3e} of squared norm against the "
                             f"cutoff; enlarge the basis")
    frame = np.exp(1j * current.omega * basis.totals * t)
    return StateVector(basis, frame * psi.amplitudes)


def contraction_check(family: str, m_values, alpha2: float) -> list:
    """Fidelity of finite-M states against the fixed-mean coherent target.

    Each M's law is :func:`distributions.matched_law`, worked out for every M
    before any state is built.  Returns [{"M", "fidelity"}], expected monotone
    increasing toward 1.
    """
    laws = [dist.matched_law(family, m, alpha2) for m in m_values]
    coh_spec = st.StateSpec("coherent", dist.PoissonParams(alpha2), (0.0,))
    coh_top = dist.poisson_cutoff(coh_spec.params, 1e-16)
    rows = []
    for m, law in zip(m_values, laws):
        spec = st.StateSpec(family, law, (0.0,))
        n_top = law.M if family == "binomial" else dist.neg_binomial_cutoff(law, 1e-16)
        basis = enumerate_basis(1, Cutoff.per_mode(max(n_top, coh_top)))
        target = st.coherent_state(coh_spec, basis)
        psi = st.build_state(spec, basis)
        rows.append({"M": m, "fidelity": fidelity(psi, target)})
    return rows
