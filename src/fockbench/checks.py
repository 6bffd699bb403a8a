"""The paper's identities as check records, and the suites ``fockbench verify`` runs.

Each builder takes its grid and returns one record per check: name, measured
value, the identity's tolerance (fixed in its builder) and ``passed``, which
:func:`_passes` decides for every check.  ``SUITES`` builds each ``verify`` suite;
the acceptance tests call the builders on their own grids.  Library functions are
called through their modules (``alg.verify_algebra``), never bound here by name,
so a tracer that patches module attributes sees every call.
"""

from __future__ import annotations

import cmath
import math

from . import algebra as alg, distributions as dist, fock
from . import generation as gen, measure as meas, states as st
from .fock import Cutoff


def _passes(kind, value, bound):
    """The verdict rule: ``max_residual`` at most ``bound``, ``min_fidelity`` at least 1 - bound,
    ``falling`` / ``rising`` strictly monotone to a last value below / at least ``bound``."""
    if kind == "max_residual":
        return bool(value <= bound)
    if kind == "min_fidelity":
        return bool(value >= 1.0 - bound)
    if kind == "falling":
        return bool(all(a > b for a, b in zip(value, value[1:])) and value[-1] < bound)
    if kind == "rising":
        return bool(all(a < b for a, b in zip(value, value[1:])) and value[-1] >= bound)
    raise ValueError(f"unknown verdict rule {kind!r}")


def _record(name, key, value, tol, **fields):
    """``{name, key: value, **fields, tolerance, passed}``, key max_residual or min_fidelity."""
    return {"name": name, key: value, **fields, "tolerance": tol,
            "passed": _passes(key, value, tol)}


def _relations(name, reports):
    """Worst residual of per-relation reports, at most 1e-12; one that counted no state fails."""
    residuals = [rep["max_residual"] for rep in reports if rep["max_residual"] is not None]
    counted = sum(rep["interior_count"] for rep in reports)
    record = _record(name, "max_residual", max(residuals, default=0.0), 1e-12,
                     relations=len(reports), states_checked=counted)
    record["passed"] = record["passed"] and counted > 0
    return record


def algebra_relations(grid):
    """Structure relations of each (constructor, modes, cutoff, M) realization."""
    records = []
    for constructor, modes, cutoff, m in grid:
        real = getattr(alg, constructor)(fock.enumerate_basis(modes, cutoff), m)
        form = "bilinear" if real.form == "bilinear" else "reduced"
        rank = f"_r{real.rank}" if real.algebra.startswith("su_") else ""
        records.append(_relations(f"{real.algebra}_{form}_relations{rank}",
                                  alg.verify_algebra(real)))
    return records


def intertwinings(grid):
    """Bilinear against reduced generators on the shell, per (r, bilinear, reduced, cutoffs, M)."""
    records = []
    for r, bilinear, reduced, parent_cutoff, reduced_cutoff, m in grid:
        parent = fock.enumerate_basis(r + 1, parent_cutoff)
        small = fock.enumerate_basis(r, reduced_cutoff)
        big, real = getattr(alg, bilinear)(parent, m), getattr(alg, reduced)(small, m)
        kind = "compact" if big.algebra in ("su2", "su_rp1") else "noncompact"
        records.append(_relations(f"intertwining_{kind}_r{r}_M{fock._whole('M', m, 1)}",
                                  alg.intertwining_check(big, real)))
    return records


def three_factor_products(ms, zetas):
    """The su(2) displacement against its raising-diagonal-lowering factors, per M."""
    reals = [alg.su2_hp(fock.enumerate_basis(1, Cutoff.per_mode(m)), m) for m in ms]
    return [_record(f"three_factor_product_M{m}", "max_residual", max(
        gen.disentangling_identity_check(real, z)["max_residual"] for z in zetas), 1e-12)
            for m, real in zip(ms, reals)]


def displacement_routes(grid, theta):
    """Displacement and exponential routes against the series, per (eta2, M)."""
    reps = [gen.path_equivalence("neg_binomial", eta2, m, theta=theta) for eta2, m in grid]
    return [_record(f"displacement_route_eta2_{eta2}_M{m}", "min_fidelity",
                    min(rep["fidelity_exp_vs_series"], rep["fidelity_disp_vs_series"]), 1e-8)
            for (eta2, m), rep in zip(grid, reps)]


def resolutions(grid):
    """Quadrature of the shell identity to 1e-8 at r = 1, 1e-4 above, per (r, M, nodes)."""
    reps = [meas.resolution_check(meas.MeasureSpec(r, m, nodes)) for r, m, nodes in grid]
    for rep in reps:
        tol = 1e-8 if rep["r"] == 1 else 1e-4
        rep.update(tolerance=tol, passed=_passes("max_residual", rep["max_entry_residual"], tol),
                   name=f"resolution_r{rep['r']}_M{rep['M']}")
    return reps


def slicings(grid):
    """Product-Poisson laws sliced to a shell against the multinomial, per (alphas, M)."""
    return [{**rep, "name": f"slicing_M{rep['M']}_modes{len(rep['alphas'])}",
             "tolerance": 1e-12, "passed": _passes("max_residual", rep["max_rel_error"], 1e-12)}
            for rep in (meas.slicing_check(alphas, m) for alphas, m in grid)]


def limits(families, m_values, alpha2):
    """TV distances to Poisson fall below 0.05; contraction fidelities rise to 0.999."""
    records = []
    for family in families:
        tvs = [dist.poisson_limit_distance(family, m, alpha2) for m in m_values]
        fids = [row["fidelity"] for row in gen.contraction_check(family, m_values, alpha2)]
        records += [{"name": f"tv_distance_{family}", "values": tvs,
                     "passed": _passes("falling", tvs, 0.05)},
                    {"name": f"contraction_fidelity_{family}", "values": fids,
                     "passed": _passes("rising", fids, 0.999)}]
    return records


def ladder_identities(grid):
    """Ladder-weight identity of the series coefficients, per (M, variant, n_max, tol)."""
    return [_record(f"ladder_weight_identity_{variant}_M{m}", "max_residual",
                    max(rep["residual"] for rep in gen.operator_identity_check(m, n_max, variant)),
                    tol, n_max=n_max)
            for m, variant, n_max, tol in grid]


def two_level_drives(drive, ms, times):
    """Two-level transfer against its closed-form binomial target, per M."""
    return [_record(f"two_level_drive_M{m}", "min_fidelity", min(
        fock.fidelity(gen.dynamical_binomial(drive, t, m),
                      gen.dynamical_binomial_target(drive, t, m)) for t in times), 1e-10)
            for m in ms]


def current_drive(current, basis, times):
    """Classical-current evolution against the coherent state of its amplitude."""
    fids = []
    for t in times:
        alpha = gen.coherent_amplitude(current, t)
        spec = st.StateSpec("coherent", dist.PoissonParams(abs(alpha) ** 2), (cmath.phase(alpha),))
        fids.append(fock.fidelity(gen.dynamical_coherent(current, t, basis),
                                  st.coherent_state(spec, basis)))
    return _record("classical_current_drive", "min_fidelity", min(fids), 1e-8)


def _measure(r=None, M=None, nodes=None):
    if r is None and M is not None:
        raise ValueError("--M sets the shell of a --r override; pass --r with it")
    if r is not None:
        return resolutions([(r, 1 if M is None else M, nodes)])
    return (resolutions([(rr, mm, nodes) for rr, mm in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))])
            + slicings((((1.0, 1.0), 2), ((0.8, 1.1, 0.6), 3))))


SUITES = {
    "algebra": lambda: algebra_relations((
        ("su11_bilinear", 2, Cutoff.total(12), 2.0), ("su11_hp", 1, Cutoff.per_mode(14), 2.5),
        ("su2_bilinear", 2, Cutoff.shell(3), 3), ("su2_hp", 1, Cutoff.per_mode(3), 3),
        ("su_r1_bilinear", 3, Cutoff.total(8), 2.0), ("su_r1_hp", 2, Cutoff.total(8), 2.0),
        ("su_rp1_bilinear", 3, Cutoff.shell(3), 3), ("su_rp1_hp", 2, Cutoff.total(3), 3),
    )) + intertwinings([row for r in (1, 2) for row in (
        (r, "su_r1_bilinear", "su_r1_hp", Cutoff.total(12), Cutoff.total(5), 3.0),
        (r, "su_rp1_bilinear", "su_rp1_hp", Cutoff.shell(3), Cutoff.total(3), 3))]),
    "disentangle": lambda: three_factor_products((1, 2, 4), (0.35, 0.3 + 0.4j, 1.1j, -0.8 + 0.2j))
        + displacement_routes(((0.3, 2.0), (0.6, 2.5)), theta=0.7),
    "measure": _measure,
    "limits": lambda: limits(("binomial", "neg_binomial"), (10, 100, 1000), 1.0),
    # absolute residuals scale with the weight product sqrt(n! Gamma(M+n)/Gamma(M)),
    # so the longer chain gets a correspondingly wider (still ~1e-16 relative) gate
    "identity": lambda: ladder_identities(
        ((3.0, "su11", 4, 1e-13), (2.5, "su11", 6, 1e-12), (3, "su2", 4, 1e-13))),
    "dynamical": lambda: two_level_drives(
        gen.TwoLevelDrive(1.0, 0.6), (1, 3), (0.5, math.pi / 4)) + [current_drive(
            gen.ClassicalCurrent(((0.0, 0.7, 0.9 + 0.4j), (0.7, 1.5, -0.3 + 1.1j)), 1.3),
            fock.enumerate_basis(1, Cutoff.per_mode(45)), (0.7, 1.5))],
}
