"""Command-line front end: build states, run verification suites, simulate.

Subcommands
    state      build a family state, write ``{out}_state.json`` and
               ``{out}_pmf.{csv,json}``, print the norm deficit
    verify     run a named verification suite and emit a JSON report
    simulate   waiting-time Monte Carlo versus the exact pmf, CSV output

Artifacts are rendered from the basis arrays (occupations, amplitudes,
probabilities) in one pass, one ``%``-format call per file;
``fock.state_to_json_dict`` is the library's dict form of the same state file.

Exit codes: 0 success, 2 usage or parameter error, 3 verification failure,
1 internal error.  The environment variable FOCKBENCH_THREADS caps the
thread count of the underlying linear-algebra libraries; it must take
effect before numpy is first imported, so this module imports the numeric
submodules lazily inside the command handlers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_FAMILY_ALIASES = {
    "coherent": "coherent",
    "binomial": "binomial",
    "nbs": "neg_binomial",
    "neg_binomial": "neg_binomial",
    "multinomial": "multinomial",
    "ms": "multinomial",
    "nms": "neg_multinomial",
    "neg_multinomial": "neg_multinomial",
}

VERIFY_SUITES = ("algebra", "disentangle", "measure", "limits", "identity", "dynamical")


def _configure_threads():
    cap = os.environ.get("FOCKBENCH_THREADS")
    if not cap:
        return
    if not cap.isdigit() or int(cap) < 1:
        print(f"warning: ignoring FOCKBENCH_THREADS={cap!r} (want a positive integer)",
              file=sys.stderr)
        return
    for var in _THREAD_VARS:
        os.environ[var] = cap


def _render_rows(row, sep, *columns):
    """``row`` filled from each row of the (n,) or (n, k) ``columns``, in one % call.

    Values go in as Python ints and floats, so ``%r`` writes a float as ``json`` does.
    """
    import numpy as np

    n = len(columns[0])
    table = np.hstack([c.reshape(n, -1).astype(object) for c in columns])
    return sep.join([row] * n) % tuple(table.ravel())


def _json_with_entries(head, rows):
    """``json.dump(head, indent=2)`` + newline, ``rows`` replacing its ``"entries": null``."""
    entries = "[" + rows + "\n  ]" if rows else "[]"
    return json.dumps(head, indent=2).replace('\n  "entries": null',
                                              '\n  "entries": ' + entries, 1) + "\n"


def _parse_float_list(key, value):
    """Floats from a comma-separated string or a JSON list of numbers."""
    if isinstance(value, list):
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            raise ValueError(f"{key} must be a list of numbers, got {value!r}")
        return tuple(float(v) for v in value)
    try:
        return tuple(float(part) for part in str(value).split(",") if part != "")
    except ValueError:
        raise ValueError(f"{key} must be comma-separated numbers, got {value!r}") from None


def _whole(key, value):
    """``value`` as an int; ValueError naming ``key`` unless it is a non-negative integer.

    Refuses 2.5, true, "3", NaN and inf rather than truncating them.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or int(value) != value or value < 0):
        raise ValueError(f"{key} must be a non-negative integer, got {value!r}")
    return int(value)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fockbench",
        description="Counting-law coherent states: build, verify, simulate.",
    )
    sub = parser.add_subparsers(dest="command")

    p_state = sub.add_parser("state", help="build a state and write JSON/CSV artifacts")
    p_state.add_argument("--family", choices=sorted(_FAMILY_ALIASES), default=None)
    p_state.add_argument("--alpha2", type=float, default=None,
                         help="mean occupation (coherent family)")
    p_state.add_argument("--eta2", type=str, default=None,
                         help="eta^2, comma-separated per component for multi-mode families")
    p_state.add_argument("--theta", type=str, default=None,
                         help="phases, comma-separated (default all zero)")
    p_state.add_argument("--M", type=float, default=None)
    p_state.add_argument("--cutoff", type=int, default=None,
                         help="override the automatic basis cutoff value")
    p_state.add_argument("--tail-tol", type=float, default=None, dest="tail_tol")
    p_state.add_argument("--guard", type=int, default=None)
    p_state.add_argument("--out", type=str, default=None,
                         help="output basename (default: fockbench)")
    p_state.add_argument("--pmf-format", choices=("csv", "json"), default=None,
                         dest="pmf_format")
    p_state.add_argument("--config", type=str, default=None,
                         help="JSON file mirroring the flags; flags win on conflict")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    p_verify.add_argument("--r", type=int, default=None,
                          help="rank override (measure suite)")
    p_verify.add_argument("--M", type=float, default=None,
                          help="shell total override (measure suite)")
    p_verify.add_argument("--nodes", type=int, default=None,
                          help="quadrature nodes per dimension (measure suite)")
    p_verify.add_argument("--out", type=str, default=None,
                          help="write the JSON report here instead of stdout")
    p_verify.add_argument("--config", type=str, default=None)

    p_sim = sub.add_parser("simulate", help="waiting-time Monte Carlo vs the exact pmf")
    p_sim.add_argument("--eta2", type=float, default=None)
    p_sim.add_argument("--M", type=float, default=None)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", type=str, default=None,
                       help="CSV path (default: stdout)")
    p_sim.add_argument("--config", type=str, default=None)
    return parser


def _load_config(path):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    return config


def _merged(args, config, key, default=None):
    """Flag value if given, else the config entry, else the default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    dashed = key.replace("_", "-")
    if dashed in config:
        return config[dashed]
    return default


# --- state -----------------------------------------------------------------


def _cmd_state(args) -> int:
    from . import distributions as dist
    from . import states as st
    from .fock import Cutoff, enumerate_basis

    config = _load_config(args.config)
    family_raw = _merged(args, config, "family")
    if family_raw is None:
        raise ValueError("--family is required")
    if family_raw not in _FAMILY_ALIASES:
        raise ValueError(f"unknown family {family_raw!r}")
    family = _FAMILY_ALIASES[family_raw]

    alpha2 = _merged(args, config, "alpha2")
    eta2_raw = _merged(args, config, "eta2")
    m_value = _merged(args, config, "M")
    thetas = _parse_float_list("theta", _merged(args, config, "theta", ""))

    if family == "coherent":
        if alpha2 is None:
            raise ValueError("--alpha2 is required for the coherent family")
        params = dist.PoissonParams(float(alpha2))
    else:
        if eta2_raw is None:
            raise ValueError(f"--eta2 is required for the {family_raw} family")
        if m_value is None:
            raise ValueError(f"--M is required for the {family_raw} family")
        eta2 = _parse_float_list("eta2", eta2_raw)
        if family == "binomial":
            if len(eta2) != 1:
                raise ValueError("binomial takes a single eta^2 value")
            params = dist.BinomialParams(eta2[0], m_value)
        elif family == "neg_binomial":
            if len(eta2) != 1:
                raise ValueError("neg_binomial takes a single eta^2 value")
            params = dist.NegBinomialParams(eta2[0], float(m_value))
        elif family == "multinomial":
            params = dist.MultinomialParams(tuple(math.sqrt(e) for e in eta2), m_value)
        else:
            params = dist.NegMultinomialParams(tuple(math.sqrt(e) for e in eta2),
                                               float(m_value))

    spec = st.StateSpec(family, params, thetas)
    tail_tol = float(_merged(args, config, "tail_tol", st.DEFAULT_TAIL_TOL))
    guard = _whole("guard", _merged(args, config, "guard", 0))
    cutoff = _merged(args, config, "cutoff")
    if cutoff is not None:
        cutoff = _whole("cutoff", cutoff)
        if guard:
            raise ValueError("guard and cutoff conflict: a guard widens the automatic "
                             "cutoff, so give one or the other")
        rule = Cutoff.total if family in ("multinomial", "neg_multinomial") else Cutoff.per_mode
        basis = enumerate_basis(spec.modes, rule(cutoff))
        psi = st.build_state(spec, basis, tail_tol=tail_tol)
    else:
        psi = st.build_state(spec, tail_tol=tail_tol, guard=guard)

    deficit = st.norm_deficit(psi, family)
    base = str(_merged(args, config, "out", "fockbench"))
    pmf_format = str(_merged(args, config, "pmf_format", "csv"))
    if pmf_format not in ("csv", "json"):
        raise ValueError("pmf format must be csv or json")

    basis, amps = psi.basis, psi.amplitudes
    kept = abs(amps) > 0.0  # the entries state_to_json_dict(psi) keeps
    entry = ('\n    {\n      "occupations": [' + ",".join(["\n        %d"] * basis.modes)
             + '\n      ],\n      ')
    head = {"schema": "fockbench.state/1", "modes": basis.modes,
            "cutoff": basis.cutoff.to_json_dict(), "entries": None, "family": family,
            "parameters": dataclasses.asdict(params), "phases": list(spec.phases),
            "norm_deficit": deficit}
    state_path = f"{base}_state.json"
    with open(state_path, "w", encoding="utf-8") as handle:
        handle.write(_json_with_entries(head, _render_rows(
            entry + '"re": %r,\n      "im": %r\n    }', ",",
            basis.occupations[kept], amps.real[kept], amps.imag[kept])))

    probs = st.number_distribution(psi).probabilities
    pmf_path = f"{base}_pmf.{pmf_format}"
    if pmf_format == "csv":
        header = ",".join([f"n{j}" for j in range(basis.modes)] + ["p"])
        row = ",".join(["%d"] * basis.modes + ["%.17g\n"])
        text = header + "\n" + _render_rows(row, "", basis.occupations, probs)
    else:
        text = _json_with_entries({"schema": "fockbench.pmf/1", "entries": None},
                                  _render_rows(entry + '"p": %r\n    }', ",",
                                               basis.occupations, probs))
    with open(pmf_path, "w", encoding="utf-8") as handle:
        handle.write(text)

    print(f"wrote {state_path}")
    print(f"wrote {pmf_path}")
    print(f"norm deficit: {deficit:.17g}")
    return 0


# --- verify ----------------------------------------------------------------


def _suite_algebra():
    from . import algebra as alg
    from .fock import Cutoff, enumerate_basis

    checks = []

    def record(name, reports, tol=1e-12):
        residuals = [rep["max_residual"] for rep in reports if rep["max_residual"] is not None]
        counted = sum(rep.get("interior_count", rep.get("checked_count", 0)) for rep in reports)
        worst = max(residuals) if residuals else 0.0
        checks.append({
            "name": name,
            "max_residual": worst,
            "relations": len(reports),
            "states_checked": counted,
            "tolerance": tol,
            "passed": bool(worst <= tol and counted > 0),
        })

    record("su11_bilinear_relations",
           alg.verify_algebra(alg.su11_bilinear(enumerate_basis(2, Cutoff.total(12)), 2.0)))
    record("su11_reduced_relations",
           alg.verify_algebra(alg.su11_hp(enumerate_basis(1, Cutoff.per_mode(14)), 2.5)))
    record("su2_bilinear_relations",
           alg.verify_algebra(alg.su2_bilinear(enumerate_basis(2, Cutoff.shell(3)), 3)))
    record("su2_reduced_relations",
           alg.verify_algebra(alg.su2_hp(enumerate_basis(1, Cutoff.per_mode(3)), 3)))
    record("su_r1_bilinear_relations_r2",
           alg.verify_algebra(alg.su_r1_bilinear(enumerate_basis(3, Cutoff.total(8)), 2.0)))
    record("su_r1_reduced_relations_r2",
           alg.verify_algebra(alg.su_r1_hp(enumerate_basis(2, Cutoff.total(8)), 2.0)))
    record("su_rp1_bilinear_relations_r2",
           alg.verify_algebra(alg.su_rp1_bilinear(enumerate_basis(3, Cutoff.shell(3)), 3)))
    record("su_rp1_reduced_relations_r2",
           alg.verify_algebra(alg.su_rp1_hp(enumerate_basis(2, Cutoff.total(3)), 3)))

    for rank, m in ((1, 3), (2, 3)):
        reduced = enumerate_basis(rank, Cutoff.total(5))
        parent = enumerate_basis(rank + 1, Cutoff.total(m - 1 + 2 * 5))
        sub = alg.ConstraintSubspace(parent, reduced, m, "su_r1")
        record(f"intertwining_noncompact_r{rank}_M{m}",
               alg.intertwining_check(alg.su_r1_bilinear(parent, float(m)),
                                      alg.su_r1_hp(reduced, float(m)), sub))
        reduced_c = enumerate_basis(rank, Cutoff.total(m))
        parent_c = enumerate_basis(rank + 1, Cutoff.shell(m))
        sub_c = alg.ConstraintSubspace(parent_c, reduced_c, m, "su_rp1")
        record(f"intertwining_compact_r{rank}_M{m}",
               alg.intertwining_check(alg.su_rp1_bilinear(parent_c, m),
                                      alg.su_rp1_hp(reduced_c, m), sub_c))
    return checks


def _suite_disentangle():
    from . import generation as gen
    from .algebra import su2_hp
    from .fock import Cutoff, enumerate_basis

    checks = []
    zetas = (0.35, 0.3 + 0.4j, 1.1j, -0.8 + 0.2j)
    for m in (1, 2, 4):
        basis = enumerate_basis(1, Cutoff.per_mode(m))
        real = su2_hp(basis, m)
        worst = max(gen.disentangling_identity_check(real, z)["max_residual"] for z in zetas)
        checks.append({"name": f"three_factor_product_M{m}", "max_residual": worst,
                       "tolerance": 1e-12, "passed": bool(worst <= 1e-12)})
    for eta2, m in ((0.3, 2.0), (0.6, 2.5)):
        rep = gen.path_equivalence("neg_binomial", eta2, m, theta=0.7)
        fid = min(rep["fidelity_exp_vs_series"], rep["fidelity_disp_vs_series"])
        checks.append({"name": f"displacement_route_eta2_{eta2}_M{m}",
                       "min_fidelity": fid, "tolerance": 1e-8,
                       "passed": bool(fid >= 1.0 - 1e-8)})
    return checks


def _suite_measure(rank=None, m_value=None, nodes=None):
    from . import measure as meas

    checks = []

    def record(rep):
        rep = dict(rep)
        rep["name"] = f"resolution_r{rep['r']}_M{rep['M']}"
        checks.append(rep)

    if rank is not None:
        spec = meas.MeasureSpec(rank, 1 if m_value is None else m_value, nodes, nodes)
        record(meas.resolution_check(spec, tolerance=1e-8 if spec.r == 1 else 1e-4))
        return checks
    if m_value is not None:
        raise ValueError("--M sets the shell of a --r override; pass --r with it")

    for rr, mm, tol in ((1, 1, 1e-8), (1, 2, 1e-8), (1, 3, 1e-8), (2, 1, 1e-4), (2, 2, 1e-4)):
        record(meas.resolution_check(meas.MeasureSpec(rr, mm, nodes, nodes), tolerance=tol))
    for alphas, mm in (((1.0, 1.0), 2), ((0.8, 1.1, 0.6), 3)):
        rep = meas.slicing_check(alphas, mm)
        rep["name"] = f"slicing_M{mm}_modes{len(alphas)}"
        rep["tolerance"] = 1e-12
        rep["passed"] = bool(rep["max_rel_error"] <= 1e-12)
        checks.append(rep)
    return checks


def _suite_limits():
    from . import distributions as dist
    from . import generation as gen

    checks = []
    m_values = (10, 100, 1000)
    for family in ("binomial", "neg_binomial"):
        tvs = [dist.poisson_limit_distance(family, m, 1.0) for m in m_values]
        decreasing = all(a > b for a, b in zip(tvs, tvs[1:]))
        checks.append({"name": f"tv_distance_{family}", "values": tvs,
                       "passed": bool(decreasing and tvs[-1] < 0.05)})
        rows = gen.contraction_check(family, m_values, 1.0)
        fids = [row["fidelity"] for row in rows]
        increasing = all(a < b for a, b in zip(fids, fids[1:]))
        checks.append({"name": f"contraction_fidelity_{family}", "values": fids,
                       "passed": bool(increasing and fids[-1] >= 0.999)})
    return checks


def _suite_identity():
    from . import generation as gen

    checks = []
    # absolute residuals scale with the weight product sqrt(n! Gamma(M+n)/Gamma(M)),
    # so the longer chain gets a correspondingly wider (still ~1e-16 relative) gate
    for m, variant, n_max, tol in ((3.0, "su11", 4, 1e-13), (2.5, "su11", 6, 1e-12),
                                   (3, "su2", 4, 1e-13)):
        reports = gen.operator_identity_check(m, n_max, variant)
        worst = max(rep["residual"] for rep in reports)
        checks.append({"name": f"ladder_weight_identity_{variant}_M{m}",
                       "max_residual": worst, "n_max": n_max,
                       "tolerance": tol, "passed": bool(worst <= tol)})
    return checks


def _suite_dynamical():
    import cmath

    from . import distributions as dist
    from . import generation as gen
    from . import states as st
    from .fock import Cutoff, enumerate_basis, fidelity

    checks = []
    drive = gen.TwoLevelDrive(1.0, 0.6)
    for m in (1, 3):
        fids = []
        for t in (0.5, math.pi / 4):
            psi = gen.dynamical_binomial(drive, t, m)
            fids.append(fidelity(psi, gen.dynamical_binomial_target(drive, t, m)))
        worst = min(fids)
        checks.append({"name": f"two_level_drive_M{m}", "min_fidelity": worst,
                       "tolerance": 1e-10, "passed": bool(worst >= 1.0 - 1e-10)})
    current = gen.ClassicalCurrent(((0.0, 0.7, 0.9 + 0.4j), (0.7, 1.5, -0.3 + 1.1j)), 1.3)
    basis = enumerate_basis(1, Cutoff.per_mode(45))
    fids = []
    for t in (0.7, 1.5):
        psi = gen.dynamical_coherent(current, t, basis)
        alpha = gen.coherent_amplitude(current, t)
        spec = st.StateSpec("coherent", dist.PoissonParams(abs(alpha) ** 2),
                            (cmath.phase(alpha),))
        fids.append(fidelity(psi, st.coherent_state(spec, basis)))
    worst = min(fids)
    checks.append({"name": "classical_current_drive", "min_fidelity": worst,
                   "tolerance": 1e-8, "passed": bool(worst >= 1.0 - 1e-8)})
    return checks


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    suite = args.suite
    if suite != "measure":
        for key in ("r", "M", "nodes"):
            if _merged(args, config, key) is not None:
                raise ValueError(f"--{key} applies only to the measure suite, not {suite}")
    if suite == "algebra":
        checks = _suite_algebra()
    elif suite == "disentangle":
        checks = _suite_disentangle()
    elif suite == "measure":
        checks = _suite_measure(_merged(args, config, "r"),
                                _merged(args, config, "M"),
                                _merged(args, config, "nodes"))
    elif suite == "limits":
        checks = _suite_limits()
    elif suite == "identity":
        checks = _suite_identity()
    else:
        checks = _suite_dynamical()
    report = {
        "schema": "fockbench.verify/1",
        "suite": suite,
        "passed": bool(all(check["passed"] for check in checks)),
        "checks": checks,
    }
    text = json.dumps(report, indent=2)
    out = _merged(args, config, "out")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {out}")
    else:
        print(text)
    return 0 if report["passed"] else 3


# --- simulate ----------------------------------------------------------------


def _cmd_simulate(args) -> int:
    from . import distributions as dist

    config = _load_config(args.config)
    eta2 = _merged(args, config, "eta2")
    m_value = _merged(args, config, "M")
    trials = _merged(args, config, "trials")
    seed = _merged(args, config, "seed")
    if eta2 is None or m_value is None:
        raise ValueError("--eta2 and --M are required")
    if trials is None:
        raise ValueError("--trials is required")
    if seed is None:
        raise ValueError("--seed is required (sampling must be reproducible)")
    params = dist.NegBinomialParams(float(eta2), float(m_value))
    result = dist.waiting_time_simulate(params, _whole("trials", trials), _whole("seed", seed))
    text = "n,p,p_hat,stderr\n" + _render_rows("%d,%.17g,%.17g,%.17g\n", "", result.n,
                                                 result.p, result.p_hat, result.stderr)
    out = _merged(args, config, "out")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    _configure_threads()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "state":
            return _cmd_state(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_simulate(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
