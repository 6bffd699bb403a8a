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
submodules lazily inside the command handlers.  ``verify`` renders the check
records that ``checks.SUITES`` builds; the suites themselves live there.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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


def _real(key, value):
    """``value`` as a float; ValueError naming ``key`` for true, "3", 10**400 or any non-number."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, int) and abs(value) > sys.float_info.max):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


@functools.cache  # built once per process; parse_args fills a fresh namespace each call
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


def _emit(out, text):
    """Write ``text`` to the file ``out`` and say so, or to stdout when ``out`` is empty."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


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
        params = dist.PoissonParams(_real("alpha2", alpha2))
    else:
        if eta2_raw is None:
            raise ValueError(f"--eta2 is required for the {family_raw} family")
        if m_value is None:
            raise ValueError(f"--M is required for the {family_raw} family")
        eta2 = _parse_float_list("eta2", eta2_raw)
        m_value = _real("M", m_value)
        if family == "binomial":
            if len(eta2) != 1:
                raise ValueError("binomial takes a single eta^2 value")
            params = dist.BinomialParams(eta2[0], m_value)
        elif family == "neg_binomial":
            if len(eta2) != 1:
                raise ValueError("neg_binomial takes a single eta^2 value")
            params = dist.NegBinomialParams(eta2[0], m_value)
        elif family == "multinomial":
            params = dist.MultinomialParams(tuple(math.sqrt(e) for e in eta2), m_value)
        else:
            params = dist.NegMultinomialParams(tuple(math.sqrt(e) for e in eta2), m_value)

    spec = st.StateSpec(family, params, thetas)
    tail_tol = _real("tail_tol", _merged(args, config, "tail_tol", st.DEFAULT_TAIL_TOL))
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


def _cmd_verify(args) -> int:
    from . import checks

    config, suite = _load_config(args.config), args.suite
    overrides = {key: value for key in ("r", "M", "nodes")
                 if (value := _merged(args, config, key)) is not None}
    if overrides and suite != "measure":
        raise ValueError(f"--{next(iter(overrides))} applies only to the measure suite, "
                         f"not {suite}")
    records = checks.SUITES[suite](**overrides)
    passed = all(record["passed"] for record in records)
    report = {"schema": "fockbench.verify/1", "suite": suite, "passed": passed, "checks": records}
    _emit(_merged(args, config, "out"), json.dumps(report, indent=2) + "\n")
    return 0 if passed else 3


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
    params = dist.NegBinomialParams(_real("eta2", eta2), _real("M", m_value))
    result = dist.waiting_time_simulate(params, _whole("trials", trials), _whole("seed", seed))
    text = "n,p,p_hat,stderr\n" + _render_rows("%d,%.17g,%.17g,%.17g\n", "", result.n,
                                                 result.p, result.p_hat, result.stderr)
    _emit(_merged(args, config, "out"), text)
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
