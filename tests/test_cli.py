import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "fockbench.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=300
    )


def test_no_command_exits_two():
    proc = run_cli()
    assert proc.returncode == 2


def test_state_writes_artifacts(tmp_path):
    base = tmp_path / "demo"
    proc = run_cli("state", "--family", "nbs", "--eta2", "0.5", "--M", "1",
                   "--out", str(base))
    assert proc.returncode == 0, proc.stderr
    state = json.loads((tmp_path / "demo_state.json").read_text())
    assert state["schema"] == "fockbench.state/1"
    assert state["family"] == "neg_binomial"
    # geometric law: p(n) = 0.5^(n+1)
    lines = (tmp_path / "demo_pmf.csv").read_text().strip().splitlines()
    assert lines[0] == "n0,p"
    for row in lines[1:6]:
        n, p = row.split(",")
        assert float(p) == pytest.approx(0.5 ** (int(n) + 1), rel=1e-12)


def test_state_floats_round_trip_17_digits(tmp_path):
    base = tmp_path / "rt"
    run_cli("state", "--family", "coherent", "--alpha2", "1.0", "--out", str(base))
    lines = (tmp_path / "rt_pmf.csv").read_text().strip().splitlines()[1:]
    import math
    vacuum = float(lines[0].split(",")[1])
    assert vacuum == math.exp(-1.0)  # exact round trip, not approximate


@pytest.mark.parametrize("args", [
    ("--family", "nbs", "--eta2", "0.95", "--M", "3.5"),
    ("--family", "coherent", "--alpha2", "5", "--tail-tol", "1e-16"),
])
def test_state_near_tail_tolerance_succeeds_promptly(tmp_path, args):
    # the exact tail cutoff leaves the re-measured deficit within tolerance,
    # and a tolerance near roundoff still ends the cutoff search
    proc = subprocess.run(CLI + ["state", *args, "--out", str(tmp_path / "edge")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_state_multimode(tmp_path):
    base = tmp_path / "ms"
    proc = run_cli("state", "--family", "ms", "--eta2", "0.3,0.2", "--M", "3",
                   "--theta", "0.4,0.9", "--out", str(base))
    assert proc.returncode == 0, proc.stderr
    state = json.loads((tmp_path / "ms_state.json").read_text())
    assert state["modes"] == 3
    header = (tmp_path / "ms_pmf.csv").read_text().splitlines()[0]
    assert header == "n0,n1,n2,p"


def test_state_pmf_json_format(tmp_path):
    base = tmp_path / "pj"
    proc = run_cli("state", "--family", "binomial", "--eta2", "0.5", "--M", "2",
                   "--pmf-format", "json", "--out", str(base))
    assert proc.returncode == 0, proc.stderr
    pmf = json.loads((tmp_path / "pj_pmf.json").read_text())
    assert pmf["schema"] == "fockbench.pmf/1"
    probs = {tuple(e["occupations"]): e["p"] for e in pmf["entries"]}
    assert probs[(1,)] == pytest.approx(0.5, rel=1e-14)


def test_state_missing_family_exits_two(tmp_path):
    proc = run_cli("state", "--eta2", "0.5", "--M", "2", "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert "family" in proc.stderr


def test_state_bad_parameter_exits_two(tmp_path):
    proc = run_cli("state", "--family", "nbs", "--eta2", "1.5", "--M", "2",
                   "--out", str(tmp_path / "x"))
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ("--family", "coherent", "--alpha2", "nan"),
    ("--family", "coherent", "--alpha2", "inf"),
    ("--family", "ms", "--eta2", "nan,0.1", "--M", "3"),
    ("--family", "nbs", "--eta2", "0.5", "--M", "inf"),
])
def test_state_non_finite_parameter_exits_two(tmp_path, args):
    proc = run_cli("state", *args, "--out", str(tmp_path / "nf"))
    assert proc.returncode == 2, proc.stderr
    assert "finite" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_state_nan_phase_exits_two_and_writes_nothing(tmp_path):
    proc = run_cli("state", "--family", "coherent", "--alpha2", "1", "--theta", "nan",
                   "--out", str(tmp_path / "p"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: phases must be a finite number, got nan\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("family", ["ms", "nms"])
def test_state_negative_eta2_component_exits_two(tmp_path, family):
    # the multimode laws take eta = sqrt(eta2); the square root must not see a negative
    proc = run_cli("state", "--family", family, "--eta2=-0.3,0.2", "--M", "3",
                   "--out", str(tmp_path / "n"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: eta2 components must be non-negative, got [-0.3, 0.2]\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    (("--tail-tol", "2"), "tail_tol must lie in (0, 1), got 2.0"),
    (("--tail-tol", "inf"), "tail_tol must be a finite number, got inf"),
    (("--guard", "-3"), "guard"),
])
def test_state_bad_sizing_exits_two(tmp_path, args, message):
    proc = run_cli("state", "--family", "nbs", "--eta2", "0.5", "--M", "2", *args,
                   "--out", str(tmp_path / "bad"))
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "cutoff too small" not in proc.stderr
    assert not list(tmp_path.iterdir())


def test_config_lists_match_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "ms", "eta2": [0.3, 0.2], "M": 3,
                               "theta": [0.4, 0.9]}))
    proc = run_cli("state", "--config", str(cfg), "--out", str(tmp_path / "cfg"))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("state", "--family", "ms", "--eta2", "0.3,0.2", "--M", "3",
                   "--theta", "0.4,0.9", "--out", str(tmp_path / "flags"))
    assert proc.returncode == 0, proc.stderr
    for suffix in ("_state.json", "_pmf.csv"):
        assert ((tmp_path / f"cfg{suffix}").read_bytes()
                == (tmp_path / f"flags{suffix}").read_bytes())


@pytest.mark.parametrize("entry", [
    {"eta2": [0.3, "x"]},
    {"eta2": [0.3, True]},
    {"eta2": [0.3, 0.2], "theta": [0.4, None]},
    {"eta2": "0.3,abc"},
])
def test_config_non_numeric_list_exits_two(tmp_path, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "ms", "M": 3, **entry}))
    proc = run_cli("state", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert proc.returncode == 2, proc.stderr
    assert list(entry)[-1] in proc.stderr
    assert not list(tmp_path.glob("x_*"))


def test_verify_passing_suite_exits_zero(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "identity", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["schema"] == "fockbench.verify/1"
    assert report["suite"] == "identity"
    assert report["passed"] is True
    assert report["checks"]


def test_verify_measure_with_custom_shape(tmp_path):
    proc = run_cli("verify", "measure", "--r", "1", "--M", "3", "--nodes", "16")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout[proc.stdout.index("{"):])
    assert report["passed"] is True
    assert report["checks"][0]["nodes"] == {"radial": 16, "angular": 16}


def test_verify_failing_suite_exits_three():
    # 8 angular nodes cannot resolve M = 12 phases: aliasing must fail the suite
    proc = run_cli("verify", "measure", "--r", "1", "--M", "12", "--nodes", "8")
    assert proc.returncode == 3
    report = json.loads(proc.stdout[proc.stdout.index("{"):])
    assert report["passed"] is False


@pytest.mark.parametrize("args", [
    ("--r", "5", "--M", "8"),
    ("--r", "3", "--M", "6", "--nodes", "200"),
    ("--r", "20", "--M", "2"),
])
def test_verify_measure_beyond_rank_two_passes(args):
    proc = run_cli("verify", "measure", *args)
    assert proc.returncode == 0, proc.stderr
    check = json.loads(proc.stdout[proc.stdout.index("{"):])["checks"][0]
    assert check["tolerance"] == 1e-4 and check["passed"] is True


@pytest.mark.parametrize("config, flags, message", [
    ({}, ("--r", "1", "--M", "2.5"), "M must be an integer"),
    ({"r": 1.5}, (), "r must be an integer"),
    ({}, ("--r", "1", "--M", "inf"), "M must be an integer"),
    ({}, ("--M", "3"), "pass --r with it"),
    ({"M": 3}, (), "pass --r with it"),
    ({}, ("--r", "1", "--nodes", "1000000000"), "nodes must be an integer in [8, 1000]"),
    ({}, ("--r", "10", "--M", "30"), "exceeds the limit"),
    ({"r": True}, (), "r must be an integer"),
    ({"r": 1, "M": True}, (), "M must be an integer"),
    ({}, ("--r", "10000", "--M", "1"), "r = 10000 needs 5001 radial nodes, above the ceiling"),
])
def test_bad_measure_input_exits_two(tmp_path, config, flags, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    proc = run_cli("verify", "measure", "--config", str(cfg), *flags)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("suite, config, flags, flag", [
    ("algebra", {}, ("--r", "3"), "--r"),
    ("disentangle", {}, ("--M", "2"), "--M"),
    ("limits", {}, ("--nodes", "9"), "--nodes"),
    ("identity", {}, ("--r", "3", "--M", "7", "--nodes", "9"), "--r"),
    ("dynamical", {"nodes": 9}, (), "--nodes"),
])
def test_measure_flags_outside_measure_exit_two(tmp_path, suite, config, flags, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    proc = run_cli("verify", suite, "--config", str(cfg), *flags)
    assert proc.returncode == 2, proc.stderr
    assert f"{flag} applies only to the measure suite" in proc.stderr


def test_usage_path_loads_no_numeric_library():
    # FOCKBENCH_THREADS must take effect before numpy loads, so the package and
    # the CLI module import neither numpy nor scipy until a command runs
    code = ("import sys, fockbench, fockbench.cli; code = fockbench.cli.main([]); "
            "print(code, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout.strip() == "2 []", proc.stderr


def test_verify_loads_no_scipy_linalg():
    # the Gauss-Legendre nodes of the measure suite come from numpy's eigvalsh,
    # so no verify path pays the import of scipy.linalg
    code = ("import contextlib, io, sys, fockbench.checks, fockbench.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['verify', s]) for s in sorted(fockbench.checks.SUITES)]\n"
            "    codes.append(cli.main(['verify', 'measure', '--r', '3', '--M', '6',"
            " '--nodes', '16']))\n"
            "print(codes, 'scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0] False", proc.stderr


def test_verify_unknown_suite_exits_two():
    proc = run_cli("verify", "nonsense")
    assert proc.returncode == 2


def test_simulate_requires_seed(tmp_path):
    proc = run_cli("simulate", "--eta2", "0.3", "--M", "3", "--trials", "1000",
                   "--out", str(tmp_path / "sim.csv"))
    assert proc.returncode == 2
    assert "seed" in proc.stderr


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        proc = run_cli("simulate", "--eta2", "0.3", "--M", "3", "--trials", "20000",
                       "--seed", "11", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0] == "n,p,p_hat,stderr"
    n, p, p_hat, se = lines[1].split(",")
    assert abs(float(p_hat) - float(p)) < 4 * max(float(se), 1e-6)


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "nbs", "eta2": "0.25", "M": 2, "theta": 0.5}))
    base = tmp_path / "out"
    proc = run_cli("state", "--config", str(cfg), "--out", str(base))
    assert proc.returncode == 0, proc.stderr
    state = json.loads((tmp_path / "out_state.json").read_text())
    assert state["phases"] == [0.5]


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "nbs", "eta2": "0.25", "M": 2, "theta": 0.5}))
    base = tmp_path / "out"
    proc = run_cli("state", "--config", str(cfg), "--theta", "0.0", "--out", str(base))
    assert proc.returncode == 0, proc.stderr
    state = json.loads((tmp_path / "out_state.json").read_text())
    assert state["phases"] == [0.0]


def test_config_keys_may_be_spelled_like_flags(tmp_path):
    # "pmf-format" is read as pmf_format, as --pmf-format is
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "nbs", "eta2": "0.25", "M": 2, "pmf-format": "json"}))
    proc = run_cli("state", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "out_pmf.json").read_text())["schema"] == "fockbench.pmf/1"
    assert not (tmp_path / "out_pmf.csv").exists()


def test_dashed_config_key_is_checked_like_its_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "nbs", "eta2": "0.25", "M": 2, "tail-tol": 2}))
    proc = run_cli("state", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "tail_tol must lie in (0, 1), got 2.0" in proc.stderr


def test_missing_config_file_exits_two(tmp_path):
    proc = run_cli("state", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "x"))
    assert proc.returncode == 2


def test_thread_cap_accepted():
    proc = run_cli("verify", "identity", env_extra={"FOCKBENCH_THREADS": "2"})
    assert proc.returncode == 0


def test_thread_cap_garbage_warns_and_continues():
    proc = run_cli("verify", "identity", env_extra={"FOCKBENCH_THREADS": "lots"})
    assert proc.returncode == 0
    assert "FOCKBENCH_THREADS" in proc.stderr


@pytest.mark.parametrize("args", [
    ("--family", "ms", "--eta2", "0.3,0.2", "--M", "3", "--theta", "0.4,0.9"),
    ("--family", "ms", "--eta2", "0.1,0.25", "--M", "7"),
    ("--family", "binomial", "--eta2", "0.4", "--M", "6"),
])
def test_finite_support_records_zero_norm_deficit(tmp_path, args):
    # the whole support lies in the basis, so nothing is missing; 1 - |psi|^2
    # summed in floating point lands a few ulps below zero on these inputs
    proc = run_cli("state", *args, "--out", str(tmp_path / "fin"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "fin_state.json").read_text())["norm_deficit"] == 0.0
    assert proc.stdout.splitlines()[-1] == "norm deficit: 0"


@pytest.mark.parametrize("args", [
    ("--family", "nms", "--eta2", "1e-8,1e-9", "--M", "1.5", "--cutoff", "90"),
    ("--family", "nbs", "--eta2", "0.5", "--M", "1.5"),
    ("--family", "coherent", "--alpha2", "0.5", "--cutoff", "330"),
])
def test_infinite_support_norm_deficit_is_never_negative(tmp_path, args):
    proc = run_cli("state", *args, "--out", str(tmp_path / "inf"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "inf_state.json").read_text())["norm_deficit"] >= 0.0


@pytest.mark.parametrize("config, flags, message", [
    ({"guard": 1.5}, (), "guard must be an integer in [0, inf], got 1.5"),
    ({"guard": -1}, (), "guard must be an integer in [0, inf], got -1"),
    ({}, ("--guard", "-3", "--cutoff", "60"), "guard must be an integer in [0, inf], got -3"),
    ({}, ("--guard", "2", "--cutoff", "60"), "guard and cutoff conflict"),
    ({"guard": 2, "cutoff": 60}, (), "guard and cutoff conflict"),
])
def test_bad_guard_exits_two_on_every_path(tmp_path, config, flags, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "nbs", "eta2": 0.5, "M": 2, **config}))
    proc = run_cli("state", "--config", str(cfg), *flags, "--out", str(tmp_path / "g"))
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert not (tmp_path / "g_state.json").exists()


def test_zero_guard_with_cutoff_is_accepted(tmp_path):
    proc = run_cli("state", "--family", "nbs", "--eta2", "0.5", "--M", "2", "--guard", "0",
                   "--cutoff", "60", "--out", str(tmp_path / "z"))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command, config, message", [
    ("simulate", {"trials": 2.5}, "trials must be an integer in [1, inf], got 2.5"),
    ("simulate", {"seed": 7.9}, "seed must be an integer in [0, inf], got 7.9"),
    ("simulate", {"trials": True}, "trials must be an integer in [1, inf], got True"),
    ("simulate", {"seed": "7"}, "seed must be an integer in [0, inf], got '7'"),
    ("state", {"cutoff": 40.7}, "cutoff value must be an integer in [0, inf], got 40.7"),
    ("state", {"cutoff": -1}, "cutoff value must be an integer in [0, inf], got -1"),
])
def test_non_integer_config_counts_exit_two(tmp_path, command, config, message):
    # truncating 2.5 trials to 2 would run a different experiment than the one asked for
    base = ({"eta2": 0.3, "M": 3, "trials": 1000, "seed": 11} if command == "simulate"
            else {"family": "nbs", "eta2": 0.5, "M": 2})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, **config}))
    proc = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert f"error: {message}\n" == proc.stderr
    assert list(tmp_path.iterdir()) == [cfg]


_WHOLE_M = "M must be an integer in [1, 9007199254740992], got '3'"


@pytest.mark.parametrize("command, config, key, message", [
    ("state", {"family": "binomial", "eta2": 0.5, "M": "3"}, "M", _WHOLE_M),
    ("state", {"family": "ms", "eta2": [0.3, 0.2], "M": "3"}, "M", _WHOLE_M),
    ("state", {"family": "coherent", "alpha2": True}, "alpha2", None),
    ("state", {"family": "nbs", "eta2": 0.5, "M": True}, "M", None),
    ("state", {"family": "nbs", "eta2": 0.5, "M": 10 ** 400}, "M", None),
    ("state", {"family": "nbs", "eta2": 0.5, "M": 2, "tail_tol": "1e-12"}, "tail_tol", None),
    ("simulate", {"eta2": 0.3, "M": True, "trials": 1000, "seed": 11}, "M", None),
    ("simulate", {"eta2": "0.3", "M": 3, "trials": 1000, "seed": 11}, "eta2", None),
])
def test_non_numeric_real_config_exits_two(tmp_path, command, config, key, message):
    # true is not 1.0 and "3" is not 3: a scalar key takes a JSON number
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    proc = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    # binomial and multinomial M is an integer field, every other key a real one
    message = message or f"{key} must be a finite number, got {config[key]!r}"
    assert f"error: {message}\n" == proc.stderr
    assert list(tmp_path.iterdir()) == [cfg]


_RESIDUAL = ["name", "max_residual", "tolerance", "passed"]
_FIDELITY = ["name", "min_fidelity", "tolerance", "passed"]
_RELATIONS = ["name", "max_residual", "relations", "states_checked", "tolerance", "passed"]
_RESOLUTION = ["r", "M", "nodes", "max_entry_residual", "trace_residual", "worst_entry",
               "tolerance", "passed", "name"]
_SLICING = ["alphas", "M", "max_rel_error", "compared", "name", "tolerance", "passed"]
_TREND = ["name", "values", "passed"]
_LADDER = ["name", "max_residual", "n_max", "tolerance", "passed"]

# suite -> (check name, keys in report order, tolerance or None) for every check
SUITE_REPORTS = {
    "algebra": [(f"{alg}_{form}_relations{rank}", _RELATIONS, 1e-12)
                for alg, rank in (("su11", ""), ("su2", ""), ("su_r1", "_r2"), ("su_rp1", "_r2"))
                for form in ("bilinear", "reduced")]
               + [(f"intertwining_{kind}_r{r}_M3", _RELATIONS, 1e-12)
                  for r in (1, 2) for kind in ("noncompact", "compact")],
    "disentangle": [(f"three_factor_product_M{m}", _RESIDUAL, 1e-12) for m in (1, 2, 4)]
                   + [(f"displacement_route_eta2_{case}", _FIDELITY, 1e-8)
                      for case in ("0.3_M2.0", "0.6_M2.5")],
    "measure": [(f"resolution_r{r}_M{m}", _RESOLUTION, 1e-8 if r == 1 else 1e-4)
                for r, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))]
               + [("slicing_M2_modes2", _SLICING, 1e-12), ("slicing_M3_modes3", _SLICING, 1e-12)],
    "limits": [(f"{kind}_{family}", _TREND, None) for family in ("binomial", "neg_binomial")
               for kind in ("tv_distance", "contraction_fidelity")],
    "identity": [(f"ladder_weight_identity_{case}", _LADDER, tol)
                 for case, tol in (("su11_M3.0", 1e-13), ("su11_M2.5", 1e-12), ("su2_M3", 1e-13))],
    "dynamical": [(f"two_level_drive_M{m}", _FIDELITY, 1e-10) for m in (1, 3)]
                 + [("classical_current_drive", _FIDELITY, 1e-8)],
}


@pytest.mark.parametrize("suite", sorted(SUITE_REPORTS))
def test_every_verify_suite_reports_its_checks(capsys, suite):
    # in-process, so all six suites cost well under a second together
    from fockbench import cli

    assert cli.main(["verify", suite]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "fockbench.verify/1" and report["suite"] == suite
    assert report["passed"] is True
    expected = SUITE_REPORTS[suite]
    assert [check["name"] for check in report["checks"]] == [name for name, _, _ in expected]
    for check, (name, keys, tol) in zip(report["checks"], expected):
        assert list(check) == keys, name
        assert check.get("tolerance") == tol, name
        assert check["passed"] is True, name


def test_back_to_back_calls_carry_no_flags(capsys, tmp_path):
    # main parses every call with one parser; no flag of a call may reach the next
    from fockbench import cli

    assert cli.main(["verify", "measure", "--r", "2", "--M", "1"]) == 0
    assert [check["name"] for check in json.loads(capsys.readouterr().out)["checks"]] == [
        "resolution_r2_M1"]
    assert cli.main(["verify", "measure"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [check["name"] for check in report["checks"]] == [
        name for name, _, _ in SUITE_REPORTS["measure"]]

    def cutoff(*flags):
        base = str(tmp_path / "nbs")
        assert cli.main(["state", "--family", "nbs", "--eta2", "0.5", "--M", "1",
                         "--out", base, *flags]) == 0
        capsys.readouterr()
        with open(base + "_state.json", encoding="utf-8") as handle:
            return json.load(handle)["cutoff"]

    automatic = cutoff()
    wider = automatic["value"] + 5
    assert cutoff("--cutoff", str(wider)) == {"kind": "per_mode", "value": wider}
    assert cutoff() == automatic


# --- artifact writes ---------------------------------------------------------


def _failing_pieces():
    yield "first piece\n"
    raise RuntimeError("writer failed")


def test_failed_write_leaves_no_file(tmp_path):
    from fockbench import cli

    out = tmp_path / "a.csv"
    with pytest.raises(RuntimeError, match="writer failed"):
        cli._emit(str(out), _failing_pieces())
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_the_existing_file(tmp_path):
    from fockbench import cli

    out = tmp_path / "a.csv"
    out.write_bytes(b"old bytes\n")
    with pytest.raises(RuntimeError, match="writer failed"):
        cli._emit(str(out), _failing_pieces())
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("argv", [
    ["state", "--family", "nbs", "--eta2", "0.5", "--M", "1"],
    ["simulate", "--eta2", "0.3", "--M", "2", "--trials", "100", "--seed", "1"],
    ["verify", "identity"],
], ids=["state", "simulate", "verify"])
def test_out_in_a_missing_directory_exits_two(tmp_path, capsys, argv):
    from fockbench import cli

    missing = tmp_path / "missing"
    assert cli.main([*argv, "--out", str(missing / "a")]) == 2
    assert str(missing / "a") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_state_writes_within_the_memory_of_its_state(tmp_path, capsys, fmt):
    # both artifacts were built as whole strings before their write: at d = 39 711 the
    # call's traced peak exceeded the state's own by 17 MB; written a chunk at a time,
    # they add less than 1 MB to it
    import math
    import tracemalloc

    from fockbench import cli
    from fockbench import distributions as dist
    from fockbench import states as st

    spec = st.StateSpec("multinomial",
                        dist.MultinomialParams(tuple(math.sqrt(e) for e in (0.3, 0.2, 0.1)), 60))
    argv = ["state", "--family", "ms", "--eta2", "0.3,0.2,0.1", "--M", "60",
            "--pmf-format", fmt, "--out", str(tmp_path / "ms")]
    results, peaks = [], []
    for call in (lambda: len(st.build_state(spec).basis), lambda: cli.main(argv)):
        tracemalloc.start()
        try:
            results.append(call())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert results == [39711, 0], capsys.readouterr().err
    assert peaks[1] - peaks[0] < 1e6, peaks
