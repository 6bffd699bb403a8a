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


@pytest.mark.parametrize("args, message", [
    (("--tail-tol", "2"), "tail tolerance"),
    (("--tail-tol", "inf"), "tail tolerance"),
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
    ({"guard": 1.5}, (), "guard must be a non-negative integer, got 1.5"),
    ({"guard": -1}, (), "guard must be a non-negative integer"),
    ({}, ("--guard", "-3", "--cutoff", "60"), "guard must be a non-negative integer"),
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
