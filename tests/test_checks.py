import inspect
import json
import pathlib

import numpy as np
import pytest

from fockbench import checks, cli


def test_suite_table_matches_the_cli_choices():
    # argparse offers VERIFY_SUITES without importing the numeric modules;
    # the two lists must name the same suites
    assert set(checks.SUITES) == set(cli.VERIFY_SUITES)


def test_checks_calls_the_library_through_its_modules():
    # a function bound here by name would escape anything that patches the
    # module attribute (the benchmark tracer wraps module attributes)
    borrowed = [name for name, value in vars(checks).items()
                if inspect.isfunction(value) and value.__module__ != checks.__name__]
    assert borrowed == []


VERIFY_REPORTS = pathlib.Path(__file__).parent / "data" / "verify_reports.json"


def test_every_verify_report_is_pinned():
    assert set(json.loads(VERIFY_REPORTS.read_text())) == set(checks.SUITES)


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_verify_report_matches_its_recorded_bytes(suite):
    # the reports of every suite, as recorded before a refactor: a change that
    # claims to keep them byte-identical is held to it value for value.  The bytes
    # hold for numpy 2.4 on x86-64 running its dispatched SIMD loops (X86_V3 and
    # up), whose complex multiply fuses into FMAs; with those loops disabled
    # (NPY_DISABLE_CPU_FEATURES) the baseline loops round products differently
    # and the disentangle, limits and measure pins fail.
    expected = json.loads(VERIFY_REPORTS.read_text())[suite]
    assert json.loads(json.dumps(checks.SUITES[suite]())) == expected, \
        f"numpy SIMD: {np.show_config(mode='dicts')['SIMD Extensions']}"


def test_unknown_verdict_rule_is_refused():
    # a misspelt rule must not fall through to some default comparison
    with pytest.raises(ValueError, match="max_resid"):
        checks._passes("max_resid", 0.0, 1e-12)
