import inspect

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


def test_unknown_verdict_rule_is_refused():
    # a misspelt rule must not fall through to some default comparison
    with pytest.raises(ValueError, match="max_resid"):
        checks._passes("max_resid", 0.0, 1e-12)
