"""Input checking: every number argument is checked once, by the type that owns it.

``fock._whole`` checks integer fields, ``fock._real`` finite real ones and
``fock._complex`` complex ones, each part as a finite real; each refusal is a ValueError whose message names the field and repeats the value.
"""

import ast
import math
import pathlib
import re

import pytest

from fockbench import distributions as dist
from fockbench import fock
from fockbench import generation as gen
from fockbench import measure as meas
from fockbench import states as st
from fockbench.algebra import su11_bilinear, su11_hp, su_r1_bilinear, su_r1_hp
from fockbench.fock import Cutoff, enumerate_basis

SRC = pathlib.Path(__file__).parent.parent / "src" / "fockbench"

_NB = dist.NegBinomialParams(0.3, 3)
_COHERENT = st.StateSpec("coherent", dist.PoissonParams(1.0))
_WHOLE_M = "M must be an integer in [1, 9007199254740992], got {!r}"


@pytest.mark.parametrize("call, message", [
    # bools were taken for 1 (or kept as bools)
    (lambda: dist.BinomialParams(0.3, True), _WHOLE_M.format(True)),
    (lambda: dist.NegBinomialParams(0.3, True), "M must be a finite number, got True"),
    (lambda: dist.PoissonParams(True), "alpha2 must be a finite number, got True"),
    (lambda: dist.MultinomialParams((True,), 2), "eta must be a finite number, got True"),
    # integers beyond float range raised OverflowError
    (lambda: dist.BinomialParams(0.3, 10**400), _WHOLE_M.format(10**400)),
    (lambda: dist.NegBinomialParams(0.3, 10**400),
     f"M must be a finite number, got {10**400!r}"),
    # non-integer counts reached numpy, or were truncated
    (lambda: dist.waiting_time_simulate(_NB, True, 1),
     "trials must be an integer in [1, inf], got True"),
    (lambda: dist.waiting_time_simulate(_NB, 2.5, 1),
     "trials must be an integer in [1, inf], got 2.5"),
    (lambda: dist.waiting_time_simulate(_NB, 10, 1.5),
     "seed must be an integer in [0, inf], got 1.5"),
    (lambda: st.build_state(_COHERENT, tail_tol="1e-12"),
     "tail_tol must be a finite number, got '1e-12'"),
    # NaN came back as the answer
    (lambda: st.quantum_gf(st.build_state(_COHERENT), math.nan),
     "t must be a finite number, got nan"),
    (lambda: dist.neg_binomial_gf(_NB, math.nan), "t must be a finite number, got nan"),
    (lambda: gen.displacement_zeta("su11", 0.3, math.nan),
     "theta must be a finite number, got nan"),
    (lambda: dist.slice_to_shell((1.0, math.nan), 2), "alpha must be a finite number, got nan"),
    (lambda: dist.multiple_poisson_log_pmf((1.0, math.nan), (1, 1)),
     "alpha must be a finite number, got nan"),
    (lambda: st.StateSpec("coherent", dist.PoissonParams(1.0), (math.nan,)),
     "phases must be a finite number, got nan"),
    # n_max reached range() unchecked on the su2 path, or was named as a cutoff
    (lambda: gen.operator_identity_check(3, 2.5, "su2"),
     "n_max must be an integer in [1, inf], got 2.5"),
    (lambda: gen.operator_identity_check(3, True, "su2"),
     "n_max must be an integer in [1, inf], got True"),
    (lambda: gen.operator_identity_check(3.0, 2.5, "su11"),
     "n_max must be an integer in [1, inf], got 2.5"),
    # float() took "1" and True for 1.0 and raised OverflowError on 10**400
    (lambda: meas.slicing_check(("1", 1.0, 2.0), 2), "alphas must be a finite number, got '1'"),
    (lambda: meas.slicing_check((1.0, True, 2.0), 2), "alphas must be a finite number, got True"),
    (lambda: meas.slicing_check((1.0, 10**400), 2),
     f"alphas must be a finite number, got {10**400!r}"),
], ids=["binomial-M-bool", "neg-binomial-M-bool", "poisson-alpha2-bool", "multinomial-eta-bool",
        "binomial-M-huge", "neg-binomial-M-huge", "trials-bool", "trials-fraction",
        "seed-fraction", "tail-tol-str", "quantum-gf-nan", "neg-binomial-gf-nan",
        "displacement-theta-nan", "slice-to-shell-nan", "multiple-poisson-nan", "phases-nan",
        "identity-n-max-fraction", "identity-n-max-bool", "identity-su11-n-max-fraction",
        "slicing-alpha-str", "slicing-alpha-bool", "slicing-alpha-huge"])
def test_bad_number_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# a value that is no finite number reached the window test, the weights or the
# arithmetic before any check: NaN came back as a plausible amplitude, inf
# built a realization, and a string raised TypeError

_CURRENT = gen.ClassicalCurrent(((0, 1, 1),), 1)


@pytest.mark.parametrize("call, message", [
    (lambda: gen.coherent_amplitude(_CURRENT, math.nan), "t must be a finite number, got nan"),
    (lambda: su11_hp(enumerate_basis(1, Cutoff.per_mode(4)), math.inf),
     "M must be a finite number, got inf"),
    (lambda: su11_bilinear(enumerate_basis(2, Cutoff.total(4)), math.nan),
     "M must be a finite number, got nan"),
    (lambda: su_r1_hp(enumerate_basis(2, Cutoff.total(4)), "3"),
     "M must be a finite number, got '3'"),
    (lambda: su_r1_bilinear(enumerate_basis(3, Cutoff.total(4)), math.inf),
     "M must be a finite number, got inf"),
    (lambda: gen.contraction_check("neg_binomial", ["3"], 1.0),
     "M must be a finite number, got '3'"),
    (lambda: gen.contraction_check("binomial", [10, None], 1.0),
     "M must be a finite number, got None"),
    (lambda: dist.poisson_limit_distance("neg_binomial", "3", 1.0),
     "M must be a finite number, got '3'"),
    (lambda: dist.poisson_limit_distance("binomial", math.inf, 1.0),
     "M must be a finite number, got inf"),
], ids=["coherent-amplitude-t-nan", "su11-hp-M-inf", "su11-bilinear-M-nan", "su-r1-hp-M-str",
        "su-r1-bilinear-M-inf", "contraction-M-str", "contraction-M-none",
        "poisson-limit-M-str", "poisson-limit-M-inf"])
def test_non_number_is_refused_by_name_before_use(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# a complex argument was coerced with complex(): "0.5" built a unit-norm state, True ran
# at zeta = 1, and an infinite zeta reached the rotation's multiply; an exponential's scale
# was used as given: NaN was refused as no ladder, inf warned from the multiply, and "0.5"
# raised numpy's UFuncTypeError or was taken as 0.5.  Each part is now checked as a finite real

def _su11():
    return su11_hp(enumerate_basis(1, Cutoff.per_mode(6)), 2.0)


COMPLEX_ARGUMENTS = {
    "exp_form_state": ("eta_c", lambda x: gen.exp_form_state(_su11(), x)),
    "disentangled_product": ("zeta", lambda x: gen.disentangled_product(_su11(), x)),
    "disentangling_identity_check": ("zeta",
                                     lambda x: gen.disentangling_identity_check(_su11(), x)),
    "op_exponential": ("scale", lambda x: fock.op_exponential(_su11().op("K+"), x)),
    "apply_exponential": ("scale", lambda x: fock.apply_exponential(
        _su11().op("K+"), fock.vacuum_state(_su11().basis), x)),
    "ClassicalCurrent": ("segments", lambda x: gen.ClassicalCurrent(((0, 1, x),), 1)),
}


@pytest.mark.parametrize("bad, shown", [
    (True, True), ("0.5", "0.5"), (math.nan, math.nan), (math.inf, math.inf),
    (-math.inf, -math.inf), (complex(0.3, math.nan), math.nan),
    (complex(-math.inf, 0.2), -math.inf), (complex(0.1, math.inf), math.inf),
], ids=["bool", "str", "nan", "inf", "-inf", "nan-imag", "-inf-real", "inf-imag"])
@pytest.mark.parametrize("entry", list(COMPLEX_ARGUMENTS))
def test_complex_argument_is_refused_by_name(entry, bad, shown):
    name, call = COMPLEX_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a finite number, got {shown!r}')}$"):
        call(bad)


# a fractional binomial M used to be truncated, giving the numbers of another law

def test_poisson_limit_distance_refuses_fractional_binomial_order():
    with pytest.raises(ValueError, match=re.escape(_WHOLE_M.format(10.5))):
        dist.poisson_limit_distance("binomial", 10.5, 1.0)


def test_contraction_check_refuses_fractional_binomial_order():
    with pytest.raises(ValueError, match=re.escape(_WHOLE_M.format(10.5))):
        gen.contraction_check("binomial", [10.5], 1.0)


def test_path_equivalence_refuses_fractional_binomial_order():
    with pytest.raises(ValueError, match=re.escape(_WHOLE_M.format(2.5))):
        gen.path_equivalence("binomial", 0.3, 2.5)


def test_dynamical_binomial_target_refuses_what_the_evolution_refuses():
    drive = gen.TwoLevelDrive(1.0)
    message = "M must be an integer in [1, inf], got 2.5"
    for build in (gen.dynamical_binomial, gen.dynamical_binomial_target):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(drive, 0.3, 2.5)


def test_only_fock_defines_a_number_validator():
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in ("_whole", "_real", "_complex", "_check_finite")):
                owners.setdefault(node.name, []).append(path.stem)
    assert owners == {"_whole": ["fock"], "_real": ["fock"], "_complex": ["fock"]}


# an n_max past double range: at 170 both sides of the su11 identity (M = 2.5) overflowed
# and inf - inf gave a NaN residual with a RuntimeWarning (su2 at M = 200 too), and at 171
# math.factorial(171) raised OverflowError on its conversion to float

@pytest.mark.parametrize("variant, M, n_max, limit", [
    ("su11", 2.5, 170, 169), ("su11", 2.5, 171, 169), ("su2", 200, 170, 161),
    ("su2", 171, 171, 170),
])
def test_operator_identity_refuses_n_max_past_double_range(variant, M, n_max, limit):
    message = (f"n_max must be at most {limit} for the {variant} identity at M = {M}: "
               f"level {limit + 1} leaves double range, got {n_max}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gen.operator_identity_check(M, n_max, variant)


def test_operator_identity_keeps_n_max_at_its_limit_and_past_a_compact_top():
    assert len(gen.operator_identity_check(2.5, 169, "su11")) == 169
    # su2 at M = 3 is 0 beyond level 3, so levels past 170 never reach n!
    assert max(rep["residual"] for rep in gen.operator_identity_check(3, 171, "su2")) < 1e-15
