"""The public surface of ``fockbench``, one explicit set per module.

Each set lists a module's public functions and classes and the public
methods (properties included) of those classes, as an ``ast`` census of the
source reads them.  Adding, renaming or dropping a public name must edit this
table, so the surface changes only on purpose.  ``TESTS_ONLY`` names the
public functions and classes that nothing in ``src/`` or ``benchmarks/``
reaches, so a helper only tests call cannot join them unseen.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "fockbench"
BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"

PUBLIC = {
    "__init__": set(),
    "algebra": {
        "AlgebraRealization", "AlgebraRealization.labels", "AlgebraRealization.op",
        "AlgebraRealization.rank",
        "intertwining_check", "relations_for", "verify_algebra",
        "su11_bilinear", "su11_hp", "su2_bilinear", "su2_hp", "su_r1_bilinear", "su_r1_hp",
        "su_rp1_bilinear", "su_rp1_hp",
    },
    "checks": {
        "algebra_relations", "current_drive", "displacement_routes", "intertwinings",
        "ladder_identities", "limits", "resolutions", "slicings", "three_factor_products",
        "two_level_drives",
    },
    "cli": {"main"},
    "distributions": {
        "PoissonParams", "BinomialParams", "NegBinomialParams",
        "MultinomialParams", "MultinomialParams.r",
        "NegMultinomialParams", "NegMultinomialParams.r",
        "GfMoments", "WaitingTimeResult",
        "poisson_log_pmf", "poisson_pmf", "binomial_log_pmf", "binomial_pmf",
        "neg_binomial_log_pmf", "neg_binomial_pmf", "multinomial_log_pmf", "multinomial_pmf",
        "neg_multinomial_log_pmf", "neg_multinomial_pmf",
        "multiple_poisson_log_pmf", "multiple_poisson_pmf",
        "neg_binomial_gf", "moments_from_gf", "poisson_cutoff", "neg_binomial_cutoff",
        "matched_law", "poisson_limit_distance", "slice_to_shell", "waiting_time_simulate",
    },
    "fock": {
        "Cutoff", "Cutoff.per_mode", "Cutoff.total", "Cutoff.shell", "Cutoff.size",
        "Cutoff.to_json_dict", "Cutoff.from_json_dict",
        "TruncatedBasis", "TruncatedBasis.states", "TruncatedBasis.rank",
        "TruncatedBasis.index_of", "TruncatedBasis.totals",
        "enumerate_basis",
        "StateVector", "StateVector.norm2", "StateVector.amplitude",
        "basis_state", "vacuum_state",
        "LinearOperator", "LinearOperator.matrix", "LinearOperator.apply",
        "diagonal_op", "creation_op", "annihilation_op",
        "op_exponential", "op_skew_exponential", "apply_exponential", "apply_skew_exponential",
        "inner", "fidelity", "state_from_json_dict",
    },
    "generation": {
        "ClassicalCurrent", "ClassicalCurrent.t_end", "TwoLevelDrive",
        "coherent_amplitude", "contraction_check", "disentangled_product",
        "disentangling_identity_check", "displacement_leakage", "displacement_state",
        "displacement_zeta", "dynamical_binomial", "dynamical_binomial_target",
        "dynamical_coherent", "exp_form_state", "operator_identity_check", "path_equivalence",
        "sequential_ms", "sequential_nms",
    },
    "measure": {
        "MeasureSpec", "measure_density", "projected_state", "resolution_check",
        "slicing_check",
    },
    "states": {
        "StateSpec", "StateSpec.modes", "StateSpec.phase_count",
        "auto_basis", "build_state", "coherent_state", "binomial_state", "neg_binomial_state",
        "multinomial_state", "neg_multinomial_state", "norm_deficit", "quantum_gf",
        "mean_occupation", "occupation_variance",
    },
}

# the paper's content a test states, and annihilation_op, which route_amplitudes.json pins
TESTS_ONLY = {
    "neg_binomial_gf", "moments_from_gf", "neg_multinomial_pmf", "multiple_poisson_pmf",
    "quantum_gf", "mean_occupation", "occupation_variance",
    "measure_density", "projected_state", "annihilation_op",
}


def _census(path):
    """Top-level public functions and classes of ``path``, with ``Class.method`` entries."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return names


def test_table_lists_every_module():
    assert {path.stem for path in SRC.glob("*.py")} == set(PUBLIC)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_match_the_table(module):
    assert _census(SRC / f"{module}.py") == PUBLIC[module]


def _references(path):
    """Every name, attribute and string constant in ``path``: how code reaches a callable,
    as ``checks`` does by the constructor names in its grids."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_only_the_listed_names_are_reached_by_tests_alone():
    # a definition is no reference, so a name a module uses itself counts as reached
    reached = set().union(*map(_references, [*SRC.glob("*.py"), *BENCHMARKS.glob("*.py")]))
    top_level = {name for path in SRC.glob("*.py") for name in _census(path) if "." not in name}
    assert top_level - reached == TESTS_ONLY
