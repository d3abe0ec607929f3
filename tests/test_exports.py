"""The package's public names: one list per module, the package their union;
and what the trusted checker may import."""

import ast
import inspect

import numpy as np

import unidisc
from unidisc import checker, eigdist, probefeas, protocols, qcore, seesaw, separable

# every name the package exported before it took its list from the modules
_EARLIER = (
    "Tolerances", "DEFAULT_TOL", "UnitaryOperator", "DensityOperator", "StateVector",
    "partial_trace", "eig_unitary", "haar_unitary", "ConvexNormResult", "PairProbe",
    "min_convex_norm", "pair_distinguishable", "build_pair_probe", "OrthogonalityProblem",
    "ProbeFeasibility", "InfeasibilityCertificate", "common_probe_feasible",
    "verify_certificate", "purify_witness", "ProductUnitarySet", "FactorGroup",
    "SetAnalysis", "StageTwo", "OutcomeBranch", "ProtocolTree", "ProbeWitness",
    "StrategyVerdict", "VerifyResult", "group_by_factor", "phase_equal", "verify_tree",
    "verify_probe", "check_gdr", "check_lda", "check_ldr", "check_gda", "gdr_problem",
    "check_gda_separable", "separable_start_analysis", "EliminableClass",
    "SeparableStartReport", "hierarchy_audit", "EliminationTask", "SeesawResult",
    "QUARTET_BOB_FIRST_SMAX_BOUND", "quartet_bob_first_task", "quartet_alice_first_task",
    "quartet_alice_first_warm_start", "rho_step", "measurement_step",
    "elimination_objective", "run_seesaw", "families", "jsonio",
)


def test_package_exports_union_of_module_lists():
    modules = (qcore, checker, eigdist, probefeas, protocols, separable, seesaw)
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(unidisc.__all__) == sorted(names + ["families", "jsonio"])
    assert [name for name in unidisc.__all__ if not hasattr(unidisc, name)] == []
    for module in modules:
        for name in module.__all__:
            assert getattr(unidisc, name) is getattr(module, name), name
    assert [name for name in _EARLIER if name not in unidisc.__all__] == []


# numpy and qcore's array basics: (module, name, alias) as the checker writes them
_CHECKER_MAY_IMPORT = {
    ("", "numpy", "np"),
    (".qcore", "_eigvalsh_c", None),
    (".qcore", "_kron", None),
    (".qcore", "_valid_prefix", None),
    (".qcore", "as_matrix", None),
}


def test_checker_imports_only_numpy_and_qcore_basics():
    # trusting a verdict means reading the checker, so its imports are pinned,
    # function-level ones included
    imports = set()
    for node in ast.walk(ast.parse(inspect.getsource(checker))):
        if isinstance(node, ast.Import):
            imports |= {("", a.name, a.asname) for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imports |= {(module, a.name, a.asname) for a in node.names}
    assert imports <= _CHECKER_MAY_IMPORT, sorted(imports - _CHECKER_MAY_IMPORT, key=str)


def test_checker_default_bar_is_the_default_tolerance():
    bar = 1 - unidisc.DEFAULT_TOL.comparison
    assert checker._clears_bar(bar, None) and checker._clears_bar(bar, unidisc.DEFAULT_TOL)
    below = float(np.nextafter(bar, 0))
    assert not checker._clears_bar(below, None)
    assert not checker._clears_bar(below, unidisc.DEFAULT_TOL)
    assert not checker._clears_bar(float("nan"), None)
