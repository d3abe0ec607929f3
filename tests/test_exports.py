"""The package's public names: one list per module, the package their union."""

import unidisc
from unidisc import eigdist, probefeas, protocols, qcore, seesaw, separable

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
    modules = (qcore, eigdist, probefeas, protocols, separable, seesaw)
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(unidisc.__all__) == sorted(names + ["families", "jsonio"])
    assert [name for name in unidisc.__all__ if not hasattr(unidisc, name)] == []
    for module in modules:
        for name in module.__all__:
            assert getattr(unidisc, name) is getattr(module, name), name
    assert [name for name in _EARLIER if name not in unidisc.__all__] == []
