"""Perfect discrimination of bipartite product unitaries.

Decides whether finite sets of product unitaries U_i = A_i (x) B_i can be
told apart perfectly under four strategy classes (global/local probes,
restricted/adaptive orderings), produces verifiable protocol witnesses and
infeasibility certificates, and bundles the concrete families and see-saw
searches used by the acceptance suite.
"""

from .qcore import (
    Tolerances,
    DEFAULT_TOL,
    UnitaryOperator,
    DensityOperator,
    StateVector,
    partial_trace,
    eig_unitary,
    haar_unitary,
)
from .eigdist import (
    ConvexNormResult,
    PairProbe,
    min_convex_norm,
    pair_distinguishable,
    build_pair_probe,
)
from .probefeas import (
    OrthogonalityProblem,
    ProbeFeasibility,
    InfeasibilityCertificate,
    common_probe_feasible,
    verify_certificate,
    purify_witness,
)
from .protocols import (
    ProductUnitarySet,
    FactorGroup,
    SetAnalysis,
    StageTwo,
    OutcomeBranch,
    ProtocolTree,
    ProbeWitness,
    StrategyVerdict,
    VerifyResult,
    group_by_factor,
    phase_equal,
    verify_tree,
    verify_probe,
    check_gdr,
    check_lda,
    check_ldr,
    check_gda,
    gdr_problem,
    hierarchy_audit,
)
from .separable import (
    EliminableClass,
    SeparableStartReport,
    check_gda_separable,
    separable_start_analysis,
)
from .seesaw import (
    EliminationTask,
    SeesawResult,
    QUARTET_BOB_FIRST_SMAX_BOUND,
    quartet_bob_first_task,
    quartet_alice_first_task,
    quartet_alice_first_warm_start,
    rho_step,
    measurement_step,
    elimination_objective,
    run_seesaw,
)
from . import families
from . import jsonio

__version__ = "0.1.0"

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "UnitaryOperator",
    "DensityOperator",
    "StateVector",
    "partial_trace",
    "eig_unitary",
    "haar_unitary",
    "ConvexNormResult",
    "PairProbe",
    "min_convex_norm",
    "pair_distinguishable",
    "build_pair_probe",
    "OrthogonalityProblem",
    "ProbeFeasibility",
    "InfeasibilityCertificate",
    "common_probe_feasible",
    "verify_certificate",
    "purify_witness",
    "ProductUnitarySet",
    "FactorGroup",
    "SetAnalysis",
    "StageTwo",
    "OutcomeBranch",
    "ProtocolTree",
    "ProbeWitness",
    "StrategyVerdict",
    "VerifyResult",
    "group_by_factor",
    "phase_equal",
    "verify_tree",
    "verify_probe",
    "check_gdr",
    "check_lda",
    "check_ldr",
    "check_gda",
    "gdr_problem",
    "check_gda_separable",
    "separable_start_analysis",
    "EliminableClass",
    "SeparableStartReport",
    "hierarchy_audit",
    "EliminationTask",
    "SeesawResult",
    "QUARTET_BOB_FIRST_SMAX_BOUND",
    "quartet_bob_first_task",
    "quartet_alice_first_task",
    "quartet_alice_first_warm_start",
    "rho_step",
    "measurement_step",
    "elimination_objective",
    "run_seesaw",
    "families",
    "jsonio",
]
