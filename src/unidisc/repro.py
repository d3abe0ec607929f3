"""Reproduction bundles, one per headline claim of the paper.

``BUNDLES`` maps each ``unidisc repro`` target to a function of ``(seed,
restarts, tol)``; the CLI prints its checks, the acceptance suite asserts on
its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checker import _evolved, verify_certificate, verify_tree
from .families import (
    PhasePairParams,
    pauli_hadamard_set,
    pauli_hadamard_tree,
    phase_pair_set,
    qutrit_quartet_set,
    random_qubit_set,
)
from .protocols import SetAnalysis, check_gdr, check_lda, check_ldr, hierarchy_audit
from .qcore import DEFAULT_TOL, Tolerances
from .seesaw import (
    QUARTET_BOB_FIRST_SMAX_BOUND,
    quartet_alice_first_task,
    quartet_alice_first_warm_start,
    quartet_bob_first_task,
    run_seesaw,
)
from .separable import gda_separable_analysis

__all__ = ["BundleResult", "BUNDLES"]


@dataclass(frozen=True)
class BundleResult:
    """``checks`` are ``(name, ok, detail)`` triples; ``values`` holds the
    measured quantities the checks were decided from."""

    checks: tuple
    values: dict

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _grid_angles(n: int):
    # interior grid over the angle simplex: alpha, beta, gamma free in
    # (0, pi/2), delta = pi - alpha - beta - gamma must land inside too
    vals = [(k + 1) * (math.pi / 2.0) / (n + 1) for k in range(n)]
    for a in vals:
        for b in vals:
            for g in vals:
                d = math.pi - a - b - g
                if 1e-9 < d < math.pi / 2.0 - 1e-9:
                    yield a, b, g, d


def _tree_exact(uset, tree):
    """(every success probability within 1e-9 of 1, smallest success)."""
    res = verify_tree(uset, tree)
    return bool(np.all(np.abs(res.success - 1.0) < 1e-9)), float(res.success.min())


def pair_gap(seed: int, restarts: int, tol: Tolerances = DEFAULT_TOL) -> BundleResult:
    """Composite probes separate every phase-pair grid point, local probes none."""
    grid = list(_grid_angles(10))
    worst_overlap = 0.0
    worst_local = math.inf
    failing = []
    for angles in grid:
        uset = phase_pair_set(PhasePairParams(*angles))
        table = SetAnalysis(uset, tol)  # one table: the factors are built accepted
        verdict = check_gdr(table)
        ok = verdict.status == "distinguishable"
        if ok:
            w = verdict.witness
            evolved = [_evolved(u, w.ancilla_dim, w.probe) for u in uset.global_unitaries()]
            overlap = abs(np.vdot(evolved[0], evolved[1]))
            worst_overlap = max(worst_overlap, overlap)
            ok = overlap < 1e-10
        for party in ("A", "B"):
            geom = table.pair(party, 0, 1)
            worst_local = min(worst_local, geom.min_norm)
            ok = ok and not geom.distinguishable
        if not ok:
            failing.append(angles)
    checks = (("grid composite-probe distinguishable, local pairs not",
               not failing,
               f"{len(grid)} points, worst witness overlap {worst_overlap:.2e}, "
               f"smallest local hull distance {worst_local:.4f}"),)
    return BundleResult(checks, {"points": len(grid), "failing_points": failing,
                                 "worst_overlap": worst_overlap,
                                 "smallest_local_hull_distance": worst_local})


def adaptive_gap(seed: int, restarts: int, tol: Tolerances = DEFAULT_TOL) -> BundleResult:
    """Qutrit quartet: adaptive local succeeds, fixed probes certifiably fail."""
    table = SetAnalysis(qutrit_quartet_set(), tol)
    checks = []
    v_lda = check_lda(table, "A")
    ok_tree = False
    detail = "no witness"
    if v_lda.status == "distinguishable" and v_lda.witness is not None:
        ok_tree, min_success = _tree_exact(table.uset, v_lda.witness)
        detail = f"min success {min_success:.12f}"
    checks.append(("adaptive local protocol exists and verifies",
                   v_lda.status == "distinguishable" and ok_tree, detail))
    v_gdr = check_gdr(table)
    cert = v_gdr.feasibility.certificate if v_gdr.feasibility is not None else None
    bound = None
    if v_gdr.status == "indistinguishable_certified" and cert is not None:
        bound = verify_certificate(table.gdr_problem(), cert, tol)
    checks.append(("fixed composite probe certified impossible",
                   bound is not None and bound >= 1.0 - tol.comparison,
                   f"status {v_gdr.status}"))
    v_ldr = check_ldr(table, "A")
    checks.append(("fixed local probes certified impossible",
                   v_ldr.status == "indistinguishable_certified",
                   f"status {v_ldr.status}"))
    return BundleResult(tuple(checks), {"gdr_note": v_gdr.note,
                                        "certificate_bound": bound})


def start_asymmetry(seed: int, restarts: int, tol: Tolerances = DEFAULT_TOL) -> BundleResult:
    """Qutrit quartet: the first party can start a perfect protocol, the second not."""
    table = SetAnalysis(qutrit_quartet_set(), tol)
    checks = []
    v_a = check_lda(table, "A")
    checks.append(("first party starting succeeds",
                   v_a.status == "distinguishable", v_a.status))
    v_b = check_lda(table, "B")
    checks.append(("second party starting finds no protocol",
                   v_b.status != "distinguishable", v_b.status))
    res = run_seesaw(quartet_bob_first_task(), restarts=restarts, seed=seed)
    checks.append(("second-party elimination seesaw stays below 1 - 1e-3",
                   res.s_max < 1.0 - 1e-3, f"s_max {res.s_max:.9f}"))
    checks.append(("seesaw within frozen regression bound",
                   res.s_max <= QUARTET_BOB_FIRST_SMAX_BOUND,
                   f"bound {QUARTET_BOB_FIRST_SMAX_BOUND:.9f}"))
    warm = run_seesaw(quartet_alice_first_task(), restarts=1, seed=seed,
                      warm_starts=(quartet_alice_first_warm_start(),))
    checks.append(("first-party elimination reaches 1 exactly",
                   abs(warm.s_max - 1.0) < 1e-9, f"s_max {warm.s_max:.12f}"))
    return BundleResult(tuple(checks), {"s_max": res.s_max,
                                        "first_party_s_max": warm.s_max})


def separable_probes(seed: int, restarts: int, tol: Tolerances = DEFAULT_TOL) -> BundleResult:
    """Pauli-Hadamard quintet: separable probes certifiably fail, entangled ones work."""
    uset = pauli_hadamard_set()
    table = SetAnalysis(uset, tol)
    checks = []
    v, reports = gda_separable_analysis(table)
    checks.append(("single-system probes certified impossible",
                   v.status == "indistinguishable_certified", v.status))
    for party, rep in reports.items():
        checks.append((f"sequential start {party} certified impossible",
                       rep.verdict == "infeasible_certified", rep.note))
    v_ldr = check_ldr(table, "A")
    ok = False
    detail = v_ldr.status
    if v_ldr.status == "distinguishable" and v_ldr.witness is not None:
        ok, min_success = _tree_exact(uset, v_ldr.witness)
        detail = f"min success {min_success:.12f}"
    checks.append(("fixed-probe search, start A, finds a protocol", ok, detail))
    # the Bob-first protocol eliminates across factor groups, which the
    # search schema does not cover; the bundled tree carries that side
    for start in ("A", "B"):
        ok, min_success = _tree_exact(uset, pauli_hadamard_tree(start))
        checks.append((f"bundled fixed-probe tree, start {start}, verifies",
                       ok, f"min success {min_success:.12f}"))
    return BundleResult(tuple(checks), {"start_reports": reports})


def hierarchy(seed: int, restarts: int, tol: Tolerances = DEFAULT_TOL) -> BundleResult:
    """Strategy orderings hold; on random qubit sets LDA and LDR coincide."""
    families = [
        phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, math.pi - 1.7)),
        qutrit_quartet_set(),
        pauli_hadamard_set(),
    ]
    rows_seen = 0
    mismatch = 0
    decided = 0  # coinciding pairs that are not both not_found
    contradiction = None
    try:
        for uset in families:
            rows_seen += len(hierarchy_audit(uset, tol))
        rng = np.random.default_rng(seed)
        for _ in range(100):
            rows = dict(hierarchy_audit(random_qubit_set(rng), tol))
            rows_seen += len(rows)
            for p in ("A", "B"):
                lda, ldr = rows[f"LDA:{p}"].status, rows[f"LDR:{p}"].status
                mismatch += lda != ldr
                decided += lda == ldr != "not_found"
    except RuntimeError as exc:
        contradiction = str(exc)
    checks = (("strategy orderings hold on families and random sets",
               contradiction is None,
               contradiction or f"{rows_seen} audited rows, "
               "0 certified contradictions"),
              ("adaptive and fixed local verdicts coincide on qubits",
               contradiction is None and mismatch == 0,
               f"{mismatch} mismatches, {decided} decided coincidences"
               if contradiction is None else "audit stopped at a contradiction"))
    return BundleResult(checks, {"audited_rows": rows_seen, "mismatches": mismatch,
                                 "decided_coincidences": decided})


BUNDLES = {
    "pair-gap": pair_gap,
    "adaptive-gap": adaptive_gap,
    "start-asymmetry": start_asymmetry,
    "separable-probes": separable_probes,
    "hierarchy": hierarchy,
}
