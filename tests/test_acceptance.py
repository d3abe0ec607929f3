"""Release acceptance sweep.

Each test covers one item of the checklist below and prints one PASS line
with its measured margin; a failure carries the offending values in the
assertion message.  Items:

1. composite probes win on the whole diagonal-phase grid, local probes never
2. the qutrit quartet separates adaptive from fixed and from global-restricted
3. elimination seesaw: second-party start stays below 1, first-party start
   reaches 1
4. separable-probe analysis of the quintet: enumerations, impossibility,
   entangled trees
5. the exact pair criterion agrees with an exact oracle: an LP hull test, the
   probe for each distinguishable pair, a certificate for every other
6. strategy-power orderings audit over families and random sets
7. fixed and adaptive local strategies coincide on qubit sets
8. POVM hygiene and witness serialization round trips

Counterexamples for item 7 are dumped as a JSON artifact for inspection.
"""

import json
import math
import os

import numpy as np
from scipy.optimize import linprog

from unidisc import jsonio, repro
from unidisc.checker import check_povm
from unidisc.eigdist import build_pair_probe, pair_distinguishable
from unidisc.families import (
    H,
    PhasePairParams,
    pauli_hadamard_set,
    pauli_hadamard_tree,
    phase_pair_set,
    qutrit_quartet_set,
    random_pair,
    random_qubit_set,
)
from unidisc.probefeas import verify_certificate
from unidisc.protocols import (
    check_gdr,
    check_lda,
    check_ldr,
    gdr_problem,
    verify_probe,
    verify_tree,
)
from unidisc.seesaw import (
    QUARTET_BOB_FIRST_SMAX_BOUND,
    quartet_bob_first_task,
    run_seesaw,
)

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")

RT2 = 1.0 / math.sqrt(2.0)


def test_composite_probe_beats_local_probes_on_grid():
    res = repro.BUNDLES["pair-gap"](seed=0, restarts=1)
    v = res.values
    assert v["failing_points"] == [], v["failing_points"]
    assert v["points"] == 670
    assert v["worst_overlap"] < 1e-10
    assert v["smallest_local_hull_distance"] > 1e-9
    print(f"\n[1/8] PASS composite vs local probe gap: {v['points']} grid "
          f"points, worst witness overlap {v['worst_overlap']:.2e}, smallest "
          f"local hull distance {v['smallest_local_hull_distance']:.4f}")


def test_qutrit_quartet_adaptive_strictly_beats_restricted(quartet_tree):
    # adaptive start-A tree exact, GDR certificate re-verified, LDR(A) certified
    res = repro.BUNDLES["adaptive-gap"](seed=0, restarts=1)
    assert res.passed, res.checks
    assert "linear program" in res.values["gdr_note"]
    bound = res.values["certificate_bound"]
    assert bound >= 1.0 - 1e-9

    bundled = verify_tree(qutrit_quartet_set(), quartet_tree)
    assert np.max(np.abs(np.asarray(bundled.success) - 1.0)) < 1e-9
    probs = np.asarray(bundled.stage1_probs)
    assert probs.shape == (4, 3)
    assert probs[:, 2].max() < 1e-12

    print(f"\n[2/8] PASS qutrit adaptive gap: tree exact, third outcome "
          f"{probs[:, 2].max():.1e}, certificate bound {bound:.6f}, "
          f"fixed-probe start A certified impossible")


def test_quartet_elimination_seesaw_bounds():
    # per seed: second-party s_max < 1 - 1e-3 and within the frozen bound,
    # first-party warm start reaches 1, LDA(A) succeeds and LDA(B) does not
    values = []
    for seed in range(1, 11):
        res = repro.BUNDLES["start-asymmetry"](seed=seed, restarts=50)
        s_max = res.values["s_max"]
        values.append(s_max)
        assert res.passed, (seed, res.checks)
        assert s_max < 1.0 - 1e-3, (seed, s_max)
        assert s_max <= QUARTET_BOB_FIRST_SMAX_BOUND, (seed, s_max)
        assert abs(res.values["first_party_s_max"] - 1.0) < 1e-9, seed

    print(f"\n[3/8] PASS elimination seesaw: second-party start "
          f"s_max in [{min(values):.12f}, {max(values):.12f}] over seeds "
          f"1..10 (bound {QUARTET_BOB_FIRST_SMAX_BOUND}), first-party start "
          f"s_max {res.values['first_party_s_max']:.12f}")


def test_quintet_separable_probe_analysis_and_trees():
    # GDA_separable and both sequential starts certified impossible, the
    # LDR(A) search tree and both bundled entangled trees exact
    res = repro.BUNDLES["separable-probes"](seed=0, restarts=1)
    assert res.passed, res.checks
    reports = res.values["start_reports"]
    uset = pauli_hadamard_set()

    b_names = ["1", "X", "H", "HX", "H"]
    expected_responder_a = {(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 4)}
    expected_value_pairs = {
        frozenset({"1", "X"}),
        frozenset({"H", "HX"}),
        frozenset({"1", "H"}),
        frozenset({"X", "HX"}),
    }
    expected_eliminable = {
        "A": {(1, 2, 3), (2, 3, 4)},
        "B": {(0, 2, 4), (1, 2, 4), (2, 3, 4)},
    }

    for party in ("A", "B"):
        found = {tuple(c.member_indices) for c in reports[party].eliminable}
        assert found == expected_eliminable[party], (party, found)

    rep_a = reports["A"]
    assert set(rep_a.responder_pairs) == expected_responder_a
    value_pairs = {frozenset({b_names[i], b_names[j]})
                   for i, j in rep_a.responder_pairs}
    assert value_pairs == expected_value_pairs

    def ray_matches(probes, targets):
        # each hand probe appears among the class probes, up to phase
        for t in targets:
            t = np.asarray(t, dtype=complex)
            t = t / np.linalg.norm(t)
            if not any(abs(np.vdot(t, p)) > 1.0 - 1e-9 for p in probes):
                return False
        return True

    by_members = {tuple(c.member_indices): c for c in rep_a.eliminable}
    assert ray_matches(by_members[(2, 3, 4)].probes, ([1, 0], [0, 1]))
    by_members_b = {tuple(c.member_indices): c
                    for c in reports["B"].eliminable}
    assert ray_matches(by_members_b[(2, 3, 4)].probes,
                       ([RT2, RT2], [RT2, -RT2]))
    h_eig = np.linalg.eigh(H)[1]
    assert ray_matches(by_members_b[(0, 2, 4)].probes,
                       (h_eig[:, 0], h_eig[:, 1]))

    # the second-party-first tree proves the task is solvable from B too,
    # so the searcher must never certify impossibility there
    assert check_ldr(uset, "B").status != "indistinguishable_certified"

    lit_phi_plus = np.array([RT2, 0, 0, RT2], dtype=complex)
    expected_evolved = {
        "A": [
            np.array([RT2, 0, 0, RT2]),
            np.array([RT2, 0, 0, -RT2]),
            np.array([0, RT2, RT2, 0]),
            np.array([0, RT2, RT2, 0]),
            np.array([0, -RT2, RT2, 0]),
        ],
        "B": [
            np.array([RT2, 0, 0, RT2]),
            np.array([0, RT2, RT2, 0]),
            0.5 * np.array([1, 1, 1, -1]),
            0.5 * np.array([1, 1, -1, 1]),
            0.5 * np.array([1, 1, 1, -1]),
        ],
    }
    worst = 0.0
    for party in ("A", "B"):
        for i in range(5):
            got = np.kron(uset.factor(i, party), np.eye(2)) @ lit_phi_plus
            dev = float(np.max(np.abs(got - expected_evolved[party][i])))
            worst = max(worst, dev)
            assert dev < 1e-10, (party, i, dev)

    print(f"\n[4/8] PASS quintet separable analysis: both starts certified "
          f"impossible, enumerations and probes as listed, both entangled "
          f"trees exact, evolved-state table max deviation {worst:.1e}")


def _in_hull(points):
    """Whether the origin is a convex combination of the complex ``points``:
    HiGHS on w >= 0, sum w = 1, sum w p = 0."""
    a_eq = np.vstack([points.real, points.imag, np.ones(len(points))])
    res = linprog(np.zeros(len(points)), A_eq=a_eq, b_eq=[0.0, 0.0, 1.0],
                  bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message  # solved, or proved infeasible
    return res.status == 0


def _separating_angle(points):
    """The middle of the shortest arc holding the unit-circle ``points``,
    across from the widest gap between neighbouring phases."""
    theta = np.sort(np.angle(points))
    gaps = np.diff(np.append(theta, theta[0] + 2 * np.pi))
    k = int(np.argmax(gaps))
    return theta[k] + gaps[k] / 2 + np.pi


def test_pair_criterion_matches_exact_oracle():
    # each verdict checked both ways: a distinguishable pair's probe must
    # reach evolved overlap 0, and any other pair's relative, turned by a
    # separating phase, must have a positive definite Hermitian part, so no
    # probe state rho has Tr(rho u1{dag} u2) = 0
    rng = np.random.default_rng(90125)
    overlaps, margins = [], []
    for k in range(200):
        d = 2 if k < 100 else 3
        u1, u2 = random_pair(rng, d)
        rel = u1.matrix.conj().T @ u2.matrix
        exact = pair_distinguishable(u1, u2)
        assert _in_hull(np.linalg.eigvals(rel)) == exact.distinguishable, (k, d, exact.min_norm)
        if exact.distinguishable:
            psi = build_pair_probe(u1, u2).probe.amplitudes
            overlaps.append(abs(np.vdot(psi, rel @ psi)))
            assert overlaps[-1] <= 1e-10, (k, d, overlaps[-1])
        else:
            turned = np.exp(-1j * _separating_angle(np.linalg.eigvals(rel))) * rel
            margins.append(np.linalg.eigvalsh((turned + turned.conj().T) / 2).min())
            assert margins[-1] > 0, (k, d, margins[-1])
    print(f"\n[5/8] PASS pair criterion vs exact oracle: 200/200 verdicts "
          f"agree (dims 2 and 3), {len(overlaps)} probes reach overlap "
          f"<= {max(overlaps):.1e}, {len(margins)} certificates with min eig "
          f">= {min(margins):.1e}")


def test_strategy_orderings_audit():
    # three families plus 100 random qubit sets; the audit raises on any
    # certified contradiction, and LDA/LDR statuses coincide per start
    res = repro.BUNDLES["hierarchy"](seed=424242, restarts=1)
    assert res.passed, res.checks
    rows = res.values["audited_rows"]
    assert rows == 720
    assert res.values["mismatches"] == 0
    # coincidences that are not not_found on both sides
    assert res.values["decided_coincidences"] == 143
    print(f"\n[6/8] PASS strategy orderings: {rows} audited verdicts over "
          f"103 sets, zero certified contradictions")


def test_qubit_fixed_equals_adaptive_local():
    rng = np.random.default_rng(777)
    checked = 0
    for k in range(100):
        uset = random_qubit_set(rng)
        for party in ("A", "B"):
            lda = check_lda(uset, party)
            ldr = check_ldr(uset, party)
            if lda.status != ldr.status:
                os.makedirs(ARTIFACT_DIR, exist_ok=True)
                path = os.path.join(
                    ARTIFACT_DIR, "local_equivalence_counterexample.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(jsonio.dumps({
                        "set_index": k,
                        "party": party,
                        "set": jsonio.set_to_json(uset),
                        "adaptive": jsonio.verdict_to_json(lda),
                        "fixed": jsonio.verdict_to_json(ldr),
                    }))
                raise AssertionError(
                    f"adaptive/fixed mismatch on set {k} party {party}: "
                    f"{lda.status} vs {ldr.status}; dumped to {path}")
            checked += 1
    assert checked == 200
    print(f"\n[7/8] PASS local fixed == adaptive on qubits: {checked} "
          f"verdict pairs coincide")


def test_povm_hygiene_and_witness_round_trips(quartet_tree):
    # qcore.check_povm holds every POVM to shape, Hermiticity, eigenvalues
    # >= -1e-10 and completeness within 1e-8; verify_tree applies it to the
    # stage-1 POVM and every stage-2 POVM of the (losslessly) decoded tree
    povms = 0
    reverified = 0

    qut = qutrit_quartet_set()
    quintet = pauli_hadamard_set()

    trees = [
        (qut, quartet_tree),
        (qut, check_lda(qut, "A").witness),
        (quintet, pauli_hadamard_tree("A")),
        (quintet, pauli_hadamard_tree("B")),
        (quintet, check_ldr(quintet, "A").witness),
    ]
    for uset, tree in trees:
        decoded = jsonio.tree_from_json(
            json.loads(jsonio.dumps(jsonio.tree_to_json(tree))))
        res = verify_tree(uset, decoded)
        assert np.max(np.abs(np.asarray(res.success) - 1.0)) < 1e-9
        povms += 1 + sum(br.stage2 is not None for br in tree.branches)
        reverified += 1

    for angles in ((0.3, 0.5, 0.9, math.pi - 1.7),
                   (0.9, 0.9, 0.9, math.pi - 2.7),
                   (0.2, 0.4, 1.1, math.pi - 1.7)):
        uset = phase_pair_set(PhasePairParams(*angles))
        witness = check_gdr(uset).witness
        check_povm(witness.povm, uset.dim * witness.ancilla_dim,
                   f"composite witness {angles}")
        povms += 1
        decoded = jsonio.probe_witness_from_json(
            json.loads(jsonio.dumps(jsonio.probe_witness_to_json(witness))))
        ops = list(uset.global_unitaries())
        assert np.min(verify_probe(ops, decoded)) > 1.0 - 1e-9
        reverified += 1

    glob = check_gdr(qut)
    cert = jsonio.certificate_from_json(json.loads(jsonio.dumps(
        jsonio.feasibility_to_json(glob.feasibility)))["certificate"])
    assert verify_certificate(gdr_problem(qut), cert) >= 1.0 - 1e-9
    reverified += 1

    pp = build_pair_probe(np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex))
    check_povm(pp.measurement, 2, "pair measurement")

    task = quartet_bob_first_task()
    res = run_seesaw(task, restarts=2, seed=4)
    check_povm(res.povm, task.dim, "seesaw quartet")
    povms += 2

    print(f"\n[8/8] PASS numerical hygiene: {povms} POVMs valid, "
          f"{reverified} witnesses re-verified from serialized form")
