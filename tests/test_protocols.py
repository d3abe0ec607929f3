"""Strategy checkers, protocol trees, and the exact tree simulator."""

import dataclasses

import numpy as np
import pytest

from unidisc.protocols import (
    OutcomeBranch,
    ProbeWitness,
    ProductUnitarySet,
    ProtocolTree,
    StageTwo,
    StrategyVerdict,
    check_gda,
    check_gdr,
    check_lda,
    check_ldr,
    gdr_problem,
    group_by_factor,
    hierarchy_audit,
    phase_equal,
    verify_probe,
    verify_tree,
)
from unidisc.jsonio import dumps, verdict_to_json
from unidisc.separable import check_gda_separable
from unidisc.probefeas import verify_certificate
from unidisc.qcore import StateVector, haar_unitary
from unidisc.families import (
    CLOCK3,
    H,
    I2,
    I3,
    X,
    Z,
    pauli_hadamard_set,
    phase_pair_set,
    PhasePairParams,
    qutrit_quartet_set,
    random_qubit_set,
)


class TestProductUnitarySet:
    def test_validates_factor_dims(self):
        with pytest.raises(ValueError):
            ProductUnitarySet((2, 3), (("a", I2, I2),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ProductUnitarySet((2, 2), [])

    def test_rejects_non_positive_party_dimension(self):
        # a zero dimension had reached a reduction over an empty stack
        with pytest.raises(ValueError, match=r"party dimensions must be positive, got \(0, 2\)"):
            ProductUnitarySet((0, 2), (("a", np.zeros((0, 0)), I2),))

    def test_global_unitary_is_kron(self):
        # byte for byte, on real and complex factors of both party sizes
        for s in (ProductUnitarySet((2, 2), (("a", X, Z),)), qutrit_quartet_set(),
                  pauli_hadamard_set(), random_qubit_set(np.random.default_rng(3))):
            for i in range(s.size):
                want = np.kron(s.factor(i, "A"), s.factor(i, "B"))
                assert s.global_unitary(i).tobytes() == want.tobytes()


class TestPhaseEqual:
    def test_global_phase_ignored(self):
        assert phase_equal(H, np.exp(1.3j) * H)

    def test_distinct_rejected(self):
        assert not phase_equal(H, X)
        assert not phase_equal(I2, X @ Z)


def test_group_by_factor_pauli_hadamard():
    w = pauli_hadamard_set()
    got_a = [g.member_indices for g in group_by_factor(w, "A")]
    assert got_a == [(0,), (1,), (2, 3), (4,)]
    got_b = [g.member_indices for g in group_by_factor(w, "B")]
    assert got_b == [(0,), (1,), (2, 4), (3,)]


class TestCheckGdr:
    def test_pauli_hadamard_distinguishable(self):
        w = pauli_hadamard_set()
        v = check_gdr(w, )
        assert v.status == "distinguishable"
        succ = verify_probe([w.global_unitary(i) for i in range(w.size)],
                            v.witness)
        assert np.all(np.abs(succ - 1.0) < 1e-9)

    def test_quartet_certified_infeasible(self):
        q = qutrit_quartet_set()
        v = check_gdr(q)
        assert v.status == "indistinguishable_certified"
        assert v.feasibility is not None
        cert = v.feasibility.certificate
        assert cert is not None
        assert verify_certificate(gdr_problem(q), cert) >= 1 - 1e-9

    def test_phase_pair_distinguishable(self):
        s = phase_pair_set(PhasePairParams(0.3, 0.5, 0.9,
                                           np.pi - 0.3 - 0.5 - 0.9))
        v = check_gdr(s)
        assert v.status == "distinguishable"
        succ = verify_probe([s.global_unitary(i) for i in range(2)],
                            v.witness)
        assert np.all(np.abs(succ - 1.0) < 1e-9)
        # the exact LP witness is pure, so the probe carries no ancilla
        assert v.witness.ancilla_dim == 1


class TestLocalSequential:
    def test_quartet_gap_between_adaptive_and_fixed(self):
        q = qutrit_quartet_set()
        lda = check_lda(q, "A")
        ldr = check_ldr(q, "A")
        assert lda.status == "distinguishable"
        assert ldr.status == "indistinguishable_certified"
        res = verify_tree(q, lda.witness)
        assert np.all(np.abs(res.success - 1.0) < 1e-9)

    def test_quartet_other_start_inconclusive_not_certified(self):
        # an LDA(B) protocol is not excluded by the searched schema, so the
        # verdict must stay honest
        q = qutrit_quartet_set()
        assert check_lda(q, "B").status == "not_found"

    def test_pair_set_uses_pair_criterion(self):
        s = ProductUnitarySet((3, 2), (("u", I3, I2), ("v", CLOCK3, I2)))
        v = check_lda(s, "A")
        assert v.status == "distinguishable"
        res = verify_tree(s, v.witness)
        assert np.all(np.abs(res.success - 1.0) < 1e-9)
        # identical starter factors just hand the problem to the responder
        vb = check_lda(s, "B")
        assert vb.status == "distinguishable"

    def test_pair_blocked_on_both_sides_is_certified(self):
        # relative phases {0, pi/4} on one side, identical on the other
        t = np.diag([1.0, np.exp(1j * np.pi / 4)])
        s = ProductUnitarySet((2, 2), (("u", I2, I2), ("v", t, I2)))
        for start in ("A", "B"):
            assert check_lda(s, start).status == "indistinguishable_certified"

    def test_singleton_trivial(self):
        s = ProductUnitarySet((2, 2), (("only", X, Z),))
        for checker in (check_lda, check_ldr):
            v = checker(s, "A")
            assert v.status == "distinguishable"
            res = verify_tree(s, v.witness)
            assert np.isclose(res.success[0], 1.0)

    def test_invalid_party(self):
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", X, Z)))
        with pytest.raises(ValueError):
            check_lda(s, "C")

    def test_responder_alone_across_groups(self):
        # three distinct A factors whose relative phases leave the origin out
        # of every hull, so A identifies nothing; B's factors I, X, Z are
        # separated by one probe entangled with an ancilla, and A need not
        # measure at all
        t = np.diag([1.0, np.exp(1j * np.pi / 4)])
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", t, X), ("c", t @ t, Z)))
        for checker in (check_lda, check_ldr):
            v = checker(s, "A")
            assert v.status == "distinguishable"
            assert len(v.witness.branches) == 1
            # the verdict carries the responder's problem, not stage 1's
            assert v.feasibility.status == "feasible"
            assert v.feasibility.witness.dim == 2
            res = verify_tree(s, v.witness)
            assert np.all(np.abs(res.success - 1.0) < 1e-9)

    def test_phase_pair_solves_stage_one_and_responder_alone(self, monkeypatch):
        # stage 1 fails, the responder-alone problem is then the only
        # two-group union, so it is not solved a second time
        import unidisc.protocols as protocols

        calls = []
        solve = protocols.common_probe_feasible

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(protocols, "common_probe_feasible", counting)
        s = phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, np.pi - 1.7))
        assert check_lda(s, "A").status == "indistinguishable_certified"
        assert len(calls) == 2


class TestCheckGda:
    def test_quartet_distinguishable_via_adaptive(self):
        v = check_gda(qutrit_quartet_set())
        assert v.status == "distinguishable"
        assert v.starting_party == "A"

    def test_pauli_hadamard_via_fixed_probe(self):
        v = check_gda(pauli_hadamard_set())
        assert v.status == "distinguishable"
        assert v.starting_party == "either"

    def test_identical_pair_certified(self):
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", I2, I2)))
        assert check_gda(s).status == "indistinguishable_certified"


class TestVerifyTree:
    def test_fixed_guess_tree_scores_one_index(self):
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", X, I2)))
        tree = ProtocolTree(
            start="A",
            probe=StateVector([1.0, 0.0]),
            ancilla_dim=1,
            povm=(np.eye(2),),
            branches=(OutcomeBranch(retained=(0, 1), guess=0),),
        )
        res = verify_tree(s, tree)
        assert np.allclose(res.success, [1.0, 0.0])
        assert np.allclose(res.stage1_probs, [[1.0], [1.0]])

    def test_leakage_counts_eliminated_outcomes(self):
        # probe |0>, measurement in the computational basis: X sends the
        # probe to the outcome that excludes it
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", X, I2)))
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        tree = ProtocolTree(
            start="A",
            probe=StateVector([1.0, 0.0]),
            ancilla_dim=1,
            povm=(p0, p1),
            branches=(OutcomeBranch(retained=(0,), guess=0),
                      OutcomeBranch(retained=(0,), guess=0)),
        )
        res = verify_tree(s, tree)
        assert np.allclose(res.success, [1.0, 0.0])
        assert res.leakage[1] > 0.99

    def test_rejects_incomplete_povm(self):
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", X, I2)))
        tree = ProtocolTree(
            start="A",
            probe=StateVector([1.0, 0.0]),
            ancilla_dim=1,
            povm=(np.diag([1.0, 0.0]),),
            branches=(OutcomeBranch(retained=(0, 1), guess=0),),
        )
        with pytest.raises(ValueError, match="POVM"):
            verify_tree(s, tree)

    def test_rejects_branch_count_mismatch(self):
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", X, I2)))
        tree = ProtocolTree(
            start="A",
            probe=StateVector([1.0, 0.0]),
            ancilla_dim=1,
            povm=(np.eye(2),),
            branches=(OutcomeBranch(retained=(0, 1), guess=0),
                      OutcomeBranch(retained=(), guess=None)),
        )
        with pytest.raises(ValueError):
            verify_tree(s, tree)

    def test_retained_outcome_without_answer_is_leakage(self):
        # the one outcome keeps both indices but neither guesses nor hands over
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", X, I2)))
        tree = ProtocolTree(start="A", probe=StateVector([1.0, 0.0]), ancilla_dim=1,
                            povm=(np.eye(2),), branches=(OutcomeBranch(retained=(0, 1)),))
        res = verify_tree(s, tree)
        assert np.allclose(res.success, [0.0, 0.0])
        assert np.allclose(res.leakage, [1.0, 1.0])

    @staticmethod
    def _handover_tree(guesses):
        # A learns nothing; B measures its probe |0> in the computational basis
        st = StageTwo(party="B", probe=StateVector([1.0, 0.0]), ancilla_dim=1,
                      povm=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), guesses=guesses)
        return ProtocolTree(start="A", probe=StateVector([1.0, 0.0]), ancilla_dim=1,
                            povm=(np.eye(2),),
                            branches=(OutcomeBranch(retained=(0, 1), stage2=st),))

    def test_stage2_outcome_without_guess_is_leakage(self):
        # the X factor on B always lands on the outcome that names no index
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", I2, X)))
        res = verify_tree(s, self._handover_tree((0, None)))
        assert np.allclose(res.success, [1.0, 0.0])
        assert np.allclose(res.leakage, [0.0, 1.0])

    def test_rejects_stage2_with_too_few_guesses(self):
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", I2, X)))
        with pytest.raises(ValueError, match="stage-2.*guesses"):
            verify_tree(s, self._handover_tree((0,)))

    @pytest.mark.parametrize("defect, match", [
        ({"party": "B"}, "party"),
        ({"probe": StateVector(np.eye(5)[0])}, "probe dim"),
        ({"povm": (np.eye(3), np.eye(3))}, "POVM"),
    ])
    def test_rejects_bad_stage2_on_unreached_branch(self, defect, match):
        # no unitary reaches the zero stage-1 outcome; its stage 2 must
        # still be a valid responder stage
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", X, I2)))
        good = StageTwo(party="A", probe=StateVector([1.0, 0.0]), ancilla_dim=1,
                        povm=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        guesses=(0, 1))
        tree = ProtocolTree(start="B", probe=StateVector([1.0, 0.0]), ancilla_dim=1,
                            povm=(np.eye(2), np.zeros((2, 2))),
                            branches=(OutcomeBranch(retained=(0, 1), stage2=good),) * 2)
        assert np.allclose(verify_tree(s, tree).success, [1.0, 1.0])
        bad = OutcomeBranch(retained=(0, 1), stage2=dataclasses.replace(good, **defect))
        with pytest.raises(ValueError, match=match):
            verify_tree(s, dataclasses.replace(tree, branches=(tree.branches[0], bad)))


class TestVerifyProbe:
    # [I, X] with probe |0> and the computational-basis measurement
    UNITARIES = [I2, X]
    GOOD = ProbeWitness(probe=StateVector([1.0, 0.0]), ancilla_dim=1,
                        povm=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), guesses=(0, 1))

    def test_scores_a_perfect_witness(self):
        assert np.allclose(verify_probe(self.UNITARIES, self.GOOD), [1.0, 1.0])

    def test_scores_a_witness_whose_povm_is_a_stack(self):
        stacked = dataclasses.replace(self.GOOD, povm=np.stack(self.GOOD.povm))
        assert np.allclose(verify_probe(self.UNITARIES, stacked), [1.0, 1.0])

    def test_unnamed_outcome_adds_no_success(self):
        # I keeps the probe on outcome 0, which names no index
        w = dataclasses.replace(self.GOOD, guesses=(None, 1))
        assert np.allclose(verify_probe(self.UNITARIES, w), [0.0, 1.0])

    def test_rejects_empty_unitary_list(self):
        with pytest.raises(ValueError, match="no unitaries to verify"):
            verify_probe([], self.GOOD)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError, match="unitary 1 has shape"):
            verify_probe([I2, np.eye(3)], self.GOOD)

    def test_rejects_probe_of_wrong_dimension(self):
        bad = dataclasses.replace(self.GOOD, probe=StateVector([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="probe dim 3"):
            verify_probe(self.UNITARIES, bad)

    def test_rejects_guess_count_mismatch(self):
        # a dropped guess must not silently score the unmatched outcome as a miss
        bad = dataclasses.replace(self.GOOD, guesses=(0,))
        with pytest.raises(ValueError, match="1 guesses for 2 outcomes"):
            verify_probe(self.UNITARIES, bad)


class TestHierarchyAudit:
    def test_families_clean(self):
        for uset in (qutrit_quartet_set(), pauli_hadamard_set(),
                     phase_pair_set(PhasePairParams(0.9, 0.9, 0.9,
                                                    np.pi - 2.7))):
            rows = hierarchy_audit(uset)
            labels = [lab for lab, _ in rows]
            assert "GDR" in labels and "GDA" in labels

    def test_random_qubit_sets_clean(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            items = []
            for i in range(int(rng.integers(2, 5))):
                items.append((f"u{i}", haar_unitary(2, rng).matrix,
                              haar_unitary(2, rng).matrix))
            uset = ProductUnitarySet((2, 2), tuple(items))
            hierarchy_audit(uset)  # raises on a certified contradiction

    def test_rows_match_standalone_checkers(self):
        # the audit shares one analysis across its rows; each row must still
        # be, byte for byte, the verdict of the public checker for that row
        rng = np.random.default_rng(0)
        sets = [qutrit_quartet_set(), pauli_hadamard_set(),
                phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, np.pi - 1.7))]
        sets += [random_qubit_set(rng) for _ in range(30)]
        checkers = {"GDR": check_gdr, "GDA": check_gda, "GDA_separable": check_gda_separable}
        for p in ("A", "B"):
            checkers[f"LDR:{p}"] = lambda uset, p=p: check_ldr(uset, p)
            checkers[f"LDA:{p}"] = lambda uset, p=p: check_lda(uset, p)
        statuses = set()
        for uset in sets:
            for label, verdict in hierarchy_audit(uset):
                statuses.add(verdict.status)
                assert (dumps(verdict_to_json(verdict))
                        == dumps(verdict_to_json(checkers[label](uset)))), label
        assert statuses == {"distinguishable", "indistinguishable_certified",
                            "not_found"}

    def test_audit_solves_each_problem_once(self, monkeypatch):
        # solver calls keyed by the bytes of their inputs: within one audit
        # no probe problem, eigensystem or pair criterion is solved twice and
        # no witness is purified twice, and a second audit of the same set
        # repeats every call, so nothing the first one solved was kept
        # beyond it
        import unidisc

        calls = []
        keys = {
            "common_probe_feasible": lambda problem, tol=None, spectrum=None: b"".join(
                k.tobytes() for k in problem.operators),
            "eig_unitary": lambda u, tol=None, checked=False: u.tobytes(),
            "min_convex_norm": lambda phases, tol=None: phases.tobytes(),
            "pair_distinguishable": lambda u1, u2, tol=None: u1.tobytes() + u2.tobytes(),
            "purify_witness": lambda witness, tol=None: witness.matrix.tobytes(),
        }
        modules = [m for m in vars(unidisc).values()
                   if getattr(m, "__name__", "").startswith("unidisc.")]
        for name, key in keys.items():
            original = next(getattr(m, name) for m in modules if hasattr(m, name))

            def counting(*args, _name=name, _key=key, _original=original, **kwargs):
                calls.append((_name, _key(*args, **kwargs)))
                return _original(*args, **kwargs)

            for m in modules:
                if getattr(m, name, None) is original:
                    monkeypatch.setattr(m, name, counting)

        rng = np.random.default_rng(0)
        sets = [pauli_hadamard_set(), qutrit_quartet_set()]
        sets += [random_qubit_set(rng) for _ in range(20)]
        kinds = set()
        for uset in sets:
            calls.clear()
            hierarchy_audit(uset)
            first = list(calls)
            assert len(set(first)) == len(first)
            kinds.update(name for name, _ in first)
            calls.clear()
            hierarchy_audit(uset)
            assert len(calls) == len(first)
        assert kinds == {"common_probe_feasible", "eig_unitary", "min_convex_norm",
                         "purify_witness"}

    def test_local_rows_solve_shared_problems_once(self, monkeypatch):
        # the LDR rows come from the same pass as the LDA rows, so the
        # audit's local rows cost no more probe problems than LDA alone
        import unidisc.protocols as protocols

        calls = []
        solve = protocols.common_probe_feasible

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(protocols, "common_probe_feasible", counting)

        def count(fn):
            calls.clear()
            fn()
            return len(calls)

        rng = np.random.default_rng(0)
        sets = [qutrit_quartet_set(), pauli_hadamard_set()]
        sets += [random_qubit_set(rng) for _ in range(6)]
        for uset in sets:
            local = count(lambda: hierarchy_audit(uset)) - count(lambda: check_gdr(uset))
            lda = count(lambda: check_lda(uset, "A")) + count(lambda: check_lda(uset, "B"))
            assert local <= lda

    def test_includes_separable_only_for_qubits(self):
        rows = hierarchy_audit(qutrit_quartet_set())
        assert not any(lab == "GDA_separable" for lab, _ in rows)
        rows = hierarchy_audit(pauli_hadamard_set())
        assert any(lab == "GDA_separable" for lab, _ in rows)

    def test_separable_row_bounded_by_gda(self, monkeypatch):
        # a separable-probe protocol is a global adaptive one, so a
        # distinguishable GDA_separable row under a certified GDA row is a
        # contradiction the audit must report
        import unidisc.separable as separable

        t = np.diag([1.0, np.exp(1j * np.pi / 4)])
        uset = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", t, t)))
        rows = dict(hierarchy_audit(uset))
        assert rows["GDA"].status == "indistinguishable_certified"
        assert rows["GDA_separable"].status == "indistinguishable_certified"
        planted = StrategyVerdict("GDA_separable", "either", "distinguishable",
                                  note="planted")
        # the audit reads its row from the analysis it shares with the other rows
        monkeypatch.setattr(separable, "_gda_separable", lambda table: (planted, None))
        with pytest.raises(RuntimeError, match="GDA_separable=1 exceeds GDA=0"):
            hierarchy_audit(uset)
