"""Strategy checkers, protocol trees, and the exact tree simulator."""

import dataclasses
import json
import sys

import numpy as np
import pytest

from unidisc.protocols import (
    OutcomeBranch,
    ProbeWitness,
    ProductUnitarySet,
    ProtocolTree,
    SetAnalysis,
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
from unidisc.jsonio import dumps, verdict_to_json, witness_from_json
from unidisc.separable import (
    check_gda_separable,
    gda_separable_analysis,
    separable_start_analysis,
)
from unidisc.probefeas import ProbeFeasibility, verify_certificate
from unidisc import qcore
from unidisc.qcore import DEFAULT_TOL, StateVector, Tolerances, haar_unitary
from unidisc.families import (
    CLOCK3,
    FLIP3,
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


class TestNearUnitaryFactors:
    """A set accepts factors up to 1e-8 off unitary, so every decider must
    answer on one; ``not_found`` is an answer, raising is not."""

    def test_set_keeps_nearest_unitaries(self, near_unitary_items):
        uset = ProductUnitarySet((2, 2), near_unitary_items)
        for (_, *given), i in zip(near_unitary_items, range(uset.size)):
            for f, party in zip(given, "AB"):
                kept = uset.factor(i, party)
                assert np.abs(kept.conj().T @ kept - np.eye(2)).max() < 1e-14
                assert np.abs(kept - f).max() < 1e-8

    def test_every_decider_answers(self, near_unitary_items):
        # the relatives and GDR products of the factors as given are off
        # unitary by up to 3.9e-8, past a problem's 1e-8 bar
        uset = ProductUnitarySet((2, 2), near_unitary_items)
        verdicts = [check_gdr(uset), check_gda(uset), check_gda_separable(uset)]
        verdicts += [check(uset, start) for check in (check_ldr, check_lda) for start in "AB"]
        verdicts += [v for _, v in hierarchy_audit(uset)]
        for v in verdicts:
            assert v.status in ("distinguishable", "indistinguishable_certified", "not_found")
            if v.status != "distinguishable":
                continue
            if isinstance(v.witness, ProbeWitness):
                assert verify_probe(uset.global_unitaries(), v.witness).min() > 1 - 1e-9
            else:
                assert verify_tree(uset, v.witness).success.min() > 1 - 1e-9


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
        # be, byte for byte, the verdict of the public checker for that row,
        # given the set or given a table of its own that the checkers share
        # in the reverse of the audit's order
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
            table = SetAnalysis(uset)
            for label, verdict in reversed(hierarchy_audit(uset)):
                statuses.add(verdict.status)
                row = dumps(verdict_to_json(verdict))
                assert row == dumps(verdict_to_json(checkers[label](uset))), label
                assert row == dumps(verdict_to_json(checkers[label](table))), label
        assert statuses == {"distinguishable", "indistinguishable_certified",
                            "not_found"}

    def test_audit_solves_each_problem_once(self, monkeypatch):
        # solver calls keyed by the dimension and bytes of their inputs:
        # within one audit no probe problem, eigensystem or pair criterion
        # is solved twice and no witness is purified twice.  A second audit
        # of the same set repeats exactly the calls on the GDR problem,
        # whose entries die with the table, and no call on one party, whose
        # entries the store keeps; once the store is emptied, an audit
        # repeats every call
        import unidisc

        calls, answers = [], []
        keys = {
            "common_probe_feasible": lambda problem, tol=None, spectrum=None: (
                problem.dim, b"".join(k.tobytes() for k in problem.operators)),
            "eig_unitary": lambda u, tol=None: (u.shape[0], u.tobytes()),
            "min_convex_norm": lambda phases, tol=None: (len(phases), phases.tobytes()),
            "pair_distinguishable": lambda u1, u2, tol=None: (
                u1.shape[0], u1.tobytes() + u2.tobytes()),
            "purify_witness": lambda witness, tol=None: (witness.dim, witness.matrix.tobytes()),
        }
        modules = [m for m in vars(unidisc).values()
                   if getattr(m, "__name__", "").startswith("unidisc.")]
        for name, key in keys.items():
            original = next(getattr(m, name) for m in modules if hasattr(m, name))

            def counting(*args, _name=name, _key=key, _original=original, **kwargs):
                calls.append((_name, *_key(*args, **kwargs)))
                out = _original(*args, **kwargs)
                if _name == "common_probe_feasible":
                    answers.append(out)
                return out

            for m in modules:
                if getattr(m, name, None) is original:
                    monkeypatch.setattr(m, name, counting)

        rng = np.random.default_rng(0)
        sets = [pauli_hadamard_set(), qutrit_quartet_set()]
        sets += [random_qubit_set(rng) for _ in range(20)]
        kinds = set()
        for uset in sets:
            qcore._store.clear()
            calls.clear()
            answers.clear()
            hierarchy_audit(uset)
            first = list(calls)
            assert len(set(first)) == len(first)
            kinds.update(name for name, _, _ in first)
            # only mixed witnesses are purified: a pure one comes with its state
            mixed = {f.witness.matrix.tobytes() for f in answers
                     if f.witness is not None and f.state is None}
            assert {k for name, _, k in first if name == "purify_witness"} <= mixed
            # every call is on one party or on the GDR problem, told apart
            # by their dimensions, and some are on one party
            assert {d for _, d, _ in first} <= {*uset.party_dims, uset.dim}
            assert uset.dim not in uset.party_dims
            assert any(d != uset.dim for _, d, _ in first)
            calls.clear()
            hierarchy_audit(uset)
            assert calls == [c for c in first if c[1] == uset.dim]
            qcore._store.clear()
            calls.clear()
            hierarchy_audit(uset)
            assert calls == first
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
            qcore._store.clear()
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
        # the audit's row is the public decider's verdict on the shared table
        monkeypatch.setattr(separable, "check_gda_separable", lambda table: planted)
        with pytest.raises(RuntimeError, match="GDA_separable=1 exceeds GDA=0"):
            hierarchy_audit(uset)


class TestSetOrTable:
    """Every public decider takes a set or its :class:`SetAnalysis`."""

    DECIDERS = [
        pytest.param(check_gdr, id="check_gdr"),
        pytest.param(check_gda, id="check_gda"),
        pytest.param(lambda s, tol=None: check_ldr(s, "B", tol), id="check_ldr"),
        pytest.param(lambda s, tol=None: check_lda(s, "B", tol), id="check_lda"),
        pytest.param(check_gda_separable, id="check_gda_separable"),
        pytest.param(gda_separable_analysis, id="gda_separable_analysis"),
        pytest.param(lambda s, tol=None: separable_start_analysis(s, "B", tol),
                     id="separable_start_analysis"),
    ]

    @pytest.mark.parametrize("decide", DECIDERS)
    def test_table_with_another_tol_raises(self, decide):
        table = SetAnalysis(pauli_hadamard_set(), Tolerances(1e-7))
        with pytest.raises(ValueError, match="differs from the table's"):
            decide(table, Tolerances())
        decide(table, Tolerances(1e-7))  # an equal record is the table's own

    def test_verdicts_are_table_entries(self):
        table = SetAnalysis(qutrit_quartet_set())
        assert check_gdr(table) is check_gdr(table)
        for p in ("A", "B"):
            assert check_ldr(table, p) is check_ldr(table, p)
            assert check_lda(table, p) is check_lda(table, p)

    def test_gda_reads_the_gdr_entry(self):
        table = SetAnalysis(phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, np.pi - 1.7)))
        gdr = check_gdr(table)
        assert gdr.status == "distinguishable"
        assert check_gda(table).witness is gdr.witness


@pytest.fixture(scope="module")
def sets():
    """The three builtins and ``random_qubit_set`` rng 0 sets 0-99."""
    rng = np.random.default_rng(0)
    return [qutrit_quartet_set(), pauli_hadamard_set(),
            phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, np.pi - 1.7))] + [
                random_qubit_set(rng) for _ in range(100)]


def _rows(uset, tol=DEFAULT_TOL):
    """The canonical JSON bytes of each row of the audit of ``uset``."""
    return [dumps(verdict_to_json(v)) for _, v in hierarchy_audit(uset, tol)]


def _arrays(value):
    """Every array ``value`` holds, through tuples (and a projective
    measurement's states) and dataclass fields."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)] + _arrays(getattr(value, "states", None))
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in _arrays(getattr(value, f.name))]
    return []


class TestSharedStore:
    """Entries on one party's factors outlive their table in one store,
    keyed by their bytes and the tolerances, and read the same bytes
    whichever set solved them first."""

    ONE_PARTY = {"spectrum", "pair", "eigenrays", "feasibility", "purified",
                 "pair_probe", "measurement"}

    @pytest.mark.parametrize("cap", [None, 5])
    def test_sharing_is_byte_exact(self, sets, cap, monkeypatch):
        # each set audited with the store emptied before it, then all in
        # order and in reverse with the store warm from the sets before;
        # with a small cap the store is emptied again and again on the way,
        # and it never holds more than the cap
        import unidisc.qcore as store

        class Watched(dict):
            peak, clears = 0, 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                Watched.peak = max(Watched.peak, len(self))

            def clear(self):
                Watched.clears += 1
                super().clear()

        monkeypatch.setattr(store, "_store", Watched())
        if cap is not None:
            monkeypatch.setattr(store, "_STORE_CAP", cap)
        cold = []
        for uset in sets:
            store._store.clear()
            cold.append(_rows(uset))
        store._store.clear()
        assert [_rows(uset) for uset in sets] == cold
        if cap is None:
            assert {key[1] for key in store._store} == self.ONE_PARTY
            assert {key[0] for key in store._store} == {DEFAULT_TOL}
        assert [_rows(uset) for uset in reversed(sets)] == cold[::-1]
        assert Watched.peak <= store._STORE_CAP
        if cap is not None:
            assert Watched.clears > 2 * len(sets)  # the full store was emptied

    def test_public_pair_calls_share_the_capped_store(self, sets, monkeypatch):
        # the public pair kernels under two tolerances, mixed with audits:
        # under a small cap the store never holds more than the cap, each
        # entry is keyed by the tolerances it was computed under, and every
        # answer is the one each set gets with the store emptied before it
        import unidisc.qcore as store
        from unidisc.eigdist import build_pair_probe, pair_distinguishable

        class Watched(dict):
            peak, added = 0, []

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                Watched.added.append(key)
                Watched.peak = max(Watched.peak, len(self))

        loose = Tolerances(1e-7)

        def answers(uset):
            Watched.added.clear()
            out = _rows(uset)
            assert {key[0] for key in Watched.added} == {DEFAULT_TOL}
            for tol in (loose, DEFAULT_TOL):
                for party in ("A", "B"):
                    fs = uset.factors(party)
                    for i in range(uset.size):
                        for j in range(i + 1, uset.size):
                            Watched.added.clear()
                            r = pair_distinguishable(fs[i], fs[j], tol)
                            out.append((r.phases.tobytes(), r.weights.tobytes(), r.min_norm))
                            if r.distinguishable:
                                pp = build_pair_probe(fs[i], fs[j], r, tol)
                                out.append(pp.probe.amplitudes.tobytes())
                            k = fs[i].conj().T @ fs[j]
                            assert (tol, "spectrum", k.shape, k.tobytes()) in store._store
                            assert {key[0] for key in Watched.added} <= {tol}
                            assert {key[1] for key in Watched.added} <= {"spectrum", "pair"}
            return out

        monkeypatch.setattr(store, "_store", Watched())
        cold = []
        for uset in sets[:30]:
            store._store.clear()
            cold.append(answers(uset))
        monkeypatch.setattr(store, "_STORE_CAP", 5)
        store._store.clear()
        Watched.peak = 0
        assert [answers(uset) for uset in sets[:30]] == cold
        assert Watched.peak <= 5
        assert {key[0] for key in store._store} <= {DEFAULT_TOL, loose}

    def test_shared_arrays_are_read_only(self, sets):
        for uset in sets[:20]:
            hierarchy_audit(uset)
        arrays = [a for value in qcore._store.values() for a in _arrays(value)]
        assert len(arrays) > len(qcore._store)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        # a stored measurement shares the states its POVM was built from
        states = [value[2].states for key, value in qcore._store.items()
                  if key[1] == "measurement"]
        assert states and all(any(a is s for a in arrays) for s in states)
        # a probe read from another set's table is the stored, read-only one
        table = SetAnalysis(sets[1])
        with pytest.raises(ValueError, match="read-only"):
            table.pair_probe("A", 0, 1).probe.amplitudes[0] = 1

    def test_set_level_entries_stay_in_the_table(self):
        # the GDR problem is the set's own: check_gdr leaves the store empty
        assert check_gdr(phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, np.pi - 1.7))
                         ).status == "distinguishable"
        assert check_gdr(qutrit_quartet_set()).status == "indistinguishable_certified"
        assert qcore._store == {}

    def test_tolerances_key_the_store(self):
        # a table under other tolerances solves its one-party problems anew
        # and gives the rows it gives with the store empty
        uset = pauli_hadamard_set()
        tol = Tolerances(1e-7)
        want = _rows(uset, tol)
        qcore._store.clear()
        _rows(uset)
        assert _rows(uset, tol) == want
        assert {key[0] for key in qcore._store} == {DEFAULT_TOL, tol}

    @pytest.mark.parametrize("uset", [pauli_hadamard_set(), qutrit_quartet_set()],
                             ids=["pauli-hadamard", "qutrit-quartet"])
    def test_none_tol_is_the_default(self, uset):
        # hierarchy_audit and SetAnalysis read tol=None as DEFAULT_TOL, as
        # the deciders do
        want = _rows(uset)
        qcore._store.clear()
        assert _rows(uset, None) == want
        qcore._store.clear()
        table = SetAnalysis(uset, None)
        assert table.tol == DEFAULT_TOL
        decide = {"GDR": check_gdr, "GDA": check_gda, "GDA_separable": check_gda_separable}
        for p in ("A", "B"):
            decide[f"LDR:{p}"] = lambda t, p=p: check_ldr(t, p)
            decide[f"LDA:{p}"] = lambda t, p=p: check_lda(t, p)
        labels = [label for label, _ in hierarchy_audit(uset)]
        assert [dumps(verdict_to_json(decide[label](table))) for label in labels] == want


class TestAcceptedProblems:
    """A table poses its problems on relatives of accepted factors and their
    products, held as they are, past the public constructor's check; that
    check must have held the same operators."""

    def test_table_problems_match_the_constructor(self, sets, monkeypatch):
        from unidisc.probefeas import OrthogonalityProblem

        posed = []
        accepted = OrthogonalityProblem._accepted.__func__

        def spy(cls, dim, operators):
            posed.append(accepted(cls, dim, operators))
            return posed[-1]

        monkeypatch.setattr(OrthogonalityProblem, "_accepted", classmethod(spy))
        for uset in sets:
            qcore._store.clear()  # so that every one-party problem is posed
            posed.append(SetAnalysis(uset).gdr_problem())
            hierarchy_audit(uset)
        assert {p.dim for p in posed} == {2, 3, 4, 9}
        for p in posed:
            public = OrthogonalityProblem(p.dim, p.operators)
            assert public.dim == p.dim
            assert [k.tobytes() for k in public.operators] == [k.tobytes() for k in p.operators]
            assert public.commuting == p.commuting

    def test_deciders_check_no_operator_again(self, sets, monkeypatch):
        # once the set is built, no decider re-applies the unitarity rule
        calls = []
        original = qcore._near_unitaries

        def spy(*args):
            calls.append(args)
            return original(*args)

        for name, mod in list(sys.modules.items()):
            if name.startswith("unidisc") and getattr(mod, "_near_unitaries", None) is original:
                monkeypatch.setattr(mod, "_near_unitaries", spy)
        for uset in sets[:30]:
            qcore._store.clear()
            check_gdr(SetAnalysis(uset))
            hierarchy_audit(uset)
        assert calls == []


class TestOneItemSets:
    @pytest.mark.parametrize("dims, b", [((2, 2), Z), ((2, 3), CLOCK3)])
    def test_every_row_distinguishable_with_a_rechecked_witness(self, dims, b):
        uset = ProductUnitarySet(dims, (("only", X, b),))
        rows = hierarchy_audit(uset)
        assert ("GDA_separable" in dict(rows)) == (dims == (2, 2))
        for label, verdict in rows:
            assert verdict.status == "distinguishable", label
            witness = witness_from_json(json.loads(dumps(verdict_to_json(verdict)))["witness"])
            if isinstance(witness, ProtocolTree):
                success = verify_tree(uset, witness).success
            else:
                success = verify_probe(uset.global_unitaries(), witness)
            assert success.tolist() == [1.0], label
        assert gdr_problem(uset).operators == ()

    def test_separable_start_analysis(self):
        uset = ProductUnitarySet((2, 2), (("only", X, Z),))
        for start in ("A", "B"):
            assert separable_start_analysis(uset, start).verdict == "distinguishable"


class TestStalledSearch:
    """Local verdicts when the probe search stalls on one party's problems,
    which a (2, 3) set tells apart by their dimension."""

    @staticmethod
    def stall(monkeypatch, dim):
        """Answer ``not_found`` for every problem on dimension ``dim``; the
        answers, in call order."""
        import unidisc.protocols as protocols

        solve = protocols.common_probe_feasible
        answers = []

        def fake(problem, *args, **kwargs):
            if problem.dim != dim:
                return solve(problem, *args, **kwargs)
            answers.append(ProbeFeasibility(status="not_found", note=f"stall {len(answers)}"))
            return answers[-1]

        monkeypatch.setattr(protocols, "common_probe_feasible", fake)
        return answers

    def test_stage_one_stall(self, monkeypatch):
        # A tells I from X only through its stage-1 problem, which stalls, and
        # B's equal factors leave the responder nothing to do alone
        answers = self.stall(monkeypatch, 2)
        uset = ProductUnitarySet((2, 3), (("u", I2, I3), ("v", X, I3)))
        rows = dict(hierarchy_audit(uset))
        (stalled,) = answers
        for label in ("LDR:A", "LDA:A"):
            v = rows[label]
            assert v.status == "not_found", label
            assert v.note == "stage-1 search stalled: stall 0", label
            assert v.feasibility is stalled, label
        # from B, the same A problem is the one group's responder problem
        assert rows["LDR:B"].note == "shared-probe search stalled: stall 0"
        assert rows["LDA:B"].note == "within-group search stalled: stall 0"
        assert rows["LDR:B"].feasibility is rows["LDA:B"].feasibility is stalled

    def test_stage_two_stall(self, monkeypatch):
        # A identifies the group {0, 1} or {2, 3}; B's problems within each
        # group and their union all stall, in that order, once per checker
        # when the store is emptied between checkers
        import unidisc.protocols as protocols

        answers = self.stall(monkeypatch, 3)
        uset = ProductUnitarySet((2, 3), (("a", I2, I3), ("b", I2, CLOCK3),
                                          ("c", X, I3), ("d", X, FLIP3)))
        ldr = check_ldr(uset, "A")
        assert len(answers) == 3
        qcore._store.clear()
        lda = check_lda(uset, "A")
        assert len(answers) == 6
        assert (ldr.status, lda.status) == ("not_found", "not_found")
        assert ldr.note == "shared-probe search stalled: stall 2"
        assert ldr.feasibility is answers[2]
        assert lda.note == "within-group search stalled: stall 3"
        assert lda.feasibility is answers[3]
        qcore._store.clear()
        rows = dict(hierarchy_audit(uset))
        assert rows["LDR:A"].note == "shared-probe search stalled: stall 8"
        assert rows["LDA:A"].note == "within-group search stalled: stall 6"
        # with the store kept, check_lda after check_ldr on the set solves
        # no problem: it reads the answers check_ldr's problems got
        qcore._store.clear()
        before = len(answers)
        check_ldr(uset, "A")
        assert len(answers) == before + 3

        def unexpected(*args, **kwargs):
            raise AssertionError("a problem was solved again")

        monkeypatch.setattr(protocols, "common_probe_feasible", unexpected)
        lda = check_lda(uset, "A")
        assert lda.note == f"within-group search stalled: stall {before}"
        assert lda.feasibility is answers[before]
