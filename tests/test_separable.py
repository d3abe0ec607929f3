"""Separable-probe strategies: sequential elimination from either party.

The frozen enumerations for the five-element Pauli/Hadamard family were
hand-verified: every listed class is re-checked here from first principles
(parallel evolved rays, responder pair criterion on the complement).
"""

import numpy as np
import pytest

from unidisc.eigdist import pair_distinguishable
from unidisc.jsonio import dumps, tree_to_json
from unidisc.protocols import (
    ProbeWitness,
    ProductUnitarySet,
    SetAnalysis,
    check_lda,
    verify_probe,
    verify_tree,
)
from unidisc.qcore import check_povm, haar_unitary
from unidisc import separable
from unidisc.simplex import feasible_point
from unidisc.separable import (
    check_gda_separable,
    gda_separable_analysis,
    separable_start_analysis,
)
from unidisc.families import H, HX, I2, SNAP_GATES, X, Z, pauli_hadamard_set

W = pauli_hadamard_set()

# hand-verified sequential structure of the five-element family, by index:
# factors A = (1, Z, X, X, XZ), B = (1, X, H, HX, H)
EXPECTED_ELIMINABLE = {
    "A": {(1, 2, 3), (2, 3, 4)},
    "B": {(0, 2, 4), (1, 2, 4), (2, 3, 4)},
}
EXPECTED_RESPONDER_PAIRS = {
    # responder B: value pairs (1,X), (1,H), (X,HX), (H,HX)
    "A": {(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 4)},
    # responder A: every distinct-value pair works; only indices 2, 3
    # share a factor
    "B": {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
          (2, 4), (3, 4)},
}


def ray_parallel(u, v):
    return abs(u[0] * v[1] - u[1] * v[0]) < 1e-10


class TestStartAnalysisPauliHadamard:
    @pytest.mark.parametrize("start", ["A", "B"])
    def test_verdict_certified(self, start):
        rep = separable_start_analysis(W, start)
        assert rep.verdict == "infeasible_certified"
        assert rep.tree is None

    @pytest.mark.parametrize("start", ["A", "B"])
    def test_responder_pairs_frozen(self, start):
        rep = separable_start_analysis(W, start)
        assert set(rep.responder_pairs) == EXPECTED_RESPONDER_PAIRS[start]

    @pytest.mark.parametrize("start", ["A", "B"])
    def test_eliminable_classes_frozen(self, start):
        rep = separable_start_analysis(W, start)
        got = {tuple(e.member_indices) for e in rep.eliminable}
        assert got == EXPECTED_ELIMINABLE[start]

    @pytest.mark.parametrize("start", ["A", "B"])
    def test_eliminable_classes_reverify(self, start):
        # each class: the listed probes parallelize the evolved rays, and
        # the complement pair is finishable by the responder
        rep = separable_start_analysis(W, start)
        responder = "B" if start == "A" else "A"
        m = W.size
        for cls in rep.eliminable:
            assert len(cls.probes) >= 1
            for probe in cls.probes:
                evolved = [W.factor(k, start) @ probe
                           for k in cls.member_indices]
                for v in evolved[1:]:
                    assert ray_parallel(evolved[0], v)
            rest = [k for k in range(m) if k not in cls.member_indices]
            assert len(rest) == 2
            r = pair_distinguishable(W.factor(rest[0], responder),
                                     W.factor(rest[1], responder))
            assert r.distinguishable

    def test_first_party_textbook_probes(self):
        # the (X, X, XZ) class is witnessed by both computational states
        rep = separable_start_analysis(W, "A")
        cls = {tuple(e.member_indices): e for e in rep.eliminable}[(2, 3, 4)]
        basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        for b in basis:
            assert any(ray_parallel(p, b) for p in cls.probes)

    def test_second_party_textbook_probes(self):
        rep = separable_start_analysis(W, "B")
        cls = {tuple(e.member_indices): e for e in rep.eliminable}
        # (H, HX, H) class: the |+> and |-> states
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        probes = cls[(2, 3, 4)].probes
        assert any(ray_parallel(p, plus) for p in probes)
        assert any(ray_parallel(p, minus) for p in probes)
        # (1, H, H) class: eigenvectors of H
        probes = cls[(0, 2, 4)].probes
        for p in probes:
            hv = H @ p
            assert ray_parallel(hv, p)

    def test_extra_classes_use_circular_probes(self):
        # the classes beyond the size-1 basis lists need the |+-i> states
        plus_i = np.array([1.0, 1.0j]) / np.sqrt(2)
        minus_i = np.array([1.0, -1.0j]) / np.sqrt(2)
        rep_a = separable_start_analysis(W, "A")
        cls = {tuple(e.member_indices): e for e in rep_a.eliminable}[(1, 2, 3)]
        assert any(ray_parallel(p, plus_i) or ray_parallel(p, minus_i)
                   for p in cls.probes)
        rep_b = separable_start_analysis(W, "B")
        cls = {tuple(e.member_indices): e for e in rep_b.eliminable}[(1, 2, 4)]
        assert any(ray_parallel(p, plus_i) or ray_parallel(p, minus_i)
                   for p in cls.probes)

    def test_five_inputs_counting_note(self):
        rep = separable_start_analysis(W, "A")
        assert "disjoint" in rep.note or "eliminates" in rep.note

    @pytest.mark.parametrize("start", ["A", "B"])
    def test_five_inputs_settled_without_probe_search(self, start, monkeypatch):
        # the counting argument needs no candidate probe
        expected = separable_start_analysis(W, start)

        def no_search(*args):
            raise AssertionError("probe search ran")

        monkeypatch.setattr(separable, "_candidate_probes", no_search)
        rep = separable_start_analysis(W, start)
        assert (rep.verdict, rep.note, rep.necessary_sets) == (
            expected.verdict, expected.note, expected.necessary_sets)


class TestStartAnalysisSmall:
    def test_pair_distinguishable_side(self):
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", Z, I2)))
        rep = separable_start_analysis(s, "A")
        assert rep.verdict == "distinguishable"
        res = verify_tree(s, rep.tree)
        assert np.all(np.abs(res.success - 1.0) < 1e-9)

    def test_pair_blocked(self):
        t = np.diag([1.0, np.exp(1j * np.pi / 4)])
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", t, t)))
        for start in ("A", "B"):
            rep = separable_start_analysis(s, start)
            assert rep.verdict == "infeasible_certified"

    @pytest.mark.parametrize("start", ["A", "B"])
    def test_pair_tree_is_local_tree_without_ancilla(self, start):
        # two inputs: the report carries the local decider's LDA tree, whose
        # exact LP witnesses are pure, so neither stage needs an ancilla
        rng = np.random.default_rng(31)
        found = 0
        for _ in range(40):
            a, b = rng.integers(len(SNAP_GATES), size=(2, 2))
            s = ProductUnitarySet((2, 2), [(f"u{i}", SNAP_GATES[a[i]], SNAP_GATES[b[i]])
                                           for i in range(2)])
            rep = separable_start_analysis(s, start)
            if rep.tree is None:
                continue
            found += 1
            assert dumps(tree_to_json(rep.tree)) == dumps(tree_to_json(check_lda(s, start).witness))
            assert rep.tree.ancilla_dim == 1
            assert all(br.stage2.ancilla_dim == 1 for br in rep.tree.branches if br.stage2)
            res = verify_tree(s, rep.tree)
            assert np.all(np.abs(res.success - 1.0) < 1e-9)
        assert found >= 10

    def test_singleton(self):
        s = ProductUnitarySet((2, 2), (("a", X, Z),))
        rep = separable_start_analysis(s, "A")
        assert rep.verdict == "distinguishable"

    def test_three_inputs_sequential_success(self):
        # starter factors 1, Z, Z: probe |0> collapses {1, 2} onto |0>;
        # outcome <1| never fires, so the informative split is {0} vs {1,2}
        # with the responder separating X from 1 on the retained pair
        s = ProductUnitarySet((2, 2),
                              (("a", I2, I2), ("b", Z, X), ("c", Z, I2)))
        rep = separable_start_analysis(s, "A")
        assert rep.verdict == "distinguishable"
        res = verify_tree(s, rep.tree)
        assert np.all(np.abs(res.success - 1.0) < 1e-9)

    def test_validates_party_and_dims(self):
        s = ProductUnitarySet((2, 2), (("a", I2, I2),))
        with pytest.raises(ValueError):
            separable_start_analysis(s, "C")
        q = ProductUnitarySet((3, 2), (("a", np.eye(3), I2),))
        with pytest.raises(ValueError):
            separable_start_analysis(q, "A")


class TestCheckGdaSeparable:
    def test_pauli_hadamard_certified(self):
        v = check_gda_separable(W)
        assert v.status == "indistinguishable_certified"

    def test_pair_either_side(self):
        s = ProductUnitarySet((2, 2), (("a", I2, I2), ("b", I2, Z)))
        v = check_gda_separable(s)
        assert v.status == "distinguishable"
        assert isinstance(v.witness, ProbeWitness)
        succ = verify_probe([s.global_unitary(i) for i in range(2)],
                            v.witness)
        assert np.all(np.abs(succ - 1.0) < 1e-9)

    def test_identical_pair_certified(self):
        s = ProductUnitarySet((2, 2), (("a", H, X), ("b", H, X)))
        assert check_gda_separable(s).status == "indistinguishable_certified"

    def test_simultaneous_product_probe_triple(self):
        # {1x1, Zx1, 1xZ} splits under the |+>|+> probe into three
        # orthogonal product states; A's evolved factors lie in the basis
        # {|+>, |->}, so A measuring first in it is a sequential protocol
        s = ProductUnitarySet((2, 2),
                              (("a", I2, I2), ("b", Z, I2), ("c", I2, Z)))
        v = check_gda_separable(s)
        assert v.status == "distinguishable"
        assert v.starting_party == "A"
        res = verify_tree(s, v.witness)
        assert np.all(np.abs(res.success - 1.0) < 1e-9)

    def test_pauli_grid_eight_inputs_certified(self):
        # eight inputs exceed the four orthogonal states of C^2 (x) C^2;
        # both sequential orders are certified by counting, with no pair
        # of inputs blocked on both sides
        Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        grid = ((I2, I2), (I2, X), (X, X), (X, Y), (Y, Y), (Y, Z),
                (Z, Z), (Z, I2))
        s = ProductUnitarySet((2, 2), tuple(
            (f"u{k}", a, b) for k, (a, b) in enumerate(grid)))
        v, reports = gda_separable_analysis(s)
        assert v.status == "indistinguishable_certified"
        assert check_gda_separable(s).status == "indistinguishable_certified"
        for start in ("A", "B"):
            assert reports[start].verdict == "infeasible_certified"

    def test_non_qubit_honest(self):
        w3 = np.exp(2j * np.pi / 3)
        clock = np.diag([1.0, w3, w3 * w3])
        s = ProductUnitarySet((3, 3), (("a", np.eye(3), np.eye(3)),
                                       ("b", clock, np.eye(3)),
                                       ("c", np.eye(3), clock)))
        v = check_gda_separable(s)
        assert v.status in ("distinguishable", "not_found")

    def test_non_qubit_pair_still_exact(self):
        w3 = np.exp(2j * np.pi / 3)
        clock = np.diag([1.0, w3, w3 * w3])
        s = ProductUnitarySet((3, 2), (("a", np.eye(3), I2),
                                       ("b", clock, I2)))
        v = check_gda_separable(s)
        assert v.status == "distinguishable"
        succ = verify_probe([s.global_unitary(i) for i in range(2)],
                            v.witness)
        assert np.all(np.abs(succ - 1.0) < 1e-9)

    def test_random_qubit_verdicts_sound(self):
        # whatever the verdict, any produced witness must verify perfectly
        rng = np.random.default_rng(91)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            items = tuple((f"u{i}", haar_unitary(2, rng).matrix,
                           haar_unitary(2, rng).matrix) for i in range(m))
            s = ProductUnitarySet((2, 2), items)
            v = check_gda_separable(s)
            if v.status == "distinguishable":
                if isinstance(v.witness, ProbeWitness):
                    succ = verify_probe(
                        [s.global_unitary(i) for i in range(m)], v.witness)
                    assert np.all(np.abs(succ - 1.0) < 1e-9)
                else:
                    res = verify_tree(s, v.witness)
                    assert np.all(np.abs(res.success - 1.0) < 1e-9)


class TestCompletionScreen:
    def test_one_ray_needs_no_lp(self, monkeypatch):
        def no_lp(*args):
            raise AssertionError("completion LP ran")

        monkeypatch.setattr("unidisc.simplex.feasible_point", no_lp)
        assert separable._completion_lp([np.array([1.0, 0.0], dtype=complex)]) is None
        assert separable._completion_lp([]) is None

    def test_one_ray_lp_is_infeasible(self):
        # the screened-out LP: one weighted rank-1 kernel projector set equal
        # to the identity, which no weight achieves
        rng = np.random.default_rng(8)
        for _ in range(200):
            ray = rng.normal(size=2) + 1j * rng.normal(size=2)
            kr = separable._kernel_ray(ray / np.linalg.norm(ray))
            p = np.outer(kr, kr.conj())
            a_eq = np.array([[p[0, 0].real], [p[1, 1].real], [p[0, 1].real], [p[0, 1].imag]])
            assert feasible_point(a_eq, [1.0, 1.0, 0.0, 0.0]).status == "infeasible"


class TestSequentialTree:
    def test_class_of_every_input_and_remainder_outcome(self):
        # A's factors are diagonal, so the probe |0> evolves to |0> under
        # each: one class holds every input, and its kernel weight 1/2 leaves
        # the remainder diag(1, 1/2) as an outcome of its own
        s = ProductUnitarySet((2, 2), (("I", I2, I2), ("Z", Z, X),
                                       ("S", np.diag([1.0, 1j]), H)))
        ket0 = np.array([1.0, 0.0], dtype=complex)
        tree = separable._sequential_tree(SetAnalysis(s), "A", "B", ket0,
                                          [(ket0, [0, 1, 2])], [0.5])
        assert np.allclose(check_povm(tree.povm, 2),
                           [np.diag([0.0, 0.5]), np.diag([1.0, 0.5])], atol=0)
        assert [(br.retained, br.guess, br.stage2) for br in tree.branches] == \
            [((), None, None)] * 2
        res = verify_tree(s, tree)
        # every input lands on the remainder outcome, which eliminates all
        assert np.array_equal(res.stage1_probs, [[0.0, 1.0]] * 3)
        assert np.array_equal(res.leakage, res.stage1_probs[:, 1])
        assert np.array_equal(res.success, np.zeros(3))
