"""Built-in example families and random instance generators.

Expected evolved states are written out as literal amplitude vectors so the
checks do not reuse the library's own constructors.
"""

import math

import numpy as np
import pytest

from unidisc.families import (
    CLOCK3,
    FLIP3,
    H,
    HX,
    I2,
    I3,
    PHI_PLUS,
    PHI_MINUS,
    PSI_PLUS,
    PSI_MINUS,
    H_PSI_PLUS,
    H_PSI_MINUS,
    SNAP_GATES,
    X,
    Z,
    PhasePairParams,
    choi_state,
    diag_phase,
    ket,
    maximally_entangled,
    pauli_hadamard_set,
    pauli_hadamard_tree,
    phase_pair_set,
    qutrit_quartet_set,
    qutrit_quartet_tree,
    random_pair,
    random_qubit_set,
    uniform_superposition,
)
from unidisc.eigdist import min_convex_norm, pair_distinguishable
from unidisc.protocols import check_gdr, verify_tree

RT2 = 1.0 / math.sqrt(2.0)

# literal two-qubit states in the |00>,|01>,|10>,|11> ordering
LIT_PHI_PLUS = np.array([RT2, 0, 0, RT2], dtype=complex)
LIT_PHI_MINUS = np.array([RT2, 0, 0, -RT2], dtype=complex)
LIT_PSI_PLUS = np.array([0, RT2, RT2, 0], dtype=complex)
LIT_PSI_MINUS = np.array([0, -RT2, RT2, 0], dtype=complex)
# (|+0> + |-1>)/sqrt2 and (|-0> + |+1>)/sqrt2 with |+-> = (|0> +- |1>)/sqrt2
LIT_H_PLUS = 0.5 * np.array([1, 1, 1, -1], dtype=complex)
LIT_H_MINUS = 0.5 * np.array([1, 1, -1, 1], dtype=complex)


class TestConstants:
    def test_single_qubit_gates(self):
        assert np.allclose(H @ H, I2)
        assert np.allclose(HX, H @ X)
        assert np.allclose(X @ Z, -Z @ X)

    def test_qutrit_gates(self):
        assert np.allclose(np.linalg.matrix_power(CLOCK3, 3), I3)
        assert np.allclose(FLIP3 @ FLIP3, I3)

    def test_bell_states_literal(self):
        assert np.allclose(PHI_PLUS, LIT_PHI_PLUS, atol=1e-12)
        assert np.allclose(PHI_MINUS, LIT_PHI_MINUS, atol=1e-12)
        assert np.allclose(PSI_PLUS, LIT_PSI_PLUS, atol=1e-12)
        assert np.allclose(PSI_MINUS, LIT_PSI_MINUS, atol=1e-12)
        assert np.allclose(H_PSI_PLUS, LIT_H_PLUS, atol=1e-12)
        assert np.allclose(H_PSI_MINUS, LIT_H_MINUS, atol=1e-12)

    def test_helpers(self):
        assert np.allclose(ket(1, 3), [0, 1, 0])
        assert np.allclose(uniform_superposition(4), np.full(4, 0.5))
        me = maximally_entangled(3)
        assert np.isclose(np.linalg.norm(me), 1.0)
        assert np.allclose(choi_state(np.eye(3)), me)
        assert np.allclose(diag_phase([0.0, np.pi]), np.diag([1, -1]))


class TestPhasePairFamily:
    def test_params_validate_range(self):
        PhasePairParams(0.3, 0.5, 0.9, math.pi - 1.7)
        with pytest.raises(ValueError, match="alpha"):
            PhasePairParams(0.0, 0.5, 0.9, math.pi - 1.4)
        with pytest.raises(ValueError, match="delta"):
            PhasePairParams(0.3, 0.3, 0.3, math.pi - 0.9)

    def test_params_validate_sum(self):
        with pytest.raises(ValueError, match="sum"):
            PhasePairParams(0.3, 0.3, 0.3, 0.3)

    def test_globally_but_not_locally_distinguishable(self):
        params = PhasePairParams(0.3, 0.5, 0.9, math.pi - 1.7)
        uset = phase_pair_set(params)
        assert uset.size == 2
        assert uset.party_dims == (2, 2)
        # joint relative phases are {0, b+d, a+c, pi}: the antipodal pair
        # puts the origin in the hull even though the trace never vanishes
        rel = uset.global_unitary(0).conj().T @ uset.global_unitary(1)
        phases = np.sort(np.angle(np.linalg.eigvals(rel)) % (2 * np.pi))
        assert np.isclose(phases[0], 0.0, atol=1e-12)
        assert np.any(np.abs(phases - np.pi) < 1e-12)
        assert min_convex_norm(phases).min_norm < 1e-12
        assert check_gdr(uset).status == "distinguishable"
        for party in "AB":
            a = uset.factor(0, party)
            b = uset.factor(1, party)
            assert not pair_distinguishable(a, b).distinguishable
            local = np.angle(np.linalg.eigvals(a.conj().T @ b))
            assert min_convex_norm(local).min_norm > 1e-3

    def test_factor_phases(self):
        params = PhasePairParams(0.4, 0.6, 0.8, math.pi - 1.8)
        uset = phase_pair_set(params)
        a1 = uset.factor(0, "A")
        a2 = uset.factor(1, "A")
        assert np.isclose(np.angle(a1[1, 1]), -0.4)
        assert np.isclose(np.angle(a2[1, 1]), 0.8)


class TestQutritQuartet:
    def test_set_structure(self):
        uset = qutrit_quartet_set()
        assert uset.size == 4
        assert uset.party_dims == (3, 3)
        assert list(uset.labels) == ["V1", "V2", "V3", "V4"]
        for party in "AB":
            for i in range(4):
                for j in range(4):
                    fi = uset.factor(i, party)
                    fj = uset.factor(j, party)
                    assert np.allclose(fi @ fj, fj @ fi)

    def test_tree_verifies_exactly(self):
        uset = qutrit_quartet_set()
        res = verify_tree(uset, qutrit_quartet_tree())
        assert np.all(np.abs(np.asarray(res.success) - 1.0) < 1e-9)
        assert np.max(res.leakage) < 1e-9

    def test_third_outcome_never_fires(self):
        uset = qutrit_quartet_set()
        res = verify_tree(uset, qutrit_quartet_tree())
        probs = np.asarray(res.stage1_probs)
        assert probs.shape == (4, 3)
        assert np.max(probs[:, 2]) < 1e-12


class TestPauliHadamardQuintet:
    def test_set_structure(self):
        uset = pauli_hadamard_set()
        assert uset.size == 5
        assert uset.party_dims == (2, 2)
        assert list(uset.labels) == ["W1", "W2", "W3", "W4", "W5"]
        a_expected = (I2, Z, X, X, X @ Z)
        b_expected = (I2, X, H, HX, H)
        for i in range(5):
            assert np.allclose(uset.factor(i, "A"), a_expected[i])
            assert np.allclose(uset.factor(i, "B"), b_expected[i])

    def test_evolved_state_table(self):
        """Each factor applied to half of a maximally entangled pair."""
        uset = pauli_hadamard_set()
        a_evolved = [LIT_PHI_PLUS, LIT_PHI_MINUS, LIT_PSI_PLUS,
                     LIT_PSI_PLUS, LIT_PSI_MINUS]
        b_evolved = [LIT_PHI_PLUS, LIT_PSI_PLUS, LIT_H_PLUS,
                     LIT_H_MINUS, LIT_H_PLUS]
        for i in range(5):
            got_a = np.kron(uset.factor(i, "A"), I2) @ LIT_PHI_PLUS
            got_b = np.kron(uset.factor(i, "B"), I2) @ LIT_PHI_PLUS
            assert np.max(np.abs(got_a - a_evolved[i])) < 1e-10
            assert np.max(np.abs(got_b - b_evolved[i])) < 1e-10

    @pytest.mark.parametrize("start", ["A", "B"])
    def test_trees_verify_exactly(self, start):
        uset = pauli_hadamard_set()
        res = verify_tree(uset, pauli_hadamard_tree(start))
        assert np.all(np.abs(np.asarray(res.success) - 1.0) < 1e-9)

    def test_bad_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            pauli_hadamard_tree("C")


class TestRandomInstances:
    def test_snap_gates_distinct_unitaries(self):
        assert len(SNAP_GATES) == 8
        for g in SNAP_GATES:
            assert np.allclose(g.conj().T @ g, I2)
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.max(np.abs(SNAP_GATES[i] - SNAP_GATES[j])) > 1e-6

    def test_random_pair_deterministic(self):
        u1, v1 = random_pair(np.random.default_rng(5), 3)
        u2, v2 = random_pair(np.random.default_rng(5), 3)
        assert np.allclose(u1.matrix, u2.matrix)
        assert np.allclose(v1.matrix, v2.matrix)
        assert not np.allclose(u1.matrix, v1.matrix)

    def test_random_qubit_set_snaps_to_alphabet(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            uset = random_qubit_set(rng)
            assert 2 <= uset.size <= 4
            for i in range(uset.size):
                for party in "AB":
                    f = uset.factor(i, party)
                    assert any(np.allclose(f, g) for g in SNAP_GATES)

    def test_random_qubit_set_deterministic(self):
        a = random_qubit_set(np.random.default_rng(3))
        b = random_qubit_set(np.random.default_rng(3))
        assert a.size == b.size
        for i in range(a.size):
            assert np.allclose(a.global_unitary(i), b.global_unitary(i))