"""Serialization round trips and malformed-input diagnostics."""

import json
import math

import numpy as np
import pytest

from unidisc.families import (
    PhasePairParams,
    pauli_hadamard_set,
    pauli_hadamard_tree,
    phase_pair_set,
    qutrit_quartet_set,
)
from unidisc.jsonio import (
    FormatError,
    certificate_from_json,
    complex_from_json,
    complex_to_json,
    dumps,
    feasibility_to_json,
    matrix_from_json,
    matrix_to_json,
    probe_witness_from_json,
    probe_witness_to_json,
    seesaw_to_json,
    set_from_json,
    set_to_json,
    tree_from_json,
    tree_to_json,
    vector_from_json,
    vector_to_json,
    verdict_to_json,
    witness_from_json,
    witness_to_json,
)
from unidisc.probefeas import (
    OrthogonalityProblem,
    common_probe_feasible,
    verify_certificate,
)
from unidisc.protocols import check_gdr, verify_probe, verify_tree
from unidisc.seesaw import run_seesaw


class TestDumps:
    def test_canonical_layout(self):
        text = dumps({"b": 1, "a": [1, 2]})
        assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_identical_structures_identical_bytes(self):
        a = dumps({"x": [1.5, -2.0], "y": "s"})
        b = dumps(dict(sorted({"y": "s", "x": [1.5, -2.0]}.items(), reverse=True)))
        assert a == b

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dumps({"x": float("nan")})


class TestScalars:
    def test_complex_round_trip(self):
        for z in (0j, 1 + 2j, -0.5 - 0.25j):
            assert complex_from_json(complex_to_json(z), "z") == z

    def test_complex_rejects_bad_shapes(self):
        with pytest.raises(FormatError, match="z"):
            complex_from_json([1.0], "z")
        with pytest.raises(FormatError, match="pair"):
            complex_from_json("1+2j", "z")
        with pytest.raises(FormatError):
            complex_from_json([True, 0.0], "z")


class TestArrays:
    def test_matrix_round_trip(self):
        m = np.array([[1, 1j], [-1j, 0.5]])
        assert np.array_equal(matrix_from_json(matrix_to_json(m), "m"), m)

    def test_matrix_ragged_names_row(self):
        data = [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]
        with pytest.raises(FormatError, match=r"m\[1\]"):
            matrix_from_json(data, "m")

    def test_matrix_bad_entry_names_cell(self):
        data = [[[1.0, 0.0], "x"]]
        with pytest.raises(FormatError, match=r"m\[0\]\[1\]"):
            matrix_from_json(data, "m")

    def test_matrix_empty_rejected(self):
        with pytest.raises(FormatError, match="m"):
            matrix_from_json([], "m")

    def test_vector_round_trip(self):
        v = np.array([1j, 2.0, -3.5 + 0.5j])
        assert np.array_equal(vector_from_json(vector_to_json(v), "v"), v)

    def test_vector_bad_entry_names_index(self):
        with pytest.raises(FormatError, match=r"v\[1\]"):
            vector_from_json([[1.0, 0.0], None], "v")


class TestSetCodec:
    def test_round_trip(self):
        uset = pauli_hadamard_set()
        clone = set_from_json(set_to_json(uset))
        assert clone.party_dims == uset.party_dims
        assert list(clone.labels) == list(uset.labels)
        assert np.allclose(clone.priors, uset.priors)
        for i in range(uset.size):
            assert np.allclose(clone.global_unitary(i), uset.global_unitary(i))

    def test_round_trip_through_text(self):
        uset = qutrit_quartet_set()
        clone = set_from_json(json.loads(dumps(set_to_json(uset))))
        for i in range(uset.size):
            assert np.allclose(clone.global_unitary(i), uset.global_unitary(i))

    def test_missing_dims_named(self):
        with pytest.raises(FormatError, match="party_dims"):
            set_from_json({"items": []})

    def test_boolean_dims_rejected(self):
        data = set_to_json(pauli_hadamard_set())
        data["party_dims"] = [True, 2]
        with pytest.raises(FormatError, match="party_dims"):
            set_from_json(data)

    def test_bad_factor_entry_path(self):
        data = set_to_json(pauli_hadamard_set())
        data["items"][0]["A"][0][1] = "oops"
        with pytest.raises(FormatError, match=r"items\[0\]\.A\[0\]\[1\]"):
            set_from_json(data)

    def test_non_unitary_factor_rejected(self):
        data = set_to_json(pauli_hadamard_set())
        data["items"][2]["B"] = matrix_to_json(np.array([[1, 0], [0, 2.0]]))
        with pytest.raises(FormatError, match="unitary"):
            set_from_json(data)

    def test_priors_length_checked(self):
        data = set_to_json(pauli_hadamard_set())
        data["priors"] = [0.5, 0.5]
        with pytest.raises(FormatError, match="priors"):
            set_from_json(data)


class TestTreeCodec:
    @pytest.mark.parametrize("start", ["A", "B"])
    def test_round_trip_still_verifies(self, start):
        uset = pauli_hadamard_set()
        tree = tree_from_json(tree_to_json(pauli_hadamard_tree(start)))
        res = verify_tree(uset, tree)
        assert np.all(np.abs(np.asarray(res.success) - 1.0) < 1e-9)

    def test_bad_start_named(self):
        data = tree_to_json(pauli_hadamard_tree("A"))
        data["start"] = "Q"
        with pytest.raises(FormatError, match="start"):
            tree_from_json(data)

    def test_branch_count_must_match_povm(self):
        data = tree_to_json(pauli_hadamard_tree("A"))
        data["branches"] = data["branches"][:-1]
        with pytest.raises(FormatError, match="branches"):
            tree_from_json(data)

    def test_stage2_guess_type_checked(self):
        data = tree_to_json(pauli_hadamard_tree("A"))
        data["branches"][2]["stage2"]["guesses"][0] = "zero"
        with pytest.raises(FormatError, match=r"guesses\[0\]"):
            tree_from_json(data)
        # a one-shot probe witness reads its guesses through the same check
        uset = phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, math.pi - 1.7))
        witness = check_gdr(uset).witness
        for k, bad in enumerate(["x", 2.5]):
            data = probe_witness_to_json(witness)
            data["guesses"][k] = bad
            with pytest.raises(FormatError, match=rf"witness\.guesses\[{k}\]"):
                probe_witness_from_json(data)

    def test_boolean_ancilla_rejected(self):
        data = tree_to_json(pauli_hadamard_tree("A"))
        data["ancilla_dim"] = True
        with pytest.raises(FormatError, match="ancilla_dim"):
            tree_from_json(data)


class TestBooleanIndicesRejected:
    # JSON true/false decode as Python bools, which are ints; an index
    # field must not read them as 1/0

    def test_stage2_guess(self):
        data = tree_to_json(pauli_hadamard_tree("A"))
        data["branches"][2]["stage2"]["guesses"][0] = False
        with pytest.raises(FormatError, match=r"branches\[2\]\.stage2\.guesses\[0\]"):
            tree_from_json(data)

    def test_probe_witness_guess(self):
        uset = phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, math.pi - 1.7))
        data = probe_witness_to_json(check_gdr(uset).witness)
        data["guesses"][1] = True
        with pytest.raises(FormatError, match=r"witness\.guesses\[1\]"):
            probe_witness_from_json(data)

    def test_branch_retained(self):
        data = tree_to_json(pauli_hadamard_tree("A"))
        data["branches"][1]["retained"] = [True]
        with pytest.raises(FormatError, match=r"branches\[1\]\.retained"):
            tree_from_json(data)

    def test_branch_guess(self):
        data = tree_to_json(pauli_hadamard_tree("A"))
        data["branches"][1]["guess"] = True
        with pytest.raises(FormatError, match=r"branches\[1\]\.guess"):
            tree_from_json(data)

    def test_certificate_op_indices(self):
        ops = [np.eye(2), np.diag([1.0, np.exp(1j * np.pi / 4)])]
        data = feasibility_to_json(common_probe_feasible(
            OrthogonalityProblem(2, ops)))["certificate"]
        data["op_indices"] = [False, True]
        with pytest.raises(FormatError, match="op_indices"):
            certificate_from_json(data)


class TestWitnessCodec:
    def _probe_witness(self):
        uset = phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, math.pi - 1.7))
        verdict = check_gdr(uset)
        assert verdict.status == "distinguishable"
        return uset, verdict.witness

    def test_probe_witness_round_trip_verifies(self):
        uset, witness = self._probe_witness()
        clone = probe_witness_from_json(probe_witness_to_json(witness))
        ops = [uset.global_unitary(i) for i in range(uset.size)]
        assert np.all(np.abs(verify_probe(ops, clone) - 1.0) < 1e-9)

    def test_tagged_forms(self):
        _, witness = self._probe_witness()
        tagged = witness_to_json(witness)
        assert tagged["kind"] == "probe"
        assert isinstance(witness_from_json(tagged).probe.amplitudes, np.ndarray)
        tree_tagged = witness_to_json(pauli_hadamard_tree("A"))
        assert tree_tagged["kind"] == "tree"
        assert witness_from_json(tree_tagged).start == "A"
        assert witness_to_json(None) is None
        assert witness_from_json(None) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError, match="kind"):
            witness_from_json({"kind": "hologram"})


class TestFeasibilityCodec:
    def test_none_passthrough(self):
        assert feasibility_to_json(None) is None

    def test_certificate_survives_round_trip(self):
        ops = [np.eye(2), np.diag([1.0, np.exp(1j * np.pi / 4)])]
        feas = common_probe_feasible(OrthogonalityProblem(2, ops))
        assert feas.status == "infeasible_certified"
        data = feasibility_to_json(feas)
        cert = certificate_from_json(data["certificate"])
        problem = OrthogonalityProblem(2, ops)
        assert verify_certificate(problem, cert) >= 1.0 - 1e-9

    def test_certificate_field_errors(self):
        with pytest.raises(FormatError, match="op_indices"):
            certificate_from_json({"coeffs": [], "min_eig": 1.0})
        with pytest.raises(FormatError, match="coeffs"):
            certificate_from_json({"op_indices": [0], "coeffs": [], "min_eig": 1.0})

    def test_verdict_shape(self):
        uset = phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, math.pi - 1.7))
        data = verdict_to_json(check_gdr(uset))
        assert data["strategy"] == "GDR"
        assert data["status"] == "distinguishable"
        assert data["witness"]["kind"] == "probe"
        text = dumps(data)
        assert text == dumps(json.loads(text))


class TestSeesawCodec:
    def test_seesaw_report_shape(self):
        from unidisc.seesaw import EliminationTask

        t = np.diag([1.0, np.exp(1j * np.pi / 4)])
        task = EliminationTask(dim=2, arms=((np.eye(2),), (t,)))
        res = run_seesaw(task, restarts=2, seed=0)
        data = seesaw_to_json(res, restarts=2)
        assert data["restarts"] == 2
        assert len(data["per_restart"]) == 2
        assert {"value", "sweeps"} <= set(data["per_restart"][0])
        back = matrix_from_json(data["rho"], "rho")
        assert np.allclose(back, res.rho.matrix)
