"""Serialization round trips and malformed-input diagnostics."""

import json
import math

import numpy as np
import pytest

from unidisc import jsonio
from unidisc.families import (
    PhasePairParams,
    pauli_hadamard_set,
    pauli_hadamard_tree,
    phase_pair_set,
    qutrit_quartet_set,
    random_qubit_set,
)
from unidisc.jsonio import (
    FormatError,
    certificate_from_json,
    complex_from_json,
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
from unidisc.protocols import (
    ProjectivePOVM,
    ProtocolTree,
    check_gdr,
    check_lda,
    hierarchy_audit,
    verify_probe,
    verify_tree,
)
from unidisc.seesaw import EliminationTask, run_seesaw

HUGE = 10 ** 400  # a JSON integer outside float range


def stdlib_dumps(obj) -> str:
    """The canonical form by definition: the oracle for ``dumps``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def per_entry_matrix(data) -> np.ndarray:
    """The per-entry decoding the array-native decoders replaced."""
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in data],
                    dtype=complex)


def _seesaw_result():
    t = np.diag([1.0, np.exp(1j * np.pi / 4)])
    task = EliminationTask(dim=2, arms=((np.eye(2),), (t,)))
    return run_seesaw(task, restarts=2, seed=0)


def _circular_list():
    a = [1.0, [2.0]]
    a[1].append(a)
    return a


def _circular_dict():
    d = {"x": [1.0]}
    d["y"] = [d]
    return d


@pytest.fixture(scope="module")
def audit_verdicts():
    """Every hierarchy_audit verdict on the builtins and 20 random qubit sets."""
    sets = [phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, math.pi - 1.7)),
            qutrit_quartet_set(), pauli_hadamard_set()]
    rng = np.random.default_rng(0)
    sets += [random_qubit_set(rng) for _ in range(20)]
    return [verdict for uset in sets for _, verdict in hierarchy_audit(uset)]


class TestDumpsMatchesStdlib:
    def test_audit_verdicts(self, audit_verdicts):
        assert len(audit_verdicts) == 160
        for verdict in audit_verdicts:
            data = verdict_to_json(verdict)
            assert dumps(data) == stdlib_dumps(data)

    def test_sets_and_seesaw(self):
        for uset in (qutrit_quartet_set(), pauli_hadamard_set()):
            data = set_to_json(uset)
            assert dumps(data) == stdlib_dumps(data)
        data = seesaw_to_json(_seesaw_result(), restarts=2)
        assert dumps(data) == stdlib_dumps(data)

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], [{}], [[], []], {"a": [], "b": {}}, [[[]]], [{"x": [[]]}],
        -0.0, 5e-324, 1e16, [-0.0, 5e-324, 1e16, 1.5e-7], [[[-0.0, 5e-324]], [[1e16, 0.0]]],
        [[1, 2.5], [True, None]], [[[1, 0.0], [False, 2]]], 10 ** 30, [10 ** 30, 1.0],
        [[1.0, 2.0], [3.0]], [[1.0, 2.0], 3.0], [[1.0], [[2.0]]], [[[1.0, 2.0]], [[3.0]]],
        (1.0, 2.0), [(1.0, 2.0), [3.0, 4.0]], ((1, 2), (3, 4)),
        "tab\t \"quote\" \\ caf\u00e9 \u2603 \U0001F600", {"k\u00e9y": ["v\n", "\u00ff"]},
        [["a", "b"], ["c", "d"]], [[1.0, "x,y"]],
        {"b": 1, "a": {"d": [1, 2], "c": None}}, {2: "x", 1: "y"}, {1.5: 0, 0.5: 1},
        {True: 1}, {None: [1.0]}, [[[[1.0]]]],
        # subnormals and the float extremes
        [[5e-324, -5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308],
         [1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-7, 0.1 + 0.2]],
        # blocks that hold more than floats
        [[1.0, 0.5], [1, 1.0, True], [None, 0.5], [[1.0, 1], [0.5, None]], [1, 2, 3]],
        # signed zeros, alone and in blocks
        [0.0, -0.0, 0.0], [-0.0], [[0.0]], [[-0.0, -0.0], [0.0, -0.0]],
        [[[0.0, -0.0]], [[-0.0, 0.0]]],
        # np.float64 leaves, alone and among floats of the same bits
        [np.float64(0.1), np.float64(-0.0)], [[np.float64(1e16), 1e16]],
        [0.1, np.float64(0.1)], [[np.float64(5e-324)], [np.float64(2.5)]],
        # a long block with recurring floats
        [[k + 0.25 for k in range(2055)] + [0.25, 1.25, -0.0, 0.0]],
    ])
    def test_edge_cases(self, obj):
        assert dumps(obj) == stdlib_dumps(obj)

    def test_numpy_float_encodes_as_stdlib(self):
        obj = {"x": np.float64(0.1), "m": [[np.float64(-0.0), 1.0]]}
        assert dumps(obj) == stdlib_dumps(obj)

    @pytest.mark.parametrize("obj", [np.int64(1), [np.int64(1)], [[np.int64(1), 2]],
                                     {"a": object()}, {(1, 2): 3}, np.zeros(2)])
    def test_type_error_as_stdlib(self, obj):
        with pytest.raises(TypeError) as ours:
            dumps(obj)
        with pytest.raises(TypeError) as theirs:
            stdlib_dumps(obj)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("obj", [math.nan, [math.inf], [[1.0, -math.inf]],
                                     {"m": [[[0.0, math.nan]]]}, {math.nan: 1},
                                     _circular_list(), {"a": [{"b": _circular_dict()}]},
                                     # non-finite values inside blocks
                                     [1.5, math.nan], [[-math.inf, 2.5]],
                                     {"m": [[[1.5, -0.0], [0.0, math.inf]]]},
                                     [[1.5, -0.0], [2.5, -math.nan]]])
    def test_value_error_as_stdlib(self, obj):
        with pytest.raises(ValueError) as ours:
            dumps(obj)
        with pytest.raises(ValueError) as theirs:
            stdlib_dumps(obj)
        assert str(ours.value) == str(theirs.value)


class TestDumps:
    def test_canonical_layout(self):
        text = dumps({"b": 1, "a": [1, 2]})
        assert text == '{"a":[1,2],"b":1}\n'

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
            assert complex_from_json([z.real, z.imag], "z") == z

    def test_no_scalar_complex_encoder(self):
        # matrices and vectors encode whole arrays; no per-entry encoder is left
        assert not hasattr(jsonio, "complex_to_json")
        assert "complex_to_json" not in jsonio.__all__

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


class TestArrayDecoders:
    def test_match_per_entry_path(self, audit_verdicts):
        checked = 0
        for verdict in audit_verdicts:
            data = json.loads(dumps(verdict_to_json(verdict)))
            witness = data["witness"]
            if witness is None:
                continue
            block = witness.get("tree") or witness["probe_witness"]
            # a projective POVM travels as its states: build the matrix form
            for el in json.loads(dumps([matrix_to_json(el) for el in verdict.witness.povm])):
                got = matrix_from_json(el, "m")
                assert got.tobytes() == per_entry_matrix(el).tobytes()
                checked += 1
            got = vector_from_json(block["probe"], "v")
            assert got.tobytes() == per_entry_matrix([block["probe"]])[0].tobytes()
        assert checked > 100

    def test_stacked_povm_matches_per_matrix_path(self, audit_verdicts, monkeypatch):
        blocks = []
        for verdict in audit_verdicts:
            witness = verdict.witness
            if witness is not None:
                for obj in (witness, *(br.stage2 for br in getattr(witness, "branches", ())
                                       if br.stage2 is not None)):
                    # the matrix form, which a projective POVM is not written in
                    block = jsonio._probe_block_to_json(obj)
                    block["povm"] = [matrix_to_json(el) for el in obj.povm]
                    blocks.append(json.loads(dumps(block)))
        want = [[matrix_from_json(el, "m") for el in block["povm"]] for block in blocks]
        # every audit POVM decodes as one stack, without the per-matrix path
        monkeypatch.setattr(jsonio, "matrix_from_json", None)
        for block, mats in zip(blocks, want):
            got = jsonio._probe_block_from_json(block, "w", guesses="guesses" in block)["povm"]
            assert [(m.dtype, m.shape, m.tobytes()) for m in got] == [
                (m.dtype, m.shape, m.tobytes()) for m in mats]
        assert len(blocks) > 100

    @staticmethod
    def _witness_with_povm(povm):
        good = [[1.0, 0.0], [0.0, 0.0]]
        return {"kind": "probe", "probe_witness": {"probe": good, "ancilla_dim": 1,
                                                   "povm": povm, "guesses": [0] * len(povm)}}

    @pytest.mark.parametrize("fault, message", [
        (lambda el: el[0].__setitem__(1, [True, 0.0]), r"\[1\]\[0\]\[1\]: expected a \[re, im\]"),
        (lambda el: el[0].__setitem__(1, ["0", 0.0]), r"\[1\]\[0\]\[1\]: expected a \[re, im\]"),
        (lambda el: el[0].__setitem__(1, None), r"\[1\]\[0\]\[1\]: expected a \[re, im\]"),
        (lambda el: el[0].__setitem__(1, [0.0, None]), r"\[1\]\[0\]\[1\]: expected a \[re, im\]"),
        (lambda el: el[1].__setitem__(0, [HUGE, 0.0]), r"\[1\]\[1\]\[0\]: number out of float range"),
        (lambda el: el[1].__setitem__(1, [0.0, math.nan]), r"\[1\]\[1\]\[1\]: number is not finite"),
        (lambda el: el[1].pop(), r"\[1\]\[1\]: ragged row of length 1, expected 2"),
        (lambda el: el.__setitem__(1, []), r"\[1\]\[1\]: expected a non-empty row"),
        (lambda el: el.clear(), r"\[1\]: expected a non-empty list of rows"),
    ])
    def test_stacked_povm_faults_named(self, fault, message):
        povm = [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]] for _ in range(3)]
        fault(povm[1])
        with pytest.raises(FormatError, match=r"^witness\.probe_witness\.povm" + message):
            witness_from_json(self._witness_with_povm(povm))
        with pytest.raises(FormatError, match=r"^witness\.probe_witness\.povm\[1\]"):
            witness_from_json(self._witness_with_povm([povm[0], "x"] + povm[1:]))

    def test_povm_of_unequal_shapes_decodes_per_matrix(self):
        el2 = [[[0.5, 0.0], [0.0, -0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        el3 = [[[1, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 3
        for povm in ([el2, el3], [el3, el2, el2], [el2, el2[:1]], [el2, [row[:1] for row in el2]]):
            got = witness_from_json(self._witness_with_povm(povm)).povm
            assert [m.tobytes() for m in got] == [per_entry_matrix(el).tobytes() for el in povm]
            assert [m.shape for m in got] == [per_entry_matrix(el).shape for el in povm]

    def test_signed_zeros_and_ints_survive(self):
        data = [[[-0.0, -0.0], [0.0, -0.0]], [[1, -0.0], [-0.0, 2]]]
        got = matrix_from_json(data, "m")
        assert got.tobytes() == per_entry_matrix(data).tobytes()
        assert got.dtype == complex and got.shape == (2, 2)
        assert vector_from_json(data[0], "v").tobytes() == per_entry_matrix(data)[0].tobytes()
        as_floats = [[[float(x) for x in z] for z in row] for row in data]
        assert json.dumps(matrix_to_json(got)) == json.dumps(as_floats)
        assert json.dumps(vector_to_json(got[0])) == json.dumps(as_floats[0])

    def test_tuples_and_numpy_scalars_accepted(self):
        data = [[(1.0, np.float64(-0.0)), [0, 1]]]
        assert matrix_from_json(data, "m").tobytes() == per_entry_matrix(data).tobytes()

    @pytest.mark.parametrize("bad", [True, "x", None, [1.0], [1.0, 2.0, 3.0],
                                     [True, 0.0], [0.0, None], ["1", 0.0], {"re": 1}])
    def test_bad_entry_path(self, bad):
        good = [0.0, 0.0]
        with pytest.raises(FormatError, match=r"^m\[1\]\[0\]: expected a \[re, im\]"):
            matrix_from_json([[good, good], [bad, good]], "m")
        with pytest.raises(FormatError, match=r"^v\[1\]: expected a \[re, im\]"):
            vector_from_json([good, bad], "v")

    def test_first_error_in_row_major_order(self):
        good = [0.0, 0.0]
        # an entry of row 0 is reported before the ragged row 1
        with pytest.raises(FormatError, match=r"^m\[0\]\[1\]:"):
            matrix_from_json([[good, "x"], [good]], "m")
        with pytest.raises(FormatError, match=r"^m\[1\]: ragged"):
            matrix_from_json([[good, good], [good], ["x"]], "m")
        with pytest.raises(FormatError, match=r"^m\[1\]: expected a non-empty row"):
            matrix_from_json([[good], []], "m")

    def test_overflow_matrix(self):
        with pytest.raises(FormatError, match=r"^m\[1\]\[0\]: number out of float range"):
            matrix_from_json([[[1.0, 0.0]], [[HUGE, 0.0]]], "m")

    def test_overflow_vector(self):
        with pytest.raises(FormatError, match=r"^v\[0\]: number out of float range"):
            vector_from_json([[0.0, -HUGE], [1.0, 0.0]], "v")

    def test_overflow_complex(self):
        with pytest.raises(FormatError, match=r"^z: number out of float range"):
            complex_from_json([HUGE, 0], "z")

    def test_overflow_certificate(self):
        ops = [np.eye(2), np.diag([1.0, np.exp(1j * np.pi / 4)])]
        data = feasibility_to_json(common_probe_feasible(
            OrthogonalityProblem(2, ops)))["certificate"]
        with pytest.raises(FormatError,
                           match=r"^certificate\.coeffs\[1\]: number out of float range$"):
            certificate_from_json({**data, "coeffs": data["coeffs"][:1] + [HUGE]
                                   + data["coeffs"][2:]})
        with pytest.raises(FormatError,
                           match=r"^certificate\.min_eig: number out of float range$"):
            certificate_from_json({**data, "min_eig": -HUGE})

    def test_certificate_coefficients_keep_numpy_bytes(self):
        # each coefficient is checked on its own, and an integer still
        # rounds to the float64 numpy gives it
        coeffs = [0, -0.0, 2 ** 53 + 1, -(2 ** 60 + 1), 10 ** 300 + 12345, 0.1]
        cert = certificate_from_json({"op_indices": [0, 1, 2], "coeffs": coeffs,
                                      "min_eig": 2 ** 53 + 1})
        assert cert.coeffs.tobytes() == np.array(coeffs, dtype=float).tobytes()
        assert cert.min_eig == float(2 ** 53 + 1)


    # json.loads reads all three: NaN, Infinity and 1e999 (which becomes inf)
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_entry_named(self, text):
        x = json.loads(text)
        good = [0.0, 0.0]
        with pytest.raises(FormatError, match=r"^m\[0\]\[1\]: number is not finite"):
            matrix_from_json([[good, [0.0, x]]], "m")
        with pytest.raises(FormatError, match=r"^m\[1\]\[0\]: number is not finite"):
            matrix_from_json([[good], [[x, 0.0]]], "m")
        with pytest.raises(FormatError, match=r"^v\[1\]: number is not finite"):
            vector_from_json([good, [x, 0.0]], "v")
        with pytest.raises(FormatError, match=r"^z: number is not finite"):
            complex_from_json([0.0, x], "z")

    def test_non_finite_certificate_named(self):
        ops = [np.eye(2), np.diag([1.0, np.exp(1j * np.pi / 4)])]
        data = feasibility_to_json(common_probe_feasible(
            OrthogonalityProblem(2, ops)))["certificate"]
        coeffs = data["coeffs"][:1] + [json.loads("NaN")] + data["coeffs"][2:]
        with pytest.raises(FormatError, match=r"^certificate\.coeffs\[1\]: number is not finite"):
            certificate_from_json({**data, "coeffs": coeffs})
        with pytest.raises(FormatError, match=r"^certificate\.min_eig: number is not finite"):
            certificate_from_json({**data, "min_eig": json.loads("1e999")})


class TestFieldErrors:
    """The message each decoder gives for one faulty field."""

    def test_vector_not_a_list(self):
        with pytest.raises(FormatError, match=r"^v: expected a non-empty list of entries$"):
            vector_from_json({"re": 1.0}, "v")

    def test_field_of_a_non_object(self):
        with pytest.raises(FormatError, match=r"^set: expected an object$"):
            set_from_json([1, 2])

    def test_set_items_not_a_list(self):
        data = set_to_json(pauli_hadamard_set())
        for items in ([], {"0": data["items"][0]}):
            with pytest.raises(FormatError, match=r"^set\.items: expected a non-empty list$"):
                set_from_json({**data, "items": items})

    def test_set_label_not_a_string(self):
        data = set_to_json(pauli_hadamard_set())
        data["items"][2]["label"] = 7
        with pytest.raises(FormatError, match=r"^set\.items\[2\]\.label: expected a string$"):
            set_from_json(data)

    def test_probe_witness_povm_not_a_list(self):
        data = probe_witness_to_json(TestWitnessCodec()._probe_witness()[1])
        with pytest.raises(FormatError, match=r"^witness\.povm: expected a non-empty list$"):
            probe_witness_from_json({**data, "povm": []})

    def test_probe_witness_guess_count(self):
        witness = TestWitnessCodec()._probe_witness()[1]
        data = probe_witness_to_json(witness)
        n = len(witness.povm)
        with pytest.raises(FormatError, match=rf"^witness\.guesses: expected {n} entries$"):
            probe_witness_from_json({**data, "guesses": data["guesses"][1:]})

    def test_witness_of_unknown_type(self):
        with pytest.raises(TypeError, match=r"^cannot serialize witness of type int$"):
            witness_to_json(3)

    @pytest.mark.parametrize("value", ["1.0", True, None, [1.0]])
    def test_certificate_min_eig_not_a_number(self, value):
        data = {"op_indices": [0], "coeffs": [1.0, 0.0], "min_eig": value}
        with pytest.raises(FormatError, match=r"^certificate\.min_eig: expected a number$"):
            certificate_from_json(data)


class TestSetCodec:
    def test_round_trip(self):
        uset = pauli_hadamard_set()
        clone = set_from_json(set_to_json(uset))
        assert clone.party_dims == uset.party_dims
        assert list(clone.labels) == list(uset.labels)
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

    def test_unknown_keys_ignored(self):
        # older files carry a "priors" key; no decision reads one
        uset = pauli_hadamard_set()
        data = {**set_to_json(uset), "priors": [1.0 / uset.size] * uset.size}
        assert "priors" not in set_to_json(set_from_json(data))


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

    def test_stage2_party_checked(self):
        data = tree_to_json(pauli_hadamard_tree("A"))
        data["branches"][2]["stage2"]["party"] = 5
        with pytest.raises(FormatError, match=r"tree\.branches\[2\]\.stage2\.party"):
            tree_from_json(data)

    def test_stage2_correction_must_be_null(self):
        data = tree_to_json(pauli_hadamard_tree("A"))
        data["branches"][2]["stage2"]["correction"] = None
        assert tree_from_json(data).branches[2].stage2.party == "B"
        data["branches"][2]["stage2"]["correction"] = matrix_to_json(np.eye(2))
        with pytest.raises(FormatError, match=r"tree\.branches\[2\]\.stage2\.correction"):
            tree_from_json(data)

    def test_note_must_be_string(self):
        data = tree_to_json(pauli_hadamard_tree("A"))
        data["note"] = 12
        with pytest.raises(FormatError, match=r"tree\.note"):
            tree_from_json(data)

    def test_bad_probe_named(self):
        data = tree_to_json(pauli_hadamard_tree("A"))
        data["probe"][1] = [math.nan, 0.0]
        with pytest.raises(FormatError, match=r"^tree\.probe\[1\]: number is not finite"):
            tree_from_json(data)
        data["probe"] = [[0.0, 0.0]] * 4
        with pytest.raises(FormatError, match=r"^tree\.probe: cannot normalize"):
            tree_from_json(data)
        data = tree_to_json(pauli_hadamard_tree("A"))
        data["branches"][2]["stage2"]["probe"] = [[0.0, 0.0]] * 4
        with pytest.raises(FormatError, match=r"^tree\.branches\[2\]\.stage2\.probe: "):
            tree_from_json(data)

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


def _blocks(witness):
    """The probe blocks of a witness: itself, and a tree's stage 2s."""
    if not isinstance(witness, ProtocolTree):
        return [witness]
    return [witness] + [br.stage2 for br in witness.branches if br.stage2 is not None]


def _without_probes(data):
    """Decoded JSON with every ``probe`` entry dropped."""
    if isinstance(data, dict):
        return {k: _without_probes(v) for k, v in data.items() if k != "probe"}
    if isinstance(data, list):
        return [_without_probes(v) for v in data]
    return data


@pytest.fixture(scope="module")
def projective_witnesses():
    """The witnesses of every audit row on the builtins and pool sets 0-99
    (random_qubit_set, rng 0), and the qutrit quartet's LDA trees."""
    sets = [phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, math.pi - 1.7)),
            qutrit_quartet_set(), pauli_hadamard_set()]
    rng = np.random.default_rng(0)
    sets += [random_qubit_set(rng) for _ in range(100)]
    witnesses = [v.witness for uset in sets for _, v in hierarchy_audit(uset)]
    witnesses += [check_lda(qutrit_quartet_set(), s).witness for s in "AB"]
    return [w for w in witnesses if w is not None]


class TestProjectiveStates:
    """A projective measurement travels as its states, and decodes to the
    elements the decider built."""

    @staticmethod
    def _data():
        uset = phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, math.pi - 1.7))
        witness = check_gdr(uset).witness
        return uset, witness, {"kind": "probe",
                               "probe_witness": json.loads(dumps(probe_witness_to_json(witness)))}

    def test_written_as_states(self):
        _, witness, data = self._data()
        povm = data["probe_witness"]["povm"]
        assert isinstance(witness.povm, ProjectivePOVM)
        assert povm == {"states": [vector_to_json(v) for v in witness.povm.states]}
        # the seesaw's POVM and a bundled tree's stay matrix lists
        tree = tree_to_json(pauli_hadamard_tree("A"))
        assert isinstance(tree["povm"], list)
        assert isinstance(seesaw_to_json(_seesaw_result(), 2)["povm"], list)

    def test_round_trip_byte_identity(self, projective_witnesses):
        projective = 0
        for witness in projective_witnesses:
            clone = witness_from_json(json.loads(dumps(witness_to_json(witness))))
            assert type(clone) is type(witness)
            for a, b in zip(_blocks(witness), _blocks(clone), strict=True):
                assert type(b.povm) is type(a.povm)
                assert [(m.dtype, m.shape, m.tobytes()) for m in b.povm] == [
                    (m.dtype, m.shape, m.tobytes()) for m in a.povm]
                if isinstance(a.povm, ProjectivePOVM):
                    assert b.povm.states.tobytes() == a.povm.states.tobytes()
                    projective += 1
                # decoding renormalizes the probe, which can move its last bit
                assert np.abs(b.probe.amplitudes - a.probe.amplitudes).max() <= 4.5e-16
                assert (b.ancilla_dim, getattr(b, "guesses", None)) == (
                    a.ancilla_dim, getattr(a, "guesses", None))
            if isinstance(witness, ProtocolTree):
                assert [(br.retained, br.guess) for br in clone.branches] == [
                    (br.retained, br.guess) for br in witness.branches]
        assert projective > 300

    def test_re_encoding_gives_identical_text(self, projective_witnesses):
        same = 0
        for witness in projective_witnesses:
            text = dumps(witness_to_json(witness))
            again = dumps(witness_to_json(witness_from_json(json.loads(text))))
            # every field but the renormalized probes, whose text mostly holds too
            assert _without_probes(json.loads(again)) == _without_probes(json.loads(text))
            same += again == text
        assert same >= 0.95 * len(projective_witnesses)

    def test_matrix_form_still_decodes(self, projective_witnesses):
        # the form earlier versions wrote for every POVM
        for witness in projective_witnesses[:40]:
            data = json.loads(dumps(witness_to_json(witness)))
            block = data.get("tree") or data["probe_witness"]
            block["povm"] = json.loads(dumps([matrix_to_json(m) for m in witness.povm]))
            clone = witness_from_json(data)
            assert type(clone.povm) is tuple
            assert [m.tobytes() for m in clone.povm] == [m.tobytes() for m in witness.povm]
        uset, witness, data = self._data()
        data["probe_witness"]["povm"] = [matrix_to_json(m) for m in witness.povm]
        ops = [uset.global_unitary(i) for i in range(uset.size)]
        assert np.all(np.abs(verify_probe(ops, witness_from_json(data)) - 1.0) < 1e-9)

    @pytest.mark.parametrize("change", ["repeat", "tilt", "stretch"])
    def test_verify_rejects_states_not_orthonormal(self, change):
        uset, witness, data = self._data()
        s0, s1 = witness.povm.states
        bad = {"repeat": s0, "tilt": (s0 + s1) / np.sqrt(2), "stretch": 2 * s1}[change]
        data["probe_witness"]["povm"]["states"][1] = vector_to_json(bad)
        clone = witness_from_json(data)
        ops = [uset.global_unitary(i) for i in range(uset.size)]
        with pytest.raises(ValueError, match=r"^witness POVM: element \d has eigenvalue"):
            verify_probe(ops, clone)

    @pytest.mark.parametrize("fault, message", [
        (lambda st: st.__setitem__(slice(None), ["x"] * 2), r"\[0\]: expected a non-empty list of entries"),
        (lambda st: st.__setitem__(1, 3), r"\[1\]: expected a non-empty list of entries"),
        (lambda st: st[1].pop(), r"\[1\]: expected 4 entries, got 3"),
        (lambda st: st[1].append([0.0, 0.0]), r"\[1\]: expected 4 entries, got 5"),
        (lambda st: [v.pop() for v in st], r"\[0\]: expected 4 entries, got 3"),
        (lambda st: st[1].__setitem__(2, [math.nan, 0.0]), r"\[1\]\[2\]: number is not finite"),
        (lambda st: st[1].__setitem__(2, [0.0, math.inf]), r"\[1\]\[2\]: number is not finite"),
        (lambda st: st[1].__setitem__(0, [True, 0.0]), r"\[1\]\[0\]: expected a \[re, im\]"),
        (lambda st: st[1].__setitem__(0, [0.0, False]), r"\[1\]\[0\]: expected a \[re, im\]"),
        (lambda st: st.extend([st[0]] * 3), r": 5 states on a 4-dimensional space"),
    ])
    def test_malformed_states_named(self, fault, message):
        _, _, data = self._data()
        fault(data["probe_witness"]["povm"]["states"])
        with pytest.raises(FormatError, match=r"^witness\.probe_witness\.povm\.states" + message):
            witness_from_json(data)

    @pytest.mark.parametrize("states", ["x", {"0": [[1.0, 0.0]]}, [], None])
    def test_states_not_a_list(self, states):
        _, _, data = self._data()
        data["probe_witness"]["povm"]["states"] = states
        with pytest.raises(FormatError, match=r"^witness\.probe_witness\.povm\.states: "
                                              r"expected a non-empty list of vectors$"):
            witness_from_json(data)
        del data["probe_witness"]["povm"]["states"]
        with pytest.raises(FormatError, match=r"^witness\.probe_witness\.povm\.states: missing$"):
            witness_from_json(data)

    def test_stage2_states_named(self):
        tree = check_lda(qutrit_quartet_set(), "A").witness
        data = tree_to_json(tree)
        k = next(k for k, br in enumerate(data["branches"]) if br["stage2"] is not None)
        data["branches"][k]["stage2"]["povm"]["states"][0][1] = [0.0, None]
        with pytest.raises(FormatError, match=rf"^tree\.branches\[{k}\]\.stage2\.povm"
                                              r"\.states\[0\]\[1\]: expected a \[re, im\]"):
            tree_from_json(data)


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
        res = _seesaw_result()
        data = seesaw_to_json(res, restarts=2)
        assert data["restarts"] == 2
        assert len(data["per_restart"]) == 2
        assert {"value", "sweeps"} <= set(data["per_restart"][0])
        back = matrix_from_json(data["rho"], "rho")
        assert np.allclose(back, res.rho.matrix)
