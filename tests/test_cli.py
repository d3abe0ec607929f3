"""Command-line interface: exit codes, reports, diagnostics.

Runs the entry point in process. Out-of-process tests run ``python -m
unidisc`` from a plain checkout, check that ``[project.scripts]`` in
pyproject.toml installs ``unidisc`` as that same ``unidisc.cli:main``, and
run the installed ``unidisc`` console script wherever one is on PATH.
"""

import ast
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unidisc
from unidisc import cli, repro
from unidisc.cli import main
from unidisc.families import I2, X, Z, pauli_hadamard_set
from unidisc.jsonio import dumps, matrix_to_json, set_to_json
from unidisc.protocols import ProductUnitarySet, StrategyVerdict

RT2 = 1.0 / math.sqrt(2.0)


def write_matrix(path, mat, wrap=False):
    data = matrix_to_json(np.asarray(mat, dtype=complex))
    if wrap:
        data = {"matrix": data}
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def pair_files(tmp_path):
    a = write_matrix(tmp_path / "a.json", np.eye(2))
    b = write_matrix(tmp_path / "b.json", [[0, 1], [1, 0]])
    return a, b


class TestPair:
    def test_distinguishable_exit_zero(self, pair_files, capsys):
        a, b = pair_files
        assert main(["pair", a, b]) == 0
        out = capsys.readouterr().out
        assert "verdict: distinguishable" in out

    def test_distinguishable_pair_decomposed_once(self, pair_files, monkeypatch):
        # the criterion and the probe read one stored eigensystem
        from unidisc import eigdist

        calls = []
        decompose = eigdist.eig_unitary

        def counting(*args, **kwargs):
            calls.append(1)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(eigdist, "eig_unitary", counting)
        assert main(["pair", *pair_files, "--json"]) == 0
        assert len(calls) == 1

    def test_indistinguishable_exit_three(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.json", np.eye(2))
        b = write_matrix(tmp_path / "b.json", np.diag([1.0, 1j]))
        assert main(["pair", a, b, "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "indistinguishable"
        assert abs(report["min_norm"] - RT2) < 1e-9
        assert report["probe"] is None

    def test_json_report_carries_probe(self, pair_files, capsys):
        a, b = pair_files
        assert main(["pair", a, b, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "distinguishable"
        assert report["probe"] is not None
        assert len(report["measurement"]) >= 2

    def test_wrapped_matrix_object_accepted(self, tmp_path):
        a = write_matrix(tmp_path / "a.json", np.eye(2), wrap=True)
        b = write_matrix(tmp_path / "b.json", [[0, 1], [1, 0]])
        assert main(["pair", a, b]) == 0

    def test_missing_file_named(self, tmp_path, pair_files, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["pair", missing, pair_files[1]]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {missing}: No such file or directory\n")

    def test_matrix_object_without_matrix_key(self, tmp_path, pair_files, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": matrix_to_json(np.eye(2))}))
        assert main(["pair", str(bad), pair_files[1]]) == 2
        assert capsys.readouterr().err == f"error: {bad}: matrix: missing\n"

    def test_malformed_json_names_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('[[1, 0], [0,')
        b = write_matrix(tmp_path / "b.json", np.eye(2))
        assert main(["pair", str(bad), b]) == 2
        err = capsys.readouterr().err
        assert "bad.json" in err
        assert "line" in err

    def test_bad_entry_names_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('[[[1.0, 0.0], "x"], [[0.0, 0.0], [1.0, 0.0]]]')
        b = write_matrix(tmp_path / "b.json", np.eye(2))
        assert main(["pair", str(bad), b]) == 2
        assert "matrix[0][1]" in capsys.readouterr().err

    def test_non_square_rejected(self, tmp_path, capsys):
        bad = write_matrix(tmp_path / "bad.json", np.ones((2, 3)) / 10)
        b = write_matrix(tmp_path / "b.json", np.eye(2))
        assert main(["pair", bad, b]) == 2
        assert "square" in capsys.readouterr().err

    def test_dimension_mismatch_rejected(self, tmp_path, capsys):
        # the pair criterion's own check, under the CLI's "matrix:" prefix
        a = write_matrix(tmp_path / "a.json", np.eye(2))
        b = write_matrix(tmp_path / "b.json", np.eye(3))
        assert main(["pair", a, b]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: matrix: dimension mismatch (2, 2) vs (3, 3)\n")

    def test_non_unitary_rejected(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.json", [[1, 0], [0, 2]])
        b = write_matrix(tmp_path / "b.json", np.eye(2))
        assert main(["pair", a, b]) == 2
        assert "unitary" in capsys.readouterr().err


    @pytest.mark.parametrize("tol,off,code", [("1e-6", 1e-7, 2), ("1e-12", 2e-9, 0)])
    def test_tol_does_not_move_the_unitarity_bar(self, tmp_path, tol, off, code):
        # a pair is accepted up to 1e-8 off unitary under any --tol
        a = write_matrix(tmp_path / "a.json", np.eye(2))
        b = write_matrix(tmp_path / "b.json", np.array([[0.0, 1.0], [1.0, 0.0]]) * (1 + off))
        assert main(["pair", a, b, "--tol", tol]) == code

    def test_non_unitary_pair_with_unitary_relative_rejected(self, tmp_path, capsys):
        # the relative diag(-1, 1) is unitary, the matrices are not
        a = write_matrix(tmp_path / "a.json", np.diag([2.0, 1.0]))
        b = write_matrix(tmp_path / "b.json", np.diag([-0.5, 1.0]))
        assert main(["pair", a, b]) == 2
        assert "u1 is not unitary" in capsys.readouterr().err


class TestCheck:
    def test_builtin_lda_start_a(self, capsys):
        assert main(["check", "qutrit-quartet", "--strategy", "lda",
                     "--start", "a", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["status"] == "distinguishable"
        assert report["verdict"]["witness"]["kind"] == "tree"

    def test_builtin_gdr_certified(self, capsys):
        assert main(["check", "qutrit-quartet", "--strategy", "gdr",
                     "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["status"] == "indistinguishable_certified"
        assert report["verdict"]["feasibility"]["certificate"] is not None

    def test_builtin_ldr_not_found_exit(self):
        assert main(["check", "qutrit-quartet", "--strategy", "ldr",
                     "--start", "a"]) == 3

    def test_gda_sep_start_reports(self, capsys):
        # separable probes provably fail on this set, from either side
        assert main(["check", "pauli-hadamard", "--strategy", "gda-sep",
                     "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["status"] == "indistinguishable_certified"
        for party in ("A", "B"):
            rep = report["start_reports"][party]
            assert rep["verdict"] == "infeasible_certified"
            assert rep["eliminable"]

    def test_gda_sep_without_start_reports(self, capsys):
        # two inputs: the separable decider needs no per-start search
        name = f"phasepair:0.3,0.5,0.9,{math.pi - 1.7}"
        assert main(["check", name, "--strategy", "gda-sep", "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert sorted(report) == ["party_dims", "set_size", "verdict"]
        assert report["verdict"]["status"] == "indistinguishable_certified"

    # the verdict --start either reports for each (A, B) pair of statuses:
    # a witness beats an open search, which beats a certificate; A on ties
    EITHER = {
        ("distinguishable", "distinguishable"): "A",
        ("distinguishable", "not_found"): "A",
        ("distinguishable", "indistinguishable_certified"): "A",
        ("not_found", "distinguishable"): "B",
        ("not_found", "not_found"): "A",
        ("not_found", "indistinguishable_certified"): "A",
        ("indistinguishable_certified", "distinguishable"): "B",
        ("indistinguishable_certified", "not_found"): "B",
        ("indistinguishable_certified", "indistinguishable_certified"): "A",
    }

    @pytest.mark.parametrize("strategy", ["ldr", "lda"])
    @pytest.mark.parametrize("statuses", sorted(EITHER))
    def test_either_start_picks_one_verdict(self, strategy, statuses, monkeypatch, capsys):
        def fake(table, start, tol=None):
            return StrategyVerdict(strategy.upper(), start, statuses["AB".index(start)])

        monkeypatch.setattr(cli, f"check_{strategy}", fake)
        code = main(["check", "pauli-hadamard", "--strategy", strategy, "--json"])
        report = json.loads(capsys.readouterr().out)
        start = self.EITHER[statuses]
        assert report["verdict"]["starting_party"] == start
        assert report["verdict"]["status"] == statuses["AB".index(start)]
        assert code == cli._STATUS_EXIT[report["verdict"]["status"]]
        assert [report["per_start"][p]["status"] for p in "AB"] == list(statuses)

    def test_tol_checked_before_start(self, capsys):
        assert main(["check", "pauli-hadamard", "--strategy", "gdr", "--start", "a",
                     "--tol", "nan"]) == 2
        assert capsys.readouterr().err == "error: --tol must be finite and positive, got nan\n"

    def test_phasepair_builtin(self):
        name = f"phasepair:0.3,0.5,0.9,{math.pi - 1.7}"
        assert main(["check", name, "--strategy", "gdr"]) == 0

    def test_phasepair_angle_count_usage_error(self, capsys):
        assert main(["check", "phasepair:0.3,0.5", "--strategy",
                     "gdr"]) == 2
        assert "four" in capsys.readouterr().err

    def test_phasepair_invalid_angles_usage_error(self, capsys):
        assert main(["check", "phasepair:0.3,0.3,0.3,0.3", "--strategy",
                     "gdr"]) == 2
        assert "sum" in capsys.readouterr().err

    def test_start_flag_rejected_for_global(self, capsys):
        assert main(["check", "pauli-hadamard", "--strategy", "gdr",
                     "--start", "a"]) == 2
        assert "--start" in capsys.readouterr().err

    def test_set_file_round_trip(self, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(dumps(set_to_json(pauli_hadamard_set())))
        assert main(["check", str(path), "--strategy", "gdr"]) == 0

    def test_gda_sep_loose_tol_decides_near_antipodal_pair(self, tmp_path):
        # hull distance 5e-8 for the A pair: distinguishable under --tol 1e-6
        # in every module, so no probe builder may reject the pair
        near = np.diag([1.0, np.exp(1j * (math.pi - 1e-7))])
        uset = ProductUnitarySet((2, 2), (("II", I2, I2), ("PX", near, X),
                                          ("ZZ", Z, Z)))
        path = tmp_path / "set.json"
        path.write_text(dumps(set_to_json(uset)))
        assert main(["check", str(path), "--strategy", "gda-sep",
                     "--tol", "1e-6"]) in (0, 3)

    def test_near_unitary_set_file_decided(self, tmp_path, near_unitary_items):
        # factors the set accepts, written as given, get a verdict from every
        # strategy: exit 0, 3 or 4 (distinguishable, certified, not_found)
        data = {"party_dims": [2, 2],
                "items": [{"label": label, "A": matrix_to_json(a), "B": matrix_to_json(b)}
                          for label, a, b in near_unitary_items]}
        path = tmp_path / "set.json"
        path.write_text(json.dumps(data))
        for strategy in ("gdr", "gda", "gda-sep"):
            assert main(["check", str(path), "--strategy", strategy]) in (0, 3, 4)
        for strategy in ("ldr", "lda"):
            for start in ("a", "b", "either"):
                assert main(["check", str(path), "--strategy", strategy,
                             "--start", start]) in (0, 3, 4)

    def test_set_file_with_overflowing_factor_rejected(self, tmp_path, capsys):
        # finite entries, but B{dag}B of the second item overflows
        data = set_to_json(ProductUnitarySet((2, 2), (("I", I2, I2), ("X", X, X))))
        data["items"][1]["B"] = matrix_to_json(1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]))
        path = tmp_path / "set.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path), "--strategy", "gdr"]) == 2
        assert "item 'X': factor is not unitary" in capsys.readouterr().err

    def test_set_file_field_error(self, tmp_path, capsys):
        data = set_to_json(pauli_hadamard_set())
        del data["items"][1]["label"]
        path = tmp_path / "set.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path), "--strategy", "gdr"]) == 2
        assert "items[1].label" in capsys.readouterr().err

    def test_unknown_strategy_argparse_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "pauli-hadamard", "--strategy", "teleport"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--seed", "--restarts", "--tol"])
    def test_seed_and_restarts_not_options(self, flag, pair_files, capsys):
        # only seesaw and repro draw random starts, and seesaw decides nothing
        a, b = pair_files
        if flag == "--tol":
            argvs = (["seesaw", flag, "1e-6"], ["seesaw", "quartet-bob-first", flag, "1e-6"])
        else:
            argvs = (["pair", a, b, flag, "3"],
                     ["check", "pauli-hadamard", "--strategy", "gdr", flag, "3"])
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err


class TestSeesaw:
    def test_zero_restarts_usage_error(self, capsys):
        assert main(["seesaw", "--restarts", "0"]) == 2
        assert "restarts" in capsys.readouterr().err

    def test_negative_seed_usage_error(self, capsys):
        assert main(["seesaw", "--seed", "-1", "--restarts", "1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_seed_checked_before_restarts(self, capsys):
        assert main(["seesaw", "--seed", "-1", "--restarts", "0"]) == 2
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"

    def test_unknown_task_usage_error(self, capsys):
        assert main(["seesaw", "warp-drive"]) == 2
        assert "warp-drive" in capsys.readouterr().err

    def test_alice_first_reaches_one(self, capsys):
        assert main(["seesaw", "quartet-alice-first", "--restarts", "1",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["s_max"] - 1.0) < 1e-9

    def test_reports_byte_identical_for_same_seed(self, capsys):
        args = ["seesaw", "quartet-bob-first", "--restarts", "2",
                "--seed", "4", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["s_max"] < 1.0 - 1e-3


class TestOutputPlumbing:
    def test_out_file_matches_stdout(self, tmp_path, pair_files, capsys):
        a, b = pair_files
        out = tmp_path / "report.json"
        assert main(["pair", a, b, "--json", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert out.read_text() == stdout

    def test_out_without_json_keeps_human_stdout(self, tmp_path, pair_files,
                                                 capsys):
        a, b = pair_files
        out = tmp_path / "report.json"
        assert main(["pair", a, b, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "verdict" in stdout
        json.loads(out.read_text())

    def test_negative_tol_usage_error(self, pair_files, capsys):
        a, b = pair_files
        # NaN and infinity would turn every tolerance comparison constant
        for bad in ("-1", "nan", "inf"):
            assert main(["pair", a, b, "--tol", bad]) == 2
            assert "--tol" in capsys.readouterr().err


class TestRepro:
    def test_unknown_target_lists_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["repro", "everything"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(name in err for name in repro.BUNDLES)

    def test_zero_restarts_usage_error_before_bundle(self, monkeypatch, capsys):
        def bundle(seed, restarts, tol):
            raise AssertionError("bundle ran with invalid --restarts")

        monkeypatch.setitem(repro.BUNDLES, "start-asymmetry", bundle)
        assert main(["repro", "start-asymmetry", "--restarts", "0"]) == 2
        assert "restarts" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        (["--tol", "nan", "--seed", "-1", "--restarts", "0"],
         "--tol must be finite and positive, got nan"),
        (["--seed", "-1", "--restarts", "0"], "--seed must be non-negative, got -1"),
        (["--restarts", "0"], "--restarts must be at least 1"),
    ])
    def test_option_errors_in_order_before_bundle(self, argv, error, monkeypatch, capsys):
        def bundle(seed, restarts, tol):
            raise AssertionError("bundle ran with invalid options")

        monkeypatch.setitem(repro.BUNDLES, "pair-gap", bundle)
        assert main(["repro", "pair-gap", *argv]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("target", ["hierarchy", "start-asymmetry"])
    def test_negative_seed_usage_error_before_bundle(self, target, monkeypatch, capsys):
        def bundle(seed, restarts, tol):
            raise AssertionError("bundle ran with invalid --seed")

        monkeypatch.setitem(repro.BUNDLES, target, bundle)
        assert main(["repro", target, "--seed", "-3"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_pair_gap_bundle_passes(self, capsys):
        assert main(["repro", "pair-gap", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert all(c["ok"] for c in report["checks"])


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBPROCESS_TIMEOUT_S = 120


def project_scripts(pyproject):
    """The ``[project.scripts]`` table of a pyproject.toml, as a dict.

    Reads only ``name = "module:func"`` lines, with the standard library
    alone: ``tomllib`` is missing on Python 3.10, which the package supports.
    """
    scripts, in_table = {}, False
    for line in pyproject.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line and not line.startswith("#"):
            name, target = (part.strip() for part in line.split("=", 1))
            scripts[name.strip('"')] = ast.literal_eval(target)
    return scripts


def run_cli(argv):
    """Run ``argv`` in a child process that imports this ``unidisc``."""
    src = str(Path(unidisc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=SUBPROCESS_TIMEOUT_S)


def test_console_script_smoke(pair_files):
    assert project_scripts(PYPROJECT)["unidisc"] == "unidisc.cli:main"
    a, b = pair_files
    proc = run_cli([sys.executable, "-m", "unidisc", "pair", a, b])
    assert proc.returncode == 0
    assert "verdict: distinguishable" in proc.stdout


def test_module_entry_point_exit_code_indistinguishable(tmp_path):
    a = write_matrix(tmp_path / "a.json", np.eye(2))
    b = write_matrix(tmp_path / "b.json", np.diag([1.0, 1j]))
    proc = run_cli([sys.executable, "-m", "unidisc", "pair", a, b])
    assert proc.returncode == 3
    assert "verdict: indistinguishable" in proc.stdout


def test_module_entry_point_out_of_range_entry_usage_error(tmp_path):
    # a JSON integer too large for a float is a malformed entry, not a crash
    bad = tmp_path / "bad.json"
    bad.write_text("[[[1" + "0" * 400 + ", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]")
    b = write_matrix(tmp_path / "b.json", np.eye(2))
    proc = run_cli([sys.executable, "-m", "unidisc", "pair", str(bad), b])
    assert proc.returncode == 2
    assert "matrix[0][0]: number out of float range" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("strategy", ["gdr", "lda"])
@pytest.mark.parametrize("builtin", ["qutrit-quartet", "pauli-hadamard",
                                     f"phasepair:0.3,0.5,0.9,{math.pi - 1.7}"])
def test_module_entry_point_check_json_is_canonical(builtin, strategy):
    proc = run_cli([sys.executable, "-m", "unidisc", "check", builtin,
                    "--strategy", strategy, "--json"])
    assert proc.returncode in (0, 3), proc.stderr
    canonical = json.dumps(json.loads(proc.stdout), sort_keys=True, separators=(",", ":"),
                           allow_nan=False) + "\n"
    assert proc.stdout == canonical


def test_module_entry_point_pair_on_a_near_antipodal_chord(tmp_path):
    # relative phases {0, pi - 1e-6, pi}: the origin lies on the chord
    # across the widest gap, where no fan triangle contains it in rounding
    a = write_matrix(tmp_path / "a.json", np.eye(3))
    b = write_matrix(tmp_path / "b.json", np.diag([1.0, -1.0, -np.exp(-1e-6j)]))
    proc = run_cli([sys.executable, "-m", "unidisc", "pair", a, b, "--json"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "distinguishable"


@pytest.mark.parametrize("u1, u2, code, verdict", [
    pytest.param(np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) * 0.707106781, 0,
                 "verdict: distinguishable", id="nine-digit-hadamard"),
    pytest.param(np.diag([2.0, 1.0]), np.diag([-0.5, 1.0]), 2, None, id="non-unitary"),
])
def test_module_entry_point_pair_takes_what_a_set_takes(tmp_path, u1, u2, code, verdict):
    # a set accepts factors up to 1e-8 off unitary, and so does the pair
    # criterion, which rejects matrices further off even when their
    # relative is unitary
    a = write_matrix(tmp_path / "a.json", u1)
    b = write_matrix(tmp_path / "b.json", u2)
    proc = run_cli([sys.executable, "-m", "unidisc", "pair", a, b])
    assert proc.returncode == code, proc.stderr
    if verdict is None:
        assert "u1 is not unitary" in proc.stderr
        assert "Traceback" not in proc.stderr
    else:
        assert verdict in proc.stdout


OVERFLOWING = 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]])


@pytest.mark.parametrize("command, error", [
    pytest.param("pair", "error: matrix: u2 is not unitary (err ", id="pair"),
    pytest.param("check", "error: {path}: set: item 'X': factor is not unitary", id="check"),
])
def test_overflowing_factor_error_is_the_only_output(tmp_path, command, error):
    # finite entries whose U{dag}U overflows: the boundary's error line is
    # all the command prints, with no numpy warning before it
    if command == "pair":
        argv = ["pair", write_matrix(tmp_path / "a.json", I2),
                write_matrix(tmp_path / "b.json", OVERFLOWING)]
    else:
        data = set_to_json(ProductUnitarySet((2, 2), (("I", I2, I2), ("X", X, X))))
        data["items"][1]["B"] = matrix_to_json(OVERFLOWING.astype(complex))
        path = tmp_path / "set.json"
        path.write_text(json.dumps(data))
        argv = ["check", str(path), "--strategy", "gdr"]
        error = error.format(path=path)
    proc = run_cli([sys.executable, "-m", "unidisc", *argv])
    assert proc.returncode == 2
    assert proc.stdout == ""
    # one line: the deviation it names may read inf or nan
    assert proc.stderr.startswith(error) and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith("\n")


@pytest.mark.skipif(shutil.which("unidisc") is None,
                    reason="no unidisc console script on PATH")
def test_installed_console_script(pair_files):
    a, b = pair_files
    proc = run_cli(["unidisc", "pair", a, b])
    assert proc.returncode == 0
    assert "verdict: distinguishable" in proc.stdout


NUMPY_ONLY_RUN = """
import importlib, pkgutil, runpy, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import unidisc
for info in pkgutil.iter_modules(unidisc.__path__):
    importlib.import_module("unidisc." + info.name)
sys.argv = ["unidisc", "check", "pauli-hadamard", "--strategy", "gda-sep"]
runpy.run_module("unidisc", run_name="__main__")
"""


def test_runtime_needs_no_scipy():
    # scipy is a test dependency only: every module imports, and a CLI
    # decision runs to its exit code, with scipy unimportable
    proc = run_cli([sys.executable, "-c", NUMPY_ONLY_RUN])
    assert proc.returncode == 3, proc.stderr
    assert "indistinguishable_certified" in proc.stdout
