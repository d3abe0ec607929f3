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
from unidisc import repro
from unidisc.cli import main
from unidisc.families import I2, X, Z, pauli_hadamard_set
from unidisc.jsonio import dumps, matrix_to_json, set_to_json
from unidisc.protocols import ProductUnitarySet

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
        a = write_matrix(tmp_path / "a.json", np.eye(3))
        b = write_matrix(tmp_path / "b.json", np.eye(2))
        assert main(["pair", a, b]) == 2
        assert "mismatch" in capsys.readouterr().err

    def test_non_unitary_rejected(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.json", [[1, 0], [0, 2]])
        b = write_matrix(tmp_path / "b.json", np.eye(2))
        assert main(["pair", a, b]) == 2
        assert "unitary" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flag", ["--seed", "--restarts"])
    def test_seed_and_restarts_not_options(self, flag, pair_files, capsys):
        # only seesaw and repro draw random starts
        a, b = pair_files
        for argv in (["pair", a, b, flag, "3"],
                     ["check", "pauli-hadamard", "--strategy", "gdr", flag, "3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err


class TestSeesaw:
    def test_zero_restarts_usage_error(self, capsys):
        assert main(["seesaw", "--restarts", "0"]) == 2
        assert "restarts" in capsys.readouterr().err

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
        assert main(["pair", a, b, "--tol", "-1"]) == 2
        assert "tol" in capsys.readouterr().err


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


def test_module_entry_point_pair_on_a_near_antipodal_chord(tmp_path):
    # relative phases {0, pi - 1e-6, pi}: the origin lies on the chord
    # across the widest gap, where no fan triangle contains it in rounding
    a = write_matrix(tmp_path / "a.json", np.eye(3))
    b = write_matrix(tmp_path / "b.json", np.diag([1.0, -1.0, -np.exp(-1e-6j)]))
    proc = run_cli([sys.executable, "-m", "unidisc", "pair", a, b, "--json"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "distinguishable"


@pytest.mark.skipif(shutil.which("unidisc") is None,
                    reason="no unidisc console script on PATH")
def test_installed_console_script(pair_files):
    a, b = pair_files
    proc = run_cli(["unidisc", "pair", a, b])
    assert proc.returncode == 0
    assert "verdict: distinguishable" in proc.stdout
