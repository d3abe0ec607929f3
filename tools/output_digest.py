"""Print sha256 digests of the outputs that must not change between commits.

Usage::

    python3 tools/output_digest.py > digests.txt

Run it in two checkouts and ``diff`` the two files: a change that keeps
every verdict, witness and decoded JSON value prints identical lines.  Run
the same version of the script in both (copy it into the other checkout),
since another version labels its lines differently.

Each JSON output is hashed by its decoded value, written as
``json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)``.
``jsonio.dumps`` writes exactly that text plus a newline, so between two
checkouts that both write it, equal lines also mean equal bytes.  A
``--json`` call whose stdout is not empty and does not parse is a fault: the
script stops and names the call.

The script imports only the ``src/`` of the checkout it sits in, runs the
command line tool from that ``src/`` in child processes, and writes no file
(bytecode caching is off for it and its children) except the matrix and set
files it hands ``unidisc pair`` and ``unidisc check``, in temporary
directories it removes.  One line per output, where the stdout of a call
stands for its decoded value:

* ``verdict_to_json(v)`` for every ``hierarchy_audit`` row on
  ``random_qubit_set`` rng 0 sets 0-299 and on the three builtin sets,
  labelled with the row's verdict status, so the ``diff`` of two runs tells
  a status that moved (the label differs) from bytes that moved under one
  status (only the digest differs); and, on a second ``witness`` line, the
  witness decoded from that JSON text: dtype, shape and bytes of every
  probe and POVM element, with the guesses and the branch structure.  A
  change of JSON form that decodes to the same arrays moves only the first
  line;
* the phases and ``min_norm`` of ``pair_distinguishable`` and, for a
  distinguishable pair, the probe and measurement of ``build_pair_probe``,
  for both local factor pairs of every ``pair-gap`` grid point and for
  ``random_pair`` rng 0 draws 0-19 in each of the dimensions 2, 3 and 4;
* stdout, stderr and exit code of ``unidisc pair U1 U2 --json`` for the
  first of those draws in each dimension, of the same command with
  ``--tol 1e-6`` for the first draw in dimension 3, and with ``--tol nan``
  for the first draw in dimension 2;
* ``tree_to_json(pauli_hadamard_tree(s))``, the tree decoded from that
  JSON text (as the audit rows' ``witness`` lines), and the three
  ``verify_tree`` arrays together, for s = A and B;
* stdout, stderr and exit code of ``unidisc repro T --json`` for every
  target;
* stdout, stderr and exit code of ``unidisc seesaw quartet-bob-first
  --restarts 3 --seed 1 --json`` and ``unidisc seesaw quartet-alice-first
  --json``, whose reports carry every start's value and the best start's
  rho and POVM entries;
* stdout, stderr and exit code of ``unidisc check SET --strategy S
  [--start P] --json`` for every builtin set, strategy and start, and of
  ``unidisc check SET --strategy S --tol 1e-6 --json`` for every builtin
  set and S in gdr, lda and gda-sep, so a change in what ``--tol`` sets
  shows too;
* stdout, stderr and exit code of the commands the tool rejects, so that
  its error texts show: ``--tol nan`` on check and repro, ``--seed -1``
  and ``--restarts 0`` on seesaw and repro, an unknown seesaw task,
  ``seesaw --tol 1e-6``, ``check SET --strategy gdr --start a``, and
  ``check`` on three set files holding an integer past the float range,
  ``1e999``, and an entry that is not an ``[re, im]`` pair, and on three
  set files that decode but that the set constructor rejects: one with a
  factor that is not unitary, one with a factor of the wrong shape after
  such a factor, and one with a factor that is not unitary after a factor
  of the wrong shape.

It prints 5709 lines and takes about 27 s on 2 CPUs.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from unidisc import jsonio  # noqa: E402
from unidisc.checker import verify_tree  # noqa: E402
from unidisc.cli import _builtin_set  # noqa: E402
from unidisc.eigdist import build_pair_probe, pair_distinguishable  # noqa: E402
from unidisc.families import (  # noqa: E402
    PhasePairParams,
    pauli_hadamard_set,
    pauli_hadamard_tree,
    phase_pair_set,
    random_pair,
    random_qubit_set,
)
from unidisc.protocols import ProtocolTree, hierarchy_audit  # noqa: E402
from unidisc.repro import BUNDLES, _grid_angles  # noqa: E402

BUILTINS = ("phasepair:0.3,0.5,0.9,1.4415926535897932", "qutrit-quartet", "pauli-hadamard")
POOL_SETS = 300
PAIR_DRAWS = 20


def _line(label, *chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
        h.update(b"\0")
    print(f"{h.hexdigest()}  {label}", flush=True)


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _block_chunks(block):
    """The arrays of a probe block as dtype, shape and bytes, with its
    ancilla size."""
    chunks = [block.ancilla_dim]
    for a in (block.probe.amplitudes, *block.povm):
        chunks += [a.dtype, a.shape, a.tobytes()]
    return chunks


def _witness_chunks(witness):
    """Everything a decoded witness says: its arrays, guesses and branches."""
    if witness is None:
        return ["none"]
    if not isinstance(witness, ProtocolTree):
        return ["probe", *_block_chunks(witness), witness.guesses]
    chunks = ["tree", witness.start, *_block_chunks(witness)]
    for br in witness.branches:
        chunks += [br.retained, br.guess]
        st = br.stage2
        chunks += [None] if st is None else [st.party, *_block_chunks(st), st.guesses]
    return chunks


def _audit(label, uset):
    for row, verdict in hierarchy_audit(uset):
        text = _canonical(jsonio.verdict_to_json(verdict))
        _line(f"audit {label} {row} {verdict.status}", text)
        _line(f"audit {label} {row} {verdict.status} witness",
              *_witness_chunks(jsonio.witness_from_json(json.loads(text)["witness"])))


def _pair(label, u1, u2):
    res = pair_distinguishable(u1, u2)
    chunks = [res.phases.tobytes(), np.float64(res.min_norm).tobytes()]
    if res.distinguishable:
        pp = build_pair_probe(u1, u2, res)
        chunks += [pp.probe.amplitudes.tobytes(), *(m.tobytes() for m in pp.measurement)]
    _line(f"pair {label} {'distinguishable' if res.distinguishable else 'indistinguishable'}",
          *chunks)


def _cli(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "unidisc", *args, "--json"],
                          capture_output=True, env=env, cwd=cwd)
    label = "cli " + " ".join(args)
    stdout = proc.stdout
    if stdout:
        try:
            stdout = _canonical(json.loads(stdout))
        except ValueError as exc:
            sys.exit(f"{label}: stdout is not JSON: {exc}")
    _line(label, stdout, proc.stderr, proc.returncode)


def main():
    if not os.path.abspath(jsonio.__file__).startswith(SRC + os.sep):
        sys.exit(f"unidisc imported from {jsonio.__file__}, not from {SRC}")
    rng = np.random.default_rng(0)
    for k in range(POOL_SETS):
        _audit(f"pool {k}", random_qubit_set(rng))
    for name in BUILTINS:
        _audit(name, _builtin_set(name))

    # the grid of the pair-gap bundle (repro.pair_gap)
    for k, angles in enumerate(_grid_angles(10)):
        uset = phase_pair_set(PhasePairParams(*angles))
        for party in ("A", "B"):
            _pair(f"pair-gap {k} {party}", uset.factor(0, party), uset.factor(1, party))
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        for dim in (2, 3, 4):
            for k in range(PAIR_DRAWS):
                u1, u2 = random_pair(rng, dim)
                _pair(f"random_pair d={dim} {k}", u1, u2)
                if k == 0:
                    names = [f"u{i}_d{dim}.json" for i in (1, 2)]
                    for name, u in zip(names, (u1, u2)):
                        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                            fh.write(jsonio.dumps(jsonio.matrix_to_json(u.matrix)))
                    _cli("pair", *names, cwd=tmp)
                    if dim == 2:
                        _cli("pair", *names, "--tol", "nan", cwd=tmp)
                    if dim == 3:
                        _cli("pair", *names, "--tol", "1e-6", cwd=tmp)

    uset = pauli_hadamard_set()
    for start in ("A", "B"):
        tree = pauli_hadamard_tree(start)
        text = _canonical(jsonio.tree_to_json(tree))
        _line(f"pauli_hadamard_tree {start}", text)
        _line(f"pauli_hadamard_tree {start} witness",
              *_witness_chunks(jsonio.tree_from_json(json.loads(text))))
        res = verify_tree(uset, tree)
        _line(f"verify_tree pauli_hadamard_tree {start}",
              *(a.tobytes() for a in (res.success, res.leakage, res.stage1_probs)))

    for target in sorted(BUNDLES):
        _cli("repro", target)
    _cli("seesaw", "quartet-bob-first", "--restarts", "3", "--seed", "1")
    _cli("seesaw", "quartet-alice-first")
    for name in BUILTINS:
        for strategy in ("gdr", "gda", "gda-sep"):
            _cli("check", name, "--strategy", strategy)
        for strategy in ("ldr", "lda"):
            for start in ("a", "b", "either"):
                _cli("check", name, "--strategy", strategy, "--start", start)
        for strategy in ("gdr", "lda", "gda-sep"):
            _cli("check", name, "--strategy", strategy, "--tol", "1e-6")
    _rejected()


def _rejected():
    """The error outputs of commands the tool rejects."""
    _cli("check", BUILTINS[2], "--strategy", "gdr", "--tol", "nan")
    _cli("check", BUILTINS[2], "--strategy", "gdr", "--start", "a")
    _cli("repro", "pair-gap", "--tol", "nan")
    for command in (("seesaw",), ("repro", "pair-gap")):
        _cli(*command, "--seed", "-1")
        _cli(*command, "--restarts", "0")
    _cli("seesaw", "warp-drive")
    _cli("seesaw", "--tol", "1e-6")
    # one faulty entry each, written as JSON text
    faults = {"range.json": f"[{10 ** 400}, 0.0]", "infinite.json": "[1e999, 0.0]",
              "not-pair.json": "[1.0]"}
    with tempfile.TemporaryDirectory() as tmp:
        for name, fault in faults.items():
            data = jsonio.set_to_json(pauli_hadamard_set())
            data["items"][1]["A"][0][1] = "FAULT"
            text = jsonio.dumps(data).replace('"FAULT"', fault)
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
            _cli("check", name, "--strategy", "gdr", cwd=tmp)
        # faults of whole factors, by item: the constructor names the first
        doubled = lambda m: [[[2 * re, 2 * im] for re, im in row] for row in m]  # noqa: E731
        eye3 = jsonio.matrix_to_json(np.eye(3))
        faults = {"not-unitary.json": {1: ("A", doubled)},
                  "shape-after.json": {1: ("A", doubled), 3: ("B", lambda m: eye3)},
                  "unitary-after.json": {1: ("B", lambda m: eye3), 3: ("A", doubled)}}
        for name, fault in faults.items():
            data = jsonio.set_to_json(pauli_hadamard_set())
            for k, (party, change) in fault.items():
                data["items"][k][party] = change(data["items"][k][party])
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(jsonio.dumps(data))
            _cli("check", name, "--strategy", "gdr", cwd=tmp)


if __name__ == "__main__":
    main()
