"""Print sha256 digests of the outputs that must not change between commits.

Usage::

    python3 tools/output_digest.py > digests.txt

Run it in two checkouts and ``diff`` the two files: a change that keeps
every verdict, witness and JSON byte prints identical lines.  Run the same
version of the script in both (copy it into the other checkout), since
another version labels its lines differently.  The script
imports only the ``src/`` of the checkout it sits in, runs the command line
tool from that ``src/`` in child processes, and writes no file (bytecode
caching is off for it and its children).  One line per output:

* ``jsonio.dumps(verdict_to_json(v))`` for every ``hierarchy_audit`` row on
  ``random_qubit_set`` rng 0 sets 0-299 and on the three builtin sets,
  labelled with the row's verdict status, so the ``diff`` of two runs tells
  a status that moved (the label differs) from bytes that moved under one
  status (only the digest differs);
* ``tree_to_json(pauli_hadamard_tree(s))``, and the three ``verify_tree``
  arrays together, for s = A and B;
* stdout, stderr and exit code of ``unidisc repro T --json`` for every
  target;
* stdout, stderr and exit code of ``unidisc check SET --strategy S
  [--start P] --json`` for every builtin set, strategy and start.

It takes about 20 s on 2 CPUs.
"""

import hashlib
import os
import subprocess
import sys

sys.dont_write_bytecode = True
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from unidisc import jsonio  # noqa: E402
from unidisc.cli import _builtin_set  # noqa: E402
from unidisc.families import pauli_hadamard_set, pauli_hadamard_tree, random_qubit_set  # noqa: E402
from unidisc.protocols import hierarchy_audit, verify_tree  # noqa: E402
from unidisc.repro import BUNDLES  # noqa: E402

BUILTINS = ("phasepair:0.3,0.5,0.9,1.4415926535897932", "qutrit-quartet", "pauli-hadamard")
POOL_SETS = 300


def _line(label, *chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
        h.update(b"\0")
    print(f"{h.hexdigest()}  {label}", flush=True)


def _audit(label, uset):
    for row, verdict in hierarchy_audit(uset):
        _line(f"audit {label} {row} {verdict.status}",
              jsonio.dumps(jsonio.verdict_to_json(verdict)))


def _cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "unidisc", *args, "--json"],
                          capture_output=True, env=env)
    _line("cli " + " ".join(args), proc.stdout, proc.stderr, proc.returncode)


def main():
    if not os.path.abspath(jsonio.__file__).startswith(SRC + os.sep):
        sys.exit(f"unidisc imported from {jsonio.__file__}, not from {SRC}")
    rng = np.random.default_rng(0)
    for k in range(POOL_SETS):
        _audit(f"pool {k}", random_qubit_set(rng))
    for name in BUILTINS:
        _audit(name, _builtin_set(name))

    uset = pauli_hadamard_set()
    for start in ("A", "B"):
        tree = pauli_hadamard_tree(start)
        _line(f"pauli_hadamard_tree {start}", jsonio.dumps(jsonio.tree_to_json(tree)))
        res = verify_tree(uset, tree)
        _line(f"verify_tree pauli_hadamard_tree {start}",
              *(a.tobytes() for a in (res.success, res.leakage, res.stage1_probs)))

    for target in sorted(BUNDLES):
        _cli("repro", target)
    for name in BUILTINS:
        for strategy in ("gdr", "gda", "gda-sep"):
            _cli("check", name, "--strategy", strategy)
        for strategy in ("ldr", "lda"):
            for start in ("a", "b", "either"):
                _cli("check", name, "--strategy", strategy, "--start", start)


if __name__ == "__main__":
    main()
