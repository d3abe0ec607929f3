"""Print the time per call of the small kernels the library rests on.

Usage::

    python3 tools/kernel_timings.py

The script imports only the ``src/`` of the checkout it sits in, needs numpy
and the standard library only, takes no options and writes no file.  Each
kernel runs on fixed inputs; ``timeit`` times ``REPEATS`` batches of
``number`` calls, and the median and minimum over the batches, divided by
``number``, are printed in microseconds.  The batches of all kernels take
turns, so a slow stretch of a shared host falls on every kernel alike
rather than on whichever kernel it happened to be timing.  Run it in two
checkouts, one after the other, to compare them; the minimum is the
steadier figure on a shared host.

The kernels, on the inputs the benchmark's ``pair-grid`` and ``qubit-audit``
workloads give them:

* ``qcore.eig_unitary`` on a Haar unitary of dimension 2 and 4, as the plain
  array the internal callers pass;
* ``eigdist.min_convex_norm`` on those unitaries' 2 and 4 eigenphases;
* ``qcore._near_unitaries`` on one column of two 2x2 factors, as a pair;
* ``eigdist.pair_distinguishable`` on a distinguishable Haar pair of
  dimension 4, given as plain arrays, cold with the store emptied before
  each call and warm with the store holding the pair's entries; and the
  ``pair-grid`` Haar op's calls on it, ``pair_distinguishable`` followed by
  ``build_pair_probe``, cold.  Warm, a call only checks the pair and reads
  the stored criterion;
* the set boundary: ``families.phase_pair_set``, which builds its four
  diagonal factors and hands them to the set unchecked
  (``ProductUnitarySet._accepted``); the public ``protocols.ProductUnitarySet``
  on that set's items, which checks the same four factors again, so the gap
  between the two lines is what the set builders save per set;
  ``protocols.ProductUnitarySet`` on a four-item set of ``SNAP_GATES``
  factors; and ``qcore._near_unitaries`` on that set's two four-factor
  columns, the unitarity half of the constructor;
* ``checker.check_povm`` on a two-outcome projective measurement in
  dimension 4;
* ``simplex.feasible_point`` on the 3 x 4 system of a commuting problem;
* the trusted checker on a witness or certificate of each kind:
  ``checker.verify_tree`` on the Pauli-Hadamard set and its tree,
  ``checker.verify_probe`` on the phase-pair set's GDR witness, and
  ``checker.verify_certificate`` on the qutrit quartet's GDR certificate;
* ``jsonio.dumps`` of the GDR verdict on the phase-pair set;
* the JSON round trip of every row of the pool set's audit (below), as the
  ``qubit-audit`` workload re-checks them: ``jsonio.verdict_to_json``,
  ``jsonio.dumps``, ``json.loads``, then ``jsonio.witness_from_json`` and,
  where a row carries one, ``jsonio.certificate_from_json``;
* ``jsonio.witness_from_json`` of the pool set's GDR witness, a projective
  measurement on dimension 8 (ancilla 2) with four states and the
  remainder, in the states form it is written in and in the matrix-list
  form that spells out its five elements;
* ``protocols.check_gdr`` on the phase-pair set, which builds a fresh
  analysis table per call and so solves its GDR problem every time: cold
  with the store emptied before each call, so the GDR operator's spectrum
  is decomposed every time too, and warm with the store holding it, as it
  does when an earlier set posed the same GDR operator;
* ``probefeas.OrthogonalityProblem`` on that set's GDR operator through
  the public constructor, whose unitarity check the table's problems
  skip: the saving per ``check_gdr`` call;
* ``protocols.hierarchy_audit`` on one pool set (the first
  ``random_qubit_set`` draw of rng 0: four items, GDR distinguishable, some
  local rows ``not_found``), cold with the store emptied before each
  call, and warm with the store holding its sub-problems, as it does when
  earlier sets posed the same problems.  The gap is what the store saves
  on that set;
* ``separable.check_gda_separable`` on the next pool set (the second draw:
  three items, a distinguishable sequential tree), cold with the store
  emptied before each call, so a fresh table solves the relatives'
  spectra, one-pair problems and stage-2 measurements it reads.
"""

import json
import os
import platform
import statistics
import sys
import timeit

sys.dont_write_bytecode = True
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from unidisc import jsonio, qcore  # noqa: E402
from unidisc.checker import check_povm, verify_certificate, verify_probe, verify_tree  # noqa: E402
from unidisc.eigdist import build_pair_probe, min_convex_norm, pair_distinguishable  # noqa: E402
from unidisc.families import (  # noqa: E402
    SNAP_GATES,
    PhasePairParams,
    pauli_hadamard_set,
    pauli_hadamard_tree,
    phase_pair_set,
    qutrit_quartet_set,
    random_qubit_set,
)
from unidisc.probefeas import OrthogonalityProblem  # noqa: E402
from unidisc.protocols import (  # noqa: E402
    ProductUnitarySet,
    check_gdr,
    gdr_problem,
    hierarchy_audit,
)
from unidisc.qcore import _near_unitaries, eig_unitary, haar_unitary  # noqa: E402
from unidisc.separable import check_gda_separable  # noqa: E402
from unidisc.simplex import feasible_point  # noqa: E402

REPEATS = 60


def _kernels():
    rng = np.random.default_rng(2024)
    u2, u4 = (haar_unitary(d, rng).matrix for d in (2, 4))
    phases2, phases4 = eig_unitary(u2)[0], eig_unitary(u4)[0]
    pair = [haar_unitary(2, rng).matrix, haar_unitary(2, rng).matrix]
    haar_pair = [haar_unitary(4, rng).matrix, haar_unitary(4, rng).matrix]
    while not pair_distinguishable(*haar_pair).distinguishable:
        haar_pair = [haar_unitary(4, rng).matrix, haar_unitary(4, rng).matrix]
    v = haar_unitary(4, rng).matrix[:, 0]
    p = np.outer(v, v.conj())
    povm = [p, np.eye(4) - p]
    # the commuting route's system: convex weights on 4 eigenvalues whose
    # real and imaginary parts average to zero
    pts = np.exp(1j * np.array([0.3, 1.9, 3.4, 5.0]))
    a_eq, b_eq = np.vstack([pts.real, pts.imag, np.ones(4)]), [0.0, 0.0, 1.0]
    ph_set, ph_tree = pauli_hadamard_set(), pauli_hadamard_tree("A")
    params = PhasePairParams(0.3, 0.5, 0.9, np.pi - 1.7)
    phase_pair = phase_pair_set(params)
    snap_items = [(f"U{k}", SNAP_GATES[k], SNAP_GATES[7 - k]) for k in range(4)]
    snap_columns = [[a for _, a, _ in snap_items], [b for _, _, b in snap_items]]
    verdict = jsonio.verdict_to_json(check_gdr(phase_pair))
    phase_pair_ops = phase_pair.global_unitaries()
    phase_pair_witness = check_gdr(phase_pair).witness
    quartet = qutrit_quartet_set()
    quartet_problem = gdr_problem(quartet)
    quartet_cert = check_gdr(quartet).feasibility.certificate
    gdr_ops = gdr_problem(phase_pair).operators
    message = lambda k, err: f"{k} {err}"  # noqa: E731
    pool_rng = np.random.default_rng(0)
    pool_set, separable_set = random_qubit_set(pool_rng), random_qubit_set(pool_rng)

    def cold():
        qcore._store.clear()
        hierarchy_audit(pool_set)

    def warm():
        hierarchy_audit(pool_set)

    def separable_cold():
        qcore._store.clear()
        check_gda_separable(separable_set)

    def gdr_cold():
        qcore._store.clear()
        check_gdr(phase_pair)

    def gdr_warm():
        check_gdr(phase_pair)

    def pair_cold():
        qcore._store.clear()
        pair_distinguishable(*haar_pair)

    def pair_warm():
        pair_distinguishable(*haar_pair)

    def pair_and_probe():
        qcore._store.clear()
        build_pair_probe(*haar_pair, pair_distinguishable(*haar_pair))

    pool_rows = [verdict for _, verdict in hierarchy_audit(pool_set)]
    gdr_witness = dict(hierarchy_audit(pool_set))["GDR"].witness
    states_form = json.loads(jsonio.dumps(jsonio.witness_to_json(gdr_witness)))
    matrix_form = {**states_form, "probe_witness": {
        **states_form["probe_witness"],
        "povm": [jsonio.matrix_to_json(m) for m in gdr_witness.povm]}}

    def round_trip():
        for verdict in pool_rows:
            data = json.loads(jsonio.dumps(jsonio.verdict_to_json(verdict)))
            jsonio.witness_from_json(data["witness"])
            if data["feasibility"] and data["feasibility"]["certificate"]:
                jsonio.certificate_from_json(data["feasibility"]["certificate"])

    # (name, calls per batch, call, and a setup run before each batch if any)
    return [
        ("qcore.eig_unitary d=2", 500, lambda: eig_unitary(u2)),
        ("qcore.eig_unitary d=4", 500, lambda: eig_unitary(u4)),
        ("eigdist.min_convex_norm 2 phases", 500, lambda: min_convex_norm(phases2)),
        ("eigdist.min_convex_norm 4 phases", 500, lambda: min_convex_norm(phases4)),
        ("qcore._near_unitaries 2 x 2x2", 500, lambda: _near_unitaries((pair,), message)),
        ("eigdist.pair_distinguishable d=4, cold", 500, pair_cold),
        ("eigdist.pair_distinguishable d=4, warm", 500, pair_warm, pair_warm),
        ("eigdist.pair+build_pair_probe d=4, cold", 500, pair_and_probe),
        ("families.phase_pair_set", 500, lambda: phase_pair_set(params)),
        ("ProductUnitarySet phase-pair items", 500,
         lambda: ProductUnitarySet((2, 2), phase_pair.items)),
        ("ProductUnitarySet 4 snap items", 500, lambda: ProductUnitarySet((2, 2), snap_items)),
        ("qcore._near_unitaries 2 x 4 x 2x2", 500,
         lambda: _near_unitaries(snap_columns, message)),
        ("checker.check_povm 2 x 4x4", 500, lambda: check_povm(povm, 4)),
        ("simplex.feasible_point 3x4", 500, lambda: feasible_point(a_eq, b_eq)),
        ("checker.verify_tree pauli-hadamard", 40, lambda: verify_tree(ph_set, ph_tree)),
        ("checker.verify_probe phase-pair GDR", 500,
         lambda: verify_probe(phase_pair_ops, phase_pair_witness)),
        ("checker.verify_certificate quartet GDR", 500,
         lambda: verify_certificate(quartet_problem, quartet_cert)),
        ("jsonio.dumps phase-pair GDR verdict", 100, lambda: jsonio.dumps(verdict)),
        (f"jsonio round trip pool audit {len(pool_rows)} rows", 50, round_trip),
        ("jsonio.witness_from_json GDR states", 200,
         lambda: jsonio.witness_from_json(states_form)),
        ("jsonio.witness_from_json GDR matrices", 200,
         lambda: jsonio.witness_from_json(matrix_form)),
        ("protocols.check_gdr phase-pair, cold", 200, gdr_cold),
        ("protocols.check_gdr phase-pair, warm", 200, gdr_warm, gdr_warm),
        ("OrthogonalityProblem phase-pair GDR", 500,
         lambda: OrthogonalityProblem(phase_pair.dim, gdr_ops)),
        ("protocols.hierarchy_audit pool set, cold", 20, cold),
        ("protocols.hierarchy_audit pool set, warm", 20, warm, warm),
        ("separable.check_gda_separable pool set, cold", 100, separable_cold),
    ]


def main():
    print(f"cpus {os.cpu_count()}  python {platform.python_version()}  numpy {np.__version__}")
    kernels = _kernels()
    timers = [timeit.Timer(call, *setup) for _, _, call, *setup in kernels]
    per_call = [[] for _ in kernels]
    for _ in range(REPEATS):
        for (_, number, *_), timer, times in zip(kernels, timers, per_call):
            times.append(timer.timeit(number) / number * 1e6)
    print(f"{'kernel':46s} {'median_us':>10s} {'min_us':>10s}")
    for (name, *_), times in zip(kernels, per_call):
        print(f"{name:46s} {statistics.median(times):10.2f} {min(times):10.2f}")


if __name__ == "__main__":
    main()
