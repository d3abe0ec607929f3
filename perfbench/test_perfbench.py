"""Tests of the benchmark itself: seeded inputs, how re-checks and failures
are counted, tracing transparency, and refusal to run without the library
sources.

Run from the root of a checkout (a few seconds):

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
import dataclasses
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.pin_threads()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Tracer, metric_names  # noqa: E402

UD = bench.import_unidisc()
REFERENCE = bench.load_reference()


def quick_audits(passes, count):
    """The first ``count`` audits of pass 0 outside the stalling class."""
    return [op for op in passes[0] if "stall" not in op.cls][:count]


def statuses(ops):
    counts = Counter()
    for op in ops:
        out = op.run()
        assert not op.check(out), op.check(out)
        counts.update(out.statuses)
    return counts


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_and_status_counts(self):
        a = wl.build_qubit_audit(UD, REFERENCE, 7)
        b = wl.build_qubit_audit(UD, REFERENCE, 7)
        self.assertEqual([[op.name for op in p] for p in a],
                         [[op.name for op in p] for p in b])
        self.assertEqual(statuses(quick_audits(a, 12)), statuses(quick_audits(b, 12)))
        g1 = wl.build_pair_grid(UD, REFERENCE, 7)
        g2 = wl.build_pair_grid(UD, REFERENCE, 7)
        for p, q in zip(g1[0], g2[0]):
            self.assertEqual(p.kind, q.kind)
            if p.kind == "haar":
                np.testing.assert_array_equal(p.u1.matrix, q.u1.matrix)
        s1 = wl.build_quartet_seesaw(UD, REFERENCE, 7)
        s2 = wl.build_quartet_seesaw(UD, REFERENCE, 7)
        self.assertEqual([op.seed for op in s1[0][3:]], [op.seed for op in s2[0][3:]])

    def test_other_seed_other_random_sets(self):
        a = wl.build_qubit_audit(UD, REFERENCE, 1)
        b = wl.build_qubit_audit(UD, REFERENCE, 2)
        self.assertNotEqual([op.name for op in a[0]], [op.name for op in b[0]])
        g1 = wl.build_pair_grid(UD, REFERENCE, 1)
        g2 = wl.build_pair_grid(UD, REFERENCE, 2)
        h1 = {op.u1.matrix.tobytes() for p in g1 for op in p if op.kind == "haar"}
        h2 = {op.u1.matrix.tobytes() for p in g2 for op in p if op.kind == "haar"}
        self.assertFalse(h1 & h2)
        s1 = wl.build_quartet_seesaw(UD, REFERENCE, 1)
        s2 = wl.build_quartet_seesaw(UD, REFERENCE, 2)
        self.assertNotEqual([op.seed for op in s1[0][3:]], [op.seed for op in s2[0][3:]])

    def test_every_pass_draws_its_quota_from_every_stratum(self):
        pool = REFERENCE["qubit_pool"]["sets"]
        groups = wl.strata(pool, wl.AUDIT_SETS_PER_PASS)
        self.assertEqual(sum(q for _, _, q in groups), wl.AUDIT_SETS_PER_PASS)
        self.assertEqual(sorted(k for _, m, _ in groups for k in m), list(range(len(pool))))
        for seed in (0, 5):
            for picked in wl.stratified_passes(pool, np.random.default_rng(seed),
                                               wl.AUDIT_SETS_PER_PASS, wl.AUDIT_PASSES):
                for name, members, quota in groups:
                    self.assertEqual(len(set(picked) & set(members)), quota, name)


class Rechecks(unittest.TestCase):
    def test_unrecheckable_follows_the_json_not_the_strategy(self):
        found = None
        for op in quick_audits(wl.build_qubit_audit(UD, REFERENCE, 0), 49):
            for _, v in UD.protocols.hierarchy_audit(op.uset):
                if (v.strategy == "LDR" and v.status == "indistinguishable_certified"
                        and v.feasibility is not None
                        and wl._reverify(UD, op.uset, v) == ([], 0)):
                    found = (op.uset, v)
                    break
            if found:
                break
        self.assertIsNotNone(found, "no re-checkable LDR certificate in the pass")
        uset, v = found
        stripped = dataclasses.replace(v, feasibility=None)
        self.assertEqual(wl._reverify(UD, uset, stripped), ([], 1))

    def test_an_op_with_several_failures_counts_once(self):
        class Broken:
            def check(self, out):
                return ["first", "second"]

        run = bench.Run()
        run.record(Broken(), wl.Outcome(statuses=("not_found",)), 0, 1)
        other = bench.Run()
        other.record(Broken(), wl.Outcome(), 0, 1)
        run.merge(other)
        self.assertEqual((run.attempted, run.failed, len(run.failures)), (2, 2, 4))


class Tracing(unittest.TestCase):
    def traced_and_plain(self, ops):
        plain = [op.run().fingerprint() for op in ops]
        tracer = Tracer()
        tracer.install(UD)
        try:
            traced = [op.run().fingerprint() for op in ops]
        finally:
            tracer.uninstall()
        return plain, traced, tracer

    def test_wrappers_change_no_verdict_or_smax(self):
        ops = quick_audits(wl.build_qubit_audit(UD, REFERENCE, 3), 8)
        ops += wl.build_quartet_seesaw(UD, REFERENCE, 3)[0][:4]
        ops += wl.build_pair_grid(UD, REFERENCE, 3)[0][:20]
        plain, traced, tracer = self.traced_and_plain(ops)
        self.assertEqual(plain, traced)
        metrics = tracer.metrics()
        self.assertGreater(metrics["protocols.hierarchy_audit.calls"], 0)
        self.assertGreater(metrics["seesaw.run_seesaw.calls"], 0)
        self.assertGreater(metrics["qcore.as_matrix.calls"], 0)
        self.assertGreater(metrics["seesaw.sweeps"], 0)
        # after uninstall the library holds its own functions again
        self.assertFalse(hasattr(UD.protocols.check_gdr, "__wrapped__"))
        self.assertIs(UD.protocols.common_probe_feasible, UD.probefeas.common_probe_feasible)

    def test_nested_spans_give_self_time(self):
        uset = UD.families.qutrit_quartet_set()
        tracer = Tracer()
        tracer.install(UD)
        try:
            UD.protocols.check_gda(uset)
        finally:
            tracer.uninstall()
        names = [s[0] for s in tracer.spans]
        gda = names.index("protocols.check_gda")
        parents = {s[3] for s in tracer.spans if s[0] == "protocols.check_gdr"}
        self.assertEqual(parents, {gda})
        m = tracer.metrics()
        self.assertLess(m["protocols.check_gda.self_s"], m["protocols.check_gda.s"])
        self.assertGreaterEqual(m["protocols.check_gda.self_s"], 0.0)
        for name, _ in metric_names():
            self.assertIn(name, m)


class CommandLine(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(bench.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "pair-grid",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
