"""unidisc benchmark: one workload, one process, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {pair-grid,qubit-audit,quartet-seesaw}
                             --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout.  Set-up (a fresh
``import unidisc`` plus building the workload's inputs from the seed) is
repeated several times and its median reported.  The timed stretch runs a
fixed number of whole passes of operations, sized so that it takes
``--seconds`` at the seed commit on the reference machine, and checks every
output.  With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` half as many passes run untraced and
then traced, and the JSON carries the per-layer metrics plus the tracing
overhead.  The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh imports plus input builds timed per run, at least this many and
#: for at least this long (short set-ups read noisily); the median is reported.
SETUP_REPEATS = 7
SETUP_MIN_S = 1.0
#: Samples a tail percentile must leave beyond it.
TAIL_SAMPLES = 10
#: The tail is taken per segment of at least this many consecutive ops, and
#: the median over segments reported.  Bursts of host slowdown inflate every
#: op they cover, so over 20k ops the tenth-largest latency only says
#: whether a burst happened; a burst moves only the segments it falls in.
SEGMENT_OPS = 1000
#: Seconds between machine-speed probes during a timed stretch.
PROBE_EVERY_S = 0.05
#: An op's latency is normalized by the median probe started within this
#: many seconds of the op (before its start, during it, or after its end).
WINDOW_S = 0.5
#: Median probe time (ms) on the machine the benchmark was defined on (2-vCPU
#: x86-64 VM shared with other tenants, Python 3.11.7, numpy 2.4.6).  Normalized metrics are
#: scaled to that machine's speed; the constant never changes, so normalized
#: figures stay comparable across commits.
PROBE_REF_MS = 1.08
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or reference)."""


def pin_threads():
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def forget_unidisc():
    for name in [n for n in sys.modules if n == "unidisc" or n.startswith("unidisc.")]:
        del sys.modules[name]


def import_unidisc():
    """Import ``unidisc`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "unidisc" / "__init__.py").is_file():
        raise BenchError(f"no unidisc sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    ud = importlib.import_module("unidisc")
    if Path(ud.__file__).resolve().parent != (src / "unidisc").resolve():
        raise BenchError(f"unidisc imported from {ud.__file__}, not from {src}")
    return ud


def load_reference():
    path = HERE / "reference.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def git_sha():
    """Commit of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup(build, reference, seed):
    """Time repeated fresh imports plus input builds; keep the last.

    Returns the module, the passes, and the repeat times in seconds, raw and
    normalized like op latencies (see ``Run.normalized``).  Each repeat
    drops the previous copy first, so set-up never holds two copies of the
    inputs."""
    run = Run()
    probe = MachineProbe()
    run.probe(probe)
    with timer_probes(run, probe):
        while len(run.latency_ns) < SETUP_REPEATS or sum(run.latency_ns) < SETUP_MIN_S * 1e9:
            ud = passes = None
            forget_unidisc()
            gc.collect()  # every repeat starts from the same heap
            t0 = time.perf_counter_ns()
            ud = import_unidisc()
            passes = build(ud, reference, seed)
            run.time(t0, time.perf_counter_ns())
    run.probe(probe)
    return ud, passes, [t / 1e9 for t in run.latency_ns], [t / 1e9 for t in run.normalized()]


class MachineProbe:
    """Fixed numpy and interpreter work that never touches unidisc.

    The host this benchmark was defined on drifts in speed by up to a
    quarter over tens of seconds (other tenants), and every op slows with
    it, and bursts of a few hundred milliseconds slow it fourfold.  Timing
    this probe between ops gives the machine's speed while the ops ran,
    which the normalized metrics divide out.  Its work mirrors the library's
    inner loops: small Hermitian eigendecompositions, array conversions,
    products and Python-level arithmetic.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.mats = []
        for dim in (4, 4, 9, 9):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            self.mats.append(z + z.conj().T)
        self.eigh = np.linalg.eigh
        self.asarray, self.isfinite = np.asarray, np.isfinite
        self.absolute, self.kron = np.absolute, np.kron

    def __call__(self):
        t0 = time.perf_counter_ns()
        acc = 0.0
        for _ in range(3):
            for m in self.mats:
                w, v = self.eigh(m)
                a = self.asarray(m, dtype=complex)
                if self.isfinite(a.real).all():
                    acc += float(self.absolute(a - a.conj().T).max())
                acc += float(w[0]) + abs((m @ v)[0, 0])
                acc += self.kron(a[:2, :2], a[:2, :2])[0, 0].real
                for j in range(20):
                    acc += j * 0.5
        return time.perf_counter_ns() - t0


class Run:
    """Latencies, verdict counts and failures of one timed stretch.

    ``failures`` holds the messages; ``failed_ops`` the indices (in
    attempt order) of the ops with at least one failure."""

    def __init__(self):
        self.probe_start = []  # start_ns per probe
        self.probe_span = []  # ns the probe kept the process from its op
        self.probe_ns = []  # the probe's own timing
        self.probing = False
        self.op_at = []  # (start_ns, end_ns) per completed op
        self.latency_ns = []
        self.fingerprints = []
        self.attempted = 0
        self.failures = []
        self.failed_ops = set()
        self.verdicts = 0
        self.decided = 0
        self.unrecheckable = 0
        self.passes = 0

    def record(self, op, out, t0=0, t1=0):
        self.attempted += 1
        if out is None:
            self.fingerprints.append(None)
            return
        self.time(t0, t1)
        self.fingerprints.append(out.fingerprint())
        self.verdicts += len(out.statuses)
        self.decided += out.decided()
        self.unrecheckable += out.unrecheckable
        for message in op.check(out):
            self.fail(self.attempted - 1, message)

    def time(self, t0, t1):
        """Record a latency; probes the interval timer ran inside it are
        not its time."""
        self.op_at.append((t0, t1))
        lo = bisect.bisect_left(self.probe_start, t0)
        hi = bisect.bisect_left(self.probe_start, t1)
        self.latency_ns.append(t1 - t0 - sum(self.probe_span[lo:hi]))

    def fail(self, index, message):
        self.failed_ops.add(index)
        self.failures.append(message)

    def merge(self, other):
        """Count ``other``'s ops and failures after this stretch's own."""
        self.failed_ops.update(self.attempted + i for i in other.failed_ops)
        self.failures.extend(other.failures)
        self.attempted += other.attempted

    @property
    def failed(self):
        return len(self.failed_ops)

    def probe(self, probe):
        if self.probing:  # a timer signal that lands inside a probe
            return
        self.probing = True
        t0 = time.perf_counter_ns()
        ns = probe()
        self.probe_start.append(t0)
        self.probe_ns.append(ns)
        self.probe_span.append(time.perf_counter_ns() - t0)
        self.probing = False

    def slowdown(self):
        """Median probe time of this stretch over the reference machine's."""
        return statistics.median(self.probe_ns) / 1e6 / PROBE_REF_MS

    def normalized(self):
        """Each op's latency divided by its slowdown: the median probe
        started within ``WINDOW_S`` of the op, over ``PROBE_REF_MS``."""
        w = int(WINDOW_S * 1e9)
        starts, out = self.probe_start, []
        for (a, b), lat in zip(self.op_at, self.latency_ns):
            lo = bisect.bisect_left(starts, a - w)
            hi = bisect.bisect_right(starts, b + w)
            if hi == lo:  # no probe near: take the closest one before
                lo, hi = max(lo - 1, 0), max(lo, 1)
            near = statistics.median(self.probe_ns[lo:hi])
            out.append(lat * PROBE_REF_MS * 1e6 / near)
        return out

    def segments(self, normalized):
        """Latencies, raw or normalized, in consecutive segments of at least
        ``SEGMENT_OPS`` ops (one segment if fewer)."""
        lats = self.normalized() if normalized else self.latency_ns
        n = len(lats)
        k = max(1, n // SEGMENT_OPS)
        return [lats[s * n // k:(s + 1) * n // k] for s in range(k)]


def run_op(op, run, tracer=None):
    if tracer is not None:
        tracer.op_id = run.attempted
    t0 = time.perf_counter_ns()
    try:
        out = op.run()
    except Exception as exc:  # a raising op is a failed op, not a crash
        run.record(op, None)
        run.fail(run.attempted - 1, f"{type(op).__name__} raised {type(exc).__name__}: {exc}")
        return
    run.record(op, out, t0, time.perf_counter_ns())


@contextlib.contextmanager
def timer_probes(run, probe):
    """Probe the machine into ``run`` every ``PROBE_EVERY_S`` from an
    interval timer while the block runs, inside long calls as well."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: run.probe(probe))
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def measure(passes, count, tracer=None, timer=True):
    """Run ``count`` whole passes, cycling through them.  The machine probe
    runs every ``PROBE_EVERY_S``: from an interval timer, so inside long ops
    as well as between ops (its time is taken out of the op's latency), or
    with ``timer=False`` only between ops."""
    run = Run()
    probe = MachineProbe()
    run.probe(probe)
    with timer_probes(run, probe) if timer else contextlib.nullcontext():
        last_probe = time.perf_counter()
        for p in range(count):
            for op in passes[p % len(passes)]:
                run_op(op, run, tracer)
                if not timer and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                    run.probe(probe)
                    last_probe = time.perf_counter()
    run.passes = count
    run.probe(probe)
    return run


def tail(segments):
    """(ms, percentile): per segment, the latency at the highest percentile
    that leaves ``TAIL_SAMPLES`` samples beyond it; medians over segments."""
    values, pcts = [], []
    for seg in segments:
        if len(seg) <= TAIL_SAMPLES:
            raise ValueError(f"{len(seg)} ops are too few for a tail percentile")
        rank = len(seg) - TAIL_SAMPLES - 1
        values.append(sorted(seg)[rank])
        pcts.append(100.0 * (rank + 1) / len(seg))
    return statistics.median(values) / 1e6, statistics.median(pcts)


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timings(segments):
    """Throughput (op/s), median and tail latency (ms) of segmented latencies."""
    flat = [lat for seg in segments for lat in seg]
    return {
        "ops_per_s": len(flat) / (sum(flat) / 1e9),
        "op_p50_ms": statistics.median(flat) / 1e6,
        "op_tail_ms": tail(segments)[0],
    }


def end_to_end(run, setup_norm):
    """The result line's metrics.  The tail is printed, not bounded: on the
    shared 2-vCPU host the benchmark was defined on, neither its raw nor its
    normalized reading held a 25% spread over ten seeds (see README.md)."""
    norm = timings(run.segments(normalized=True))
    return {
        "setup_s": (statistics.median(setup_norm), "s"),
        "ops_per_s_norm": (norm["ops_per_s"], "op/s"),
        "op_p50_ms_norm": (norm["op_p50_ms"], "ms"),
        "decided_share": (run.decided / run.verdicts, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def describe(args, ud, passes, run, setup_times):
    import numpy as np

    segments = run.segments(normalized=True)
    _, pct = tail(segments)
    ops = sum(len(p) for p in passes)
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
        f"trace {args.trace}",
        f"machine nproc {os.cpu_count()}  python {platform.python_version()}  "
        f"numpy {np.__version__}  unidisc {ud.__version__}  "
        f"commit {git_sha() or 'unknown (not a git checkout)'}",
        f"inputs {len(passes)} passes, {ops} ops; timed {run.passes} passes, "
        f"{run.attempted} ops",
        "setup_s samples as measured " + " ".join(f"{t:.4f}" for t in setup_times),
        f"op_tail_ms is p{pct:.2f} ({TAIL_SAMPLES} samples beyond it), median over "
        f"{len(segments)} segments of {len(run.latency_ns) // len(segments)} ops; "
        f"{len(run.latency_ns)} samples",
        "as measured: " + "  ".join(
            f"{k} {v:.4f}" for k, v in timings(run.segments(normalized=False)).items()),
        "normalized: " + "  ".join(
            f"{k}_norm {v:.4f}" for k, v in timings(segments).items()),
        f"machine probe: {len(run.probe_ns)} probes, median slowdown "
        f"{run.slowdown():.4f} against {PROBE_REF_MS} ms",
        f"verdicts {run.verdicts}: decided {run.decided}, not_found "
        f"{run.verdicts - run.decided}",
        f"failed_share {run.failed}/{run.attempted}",
    ]
    lines += [f"FAIL {msg}" for msg in run.failures[:20]]
    return lines


def result_line(run, metrics):
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def trace_run(ud, passes, count):
    """``count`` passes untraced, then the same passes traced.  Both probe
    the machine only between ops, so that no probe lands inside a span."""
    from tracing import Tracer, metric_names

    plain = measure(passes, count, timer=False)
    tracer = Tracer()
    tracer.install(ud)
    try:
        traced = measure(passes, count, tracer=tracer, timer=False)
    finally:
        tracer.uninstall()
    for i, (a, b) in enumerate(zip(plain.fingerprints, traced.fingerprints)):
        if a != b:
            traced.fail(i, f"op {i}: traced run returned {b}, untraced {a}")
    traced.merge(plain)
    values = tracer.metrics()
    plain_ops = timings(plain.segments(normalized=True))["ops_per_s"]
    traced_ops = timings(traced.segments(normalized=True))["ops_per_s"]
    values["trace.ops_per_s_norm"] = traced_ops
    values["trace.untraced_ops_per_s_norm"] = plain_ops
    values["trace.overhead_ratio"] = plain_ops / traced_ops
    values["protocols.certified_unrecheckable"] = traced.unrecheckable
    metrics = {name: (values[name], unit) for name, unit in metric_names()}
    overhead = [f"tracing overhead: untraced {plain_ops:.3f} op/s, traced "
                f"{traced_ops:.3f} op/s (normalized), ratio "
                f"{values['trace.overhead_ratio']:.4f} over {plain.passes} passes"]
    return traced, metrics, overhead


def main(argv=None):
    from workloads import WORKLOADS, pass_count

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    reference = load_reference()
    build, pass_s = WORKLOADS[args.workload]
    ud, passes, setup_times, setup_norm = setup(build, reference, args.seed)
    setup_rss = peak_rss_mb()
    # the inputs live for the whole run: keep the collector from rescanning
    # them, or its pauses land in whichever op happens to trigger them
    gc.collect()
    gc.freeze()
    warm = Run()
    run_op(passes[0][0], warm)
    if args.trace:
        run, metrics, extra = trace_run(ud, passes, pass_count(args.seconds / 2, pass_s))
    else:
        run = measure(passes, pass_count(args.seconds, pass_s))
        metrics, extra = end_to_end(run, setup_norm), []
    run.merge(warm)
    extra.append(f"peak_rss_mb after set-up {setup_rss:.1f}, after the run "
                 f"{peak_rss_mb():.1f}")
    for line in describe(args, ud, passes, run, setup_times) + extra:
        print(line)
    print(result_line(run, metrics), flush=True)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    pin_threads()
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
