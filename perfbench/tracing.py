"""Per-layer tracing installed from the benchmark's side of the API.

Each traced function is replaced by a wrapper in *every* ``unidisc`` module
that holds a reference to it, the defining module and each ``from .x import
f`` importer alike; otherwise calls made inside the library would bypass the
wrapper.  Span wrappers record ``(name, start_ns, end_ns, parent, op_id)``
in memory; counter wrappers only count.  ``Tracer.metrics()`` folds the
spans into per-function call counts, inclusive time and self time (inclusive
time minus the time covered by direct child spans).
"""

from __future__ import annotations

import logging
import time

#: (module, function) pairs timed with spans.
SPANNED = (
    ("qcore", "eig_unitary"),
    ("qcore", "simultaneous_eigenbasis"),
    ("simplex", "feasible_point"),
    ("eigdist", "min_convex_norm"),
    ("eigdist", "pair_distinguishable"),
    ("eigdist", "build_pair_probe"),
    ("probefeas", "common_probe_feasible"),
    ("probefeas", "purify_witness"),
    ("probefeas", "verify_certificate"),
    ("protocols", "check_gdr"),
    ("protocols", "check_ldr"),
    ("protocols", "check_lda"),
    ("protocols", "check_gda"),
    ("protocols", "hierarchy_audit"),
    ("protocols", "verify_tree"),
    ("protocols", "verify_probe"),
    ("separable", "check_gda_separable"),
    ("separable", "separable_start_analysis"),
    ("seesaw", "run_seesaw"),
    ("seesaw", "measurement_step"),
    ("seesaw", "rho_step"),
    ("jsonio", "dumps"),
    ("jsonio", "verdict_to_json"),
    ("jsonio", "tree_from_json"),
    ("jsonio", "probe_witness_from_json"),
)
#: (module, function) pairs whose calls are only counted: they run too
#: often for a span each.
COUNTED = (
    ("qcore", "as_matrix"),
    ("seesaw", "elimination_objective"),
)
#: Layers whose spans also report self time.
SELF_TIMED = ("protocols", "seesaw")
#: ``common_probe_feasible`` routes, classified from the returned note.
ROUTES = ("lp", "single_op_cert", "mixed", "projections", "trivial")
NONCONVERGED = "measurement step did not converge"


def probe_route(result):
    """Which route of ``common_probe_feasible`` produced a result."""
    note = result.note
    if note.startswith("common-eigenbasis linear program"):
        return "lp"
    if note.startswith("single-operator spectral certificate"):
        return "single_op_cert"
    if note == "maximally mixed witness":
        return "mixed"
    if "alternating projections" in note:
        return "projections"
    if note in ("empty constraint set", "no nontrivial constraints"):
        return "trivial"
    raise ValueError(f"unclassified common_probe_feasible note {note!r}")


def metric_names():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for mod, fn in SPANNED:
        base = f"{mod}.{fn}"
        if (mod, fn) == ("probefeas", "common_probe_feasible"):
            for route in ROUTES:
                out += [(f"{base}.{route}.calls", "count"), (f"{base}.{route}.s", "s")]
            out.append(("probefeas.decided_ratio", "ratio"))
            continue
        out += [(f"{base}.calls", "count"), (f"{base}.s", "s")]
        if mod in SELF_TIMED:
            out.append((f"{base}.self_s", "s"))
        if (mod, fn) == ("jsonio", "dumps"):
            out.append((f"{base}.bytes", "bytes"))
    out += [(f"{mod}.{fn}.calls", "count") for mod, fn in COUNTED]
    out += [
        ("protocols.certified_unrecheckable", "count"),
        ("seesaw.sweeps", "count"),
        ("seesaw.measurement_nonconverged", "count"),
        ("trace.ops_per_s_norm", "op/s"),
        ("trace.untraced_ops_per_s_norm", "op/s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


class _WarningCounter(logging.Handler):
    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if NONCONVERGED in record.getMessage():
            self.counts["seesaw.measurement_nonconverged"] += 1


class Tracer:
    """Spans and counters for one traced stretch of operations."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.counts = {name: 0.0 if unit == "s" else 0 for name, unit in metric_names()}
        self.probe_decided = 0
        self._restore = []
        self._handler = None
        self._logger = None

    # -- installation -------------------------------------------------------

    def install(self, ud):
        modules = [m for m in vars(ud).values()
                   if getattr(m, "__name__", "").startswith("unidisc.")]
        modules.append(ud)
        for mod, fn in SPANNED:
            original = getattr(getattr(ud, mod), fn)
            self._rebind(modules, original, self._span_wrapper(mod, fn, original))
        for mod, fn in COUNTED:
            original = getattr(getattr(ud, mod), fn)
            self._rebind(modules, original,
                         self._count_wrapper(f"{mod}.{fn}.calls", original))
        self._logger = logging.getLogger("unidisc.seesaw")
        self._handler = _WarningCounter(self.counts)
        self._logger.addHandler(self._handler)

    def uninstall(self):
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore = []
        if self._handler is not None:
            self._logger.removeHandler(self._handler)
            self._handler = None

    def _rebind(self, modules, original, wrapper):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _count_wrapper(self, key, original):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, mod, fn, original):
        base = f"{mod}.{fn}"
        after = _AFTER.get((mod, fn))
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (base, t0, t1, parent, self.op_id)
            if after is not None:
                spans[sid] = (after(self, base, result), t0, t1, parent, self.op_id)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics from the recorded spans and counters."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, incl, self_ns = {}, {}, {}
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0) + (t1 - t0)
            self_ns[name] = self_ns.get(name, 0) + (t1 - t0 - child[sid])
        out = dict(self.counts)
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name] / 1e9
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] = self_ns[name] / 1e9
        cpf = "probefeas.common_probe_feasible"
        total = sum(calls.get(f"{cpf}.{r}", 0) for r in ROUTES)
        out["probefeas.decided_ratio"] = self.probe_decided / total if total else 0.0
        return out


def _after_probe(tracer, base, result):
    if result.status in ("feasible", "infeasible_certified"):
        tracer.probe_decided += 1
    return f"{base}.{probe_route(result)}"


def _after_dumps(tracer, base, result):
    tracer.counts["jsonio.dumps.bytes"] += len(result.encode())
    return base


def _after_seesaw(tracer, base, result):
    tracer.counts["seesaw.sweeps"] += sum(int(s) for _, s in result.per_restart)
    return base


_AFTER = {
    ("probefeas", "common_probe_feasible"): _after_probe,
    ("jsonio", "dumps"): _after_dumps,
    ("seesaw", "run_seesaw"): _after_seesaw,
}
