"""Record the reference table the benchmark checks outputs against.

Run from the root of a checkout, on the commit whose verdicts define the
reference (this file was generated at the benchmark's seed commit):

    python3 perfbench/make_reference.py

It writes ``perfbench/reference.json`` with

* ``qubit_pool``: the first ``POOL`` sets of ``random_qubit_set`` at rng
  seed 0, stored as indices into the recorded gate alphabet, each with its
  ``hierarchy_audit`` statuses (one letter per row, see ``STATUS_CODES`` in
  ``workloads.py``), a class (set size, whether the GDR constraints commute,
  and whether any search stalled in alternating projections) and the op's
  cost in ms on the generating machine (best of three), which only sorts
  sets into the cost bins ``qubit-audit`` samples from;
* ``builtins`` and ``quartet``: the statuses of the builtin sets' audits and
  of ``check_lda`` on the qutrit quartet;
* ``seesaw``: bob-first ``s_max`` and sweep count for seesaw seeds
  ``0 .. SEESAW_SEEDS - 1``.

Every witness and GDR certificate is re-verified before anything is written.
"""

from __future__ import annotations

import json
import sys
import time

import run as bench

#: Random qubit sets in the pool.  The stall stratum's rate (23 of 1000) and
#: the cost bins of ``qubit-audit`` are drawn from a pool of this size.
POOL = 1000
#: Bob-first seesaw seeds recorded; ``quartet-seesaw`` bins them 8 by 8.
SEESAW_SEEDS = 64


def gate_index(gates, mat):
    import numpy as np

    for k, g in enumerate(gates):
        if np.array_equal(g, mat):
            return k
    raise ValueError("factor is not a snap gate")


def stalled(rows):
    """Whether some search of the audit stalled in alternating projections."""
    notes = []
    for _, v in rows:
        notes.append(v.note)
        if v.feasibility is not None:
            notes.append(v.feasibility.note)
    return any("alternating projections stalled" in n for n in notes)


def main():
    import numpy as np
    import workloads as wl

    ud = bench.import_unidisc()
    codes = {status: code for code, status in wl.STATUS_CODES.items()}
    gates = [np.asarray(g, dtype=complex) for g in ud.families.SNAP_GATES]
    rng = np.random.default_rng(0)
    pool = []
    labels = None
    t_start = time.perf_counter()
    for k in range(POOL):
        uset = ud.families.random_qubit_set(rng)
        rows = ud.protocols.hierarchy_audit(uset)
        out = wl._audit_rows(ud, uset, rows)
        if out.errors:
            raise SystemExit(f"pool set {k}: {out.errors}")
        op = wl.Audit(ud, f"pool set {k}", uset, {})
        costs = []
        for _ in range(1 if stalled(rows) else 3):
            t0 = time.perf_counter()
            op.run()
            costs.append(time.perf_counter() - t0)
        commuting = ud.protocols.gdr_problem(uset).commuting
        cls = f"m{uset.size}-{'c' if commuting else 'n'}"
        if stalled(rows):
            cls += "-stall"
        if labels is None:
            labels = [label for label, _ in rows]
        if [label for label, _ in rows] != labels:
            raise SystemExit(f"pool set {k}: audit rows {rows} differ from {labels}")
        pool.append({
            "items": [[gate_index(gates, a), gate_index(gates, b)]
                      for _, a, b in uset.items],
            "class": cls,
            "statuses": "".join(codes[v.status] for _, v in rows),
            "ms": round(1000 * min(costs), 3),
        })
        if k % 100 == 99:
            print(f"pool {k + 1}/{POOL}  {time.perf_counter() - t_start:.1f} s",
                  file=sys.stderr)

    builtins = {}
    for name, uset in wl.builtin_sets(ud).items():
        rows = ud.protocols.hierarchy_audit(uset)
        out = wl._audit_rows(ud, uset, rows)
        if out.errors:
            raise SystemExit(f"{name}: {out.errors}")
        builtins[name] = {label: v.status for label, v in rows}

    quartet = ud.families.qutrit_quartet_set()
    lda = {}
    for party in ("A", "B"):
        v = ud.protocols.check_lda(quartet, party)
        out = wl._audit_rows(ud, quartet, [(None, v)])
        if out.errors:
            raise SystemExit(f"LDA:{party}: {out.errors}")
        lda[f"LDA:{party}"] = v.status

    task = ud.seesaw.quartet_bob_first_task()
    seeds = {}
    for s in range(SEESAW_SEEDS):
        res = ud.seesaw.run_seesaw(task, restarts=wl.SEESAW_RESTARTS, seed=s)
        if res.s_max > ud.seesaw.QUARTET_BOB_FIRST_SMAX_BOUND:
            raise SystemExit(f"seesaw seed {s}: s_max {res.s_max!r} above the bound")
        seeds[str(s)] = {"s_max": float(res.s_max),
                         "sweeps": sum(n for _, n in res.per_restart)}

    reference = {
        "commit": bench.git_sha(),
        "qubit_pool": {
            "rng_seed": 0,
            "gates": [],
            "labels": labels,
            "sets": [],
        },
        "builtins": builtins,
        "quartet": lda,
        "seesaw": {"restarts": wl.SEESAW_RESTARTS, "seeds": {}},
    }
    # one gate or pool set per line keeps the file small and diffs readable
    text = json.dumps(reference, indent=1)
    for key, rows in (("gates", [np.stack([g.real, g.imag], axis=-1).tolist()
                                 for g in gates]), ("sets", pool)):
        body = ",\n".join("   " + json.dumps(row) for row in rows)
        text = text.replace(f'"{key}": []', f'"{key}": [\n{body}\n  ]')
    body = ",\n".join(f"   {json.dumps(s)}: {json.dumps(v)}" for s, v in seeds.items())
    text = text.replace('"seeds": {}', '"seeds": {\n' + body + "\n  }")
    with open(bench.HERE / "reference.json", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    classes = {}
    for entry in pool:
        classes[entry["class"]] = classes.get(entry["class"], 0) + 1
    print(json.dumps(classes, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    bench.pin_threads()
    sys.exit(main())
