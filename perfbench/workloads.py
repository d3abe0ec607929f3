"""Workload inputs, operations and correctness checks for the benchmark.

Each workload turns ``--seed`` into a list of *passes*; a pass is a list of
operations, and the runner times whole passes so that every measured stretch
has the same mix of cheap and expensive operations.  Operations reach the
library only through module attributes looked up at call time
(``ud.protocols.check_gdr`` and so on), so the tracing wrappers installed by
``tracing.py`` see every call the benchmark makes.

Reference values (qubit-set verdicts, seesaw ``s_max`` per seed) come from
``reference.json``, written by ``make_reference.py`` at the seed commit.  The
random inputs are drawn from the pools recorded there, which is what lets an
arbitrary ``--seed`` be checked against recorded verdicts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: Re-verified success probabilities must reach 1 within this margin.
SUCCESS_TOL = 1e-9
#: Seeded seesaw values must match the recorded ones within this margin.
SMAX_TOL = 1e-12
#: Interior grid resolution of ``pair-grid``: n = 16 gives 2736 points.
GRID_N = 16
#: Haar pairs per dimension (2, 3, 4) in ``pair-grid``.  The mix is kept at
#: one Haar op per three grid ops, so the median sits inside the grid mode
#: rather than in the gap between the two latency modes.
HAAR_PER_DIM = 304
#: Operations per ``pair-grid`` pass.
PAIR_GRID_PASS = 76
#: Random sets per ``qubit-audit`` pass, after the three builtins.
AUDIT_SETS_PER_PASS = 50
#: Distinct passes built for ``qubit-audit``; the runner cycles through them.
AUDIT_PASSES = 6
#: Bob-first seesaw calls per ``quartet-seesaw`` pass and restarts per call.
SEESAW_CALLS_PER_PASS = 8
SEESAW_RESTARTS = 1

PHASE_PAIR_ANGLES = (0.3, 0.5, 0.9, math.pi - 1.7)
DECIDED = ("distinguishable", "indistinguishable_certified")
#: One-letter verdict statuses used by the qubit pool in ``reference.json``.
STATUS_CODES = {"d": "distinguishable", "c": "indistinguishable_certified",
                "n": "not_found"}


# ---------------------------------------------------------------------------
# outcomes


@dataclass
class Outcome:
    """What one operation returned, reduced to what the checks compare.

    ``statuses`` holds the verdict statuses in call order, ``values`` any
    seeded numbers (``s_max``), and ``errors`` the correctness failures
    found while re-verifying inside the operation.  ``unrecheckable`` counts
    certified verdicts that carry no certificate a reader can re-check from
    the JSON alone.
    """

    statuses: tuple = ()
    values: tuple = ()
    errors: tuple = ()
    unrecheckable: int = 0
    labels: tuple = ()

    def fingerprint(self):
        return (self.statuses, self.values)

    def decided(self):
        return sum(status in DECIDED for status in self.statuses)


def _to_json_roundtrip(ud, verdict):
    """Serialize a verdict canonically; return the decoded JSON, witness and
    certificate."""
    text = ud.jsonio.dumps(ud.jsonio.verdict_to_json(verdict))
    data = json.loads(text)
    witness = ud.jsonio.witness_from_json(data["witness"])
    feas = data["feasibility"]
    cert = None
    if feas is not None and feas["certificate"] is not None:
        cert = ud.jsonio.certificate_from_json(feas["certificate"])
    return data, witness, cert


def _relatives(ud, uset, party, members):
    """Phase-distinct relative factors ``f_i^dagger f_j`` (i < j) of
    ``members`` on one party, in the order the local checks pose them."""
    ops = []
    for x, i in enumerate(members):
        for j in members[x + 1:]:
            k = uset.factor(i, party).conj().T @ uset.factor(j, party)
            if not any(ud.protocols.phase_equal(k, other) for other in ops):
                ops.append(k)
    return ops


def _sufficient_problems(ud, uset, strategy, start):
    """Responder problems whose infeasibility alone certifies a local verdict.

    Each within-group problem binds every LDR and LDA protocol, since
    phase-equal starting factors are never split; the union of them binds
    LDR, whose responder probe is fixed upfront.  A local certificate that
    proves none of these (a stage-1 certificate, which certifies the verdict
    only together with union reductions the JSON does not carry) cannot be
    re-checked from the JSON alone.
    """
    resp = "B" if start == "A" else "A"
    dim = uset.party_dims[0 if resp == "A" else 1]
    groups = [_relatives(ud, uset, resp, g.member_indices)
              for g in ud.protocols.group_by_factor(uset, start)]
    problems = [ops for ops in groups if ops]
    if strategy == "LDR" and problems:
        union = []
        for k in (k for ops in problems for k in ops):
            if not any(ud.protocols.phase_equal(k, other) for other in union):
                union.append(k)
        problems.append(union)
    return [ud.probefeas.OrthogonalityProblem(dim=dim, operators=tuple(ops))
            for ops in problems]


def _certificate_proves(ud, problems, cert):
    for problem in problems:
        try:
            ud.probefeas.verify_certificate(problem, cert)
            return True
        except (ValueError, IndexError):
            continue
    return False


def _reverify(ud, uset, verdict):
    """Re-check one verdict from its JSON form; return (errors, unrecheckable).

    A certified verdict is unrecheckable when its JSON carries no
    certificate, or a certificate that proves none of the problems the
    benchmark rebuilds for its strategy (see ``_sufficient_problems``).  GDR
    certificates must re-verify against ``gdr_problem``.
    """
    errors = []
    data, witness, cert = _to_json_roundtrip(ud, verdict)
    strategy, start, status = data["strategy"], data["starting_party"], data["status"]
    label = f"{strategy}:{start}"
    if status == "distinguishable":
        if witness is None:
            errors.append(f"{label}: distinguishable without a witness")
        elif isinstance(witness, ud.protocols.ProtocolTree):
            success = ud.protocols.verify_tree(uset, witness).success
            if np.min(success) < 1.0 - SUCCESS_TOL:
                errors.append(f"{label}: tree success {np.min(success):.12f}")
        else:
            success = ud.protocols.verify_probe(uset.global_unitaries(), witness)
            if np.min(success) < 1.0 - SUCCESS_TOL:
                errors.append(f"{label}: probe success {np.min(success):.12f}")
        return errors, 0
    if status != "indistinguishable_certified":
        return errors, 0
    if strategy == "GDR":
        if cert is None:
            errors.append(f"{label}: certified without a certificate")
            return errors, 0
        try:
            ud.probefeas.verify_certificate(ud.protocols.gdr_problem(uset), cert)
        except ValueError as exc:
            errors.append(f"{label}: {exc}")
        return errors, 0
    if cert is None or strategy not in ("LDR", "LDA"):
        return errors, 1
    problems = _sufficient_problems(ud, uset, strategy, start)
    return errors, 0 if _certificate_proves(ud, problems, cert) else 1


def _audit_rows(ud, uset, rows):
    errors, unrecheckable = [], 0
    for _, verdict in rows:
        errs, unre = _reverify(ud, uset, verdict)
        errors.extend(errs)
        unrecheckable += unre
    return Outcome(statuses=tuple(v.status for _, v in rows),
                   errors=tuple(errors), unrecheckable=unrecheckable,
                   labels=tuple(label for label, _ in rows))


def _flips(labels, statuses, reference):
    """Decided verdicts that disagree with the reference (not_found -> decided
    is progress and allowed; a decided verdict may not flip or regress)."""
    out = []
    for label, status in zip(labels, statuses):
        ref = reference[label]
        if ref in DECIDED and status != ref:
            out.append(f"{label}: {status} where the reference is {ref}")
    return out


# ---------------------------------------------------------------------------
# operations


class GridPoint:
    """One interior point of the diagonal-phase grid.

    The composite probe must succeed (``check_gdr`` witness re-verified with
    ``verify_probe``) while neither local factor pair is distinguishable.
    """

    kind = "grid"

    def __init__(self, ud, angles):
        self.ud = ud
        self.angles = angles
        self.uset = ud.families.phase_pair_set(ud.families.PhasePairParams(*angles))

    def run(self):
        ud, u = self.ud, self.uset
        v = ud.protocols.check_gdr(u)
        errors = []
        if v.witness is None:
            errors.append("GDR: no witness")
        else:
            s = ud.protocols.verify_probe(u.global_unitaries(), v.witness)
            if np.min(s) < 1.0 - SUCCESS_TOL:
                errors.append(f"GDR: probe success {np.min(s):.12f}")
        for party in ("A", "B"):
            r = ud.eigdist.pair_distinguishable(u.factor(0, party), u.factor(1, party))
            if r.distinguishable:
                errors.append(f"local pair {party} reported distinguishable")
        return Outcome(statuses=(v.status,), errors=tuple(errors))

    def check(self, out):
        if out.statuses != ("distinguishable",):
            return [f"grid point {self.angles}: GDR {out.statuses}"] + list(out.errors)
        return [f"grid point {self.angles}: {e}" for e in out.errors]


def _hull_has_origin(phases):
    """Independent oracle: unit-circle points have the origin in their hull
    iff no angular gap exceeds pi.  Returns the gap slack (negative = no)."""
    p = np.sort(np.mod(phases, 2 * np.pi))
    gaps = np.diff(np.concatenate([p, [p[0] + 2 * np.pi]]))
    return math.pi - float(np.max(gaps))


class HaarPair:
    """One Haar-random pair through the exact pair criterion."""

    kind = "haar"

    def __init__(self, ud, u1, u2):
        self.ud = ud
        self.u1, self.u2 = u1, u2

    def run(self):
        ud = self.ud
        r = ud.eigdist.pair_distinguishable(self.u1, self.u2)
        errors = []
        if r.distinguishable:
            probe = ud.eigdist.build_pair_probe(self.u1, self.u2, r)
            psi = probe.probe.amplitudes
            cross = abs(np.vdot(self.u1.matrix @ psi, self.u2.matrix @ psi))
            if cross > SUCCESS_TOL:
                errors.append(f"evolved overlap {cross:.3e}")
        return Outcome(values=(bool(r.distinguishable),), errors=tuple(errors))

    def check(self, out):
        errors = list(out.errors)
        rel = self.u1.matrix.conj().T @ self.u2.matrix
        slack = _hull_has_origin(np.angle(np.linalg.eigvals(rel)))
        # the oracle is only trusted away from the boundary of the hull test
        if abs(slack) > 1e-7 and out.values[0] != (slack > 0):
            errors.append(f"pair verdict {out.values[0]} disagrees with the "
                          f"eigenvalue-gap oracle (slack {slack:.3e})")
        return [f"haar pair d={self.u1.matrix.shape[0]}: {e}" for e in errors]


class Audit:
    """``hierarchy_audit`` on one set, each verdict re-checked from JSON."""

    kind = "audit"

    def __init__(self, ud, name, uset, reference, cls="builtin"):
        self.ud = ud
        self.name = name
        self.uset = uset
        self.reference = reference
        self.cls = cls

    def run(self):
        rows = self.ud.protocols.hierarchy_audit(self.uset)
        return _audit_rows(self.ud, self.uset, rows)

    def check(self, out):
        errors = list(out.errors)
        if out.labels != tuple(self.reference):
            errors.append(f"audit rows {out.labels} differ from the reference")
        else:
            errors.extend(_flips(out.labels, out.statuses, self.reference))
        return [f"{self.name}: {e}" for e in errors]


class LocalAdaptive:
    """``check_lda`` on the qutrit quartet for one starting party."""

    kind = "lda"

    def __init__(self, ud, uset, party, reference):
        self.ud = ud
        self.uset = uset
        self.party = party
        self.reference = reference

    def run(self):
        v = self.ud.protocols.check_lda(self.uset, self.party)
        return _audit_rows(self.ud, self.uset, [(None, v)])

    def check(self, out):
        label = f"LDA:{self.party}"
        errors = list(out.errors) + _flips([label], out.statuses, self.reference)
        if label == "LDA:B" and out.statuses[0] == "distinguishable":
            errors.append("LDA:B on the qutrit quartet became distinguishable")
        return [f"qutrit quartet: {e}" for e in errors]


class BobFirstSeesaw:
    """Seeded second-party-first elimination seesaw."""

    kind = "seesaw-bob"

    def __init__(self, ud, task, seed, reference):
        self.ud = ud
        self.task = task
        self.seed = seed
        self.reference = reference

    def run(self):
        res = self.ud.seesaw.run_seesaw(self.task, restarts=SEESAW_RESTARTS, seed=self.seed)
        return Outcome(values=(float(res.s_max),))

    def check(self, out):
        s = out.values[0]
        errors = []
        if s > self.ud.seesaw.QUARTET_BOB_FIRST_SMAX_BOUND:
            errors.append(f"s_max {s!r} exceeds the frozen bound")
        if abs(s - self.reference) > SMAX_TOL:
            errors.append(f"s_max {s!r} differs from the reference {self.reference!r}")
        return [f"bob-first seed {self.seed}: {e}" for e in errors]


class AliceFirstSeesaw:
    """First-party-first elimination from the analytic warm start."""

    kind = "seesaw-alice"

    def __init__(self, ud, task, warm, seed):
        self.ud = ud
        self.task = task
        self.warm = warm
        self.seed = seed

    def run(self):
        res = self.ud.seesaw.run_seesaw(self.task, restarts=1, seed=self.seed,
                                        warm_starts=(self.warm,))
        return Outcome(values=(float(res.s_max),))

    def check(self, out):
        s = out.values[0]
        if abs(s - 1.0) >= SUCCESS_TOL:
            return [f"alice-first seed {self.seed}: s_max {s!r} misses 1"]
        return []


# ---------------------------------------------------------------------------
# input builders: (ud, reference, seed) -> list of passes


def grid_angles(n):
    """Interior points of the angle simplex with every angle in (0, pi/2)."""
    vals = [(k + 1) * (math.pi / 2.0) / (n + 1) for k in range(n)]
    out = []
    for a in vals:
        for b in vals:
            for g in vals:
                d = math.pi - a - b - g
                if 1e-9 < d < math.pi / 2.0 - 1e-9:
                    out.append((a, b, g, d))
    return out


def build_pair_grid(ud, reference, seed):
    rng = np.random.default_rng(seed)
    ops = [GridPoint(ud, angles) for angles in grid_angles(GRID_N)]
    for dim in (2, 3, 4):
        for _ in range(HAAR_PER_DIM):
            ops.append(HaarPair(ud, *ud.families.random_pair(rng, dim)))
    order = rng.permutation(len(ops))
    ops = [ops[k] for k in order]
    return [ops[k:k + PAIR_GRID_PASS] for k in range(0, len(ops), PAIR_GRID_PASS)]


def builtin_sets(ud):
    fam = ud.families
    return {
        "phase-pair": fam.phase_pair_set(fam.PhasePairParams(*PHASE_PAIR_ANGLES)),
        "qutrit-quartet": fam.qutrit_quartet_set(),
        "pauli-hadamard": fam.pauli_hadamard_set(),
    }


def cost_bins(items, cost, n):
    """``items`` sorted by ``cost`` (ties by item) in ``n`` equal-count bins."""
    ordered = sorted(items, key=lambda k: (cost(k), k))
    return [ordered[b * len(ordered) // n:(b + 1) * len(ordered) // n] for b in range(n)]


def strata(pool, per_pass):
    """Pool strata as ``(name, members, sets per pass)``.

    Sets whose audit stalled in alternating projections at the reference
    commit form one stratum, drawn at their pool rate.  The others are split
    by their op cost at the reference commit into equal-count bins, one set
    per bin per pass, so every pass spans the pool's whole cost range.
    """
    stall = [k for k, e in enumerate(pool) if e["class"].endswith("-stall")]
    n_stall = round(per_pass * len(stall) / len(pool))
    rest = [k for k, e in enumerate(pool) if not e["class"].endswith("-stall")]
    out = [("stall", stall, n_stall)] if n_stall else []
    bins = cost_bins(rest, lambda k: pool[k]["ms"], per_pass - n_stall)
    return out + [(f"cost bin {b}", members, 1) for b, members in enumerate(bins)]


def stratified_passes(pool, rng, per_pass, passes):
    """Pool indices per pass: each pass takes its quota from every stratum,
    and the seed decides which members appear and in what order."""
    groups = [(list(rng.permutation(members)), quota)
              for _, members, quota in strata(pool, per_pass)]
    out = []
    for p in range(passes):
        picked = [int(q[(p * quota + j) % len(q)]) for q, quota in groups
                  for j in range(quota)]
        out.append([picked[k] for k in rng.permutation(len(picked))])
    return out


def _gate(data):
    return np.array(data, dtype=float).view(complex)[..., 0]


def build_qubit_audit(ud, reference, seed):
    pool_ref = reference["qubit_pool"]
    gates = [_gate(g) for g in pool_ref["gates"]]
    pool = pool_ref["sets"]
    labels = pool_ref["labels"]
    builtins = builtin_sets(ud)
    builtin_ops = [Audit(ud, name, uset, reference["builtins"][name])
                   for name, uset in builtins.items()]
    rng = np.random.default_rng(seed)
    passes = []
    for picked in stratified_passes(pool, rng, AUDIT_SETS_PER_PASS, AUDIT_PASSES):
        ops = list(builtin_ops)
        for k in picked:
            entry = pool[k]
            items = [(f"U{i + 1}", gates[a], gates[b])
                     for i, (a, b) in enumerate(entry["items"])]
            uset = ud.protocols.ProductUnitarySet((2, 2), items)
            statuses = {label: STATUS_CODES[c] for label, c in zip(labels, entry["statuses"])}
            ops.append(Audit(ud, f"pool set {k}", uset, statuses, entry["class"]))
        passes.append(ops)
    return passes


def build_quartet_seesaw(ud, reference, seed):
    ref = reference["seesaw"]
    if ref["restarts"] != SEESAW_RESTARTS:
        raise ValueError("reference seesaw values were recorded with other restarts")
    # seesaw seeds in equal-count bins by their sweep count at the reference
    # commit; each pass takes one seed from every bin
    n = SEESAW_CALLS_PER_PASS
    bins = cost_bins([int(s) for s in ref["seeds"]],
                     lambda s: ref["seeds"][str(s)]["sweeps"], n)
    rng = np.random.default_rng(seed)
    bins = [[b[k] for k in rng.permutation(len(b))] for b in bins]
    quartet = ud.families.qutrit_quartet_set()
    bob = ud.seesaw.quartet_bob_first_task()
    alice = ud.seesaw.quartet_alice_first_task()
    warm = ud.seesaw.quartet_alice_first_warm_start()
    passes = []
    for p in range(min(len(b) for b in bins)):
        chunk = [bins[b][p] for b in rng.permutation(n)]
        ops = [LocalAdaptive(ud, quartet, party, reference["quartet"]) for party in ("A", "B")]
        ops.append(AliceFirstSeesaw(ud, alice, warm, chunk[0]))
        ops.extend(BobFirstSeesaw(ud, bob, s, ref["seeds"][str(s)]["s_max"]) for s in chunk)
        passes.append(ops)
    return passes


def pass_count(seconds, pass_s):
    """Passes in a run of ``seconds``: a fixed batch, sized by how long one
    pass took at the seed commit on the reference machine, so that every run
    of a workload measures the same work whatever the host's speed."""
    return max(1, round(seconds / pass_s))


#: workload name -> (input builder, seconds per pass at the seed commit on
#: the reference machine, normalized as in ``run.py``)
WORKLOADS = {
    "pair-grid": (build_pair_grid, 0.13),
    "qubit-audit": (build_qubit_audit, 10.9),
    "quartet-seesaw": (build_quartet_seesaw, 4.4),
}
