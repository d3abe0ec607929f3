"""Strategy deciders for bipartite product-unitary discrimination.

A set {U_i = A_i (x) B_i} is tested under four probe/measurement regimes:

* GDR: one composite probe (ancilla allowed), one measurement;
* GDA: composite probe, adaptive two-stage local measurements;
* LDR: each party fixes its own probe upfront, measures in sequence;
* LDA: the responding party chooses its probe after hearing the outcome.

Local strategies are modeled as group discrimination: the starting party
identifies which class of phase-equal factors acted, the responder then
separates the class; when the starting party cannot do that, the protocol in
which it measures nothing and the responder separates every input alone is
tried.  Indices with phase-equal starting factors produce evolved states
equal up to phase for every probe, so no measurement ever splits them: any
unambiguous elimination retains whole groups.  That observation makes three
certification routes exact:

* a responder within-group problem with no common probe kills LDA and LDR;
* for LDR the responder probe is fixed, so the union of all within-group
  constraints must hold at once; infeasibility of the union kills LDR;
* when group identification itself is infeasible for the starting party,
  the verdict is still certified provided every two-group union is beyond
  the responder, since then partial elimination cannot help either.

When none of these routes close a failed search (a branch relies on the
unexplored partial-elimination family), the status is not_found rather
than a fake certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .qcore import (
    DEFAULT_TOL,
    StateVector,
    Tolerances,
    as_matrix,
    check_povm,
)
from .probefeas import OrthogonalityProblem, ProbeFeasibility, common_probe_feasible, purify_witness

__all__ = [
    "ProductUnitarySet",
    "FactorGroup",
    "StageTwo",
    "OutcomeBranch",
    "ProtocolTree",
    "ProbeWitness",
    "StrategyVerdict",
    "VerifyResult",
    "phase_equal",
    "group_by_factor",
    "verify_tree",
    "verify_probe",
    "check_gdr",
    "check_lda",
    "check_ldr",
    "check_gda",
    "hierarchy_audit",
]

_PARTIES = ("A", "B")


def _party_index(party):
    if party not in _PARTIES:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    return _PARTIES.index(party)


# -----------------------------------------------------------------------------
# The set
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductUnitarySet:
    """Indexed product unitaries A_i (x) B_i."""

    party_dims: tuple
    items: tuple  # of (label, factor_A, factor_B)

    def __post_init__(self):
        if not self.items:
            raise ValueError("a set needs at least one item")
        da, db = self.party_dims
        norm_items = []
        for label, a, b in self.items:
            a = as_matrix(a)
            b = as_matrix(b)
            if a.shape != (da, da) or b.shape != (db, db):
                raise ValueError(f"item {label!r}: factor shapes {a.shape}, {b.shape} "
                                 f"do not match party dims {self.party_dims}")
            for f in (a, b):
                if np.max(np.abs(f.conj().T @ f - np.eye(f.shape[0]))) > 1e-8:
                    raise ValueError(f"item {label!r}: factor is not unitary")
            norm_items.append((str(label), a, b))
        object.__setattr__(self, "items", tuple(norm_items))
        object.__setattr__(self, "party_dims", (int(da), int(db)))

    @property
    def size(self):
        return len(self.items)

    @property
    def labels(self):
        return tuple(it[0] for it in self.items)

    @property
    def dim(self):
        return self.party_dims[0] * self.party_dims[1]

    def factor(self, index, party):
        return self.items[index][1 + _party_index(party)]

    def factors(self, party):
        k = 1 + _party_index(party)
        return tuple(it[k] for it in self.items)

    def global_unitary(self, index):
        _, a, b = self.items[index]
        return np.kron(a, b)

    def global_unitaries(self):
        return tuple(self.global_unitary(i) for i in range(self.size))


def phase_equal(a, b) -> bool:
    """Whether two unitaries agree up to one global phase: |Tr(a†b)| = d."""
    a = as_matrix(a)
    b = as_matrix(b)
    d = a.shape[0]
    return abs(np.trace(a.conj().T @ b)) >= d - 1e-9


@dataclass(frozen=True)
class FactorGroup:
    representative: np.ndarray
    member_indices: tuple


def group_by_factor(uset: ProductUnitarySet, party) -> list:
    """Partition indices into classes of phase-equal factors on one side."""
    groups = []
    for i in range(uset.size):
        f = uset.factor(i, party)
        for g in groups:
            if phase_equal(g[0], f):
                g[1].append(i)
                break
        else:
            groups.append((f, [i]))
    return [FactorGroup(representative=f, member_indices=tuple(members))
            for f, members in groups]


def _relative(a, b):
    return a.conj().T @ b


def _dedup_phase(ops):
    kept = []
    for k in ops:
        if not any(phase_equal(k, other) for other in kept):
            kept.append(k)
    return kept


# -----------------------------------------------------------------------------
# Protocol trees and their simulation
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class StageTwo:
    """Responder stage: probe, measurement, and an outcome-to-guess map."""

    party: str
    probe: StateVector
    ancilla_dim: int
    povm: tuple
    guesses: tuple  # per outcome: unitary index or None


@dataclass(frozen=True)
class OutcomeBranch:
    retained: tuple
    guess: int | None = None
    stage2: StageTwo | None = None


@dataclass(frozen=True)
class ProtocolTree:
    """Two-stage sequential local protocol, starting party first."""

    start: str
    probe: StateVector
    ancilla_dim: int
    povm: tuple
    branches: tuple
    note: str = ""


@dataclass(frozen=True)
class ProbeWitness:
    """Single-probe, single-measurement witness for the global strategies."""

    probe: StateVector
    ancilla_dim: int
    povm: tuple
    guesses: tuple


@dataclass(frozen=True)
class StrategyVerdict:
    strategy: str
    starting_party: str  # "A" | "B" | "either"
    status: str  # "distinguishable" | "indistinguishable_certified" | "not_found"
    witness: object | None = None
    note: str = ""
    feasibility: ProbeFeasibility | None = None


@dataclass(frozen=True)
class VerifyResult:
    success: np.ndarray  # per-unitary probability of the correct guess
    leakage: np.ndarray  # per-unitary mass on outcomes that should not fire
    stage1_probs: np.ndarray  # (num unitaries) x (stage-1 outcomes)


def _evolved(u, ancilla_dim, probe: StateVector):
    if ancilla_dim > 1:
        u = np.kron(u, np.eye(ancilla_dim))
    return u @ probe.amplitudes


def verify_tree(uset: ProductUnitarySet, tree: ProtocolTree,
                tol: Tolerances = DEFAULT_TOL) -> VerifyResult:
    """Exact simulation of a protocol tree on every unitary of the set.

    Returns per-unitary success probability, leakage (mass on outcomes
    whose retained set excludes the true index, plus mass on dead ends),
    and the full stage-1 outcome table.
    """
    start = tree.start
    resp = "B" if start == "A" else "A"
    d1 = uset.party_dims[_party_index(start)]
    d2 = uset.party_dims[_party_index(resp)]

    if tree.probe.dim != d1 * tree.ancilla_dim:
        raise ValueError(f"stage-1 probe dim {tree.probe.dim} != {d1} * {tree.ancilla_dim}")
    povm1 = check_povm(tree.povm, d1 * tree.ancilla_dim, "stage-1 POVM")
    if len(tree.branches) != len(povm1):
        raise ValueError("one branch per stage-1 outcome required")
    povm2 = {}  # stage-2 POVMs by outcome, checked on every branch, reached or not
    for a, br in enumerate(tree.branches):
        st = br.stage2
        if st is None:
            continue
        if st.party != resp:
            raise ValueError("stage-2 party must be the responder")
        if st.probe.dim != d2 * st.ancilla_dim:
            raise ValueError(f"stage-2 probe dim {st.probe.dim} != {d2} * {st.ancilla_dim}")
        povm2[a] = check_povm(st.povm, d2 * st.ancilla_dim, f"stage-2 POVM (outcome {a})")
        if len(st.guesses) != len(povm2[a]):
            raise ValueError("stage-2 guesses must map every outcome")

    m = uset.size
    success = np.zeros(m)
    leakage = np.zeros(m)
    stage1 = np.zeros((m, len(tree.povm)))

    for i in range(m):
        phi1 = _evolved(uset.factor(i, start), tree.ancilla_dim, tree.probe)
        for a, (el, br) in enumerate(zip(povm1, tree.branches)):
            p = float(np.real(phi1.conj() @ (el @ phi1)))
            p = max(p, 0.0)
            stage1[i, a] = p
            if p < 1e-15:
                continue
            if i not in br.retained:
                leakage[i] += p
                continue
            if br.stage2 is None:
                if br.guess is None:
                    leakage[i] += p  # declared possible but no answer
                elif br.guess == i:
                    success[i] += p
                continue
            st = br.stage2
            phi2 = _evolved(uset.factor(i, resp), st.ancilla_dim, st.probe)
            for el2, guess in zip(povm2[a], st.guesses):
                q = float(np.real(phi2.conj() @ (el2 @ phi2)))
                q = max(q, 0.0)
                if guess is None:
                    leakage[i] += p * q
                elif guess == i:
                    success[i] += p * q
    return VerifyResult(success=success, leakage=leakage, stage1_probs=stage1)


def verify_probe(unitaries, witness: ProbeWitness) -> np.ndarray:
    """Success probabilities of a one-shot probe witness on given unitaries."""
    mats = [as_matrix(u) for u in unitaries]
    d = mats[0].shape[0]
    for i, u in enumerate(mats):
        if u.shape != mats[0].shape:
            raise ValueError(f"unitary {i} has shape {u.shape}, unitary 0 has {mats[0].shape}")
    if witness.probe.dim != d * witness.ancilla_dim:
        raise ValueError(f"witness probe dim {witness.probe.dim} != {d} * {witness.ancilla_dim}")
    povm = check_povm(witness.povm, d * witness.ancilla_dim, "witness POVM")
    if len(witness.guesses) != len(povm):
        raise ValueError(f"witness has {len(witness.guesses)} guesses for {len(povm)} outcomes")
    success = np.zeros(len(mats))
    for i, u in enumerate(mats):
        phi = _evolved(u, witness.ancilla_dim, witness.probe)
        for el, guess in zip(povm, witness.guesses):
            if guess == i:
                success[i] += float(np.real(phi.conj() @ (el @ phi)))
    return success


# -----------------------------------------------------------------------------
# Witness assembly helpers
# -----------------------------------------------------------------------------

def _orthonormalize_states(states):
    """Orthonormalize near-orthogonal unit vectors, keeping each output
    aligned with its input (QR with a phase fix on the diagonal)."""
    mat = np.column_stack(states)
    q, r = np.linalg.qr(mat)
    for k in range(len(states)):
        piv = r[k, k]
        if abs(piv) < 1e-12:
            raise ValueError("states are not linearly independent")
        q[:, k] *= piv / abs(piv)
    return [q[:, k] for k in range(len(states))]


def _projective_povm(states, dim):
    """Projectors onto orthonormalized states plus the remainder element."""
    ortho = _orthonormalize_states(states)
    povm = [np.outer(v, v.conj()) for v in ortho]
    rest = np.eye(dim, dtype=complex) - sum(povm)
    rest = (rest + rest.conj().T) / 2
    if np.max(np.abs(rest)) > 1e-12:
        povm.append(rest)
        return povm, True
    # states span everything; fold the numerically zero remainder away
    povm[-1] = povm[-1] + rest
    return povm, False


def _orthogonal_measurement(factors, feas: ProbeFeasibility, tol):
    """(probe, ancilla_dim, povm, has_rest): the purified feasibility witness,
    and the projective measurement onto the states ``factors`` evolve it to."""
    psi, r = purify_witness(feas.witness, tol)
    probe = StateVector(psi.amplitudes)
    states = [_evolved(f, r, probe) for f in factors]
    povm, has_rest = _projective_povm(states, factors[0].shape[0] * r)
    return probe, r, tuple(povm), has_rest


# -----------------------------------------------------------------------------
# Global strategies
# -----------------------------------------------------------------------------

def gdr_problem(uset: ProductUnitarySet) -> OrthogonalityProblem:
    """The orthogonalization problem a fixed composite probe must solve:
    one constraint per pairwise relative product unitary, phase-deduplicated.

    Exposed so certificates attached to a verdict can be re-verified
    against the exact constraint system that produced them.
    """
    ops = []
    for i in range(uset.size):
        for j in range(i + 1, uset.size):
            ops.append(np.kron(_relative(uset.factor(i, "A"), uset.factor(j, "A")),
                               _relative(uset.factor(i, "B"), uset.factor(j, "B"))))
    return OrthogonalityProblem(dim=uset.dim, operators=tuple(_dedup_phase(ops)))


def check_gdr(uset: ProductUnitarySet, tol: Tolerances = DEFAULT_TOL) -> StrategyVerdict:
    """One composite probe, one measurement: feasibility of a common probe
    orthogonalizing all pairwise relative product unitaries."""
    m = uset.size
    if m == 1:
        d = uset.dim
        witness = ProbeWitness(probe=StateVector(np.eye(d)[:, 0]), ancilla_dim=1,
                               povm=(np.eye(d, dtype=complex),), guesses=(0,))
        return StrategyVerdict(strategy="GDR", starting_party="either",
                               status="distinguishable", witness=witness,
                               note="at most one candidate")
    feas = common_probe_feasible(gdr_problem(uset), tol)
    status = {"feasible": "distinguishable",
              "infeasible_certified": "indistinguishable_certified"}.get(feas.status, "not_found")
    witness = None
    if feas.status == "feasible":
        probe, r, povm, has_rest = _orthogonal_measurement(uset.global_unitaries(), feas, tol)
        witness = ProbeWitness(probe=probe, ancilla_dim=r, povm=povm,
                               guesses=tuple(range(m)) + ((None,) if has_rest else ()))
    return StrategyVerdict(strategy="GDR", starting_party="either",
                           status=status, witness=witness,
                           note=feas.note, feasibility=feas)


# -----------------------------------------------------------------------------
# Local strategies
# -----------------------------------------------------------------------------

def _within_group_ops(uset, resp, members):
    ops = []
    for x in range(len(members)):
        for y in range(x + 1, len(members)):
            ops.append(_relative(uset.factor(members[x], resp), uset.factor(members[y], resp)))
    return _dedup_phase(ops)


def _local_verdicts(uset, start, tol):
    """The (LDR, LDA) verdicts for one starting party.

    Both strategies rest on the same sub-problems, each solved once here:
    every group's responder problem, stage-1 group identification, the
    responder's problem on every index (the protocol in which the starting
    party measures nothing) when stage 1 fails, the two-group union
    reduction, and the union of all within-group constraints that LDR's
    fixed responder probe must meet at once.  The strategies differ only in
    where a group's stage-2 probe comes from: LDR takes the union witness
    for every group, LDA each group's own.
    """
    resp = "B" if start == "A" else "A"
    m = uset.size
    d1 = uset.party_dims[_party_index(start)]
    d2 = uset.party_dims[_party_index(resp)]

    def both(**fields):
        return tuple(StrategyVerdict(strategy=s, starting_party=start, **fields)
                     for s in ("LDR", "LDA"))

    def solve(dim, ops):
        return common_probe_feasible(OrthogonalityProblem(dim=dim, operators=tuple(ops)), tol)

    solved = {}

    def responder(members):
        """The responder's problem of separating ``members`` (None when there
        is nothing to separate), solved at most once per index set."""
        if members not in solved:
            ops = _within_group_ops(uset, resp, members)
            solved[members] = solve(d2, ops) if ops else None
        return solved[members]

    def branch_for(members, feas):
        """Outcome retaining ``members``, which the responder separates with
        the witness of ``feas``."""
        if len(members) == 1:
            return OutcomeBranch(retained=members, guess=members[0])
        probe2, r2, povm2, rest2 = _orthogonal_measurement(
            [uset.factor(k, resp) for k in members], feas, tol)
        st = StageTwo(party=resp, probe=probe2, ancilla_dim=r2, povm=povm2,
                      guesses=members + ((None,) if rest2 else ()))
        return OutcomeBranch(retained=members, stage2=st)

    # responder problems inside each group; these constraints bind every
    # protocol because phase-equal starting factors are never split
    groups = group_by_factor(uset, start)
    group_feas = []
    for g in groups:
        feas = responder(g.member_indices)
        if feas is not None and feas.status == "infeasible_certified":
            return both(status="indistinguishable_certified",
                        note=(f"indices {g.member_indices} share a starting factor, and no "
                              f"responder probe can separate them"),
                        feasibility=feas)
        group_feas.append(feas)

    # stage 1: perfect identification of the starting party's factor group
    reps = [g.representative for g in groups]
    cross_ops = _dedup_phase([_relative(reps[x], reps[y])
                              for x in range(len(reps)) for y in range(x + 1, len(reps))])
    stage1_feas = solve(d1, cross_ops) if cross_ops else None  # None: a single group

    # otherwise the starting party measures nothing and the responder
    # separates every index alone (a single group's problem is this one)
    if stage1_feas is None or stage1_feas.status != "feasible":
        alone = responder(tuple(range(m)))
        if alone is None or alone.status == "feasible":
            tree = ProtocolTree(start=start, probe=StateVector(np.eye(d1)[:, 0]), ancilla_dim=1,
                                povm=(np.eye(d1, dtype=complex),),
                                branches=(branch_for(tuple(range(m)), alone),),
                                note="starting party measures nothing, responder works alone")
            return both(status="distinguishable", witness=tree, note=tree.note,
                        feasibility=alone)

    stage1_exit = None
    if stage1_feas is not None and stage1_feas.status == "infeasible_certified":
        # certified when every two-group union is beyond the responder,
        # forcing any successful protocol to fully identify the group
        if all(responder(tuple(sorted(a.member_indices + b.member_indices))).status
               == "infeasible_certified" for a, b in combinations(groups, 2)):
            stage1_exit = dict(
                status="indistinguishable_certified",
                note=("every two-group union defeats the responder, so the starting "
                      "party would have to identify its factor group exactly, and "
                      "no probe of its own can do that"),
                feasibility=stage1_feas)
        else:
            stage1_exit = dict(
                status="not_found",
                note=("group identification by the starting party is certified "
                      "impossible, but partial-elimination protocols with overlapping "
                      "retained sets are not exhausted by this search"),
                feasibility=stage1_feas)
    elif stage1_feas is not None and stage1_feas.status == "not_found":
        stage1_exit = dict(status="not_found", note=f"stage-1 search stalled: {stage1_feas.note}",
                           feasibility=stage1_feas)

    def verdict(strategy, stage2_feas, search):
        """``stage2_feas[gi]`` is the responder problem whose witness serves group gi."""
        if stage1_exit is not None:
            return StrategyVerdict(strategy=strategy, starting_party=start, **stage1_exit)
        stalled = [f for f in stage2_feas if f is not None and f.status == "not_found"]
        if stalled:
            return StrategyVerdict(strategy=strategy, starting_party=start, status="not_found",
                                   note=f"{search} search stalled: {stalled[0].note}",
                                   feasibility=stalled[0])
        probe, anc, povm, has_rest = _orthogonal_measurement(reps, stage1_feas, tol)
        branches = [branch_for(g.member_indices, stage2_feas[gi])
                    for gi, g in enumerate(groups)]
        if has_rest:
            branches.append(OutcomeBranch(retained=(), guess=None))
        tree = ProtocolTree(start=start, probe=probe, ancilla_dim=anc, povm=povm,
                            branches=tuple(branches),
                            note="group identification followed by within-group separation")
        return StrategyVerdict(strategy=strategy, starting_party=start,
                               status="distinguishable", witness=tree, note=tree.note,
                               feasibility=stage1_feas)

    if len(groups) == 1:
        union_feas = group_feas[0]
    else:
        union_ops = _dedup_phase([k for g in groups
                                  for k in _within_group_ops(uset, resp, g.member_indices)])
        union_feas = solve(d2, union_ops) if union_ops else None
    if union_feas is not None and union_feas.status == "infeasible_certified":
        ldr = StrategyVerdict(strategy="LDR", starting_party=start,
                              status="indistinguishable_certified",
                              note=("the responder probe is fixed upfront, and no single probe "
                                    "satisfies all within-group constraints at once"),
                              feasibility=union_feas)
    else:
        ldr = verdict("LDR", [union_feas] * len(groups), "shared-probe")
    return ldr, verdict("LDA", group_feas, "within-group")


def check_lda(uset: ProductUnitarySet, starting_party: str,
              tol: Tolerances = DEFAULT_TOL) -> StrategyVerdict:
    """Local sequential discrimination, responder probe chosen per outcome."""
    _party_index(starting_party)
    return _local_verdicts(uset, starting_party, tol)[1]


def check_ldr(uset: ProductUnitarySet, starting_party: str,
              tol: Tolerances = DEFAULT_TOL) -> StrategyVerdict:
    """Local sequential discrimination with both probes fixed upfront."""
    _party_index(starting_party)
    return _local_verdicts(uset, starting_party, tol)[0]


def _gda_from_parts(gdr: StrategyVerdict, lda) -> StrategyVerdict:
    """The GDA verdict composed from the GDR verdict and ``lda(party)``, the
    LDA verdict per starting party (asked for only while GDR has failed)."""
    if gdr.status == "distinguishable":
        return StrategyVerdict(strategy="GDA", starting_party="either",
                               status="distinguishable", witness=gdr.witness,
                               note="via a fixed composite probe", feasibility=gdr.feasibility)
    parts = [gdr]
    for p in _PARTIES:
        v = lda(p)
        if v.status == "distinguishable":
            return StrategyVerdict(strategy="GDA", starting_party=p,
                                   status="distinguishable", witness=v.witness,
                                   note=f"via the local adaptive protocol starting at {p}")
        parts.append(v)
    if all(v.status == "indistinguishable_certified" for v in parts):
        return StrategyVerdict(strategy="GDA", starting_party="either",
                               status="indistinguishable_certified",
                               note=("fixed-probe route and both local adaptive routes "
                                     "are certified infeasible"))
    return StrategyVerdict(strategy="GDA", starting_party="either", status="not_found",
                           note="no route succeeded and at least one search is inconclusive")


def check_gda(uset: ProductUnitarySet, tol: Tolerances = DEFAULT_TOL) -> StrategyVerdict:
    """Global adaptive strategies reduce to the better of the global
    restricted check and the local adaptive check over starting parties."""
    return _gda_from_parts(check_gdr(uset, tol), lambda p: check_lda(uset, p, tol))


# -----------------------------------------------------------------------------
# Cross-strategy audit
# -----------------------------------------------------------------------------

_RANK = {"distinguishable": 1, "indistinguishable_certified": 0, "not_found": None}


def hierarchy_audit(uset: ProductUnitarySet, tol: Tolerances = DEFAULT_TOL):
    """Run every checker and confirm the strategy-power orderings.

    Certified verdicts must satisfy LDR <= LDA <= GDA and LDR <= GDR <= GDA
    (per starting party where applicable), and GDA_separable <= GDA where
    that row exists; a certified contradiction raises.  Returns the ordered
    (label, verdict) table, with a GDA_separable row last for qubit-qubit
    sets.
    """
    local = {p: _local_verdicts(uset, p, tol) for p in _PARTIES}
    rows = [(f"{s}:{p}", local[p][k]) for k, s in enumerate(("LDR", "LDA")) for p in _PARTIES]
    rows.append(("GDR", check_gdr(uset, tol)))
    table = dict(rows)
    rows.append(("GDA", _gda_from_parts(table["GDR"], lambda p: table[f"LDA:{p}"])))
    if uset.party_dims == (2, 2):
        from .separable import check_gda_separable
        rows.append(("GDA_separable", check_gda_separable(uset, tol)))

    val = {label: _RANK[v.status] for label, v in rows}
    ordering = [("LDR:A", "LDA:A"), ("LDR:B", "LDA:B"),
                ("LDA:A", "GDA"), ("LDA:B", "GDA"),
                ("LDR:A", "GDR"), ("LDR:B", "GDR"), ("GDR", "GDA")]
    if "GDA_separable" in val:
        ordering.append(("GDA_separable", "GDA"))
    violations = []
    for weak, strong in ordering:
        a, b = val[weak], val[strong]
        if a is not None and b is not None and a > b:
            violations.append(f"{weak}={a} exceeds {strong}={b}")
    if violations:
        raise RuntimeError("strategy hierarchy violated: " + "; ".join(violations))
    return tuple(rows)
