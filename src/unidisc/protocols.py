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

Every decider takes a set or its :class:`SetAnalysis`, whose entries it
reads and adds to.  Its ``tol`` of ``None`` means ``DEFAULT_TOL`` for a
set and the table's own tolerances for a table; a table given another
``tol`` raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .checker import _PARTIES, _evolved, _other, _party_index
from .checker import verify_probe, verify_tree  # noqa: F401 - callers import them from here too
from .qcore import (
    DEFAULT_TOL,
    StateVector,
    Tolerances,
    _kron,
    _near_unitaries,
    _qr_c,
    _stored,
    _valid_prefix,
    as_matrix,
)
from .eigdist import _spectrum
from .probefeas import (
    OrthogonalityProblem,
    ProbeFeasibility,
    common_probe_feasible,
    purify_witness,
)

__all__ = [
    "ProductUnitarySet",
    "FactorGroup",
    "StageTwo",
    "OutcomeBranch",
    "ProtocolTree",
    "ProbeWitness",
    "ProjectivePOVM",
    "StrategyVerdict",
    "phase_equal",
    "group_by_factor",
    "SetAnalysis",
    "check_gdr",
    "check_lda",
    "check_ldr",
    "check_gda",
    "gdr_problem",
    "hierarchy_audit",
]


# -----------------------------------------------------------------------------
# The set
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductUnitarySet:
    """Indexed product unitaries A_i (x) B_i.

    There are two ways in.  The constructor takes factors from outside the
    package (JSON, the command line, callers): each party's factors are
    coerced and tested as one stack and accepted as unitary by the rule of
    :func:`~unidisc.qcore._near_unitaries` (up to 1e-8 off, kept as their
    polar factor past rounding), so the relatives and products the deciders
    build from them are unitary to rounding too and decompose like those of
    exact factors.  A faulty set raises the error of its first faulty item,
    as a loop over the items would.  The set builders of
    :mod:`~unidisc.families` go in by :meth:`_accepted`, unchecked, since
    they build their factors unitary to rounding, and the constructor would
    keep such factors as given.
    """

    party_dims: tuple
    items: tuple  # of (label, factor_A, factor_B)

    def __post_init__(self):
        if not self.items:
            raise ValueError("a set needs at least one item")
        da, db = self.party_dims
        if da < 1 or db < 1:
            raise ValueError(f"party dimensions must be positive, got {self.party_dims}")

        def not_unitary(k, _):
            return f"item {self.items[k][0]!r}: factor is not unitary"

        def item(entry):
            label, a, b = entry
            a, b = as_matrix(a), as_matrix(b)
            if a.shape != (da, da) or b.shape != (db, db):
                raise ValueError(f"item {label!r}: factor shapes {a.shape}, {b.shape} "
                                 f"do not match party dims {self.party_dims}")
            return str(label), a, b

        try:  # a non-finite entry makes its unitarity error non-finite, so it fails too
            labels, fa, fb = zip(*[(str(label), a, b) for label, a, b in self.items])
            stacks = [np.array(fa, dtype=complex), np.array(fb, dtype=complex)]
            if [s.shape[1:] for s in stacks] != [(da, da), (db, db)]:
                raise ValueError("a factor is not a matrix of its party's shape")
            # each factor as given when it is a complex array, else a copy of its own
            kept = [[f if type(f) is np.ndarray and f.dtype == complex else row.copy()
                     for f, row in zip(fs, stack)] for fs, stack in zip((fa, fb), stacks)]
            fa, fb = _near_unitaries(kept, not_unitary, stacks)
        except Exception:  # any type: the scan raises what a loop over the items raises
            fa = None
        if fa is None:  # scan the items one by one to name the first fault
            valid, held = _valid_prefix(self.items, item)
            _near_unitaries(([a for _, a, _ in valid], [b for _, _, b in valid]), not_unitary)
            raise held or ValueError("the factors do not stack")
        object.__setattr__(self, "items", tuple(zip(labels, fa, fb)))
        object.__setattr__(self, "party_dims", (int(da), int(db)))

    @classmethod
    def _accepted(cls, party_dims: tuple, items) -> ProductUnitarySet:
        """The set of ``(label, A, B)`` items the package built, each factor a
        complex array of its party's shape and unitary to rounding, held as
        they are (``str`` labels, ``int`` dims), past the constructor's
        checks."""
        uset = object.__new__(cls)
        object.__setattr__(uset, "items", tuple(items))
        object.__setattr__(uset, "party_dims", party_dims)
        return uset

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
        return _kron(a, b)

    def global_unitaries(self):
        return tuple(self.global_unitary(i) for i in range(self.size))


def phase_equal(a, b) -> bool:
    """Whether two unitaries agree up to one global phase: |Tr(a†b)| = d."""
    return _phase_equal(as_matrix(a), as_matrix(b))


# |Tr(a{dag}b)| may fall this far short of d for phase-equal unitaries
_PHASE_TOL = 1e-9


def _phase_equal(a, b) -> bool:
    return abs(np.trace(a.conj().T @ b)) >= a.shape[0] - _PHASE_TOL


@dataclass(frozen=True)
class FactorGroup:
    member_indices: tuple


def group_by_factor(uset: ProductUnitarySet, party) -> tuple:
    """Partition indices into classes of phase-equal factors on one side."""
    return SetAnalysis(uset).groups(party)


# -----------------------------------------------------------------------------
# Protocol trees
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


# -----------------------------------------------------------------------------
# Witness assembly helpers
# -----------------------------------------------------------------------------

def _orthonormalize_states(states):
    """Orthonormalize near-orthogonal unit vectors, keeping each output
    aligned with its input (QR with a phase fix on the diagonal): the
    outputs are the rows of one (k, dim) array."""
    q, f = _qr_c(np.array(states).T)
    for k in range(len(states)):
        piv = f[k, k]  # r's diagonal, on the factored matrix
        if abs(piv) < 1e-12:
            raise ValueError("states are not linearly independent")
        q[:, k] *= piv / abs(piv)
    return q.T


class ProjectivePOVM(tuple):
    """The elements of a projective measurement, with ``states``: the
    orthonormal rows of a (k, dim) array whose rank-one projectors are the
    first k elements.  A last element I - sum P follows when the states do
    not span the space.  :func:`_projective_povm` builds one, and JSON
    carries only its states."""

    states: np.ndarray


def _projective_povm(states, dim) -> ProjectivePOVM:
    """Projectors onto the orthonormal rows of ``states`` plus the
    remainder element, folded into the last projector when it is
    numerically zero."""
    povm = [np.outer(v, v.conj()) for v in states]
    rest = np.eye(dim, dtype=complex) - sum(povm)
    rest = (rest + rest.conj().T) / 2
    if np.abs(rest).max() > 1e-12:
        povm.append(rest)
    else:  # states span everything; fold the numerically zero remainder away
        povm[-1] = povm[-1] + rest
    povm = ProjectivePOVM(povm)
    povm.states = states
    return povm


def _idle_stage(d):
    """``(probe, povm)`` of a stage on dimension ``d`` that learns nothing:
    the basis state e_0 and the one-outcome measurement I."""
    return StateVector(np.eye(d)[:, 0]), (np.eye(d, dtype=complex),)


def _one_input_witness(d):
    """The witness for a set of one input on dimension ``d``: the idle stage,
    whose one outcome names that input."""
    probe, povm = _idle_stage(d)
    return ProbeWitness(probe=probe, ancilla_dim=1, povm=povm, guesses=(0,))


def _orthogonal_measurement(factors, purified):
    """(probe, ancilla_dim, povm): the ``(state, ancilla_dim)`` purification
    of a feasibility witness, and the projective measurement onto the
    states ``factors`` evolve it to.  The POVM has a remainder outcome when
    ``len(povm) > len(povm.states)``."""
    probe, r = purified
    states = _orthonormalize_states([_evolved(f, r, probe) for f in factors])
    return probe, r, _projective_povm(states, factors[0].shape[0] * r)


# -----------------------------------------------------------------------------
# The analysis table
# -----------------------------------------------------------------------------

class SetAnalysis:
    """The sub-problems the deciders pose about one set under one set of
    tolerances (``None`` means ``DEFAULT_TOL``), each computed on first
    request and then kept.

    It holds each party's relative factors U_i{dag} U_j (i < j), sorted into
    phase-equality classes, whose traces give the factor groups; the
    spectrum (eigensystem and pair criterion) of each relative and of each
    operator of a probe problem, which the problems read; the common-probe
    problem that any index pairs pose on one party (responder, stage-1 and
    union problems, and the one-pair problems of the separable decider),
    with the measurement realizing its witness, which :meth:`branch` hands
    to a stage 2; the purification of each mixed witness (a pure one comes
    with its state); and the GDR problem, whose operators are products of
    the two parties' relatives.  Every problem is posed by
    ``OrthogonalityProblem._accepted``, unchecked, as its operators come
    from the accepted set.  The table only decides which call computes an
    entry: the solvers and their operator orders are those the deciders use
    on a set of their own.  The GDR verdict and each start's (LDR, LDA) pair
    are entries too.  A decider given a set builds a table for it, and
    :func:`hierarchy_audit` builds one for all its rows.

    The sub-problems (spectra and pair criteria, the GDR problem's too;
    one-party problems; purifications; measurements) are pure functions of
    the bytes they read, so they outlive the table: they sit in the
    process-wide store of :mod:`~unidisc.qcore`, keyed by those bytes and
    the tolerances, with their arrays read-only, for any set that poses the
    same bytes.  The spectra come from :func:`~unidisc.eigdist._spectrum`,
    which the public pair kernels and
    :func:`~unidisc.probefeas.common_probe_feasible` read too, so
    :func:`~unidisc.eigdist.pair_distinguishable` of two factors returns the
    object :meth:`pair` holds.  The store is emptied whenever it holds
    ``_STORE_CAP`` (2048) entries, about 2-4 MB (the sizes of its entries
    are noted at its definition).  The table keeps only what is specific to
    its set: the relatives, the verdict entries (the GDR problem's solution
    lives in its verdict) and the separable reports.
    """

    def __init__(self, uset: ProductUnitarySet, tol: Tolerances | None = None):
        self.uset = uset
        self.tol = DEFAULT_TOL if tol is None else tol
        self._entries = {}

    def _entry(self, key, compute):
        """A set-level entry, kept by the table."""
        if key not in self._entries:
            self._entries[key] = compute()
        return self._entries[key]

    def _stored(self, key, compute):
        """A sub-problem entry, kept in the store under the table's
        tolerances and ``key``."""
        return _stored((self.tol,) + key, compute)

    def relatives(self, party):
        """``(rel, cls)``: ``rel[i, j]`` is U_i{dag} U_j on ``party`` for
        i < j, and ``cls[i, j]`` the first pair, in lexicographic order,
        whose relative is phase-equal to it."""
        def compute():
            fs = self.uset.factors(party)
            rel, cls, firsts = {}, {}, []
            for p in combinations(range(self.uset.size), 2):
                k = rel[p] = fs[p[0]].conj().T @ fs[p[1]]
                cls[p] = next((q for q in firsts if _phase_equal(k, rel[q])), p)
                if cls[p] == p:
                    firsts.append(p)
            return rel, cls
        return self._entry(("relatives", party), compute)

    def same_factor(self, party, i, j) -> bool:
        """Whether the factors of U_i and U_j (i < j) on ``party`` agree up
        to phase: |Tr(U_i{dag} U_j)| = d."""
        k = self.relatives(party)[0][i, j]
        return abs(np.trace(k)) >= k.shape[0] - _PHASE_TOL

    def groups(self, party) -> tuple:
        """The indices partitioned into classes of phase-equal factors on
        ``party``, each class in index order, led by its first member."""
        groups = {}  # members by their first member
        for i in range(self.uset.size):
            lead = next((k for k in groups if self.same_factor(party, k, i)), i)
            groups.setdefault(lead, []).append(i)
        return tuple(FactorGroup(member_indices=tuple(g)) for g in groups.values())

    def feasibility(self, party, pairs) -> ProbeFeasibility | None:
        """Whether one probe on ``party`` orthogonalizes U_i and U_j for
        every (i, j) in ``pairs`` (each i < j): one constraint per phase
        class, the relative of the first pair reaching it.  ``None`` when
        there is nothing to orthogonalize."""
        rel, cls = self.relatives(party)
        first = {}
        for p in pairs:
            first.setdefault(cls[p], p)
        ops = tuple(rel[p] for p in first.values())
        if not ops:
            return None
        dim = ops[0].shape[0]
        return self._stored(
            ("feasibility", dim, b"".join(k.tobytes() for k in ops)),
            lambda: common_probe_feasible(OrthogonalityProblem._accepted(dim, ops), self.tol))

    def _purified(self, feas: ProbeFeasibility):
        """``(state, ancilla_dim)`` for the witness of ``feas``: its pure
        state with no ancilla when the solver built one, and otherwise the
        stored :func:`~unidisc.probefeas.purify_witness` of the mixed
        witness."""
        if feas.state is not None:
            return feas.state, 1
        return self._stored(("purified", feas.witness.matrix.tobytes()),
                            lambda: purify_witness(feas.witness, self.tol))

    def measurement(self, party, members, feas: ProbeFeasibility):
        """:func:`_orthogonal_measurement` of the factors of ``members`` on
        ``party`` with the witness of ``feas``, keyed by the factors and its
        purification: two pure witnesses may share the bytes of one density
        matrix."""
        fs = [self.uset.factor(k, party) for k in members]
        psi, r = self._purified(feas)
        return self._stored(
            ("measurement", r, psi.amplitudes.tobytes(), b"".join(f.tobytes() for f in fs)),
            lambda: _orthogonal_measurement(fs, (psi, r)))

    def spectrum(self, party, i, j):
        """The stored :func:`~unidisc.eigdist._spectrum` ``(phases, vectors,
        hull)`` of U_i{dag} U_j on ``party``; eigenvectors are columns."""
        return _spectrum(self.relatives(party)[0][i, j], self.tol)

    def pair(self, party, i, j):
        """The pair criterion of U_i and U_j on ``party``."""
        return self.spectrum(party, i, j)[2]

    def branch(self, party, members, feas: ProbeFeasibility | None) -> OutcomeBranch:
        """The outcome retaining ``members``: a dead end when empty, guessed
        when alone, else separated by ``party`` with the :meth:`measurement`
        of ``feas``."""
        if len(members) < 2:
            return OutcomeBranch(retained=members, guess=members[0] if members else None)
        probe, r, povm = self.measurement(party, members, feas)
        st = StageTwo(party=party, probe=probe, ancilla_dim=r, povm=povm,
                      guesses=members + ((None,) if len(povm) > len(povm.states) else ()))
        return OutcomeBranch(retained=members, stage2=st)

    def gdr_problem(self) -> OrthogonalityProblem:
        """The problem of :func:`gdr_problem`: the product (U_i{dag} U_j on
        A) (x) (U_i{dag} U_j on B) of the first pair, in lexicographic order,
        of each pair of phase classes the two parties' relatives fall in."""
        (ra, ca), (rb, cb) = self.relatives("A"), self.relatives("B")
        first = {}
        for p in ra:
            first.setdefault((ca[p], cb[p]), p)
        return OrthogonalityProblem._accepted(
            self.uset.dim, tuple(_kron(ra[p], rb[p]) for p in first.values()))

    def local(self, start) -> tuple:
        """The (LDR, LDA) verdicts from ``start``: :func:`_local_verdicts`."""
        return self._entry(("local", start), lambda: _local_verdicts(self, start))


def _table(uset, tol) -> SetAnalysis:
    """The table a decider reads for ``uset``, a set or its table."""
    if isinstance(uset, SetAnalysis):
        if tol not in (None, uset.tol):
            raise ValueError(f"tol {tol} differs from the table's {uset.tol}")
        return uset
    return SetAnalysis(uset, tol)


# -----------------------------------------------------------------------------
# Global strategies
# -----------------------------------------------------------------------------

def gdr_problem(uset: ProductUnitarySet) -> OrthogonalityProblem:
    """The orthogonalization problem a fixed composite probe must solve:
    one constraint per pairwise relative product unitary, up to phase, read
    from the set's relative table (:meth:`SetAnalysis.gdr_problem`).

    Exposed so certificates attached to a verdict can be re-verified
    against the exact constraint system that produced them.
    """
    return SetAnalysis(uset).gdr_problem()


def check_gdr(uset: ProductUnitarySet | SetAnalysis,
              tol: Tolerances | None = None) -> StrategyVerdict:
    """One composite probe, one measurement: feasibility of a common probe
    orthogonalizing all pairwise relative product unitaries.  Takes a set
    or its table."""
    table = _table(uset, tol)
    uset = table.uset

    def verdict():
        m = uset.size
        if m == 1:
            return StrategyVerdict(strategy="GDR", starting_party="either",
                                   status="distinguishable", witness=_one_input_witness(uset.dim),
                                   note="at most one candidate")
        feas = common_probe_feasible(table.gdr_problem(), table.tol)
        status = {"feasible": "distinguishable",
                  "infeasible_certified": "indistinguishable_certified"}.get(
                      feas.status, "not_found")
        witness = None
        if feas.status == "feasible":
            probe, r, povm = _orthogonal_measurement(
                uset.global_unitaries(), table._purified(feas))
            witness = ProbeWitness(probe=probe, ancilla_dim=r, povm=povm,
                                   guesses=tuple(range(m))
                                   + ((None,) if len(povm) > len(povm.states) else ()))
        return StrategyVerdict(strategy="GDR", starting_party="either",
                               status=status, witness=witness,
                               note=feas.note, feasibility=feas)
    return table._entry(("GDR",), verdict)


# -----------------------------------------------------------------------------
# Local strategies
# -----------------------------------------------------------------------------

def _local_verdicts(table: SetAnalysis, start):
    """The (LDR, LDA) verdicts for one starting party.

    Both strategies rest on the same sub-problems, each read from the
    table: every group's responder problem, stage-1 group identification,
    the responder's problem on every index (the protocol in which the
    starting party measures nothing) when stage 1 fails, the two-group
    union reduction, and the union of all within-group constraints that
    LDR's fixed responder probe must meet at once.  The strategies differ
    only in where a group's stage-2 probe comes from: LDR takes the union
    witness for every group, LDA each group's own.
    """
    uset = table.uset
    resp = _other(start)
    m = uset.size

    def both(**fields):
        return tuple(StrategyVerdict(strategy=s, starting_party=start, **fields)
                     for s in ("LDR", "LDA"))

    def responder(members):
        """The responder's problem of separating ``members`` (None when there
        is nothing to separate)."""
        return table.feasibility(resp, combinations(members, 2))

    # responder problems inside each group; these constraints bind every
    # protocol because phase-equal starting factors are never split
    groups = table.groups(start)
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
    # (None: a single group)
    reps = tuple(g.member_indices[0] for g in groups)
    stage1_feas = table.feasibility(start, combinations(reps, 2))

    # otherwise the starting party measures nothing and the responder
    # separates every index alone (a single group's problem is this one)
    if stage1_feas is None or stage1_feas.status != "feasible":
        alone = responder(tuple(range(m)))
        if alone is None or alone.status == "feasible":
            probe, povm = _idle_stage(uset.party_dims[_party_index(start)])
            tree = ProtocolTree(start=start, probe=probe, ancilla_dim=1, povm=povm,
                                branches=(table.branch(resp, tuple(range(m)), alone),),
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
        probe, anc, povm = table.measurement(start, reps, stage1_feas)
        branches = [table.branch(resp, g.member_indices, stage2_feas[gi])
                    for gi, g in enumerate(groups)]
        if len(povm) > len(povm.states):
            branches.append(OutcomeBranch(retained=(), guess=None))
        tree = ProtocolTree(start=start, probe=probe, ancilla_dim=anc, povm=povm,
                            branches=tuple(branches),
                            note="group identification followed by within-group separation")
        return StrategyVerdict(strategy=strategy, starting_party=start,
                               status="distinguishable", witness=tree, note=tree.note,
                               feasibility=stage1_feas)

    union_feas = table.feasibility(resp, chain.from_iterable(
        combinations(g.member_indices, 2) for g in groups))
    if union_feas is not None and union_feas.status == "infeasible_certified":
        ldr = StrategyVerdict(strategy="LDR", starting_party=start,
                              status="indistinguishable_certified",
                              note=("the responder probe is fixed upfront, and no single probe "
                                    "satisfies all within-group constraints at once"),
                              feasibility=union_feas)
    else:
        ldr = verdict("LDR", [union_feas] * len(groups), "shared-probe")
    return ldr, verdict("LDA", group_feas, "within-group")


def check_lda(uset: ProductUnitarySet | SetAnalysis, starting_party: str,
              tol: Tolerances | None = None) -> StrategyVerdict:
    """Local sequential discrimination, responder probe chosen per outcome.
    Takes a set or its table."""
    return _table(uset, tol).local(starting_party)[1]


def check_ldr(uset: ProductUnitarySet | SetAnalysis, starting_party: str,
              tol: Tolerances | None = None) -> StrategyVerdict:
    """Local sequential discrimination with both probes fixed upfront.
    Takes a set or its table."""
    return _table(uset, tol).local(starting_party)[0]


def check_gda(uset: ProductUnitarySet | SetAnalysis,
              tol: Tolerances | None = None) -> StrategyVerdict:
    """Global adaptive strategies reduce to the better of the global
    restricted check and, while that fails, the local adaptive check over
    starting parties.  Takes a set or its table."""
    table = _table(uset, tol)
    gdr = check_gdr(table)
    if gdr.status == "distinguishable":
        return StrategyVerdict(strategy="GDA", starting_party="either",
                               status="distinguishable", witness=gdr.witness,
                               note="via a fixed composite probe", feasibility=gdr.feasibility)
    parts = [gdr]
    for p in _PARTIES:
        v = check_lda(table, p)
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


# -----------------------------------------------------------------------------
# Cross-strategy audit
# -----------------------------------------------------------------------------

_RANK = {"distinguishable": 1, "indistinguishable_certified": 0, "not_found": None}


def hierarchy_audit(uset: ProductUnitarySet, tol: Tolerances | None = None):
    """Run every checker and confirm the strategy-power orderings.

    Certified verdicts must satisfy LDR <= LDA <= GDA and LDR <= GDR <= GDA
    (per starting party where applicable), and GDA_separable <= GDA where
    that row exists; a certified contradiction raises.  Returns the ordered
    (label, verdict) table, with a GDA_separable row last for qubit-qubit
    sets.  Each row is its public decider's verdict on one shared
    :class:`SetAnalysis`, so each sub-problem is solved once for the set.
    ``tol`` of ``None`` means ``DEFAULT_TOL``, as for the deciders.
    """
    table = SetAnalysis(uset, tol)
    rows = [(f"{s}:{p}", check(table, p))
            for s, check in (("LDR", check_ldr), ("LDA", check_lda)) for p in _PARTIES]
    rows += [("GDR", check_gdr(table)), ("GDA", check_gda(table))]
    if uset.party_dims == (2, 2):
        from .separable import check_gda_separable
        rows.append(("GDA_separable", check_gda_separable(table)))

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
