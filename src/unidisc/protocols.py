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
    check_povm,
)
from .eigdist import _pair_probe, _spectrum
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
    "StrategyVerdict",
    "VerifyResult",
    "phase_equal",
    "group_by_factor",
    "SetAnalysis",
    "verify_tree",
    "verify_probe",
    "check_gdr",
    "check_lda",
    "check_ldr",
    "check_gda",
    "gdr_problem",
    "hierarchy_audit",
]

_PARTIES = ("A", "B")


def _party_index(party):
    if party not in _PARTIES:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    return _PARTIES.index(party)


def _other(party):
    """The party that is not ``party``."""
    return _PARTIES[1 - _party_index(party)]


# -----------------------------------------------------------------------------
# The set
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductUnitarySet:
    """Indexed product unitaries A_i (x) B_i.

    Each party's factors are coerced and tested as one stack and accepted
    as unitary by the rule of :func:`~unidisc.qcore._near_unitaries` (up to
    1e-8 off, kept as their polar factor past rounding), so the relatives
    and products the deciders build from them are unitary to rounding too
    and decompose like those of exact factors.  A faulty set raises the
    error of its first faulty item, as a loop over the items would.
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
        u = _kron(u, np.eye(ancilla_dim))
    return u @ probe.amplitudes


def _checked_povm(block, d, answers, what):
    """The POVM of a probe block (a tree's stage 1, a stage 2 or a probe
    witness) on a ``d``-dimensional system, checked with everything else
    the block says about it: the probe lives on the system and its
    ancilla, and ``answers`` (branches or guesses) name every outcome."""
    dim = d * block.ancilla_dim
    if block.probe.dim != dim:
        raise ValueError(f"{what} probe dim {block.probe.dim} != {d} * {block.ancilla_dim}")
    povm = check_povm(block.povm, dim, f"{what} POVM")
    if len(answers) != len(povm):
        noun = "branches" if isinstance(block, ProtocolTree) else "guesses"
        raise ValueError(f"{what} has {len(answers)} {noun} for {len(povm)} outcomes")
    return povm


def _probability(phi, el) -> float:
    """Probability of the outcome with POVM element ``el`` on the state ``phi``."""
    return float(np.real(phi.conj() @ (el @ phi)))


def verify_tree(uset: ProductUnitarySet, tree: ProtocolTree) -> VerifyResult:
    """Exact simulation of a protocol tree on every unitary of the set.

    Returns per-unitary success probability, leakage (mass on outcomes
    whose retained set excludes the true index, plus mass on dead ends),
    and the full stage-1 outcome table.
    """
    start, resp = tree.start, _other(tree.start)
    d1, d2 = (uset.party_dims[_party_index(p)] for p in (start, resp))
    povm1 = _checked_povm(tree, d1, tree.branches, "stage-1")
    povm2 = {}  # stage-2 POVMs by outcome, checked on every branch, reached or not
    for a, br in enumerate(tree.branches):
        st = br.stage2
        if st is not None:
            if st.party != resp:
                raise ValueError(f"stage-2 (outcome {a}) party must be the responder")
            povm2[a] = _checked_povm(st, d2, st.guesses, f"stage-2 (outcome {a})")

    m = uset.size
    success = np.zeros(m)
    leakage = np.zeros(m)
    stage1 = np.zeros((m, len(tree.povm)))

    def answer(i, guess, p):
        if guess is None:
            leakage[i] += p  # declared possible but no answer
        elif guess == i:
            success[i] += p

    for i in range(m):
        phi1 = _evolved(uset.factor(i, start), tree.ancilla_dim, tree.probe)
        for a, (el, br) in enumerate(zip(povm1, tree.branches)):
            p = stage1[i, a] = max(_probability(phi1, el), 0.0)
            if p < 1e-15:
                continue
            if i not in br.retained:
                leakage[i] += p
            elif br.stage2 is None:
                answer(i, br.guess, p)
            else:
                st = br.stage2
                phi2 = _evolved(uset.factor(i, resp), st.ancilla_dim, st.probe)
                for el2, guess in zip(povm2[a], st.guesses):
                    answer(i, guess, p * max(_probability(phi2, el2), 0.0))
    return VerifyResult(success=success, leakage=leakage, stage1_probs=stage1)


def verify_probe(unitaries, witness: ProbeWitness) -> np.ndarray:
    """Success probabilities of a one-shot probe witness on given unitaries."""
    mats = [as_matrix(u) for u in unitaries]
    if not mats:
        raise ValueError("no unitaries to verify")
    for i, u in enumerate(mats):
        if u.shape != mats[0].shape:
            raise ValueError(f"unitary {i} has shape {u.shape}, unitary 0 has {mats[0].shape}")
    povm = _checked_povm(witness, mats[0].shape[0], witness.guesses, "witness")
    success = np.zeros(len(mats))
    for i, u in enumerate(mats):
        phi = _evolved(u, witness.ancilla_dim, witness.probe)
        for el, guess in zip(povm, witness.guesses):
            if guess == i:
                success[i] += _probability(phi, el)
    return success


# -----------------------------------------------------------------------------
# Witness assembly helpers
# -----------------------------------------------------------------------------

def _orthonormalize_states(states):
    """Orthonormalize near-orthogonal unit vectors, keeping each output
    aligned with its input (QR with a phase fix on the diagonal)."""
    q, f = _qr_c(np.array(states).T)
    for k in range(len(states)):
        piv = f[k, k]  # r's diagonal, on the factored matrix
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
    if np.abs(rest).max() > 1e-12:
        povm.append(rest)
        return povm, True
    # states span everything; fold the numerically zero remainder away
    povm[-1] = povm[-1] + rest
    return povm, False


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
    """(probe, ancilla_dim, povm, has_rest): the ``(state, ancilla_dim)``
    purification of a feasibility witness, and the projective measurement
    onto the states ``factors`` evolve it to."""
    probe, r = purified
    states = [_evolved(f, r, probe) for f in factors]
    povm, has_rest = _projective_povm(states, factors[0].shape[0] * r)
    return probe, r, tuple(povm), has_rest


# -----------------------------------------------------------------------------
# The analysis table
# -----------------------------------------------------------------------------

class SetAnalysis:
    """The sub-problems the deciders pose about one set under one set of
    tolerances (``None`` means ``DEFAULT_TOL``), each computed on first
    request and then kept.

    It holds each party's relative factors U_i{dag} U_j (i < j), sorted
    into phase-equality classes, whose traces give the factor groups; the
    spectrum (eigensystem and pair criterion) of each relative and of each
    operator of a probe problem, which the problems read; each relative's
    pair probe and eigenrays; the common-probe problem that any index pairs
    pose on one party (responder, stage-1 and union problems), with the
    measurement realizing its witness; the purification of each mixed
    witness (a pure one comes with its state); and the GDR problem, whose
    operators are products of the two parties' relatives.  Every problem is
    posed by ``OrthogonalityProblem._accepted``, unchecked, as its operators
    come from the accepted set.  The table only decides which call computes
    an entry: the solvers and their operator orders are those the deciders
    use on a set of their own.  The GDR verdict and each start's (LDR, LDA)
    pair are entries too.  A decider given a set builds a table for it, and
    :func:`hierarchy_audit` builds one for all its rows.

    Entries posed on one party's factors (spectra, pair criteria, pair
    probes and eigenrays of relatives, the one-party probe problems, their
    purifications and measurements) are pure functions of the bytes they
    read, and snapped sets share them, so they outlive the table: they sit
    in the process-wide store of :mod:`~unidisc.qcore`, keyed by those
    bytes and the tolerances, with their arrays read-only.  The spectra and
    pair criteria there come from :func:`~unidisc.eigdist._spectrum`, which
    the public pair kernels read too, so
    :func:`~unidisc.eigdist.pair_distinguishable` of two factors returns the
    object :meth:`pair` holds.  The store is emptied whenever it holds
    ``_STORE_CAP`` (2048) entries, about 2-4 MB (the sizes of its entries
    are noted at its definition).  The set-level entries (the relatives,
    the two verdict entries and everything on the GDR problem, its spectra
    included) live as long as the table.
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
        """A one-party entry, kept in the store under the table's tolerances
        and ``key``."""
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
            lambda: self._solve(OrthogonalityProblem._accepted(dim, ops), self._stored))

    def _solve(self, problem: OrthogonalityProblem, entry) -> ProbeFeasibility:
        """:func:`~unidisc.probefeas.common_probe_feasible` of ``problem``,
        reading each operator's spectrum through ``entry``: the store for a
        one-party problem, the table for the GDR problem."""
        return common_probe_feasible(
            problem, self.tol, spectrum=lambda t: _spectrum(problem.operators[t], self.tol, entry))

    def _purified(self, feas: ProbeFeasibility, entry):
        """``(state, ancilla_dim)`` for the witness of ``feas``: its pure
        state with no ancilla when the solver built one, and otherwise the
        :func:`~unidisc.probefeas.purify_witness` of the mixed witness, kept
        through ``entry``."""
        if feas.state is not None:
            return feas.state, 1
        return entry(("purified", feas.witness.matrix.tobytes()),
                     lambda: purify_witness(feas.witness, self.tol))

    def measurement(self, party, members, feas: ProbeFeasibility):
        """:func:`_orthogonal_measurement` of the factors of ``members`` on
        ``party`` with the witness of ``feas``, keyed by the factors and its
        purification: two pure witnesses may share the bytes of one density
        matrix."""
        fs = [self.uset.factor(k, party) for k in members]
        psi, r = self._purified(feas, self._stored)
        return self._stored(
            ("measurement", r, psi.amplitudes.tobytes(), b"".join(f.tobytes() for f in fs)),
            lambda: _orthogonal_measurement(fs, (psi, r)))

    def _relative_spectrum(self, party, i, j):
        return _spectrum(self.relatives(party)[0][i, j], self.tol)

    def pair(self, party, i, j):
        """The pair criterion of U_i and U_j on ``party``."""
        return self._relative_spectrum(party, i, j)[2]

    def pair_probe(self, party, i, j):
        """:func:`~unidisc.eigdist.build_pair_probe` for U_i and U_j on
        ``party``, keyed by the two factors."""
        fs = self.uset.factors(party)
        _, vecs, hull = self._relative_spectrum(party, i, j)
        return self._stored(("pair_probe", fs[i].tobytes() + fs[j].tobytes()),
                            lambda: _pair_probe(fs[i], fs[j], vecs, hull, self.tol))

    def eigenrays(self, party, i, j) -> tuple:
        """Unit eigenvectors of U_i{dag} U_j on ``party``, from ``np.linalg.eig``."""
        k = self.relatives(party)[0][i, j]

        def compute():
            _, vecs = np.linalg.eig(k)
            return tuple(vecs[:, c] / np.linalg.norm(vecs[:, c]) for c in range(k.shape[0]))
        return self._stored(("eigenrays", k.shape, k.tobytes()), compute)

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
        feas = table._solve(table.gdr_problem(), table._entry)
        status = {"feasible": "distinguishable",
                  "infeasible_certified": "indistinguishable_certified"}.get(
                      feas.status, "not_found")
        witness = None
        if feas.status == "feasible":
            probe, r, povm, has_rest = _orthogonal_measurement(
                uset.global_unitaries(), table._purified(feas, table._entry))
            witness = ProbeWitness(probe=probe, ancilla_dim=r, povm=povm,
                                   guesses=tuple(range(m)) + ((None,) if has_rest else ()))
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

    def branch_for(members, feas):
        """Outcome retaining ``members``, which the responder separates with
        the witness of ``feas``."""
        if len(members) == 1:
            return OutcomeBranch(retained=members, guess=members[0])
        probe2, r2, povm2, rest2 = table.measurement(resp, members, feas)
        st = StageTwo(party=resp, probe=probe2, ancilla_dim=r2, povm=povm2,
                      guesses=members + ((None,) if rest2 else ()))
        return OutcomeBranch(retained=members, stage2=st)

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
        probe, anc, povm, has_rest = table.measurement(start, reps, stage1_feas)
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
