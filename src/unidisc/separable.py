"""Product-probe strategies: single-system probes, locally measured.

This module decides whether a set of product unitaries can be perfectly
identified when the probe must be a product of two single-system states (no
entanglement with each other or with ancillas) and each party measures only
their own system.  The verdict is decided from two branches, one per
measuring order: one party measures their evolved probe first and the
outcome tells the other party what to discriminate; the second probe and
measurement may be chosen adaptively.  A fixed product probe whose evolved
states are pairwise orthogonal adds nothing on qubits, however those states
are measured: some party's evolved factors then lie in one orthonormal
basis, and measuring that basis first is a sequential protocol of the kind
searched here (the argument is in :func:`gda_separable_analysis`).

The sequential analysis of qubit factors rests on a structural fact: in a
two-dimensional space a POVM element of rank 2 has full support, so any
outcome that eliminates anything must be rank 1, and it eliminates
precisely the inputs whose evolved probe states are parallel to its kernel
ray.  Outcomes therefore retain at most two candidates (the responder,
measuring one qubit, cannot tell three pairwise non-parallel states apart),
the eliminated sets of distinct outcomes are disjoint parallel classes, and
completing the elimination elements to a POVM is a small linear program
over the class rays, run only for two rays or more (one rank-1 projector
alone is never a multiple of the identity).  Candidate probes are exhausted
by the eigenrays of the non-phase-equal relative factors, the balanced
superpositions that null a distinguishable relative, and the six axis
states; for five or more inputs two disjoint classes of the required size
cannot coexist at all, so the sequential branch is infeasible outright.
With three inputs a failed probe search is certified only when the
responder can finish no pair; otherwise that order stays ``not_found``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
import math

import numpy as np

from .protocols import (
    OutcomeBranch,
    ProbeWitness,
    ProductUnitarySet,
    ProtocolTree,
    SetAnalysis,
    StageTwo,
    StrategyVerdict,
    _PARTIES,
    _idle_stage,
    _one_input_witness,
    _other,
    _party_index,
    _table,
    check_lda,
)
from .qcore import StateVector, Tolerances, _kron
from .simplex import feasible_point

__all__ = [
    "EliminableClass",
    "SeparableStartReport",
    "separable_start_analysis",
    "check_gda_separable",
    "gda_separable_analysis",
]

_PARALLEL_TOL = 1e-9


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class EliminableClass:
    """A set of inputs whose evolved probes can be made parallel.

    ``member_indices`` lists the inputs sharing a ray, ``probes`` the unit
    probe vectors achieving it (all rays work when ``any_probe`` is set,
    which happens when the member factors agree up to phase).
    """

    member_indices: tuple[int, ...]
    probes: tuple[np.ndarray, ...]
    any_probe: bool = False


@dataclass(frozen=True)
class SeparableStartReport:
    """Outcome of the sequential-start analysis for one measuring party.

    ``responder_pairs`` are the index pairs the non-measuring party could
    finish alone, ``necessary_sets`` their complements (what the first
    measurement would have to eliminate in one shot to leave such a pair),
    and ``eliminable`` the necessary sets that actually admit a
    parallelizing probe, together with those probes.
    """

    starting_party: str
    responder_pairs: tuple[tuple[int, int], ...]
    necessary_sets: tuple[tuple[int, ...], ...]
    eliminable: tuple[EliminableClass, ...]
    verdict: str
    tree: ProtocolTree | None
    note: str


# ---------------------------------------------------------------------------
# small geometry helpers


def _rays_parallel(u: np.ndarray, v: np.ndarray) -> bool:
    # unit vectors in C^2: parallel iff the 2x2 determinant vanishes
    return abs(u[0] * v[1] - u[1] * v[0]) <= _PARALLEL_TOL


def _dedup_rays(rays) -> list:
    out: list[np.ndarray] = []
    for r in rays:  # unit vectors, renormalized for the witness bytes
        r = r / np.linalg.norm(r)
        if not any(_rays_parallel(r, s) for s in out):
            out.append(r)
    return out


def _kernel_ray(ray: np.ndarray) -> np.ndarray:
    # the ray orthogonal to a given unit vector in C^2
    return np.array([-np.conj(ray[1]), np.conj(ray[0])], dtype=complex)


_AXIS_STATES = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
)


# ---------------------------------------------------------------------------
# sequential branch


def _responder_pairs(table: SetAnalysis, responder: str) -> set:
    return {(i, j) for i, j in combinations(range(table.uset.size), 2)
            if table.pair(responder, i, j).distinguishable}


def _class_probes(table: SetAnalysis, party: str, members) -> tuple:
    """Probes making the evolved states of ``members`` pairwise parallel.

    A probe works iff it is a common eigenray of all relatives within the
    class, so the eigenrays of any one non-phase-equal relative exhaust the
    candidates; a class of phase-equal factors is parallel under every
    probe.
    """
    mats = [table.uset.factor(k, party) for k in members]
    nontrivial = [(members[0], k) for k in members[1:]
                  if not table.same_factor(party, members[0], k)]
    if not nontrivial:
        return (), True
    good = []
    for ray in _dedup_rays(table.eigenrays(party, *nontrivial[0])):
        imgs = [m @ ray for m in mats]
        if all(_rays_parallel(imgs[0], v) for v in imgs[1:]):
            good.append(ray)
    return tuple(good), False


def _parallel_classes(evolved) -> list:
    classes: list[tuple[np.ndarray, list[int]]] = []
    for idx, v in enumerate(evolved):
        for ray, members in classes:
            if _rays_parallel(ray, v):
                members.append(idx)
                break
        else:
            classes.append((v, [idx]))
    return [(ray, tuple(members)) for ray, members in classes]


def _candidate_probes(table: SetAnalysis, party: str) -> list:
    rays = list(_AXIS_STATES)
    for i, j in combinations(range(table.uset.size), 2):
        if table.same_factor(party, i, j):
            continue
        rays.extend(table.eigenrays(party, i, j))
        if table.pair(party, i, j).distinguishable:
            rays.append(table.pair_probe(party, i, j).probe.amplitudes)
    return _dedup_rays(rays)


def _completion_lp(class_rays):
    """Nonnegative weights making the kernel projectors sum to the identity.

    ``sum_a c_a |r_a^perp><r_a^perp| = 1`` on a qubit is four real linear
    equations in the weights; returns the weight vector or ``None``.  Fewer
    than two rays never complete: a multiple of one rank-1 projector is not
    the identity, so that case needs no LP.
    """
    if len(class_rays) < 2:
        return None
    projs = [np.outer(_kernel_ray(r), _kernel_ray(r).conj()) for r in class_rays]
    a_eq = np.array(
        [
            [p[0, 0].real for p in projs],
            [p[1, 1].real for p in projs],
            [p[0, 1].real for p in projs],
            [p[0, 1].imag for p in projs],
        ]
    )
    b_eq = np.array([1.0, 1.0, 0.0, 0.0])
    res = feasible_point(a_eq, b_eq)
    if res.status != "feasible":
        return None
    return res.x


def _sequential_tree(table, start, responder, probe, classes, weights):
    m = table.uset.size
    povm = []
    branches = []
    d = 2
    total = np.zeros((d, d), dtype=complex)
    for (ray, members), w in zip(classes, weights):
        if w <= 1e-12:
            continue
        kr = _kernel_ray(ray)
        el = w * np.outer(kr, kr.conj())
        total += el
        retained = tuple(k for k in range(m) if k not in members)
        if len(retained) == 2:
            pp = table.pair_probe(responder, *retained)
            branch = OutcomeBranch(retained=retained, stage2=StageTwo(
                party=responder, probe=pp.probe, ancilla_dim=pp.ancilla_dim,
                povm=tuple(pp.measurement), guesses=retained))
        elif len(retained) == 1:
            branch = OutcomeBranch(retained=retained, guess=retained[0])
        else:
            branch = OutcomeBranch(retained=(), guess=None)
        povm.append(el)
        branches.append(branch)
    rest = np.eye(d, dtype=complex) - total
    if np.max(np.abs(rest)) > 1e-12:
        povm.append(rest)
        branches.append(OutcomeBranch(retained=(), guess=None))
    return ProtocolTree(
        start=start,
        probe=StateVector(probe),
        ancilla_dim=1,
        povm=tuple(povm),
        branches=tuple(branches),
        note="single-system probes, elimination-first sequential protocol",
    )


def separable_start_analysis(
    uset: ProductUnitarySet | SetAnalysis,
    start: str,
    tol: Tolerances | None = None,
) -> SeparableStartReport:
    """Decide the sequential product-probe strategy with ``start`` measuring
    first.  Takes a set or its table.

    Exact for qubit factors on both sides.  For four or fewer inputs the
    probe search is exhaustive; for five or more the disjointness of
    eliminated classes already forbids a solution.  With three inputs a
    failed search is only certified when the responder cannot finish any
    pair, otherwise the verdict stays open.
    """
    table = _table(uset, tol)
    uset = table.uset
    if start not in ("A", "B"):
        raise ValueError(f"start must be 'A' or 'B', got {start!r}")
    if uset.party_dims != (2, 2):
        raise ValueError("sequential product-probe analysis requires qubit factors")
    responder = _other(start)
    m = uset.size
    s_factors = uset.factors(start)

    if m <= 2:
        # with at most two inputs the local decider is exact, and its trees
        # use single-system probes: every sub-problem is one commuting
        # operator, whose witness is pure
        lda = check_lda(table, start)
        pairs = tuple(sorted(_responder_pairs(table, responder)))
        verdict = {"indistinguishable_certified": "infeasible_certified"}.get(lda.status,
                                                                             lda.status)
        return SeparableStartReport(start, pairs, ((),) if pairs else (), (),
                                    verdict, lda.witness, lda.note)

    good_pairs = _responder_pairs(table, responder)
    pair_list = tuple(sorted(good_pairs))
    necessary = tuple(tuple(k for k in range(m) if k not in pair) for pair in pair_list)
    eliminable = []
    for members in necessary:
        probes, any_probe = _class_probes(table, start, members)
        if any_probe or probes:
            eliminable.append(EliminableClass(members, probes, any_probe))

    def report(verdict, tree, note):
        return SeparableStartReport(start, pair_list, necessary, tuple(eliminable),
                                    verdict, tree, note)

    if m >= 5:
        # admissible classes have at least m - 2 members, so at most one
        # exists, and a single rank-1 class never completes a POVM
        return report("infeasible_certified", None, (
            "any informative outcome on a qubit eliminates one parallel class of "
            f"at least {m - 2} inputs; two disjoint such classes would need "
            f"{2 * (m - 2)} > {m} inputs, so no elimination POVM exists"
        ))

    # search over candidate probes for a completable elimination POVM
    for probe in _candidate_probes(table, start):
        evolved = [f @ probe for f in s_factors]
        classes = _parallel_classes(evolved)
        admissible = []
        for ray, members in classes:
            if len(members) < m - 2:
                continue
            retained = tuple(k for k in range(m) if k not in members)
            if len(retained) == 2 and retained not in good_pairs:
                continue
            admissible.append((ray, members))
        if not admissible:
            continue
        weights = _completion_lp([ray for ray, _ in admissible])
        if weights is None:
            continue
        tree = _sequential_tree(table, start, responder, probe, admissible, weights)
        return report("distinguishable", tree,
                      "elimination probe found by exhaustive ray search")

    if m == 4:
        return report("infeasible_certified", None, (
            "exhaustive probe search failed; every completable structure pairs "
            "two orthogonal elimination rays, and all probes realizing one "
            "appear among the relative-factor eigenrays and balance points"
        ))
    if not good_pairs:
        return report("infeasible_certified", None, (
            "the responding party cannot finish any pair, and a single "
            "retained-pair class can never complete a POVM alone"
        ))
    return report("not_found", None,
                  "probe search failed; the three-input case is not certified")


# ---------------------------------------------------------------------------
# verdict assembly


def check_gda_separable(
    uset: ProductUnitarySet | SetAnalysis, tol: Tolerances | None = None
) -> StrategyVerdict:
    """Global-answer discrimination with single-system probes only.  Takes a
    set or its table.

    Decided from the two sequential measurement orders: ``distinguishable``
    with the first protocol tree found (A measuring first, then B),
    ``indistinguishable_certified`` when both orders are certified
    impossible, and ``not_found`` otherwise.  A fixed product probe, with
    any measurement, is covered by those two branches on qubits (see
    :func:`gda_separable_analysis`).  For qubit factors only three-input
    sets can end ``not_found``; for other dimensions only sets of at most
    two inputs are decided (the pair criterion is probe-shape agnostic: a
    product of factor-wise hull points achieves any needed orthogonality).
    """
    return gda_separable_analysis(uset, tol)[0]


def gda_separable_analysis(uset: ProductUnitarySet | SetAnalysis,
                           tol: Tolerances | None = None):
    """``(verdict, reports)``: the :func:`check_gda_separable` verdict and the
    ``{"A": ..., "B": ...}`` :class:`SeparableStartReport` pair it was decided
    from, or ``None`` when the sequential analysis does not apply (at most
    two inputs, or factors that are not qubits).  Takes a set or its table.

    Why two branches suffice.  Take a product probe ``alpha (x) beta`` that
    sends ``m >= 3`` inputs to pairwise-orthogonal product states
    ``a_k (x) b_k`` (``a_k = A_k alpha``, ``b_k = B_k beta``), whether they
    are then measured locally or jointly.  Every pair ``(i, j)`` has
    ``a_i`` orthogonal to ``a_j`` or ``b_i`` orthogonal to ``b_j``; call it
    A-orthogonal or B-orthogonal.  In C^2 two rays orthogonal to a third
    are parallel, so neither relation contains a triangle.

    * ``m >= 5`` is impossible: C^2 (x) C^2 holds at most four orthogonal
      states.
    * ``m = 3``: one relation holds on two of the three pairs, which share
      an input ``k``; say A.  Both other ``a`` rays are parallel to the ray
      orthogonal to ``a_k``, so the ``a`` rays lie in one orthonormal basis.
    * ``m = 4``: suppose the ``a`` rays lie in no single orthonormal basis.
      Pairs that are not A-orthogonal are B-orthogonal, so every three
      inputs contain an A-orthogonal pair.  Three inputs on rays of three
      different bases would not, so the rays use exactly two bases
      ``{r, r'}`` and ``{s, s'}`` (a prime marks the orthogonal ray); two
      inputs sharing a ray plus one input in the other basis would not
      either, so the four inputs sit on ``r, r', s, s'``, one each.  Write
      ``b_r`` for the ``b`` ray of the input on ``r``, and so on.  The four
      pairs across the bases are B-orthogonal: ``b_s`` and ``b_s'`` are
      orthogonal to ``b_r``, and ``b_r'`` to ``b_s``, so the ``b`` rays lie
      in the basis ``{b_r, b_s}``.

    So one party's evolved factors take at most two orthogonal values, and
    each value is shared by at most two inputs (three would need three
    pairwise-orthogonal qubit states on the other side).  That party
    measures first in that basis; each outcome eliminates one parallel
    class and retains at most two inputs that are not orthogonal on its
    side, hence orthogonal on the other, which the responder finishes by
    the pair criterion.  That is an A-first or B-first protocol of the
    shape :func:`separable_start_analysis` searches.  Hence both orders
    certified impossible implies no such product probe exists, and a
    product-probe witness implies a sequential witness.
    """
    table = _table(uset, tol)
    uset = table.uset
    strategy = "GDA_separable"
    m = uset.size
    if m == 1:
        return StrategyVerdict(strategy, "either", "distinguishable",
                               witness=_one_input_witness(uset.dim),
                               note="at most one input"), None

    if m == 2:
        for party in _PARTIES:
            if table.pair(party, 0, 1).distinguishable:
                # the pair probe on ``party``, the idle stage on the other
                pp = table.pair_probe(party, 0, 1)
                idle, (eye,) = _idle_stage(uset.party_dims[_party_index(_other(party))])

                def product(own, rest):
                    return _kron(own, rest) if party == "A" else _kron(rest, own)

                probe = product(pp.probe.amplitudes, idle.amplitudes)
                povm = tuple(product(el, eye) for el in pp.measurement)
                witness = ProbeWitness(probe=StateVector(probe), ancilla_dim=1,
                                       povm=povm, guesses=(0, 1))
                return StrategyVerdict(
                    strategy, "either", "distinguishable", witness=witness,
                    note=f"pair criterion met by party {party}"), None
        return StrategyVerdict(
            strategy, "either", "indistinguishable_certified",
            note="two inputs and neither factor pair admits an "
                 "orthogonalizing probe; no probe shape can help"), None

    if uset.party_dims != (2, 2):
        return StrategyVerdict(
            strategy, "either", "not_found",
            note="exact product-probe analysis is implemented for qubit "
                 "factors only"), None

    reports = {p: separable_start_analysis(table, p) for p in _PARTIES}
    for party, rep in reports.items():
        if rep.verdict == "distinguishable":
            return StrategyVerdict(strategy, party, "distinguishable",
                                   witness=rep.tree, note=rep.note), reports
    note = "; ".join(f"first-measurer {p}: {rep.verdict} ({rep.note})"
                     for p, rep in reports.items())
    if all(rep.verdict == "infeasible_certified" for rep in reports.values()):
        return StrategyVerdict(strategy, "either", "indistinguishable_certified",
                               note=note), reports
    return StrategyVerdict(strategy, "either", "not_found", note=note), reports
