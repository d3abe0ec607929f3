"""Pairwise perfect-distinguishability criterion for unitaries.

Two unitaries u1, u2 can be told apart perfectly in a single shot iff the
origin lies in the convex hull of the eigenvalues of u1{dag} u2 on the unit
circle.  Points on the circle are all hull vertices, so the hull is their
circular order, and the origin is outside it exactly when one angular gap
exceeds pi; the distance is then that of the chord across the gap.  The
distance comes with convex weights attaining it (no iterative
optimization); a vanishing distance converts directly into a probe and a
two-outcome measurement that succeed with certainty.

The eigensystem of a relative unitary and its pair criterion are computed
once per process by :func:`_spectrum` and kept in the store of
:mod:`~unidisc.qcore`, which the analysis tables and the probe solver fill
too: the pair kernels check their input on every call, then read the
shared, read-only entry of u1{dag} u2.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .qcore import (
    DEFAULT_TOL,
    StateVector,
    Tolerances,
    UnitaryOperator,
    _near_unitaries,
    _stored,
    as_matrix,
    eig_unitary,
    projector,
)

__all__ = [
    "ConvexNormResult",
    "PairProbe",
    "min_convex_norm",
    "pair_distinguishable",
    "build_pair_probe",
]

# points on the unit circle closer than this are merged before hull work
_DEDUPE = 1e-12


@dataclass(frozen=True)
class ConvexNormResult:
    """Distance from the origin to conv{e^{i theta_j}} with attaining weights.

    ``weights[j]`` is the mass placed on ``points[j]``; at most three entries
    are nonzero (Caratheodory in the plane) and
    ``|sum_j weights[j] points[j]| == min_norm`` up to ``tol.comparison``.
    Duplicate phases carry their mass on the first occurrence.
    ``distinguishable`` is the pair criterion, ``min_norm <= tol.comparison``
    for the tolerances the distance was computed under.
    """

    phases: np.ndarray
    points: np.ndarray
    min_norm: float
    weights: np.ndarray
    distinguishable: bool


@dataclass(frozen=True)
class PairProbe:
    """Probe and two-outcome measurement distinguishing a unitary pair.

    The probe lives on the system alone (no ancilla is ever required for a
    pair: the support eigenvectors of the relative unitary are orthonormal,
    so the balanced superposition already sends the evolved states to
    orthogonal rays).  ``measurement`` is ``(P, 1-P)`` with ``P`` the
    projector onto the state evolved under the first unitary.
    """

    probe: StateVector
    measurement: tuple
    support: tuple
    ancilla_dim: int = 1


def _chord(pts, reps, a, b):
    """Distance from the origin to the segment between the distinct (x, y)
    pairs ``pts[a]`` and ``pts[b]``, and the weights of ``reps[a]`` and
    ``reps[b]`` at its closest point.  The dot products and ``np.hypot`` stay
    numpy's, whose rounding differs from Python's; the rest is Python floats."""
    (ax, ay), (bx, by) = pts[a], pts[b]
    ab = np.array((bx - ax, by - ay))
    s = min(1.0, max(0.0, float(-(np.array(pts[a]) @ ab)) / float(ab @ ab)))
    t = 1.0 - s
    return float(np.hypot(ax + s * (bx - ax), ay + s * (by - ay))), {reps[a]: t, reps[b]: 1.0 - t}


def _side(a, b):
    """Twice the signed area of (a, b, 0): positive if 0 is left of a -> b."""
    return a[0] * (b[1] - a[1]) - a[1] * (b[0] - a[0])


def min_convex_norm(phases, tol: Tolerances = DEFAULT_TOL) -> ConvexNormResult:
    """Distance from the origin to the convex hull of {e^{i theta_j}}.

    Every distinct point on the unit circle is a hull vertex, so the merged
    points in counter-clockwise order are the hull.  Only the chord across
    the widest angular gap can face the origin; if it does, the closest
    point lies on it, otherwise the barycentric coordinates of a fan
    triangle containing the origin are the weights.

    The hull work runs on Python floats, which round as numpy's float64
    scalars do; the 2-vector dot products, ``np.hypot`` and the final
    weights stay numpy's, since their rounding differs from Python's.
    """
    phases = np.atleast_1d(np.asarray(phases))
    if phases.ndim > 1:
        raise ValueError(f"phases must be one-dimensional, got shape {phases.shape}")
    if phases.dtype.kind == "c":
        raise ValueError("phases must be real angles, not unit-circle points")
    if phases.dtype.kind not in "iuf":  # bool, str and object arrays cast to float
        raise ValueError(f"phases must be real numbers, got dtype {phases.dtype}")
    phases = phases.astype(float)
    if phases.size == 0:
        raise ValueError("need at least one phase")
    if not all(map(isfinite, phases.tolist())):
        raise ValueError(f"phases must be finite, got {phases[~np.isfinite(phases)].tolist()}")
    points = np.exp(1j * phases)
    zs = points.tolist()

    # merge numerically identical points, keeping the first representative
    reps: list[int] = []
    for j, z in enumerate(zs):
        if not any(abs(z - zs[r]) < _DEDUPE for r in reps):
            reps.append(j)

    weights = np.zeros(points.size)

    def finish(norm, wmap):
        for idx, w in wmap.items():
            if w > 0:
                weights[idx] += w
        total = weights.sum()
        if total <= 0:
            raise AssertionError("empty weight assignment")
        weights[:] /= total
        achieved = abs(np.dot(weights, points))
        if abs(achieved - norm) > tol.comparison:
            raise AssertionError(
                f"weight/norm mismatch: |sum w z| = {achieved:.3e}, min_norm = {norm:.3e}"
            )
        return ConvexNormResult(phases=phases, points=points,
                                min_norm=float(norm), weights=weights,
                                distinguishable=bool(norm <= tol.comparison))

    if len(reps) == 1:
        return finish(1.0, {reps[0]: 1.0})

    pts = [(zs[r].real, zs[r].imag) for r in reps]

    if len(reps) == 2:
        return finish(*_chord(pts, reps, 0, 1))

    # counter-clockwise from the leftmost point (the lowest one on ties)
    first = min(range(len(pts)), key=pts.__getitem__)
    angle = np.arctan2(points.imag[reps], points.real[reps])  # np.angle, unwrapped
    turn = np.mod(angle - angle[first], 2 * np.pi).tolist()
    hull = sorted(range(len(turn)), key=turn.__getitem__)
    ends = [turn[h] for h in hull] + [2 * np.pi]
    k = max(range(len(hull)), key=lambda g: ends[g + 1] - ends[g])  # widest gap
    a, b = hull[k], hull[(k + 1) % len(hull)]
    if _side(pts[a], pts[b]) < -1e-15:
        return finish(*_chord(pts, reps, a, b))

    ax, ay = anchor = pts[hull[0]]
    for i, j in zip(hull[1:-1], hull[2:]):
        (ix, iy), (jx, jy) = pts[i], pts[j]
        det = (ix - ax) * (jy - ay) - (jx - ax) * (iy - ay)
        if abs(det) < 1e-15:
            continue
        l1 = -_side(anchor, pts[j]) / det
        l2 = _side(anchor, pts[i]) / det
        l0 = 1.0 - l1 - l2
        # a sliver triangle can pass the sign test on rounding alone, so its
        # weights must also land on the origin
        miss = np.hypot(l0 * ax + l1 * ix + l2 * jx, l0 * ay + l1 * iy + l2 * jy)
        if min(l0, l1, l2) >= -1e-12 and miss <= tol.comparison:
            return finish(0.0, {reps[hull[0]]: l0, reps[i]: l1, reps[j]: l2})
    # no fan triangle passed: the origin lies on the widest chord within
    # rounding, or only sliver fan triangles hold it.  Then the ray from a
    # vertex c through the origin leaves the hull at a point p on the edge
    # across c's antipode, and 0 = (|p| c + p) / (1 + |p|); that split is
    # well conditioned for some c, so the one landing nearest the origin wins
    chord = _chord(pts, reps, a, b)
    if chord[0] <= tol.comparison:
        return finish(*chord)

    def through(g):
        c = hull[g]
        e = bisect_right(ends, (ends[g] + np.pi) % (2 * np.pi)) - 1
        a, b = hull[e], hull[(e + 1) % len(hull)]
        ca, cb = _side(pts[c], pts[a]), _side(pts[c], pts[b])
        if c in (a, b) or cb == ca:
            return np.inf, {}
        mu = min(1.0, max(0.0, cb / (cb - ca)))
        (ax, ay), (bx, by) = pts[a], pts[b]
        n = float(np.hypot(mu * ax + (1.0 - mu) * bx, mu * ay + (1.0 - mu) * by))
        w = {reps[c]: n / (1 + n), reps[a]: mu / (1 + n), reps[b]: (1 - mu) / (1 + n)}
        return abs(sum(v * points[k] for k, v in w.items())), w

    return finish(0.0, min(map(through, range(len(hull))), key=lambda r: r[0])[1])


def _spectrum(k, tol: Tolerances = DEFAULT_TOL):
    """``(phases, vectors, hull)`` of the unitary ``k``: its
    :func:`~unidisc.qcore.eig_unitary` eigensystem and the pair criterion
    (:func:`min_convex_norm`) of its eigenphases under ``tol``.  ``k`` is
    unitary to rounding (built from accepted matrices), and
    :func:`~unidisc.qcore.eig_unitary` takes it as given.

    Both are kept in the process-wide store under ``tol``: the eigensystem
    under ``("spectrum", shape, bytes of k)`` and the hull under
    ``("pair", bytes of the phases)``, which operators of one spectrum
    share."""
    def compute():
        phases, vecs = eig_unitary(k, tol)
        return phases, vecs, _stored((tol, "pair", phases.tobytes()),
                                     lambda: min_convex_norm(phases, tol))
    return _stored((tol, "spectrum", k.shape, k.tobytes()), compute)


def _pair_matrices(u1, u2):
    """``(m1, m2)``: the matrices of a pair, checked to be square and of one
    shape.

    The pair is accepted as unitary by the rule a set applies to its
    factors (:func:`~unidisc.qcore._near_unitaries`: up to 1e-8 off, kept
    as the polar factor past rounding); a ``UnitaryOperator`` has passed
    that rule at construction, so a pair of them is not checked again."""
    m1 = u1.matrix if isinstance(u1, UnitaryOperator) else as_matrix(u1)
    m2 = u2.matrix if isinstance(u2, UnitaryOperator) else as_matrix(u2)
    if m1.shape != m2.shape:
        raise ValueError(f"dimension mismatch {m1.shape} vs {m2.shape}")
    if m1.shape[0] != m1.shape[1]:
        raise ValueError(f"pair unitaries must be square, got shape {m1.shape}")
    if not (isinstance(u1, UnitaryOperator) and isinstance(u2, UnitaryOperator)):
        ((m1, m2),) = _near_unitaries(
            ([m1, m2],), lambda k, err: f"u{k + 1} is not unitary (err {err:.3e})")
    return m1, m2


def pair_distinguishable(u1, u2, tol: Tolerances = DEFAULT_TOL) -> ConvexNormResult:
    """Apply the hull criterion to the eigenphases of u1{dag} u2.

    The pair is checked on every call; the result is the stored pair
    criterion of u1{dag} u2, shared with every caller that asks for it
    (an analysis table among them) and read-only."""
    m1, m2 = _pair_matrices(u1, u2)
    return _spectrum(m1.conj().T @ m2, tol)[2]


def build_pair_probe(u1, u2, result: ConvexNormResult | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> PairProbe:
    """Probe and measurement for a distinguishable pair.

    The probe is sum_j sqrt(p_j) |v_j> over the (at most three) eigenvectors
    of u1{dag} u2 carrying nonzero hull weight; since those eigenvectors are
    orthonormal the evolved overlap equals sum_j p_j e^{i theta_j} = 0 and
    the two evolved states are exactly orthogonal.  The pair is checked on
    every call, and the eigensystem is the stored one that
    :func:`pair_distinguishable` reads.
    """
    m1, m2 = _pair_matrices(u1, u2)
    phases, vecs, hull = _spectrum(m1.conj().T @ m2, tol)
    if result is None:
        result = hull
    elif result.phases.shape != phases.shape or np.max(
            np.abs(np.exp(1j * result.phases) - np.exp(1j * phases))) > 1e-9:
        raise ValueError("supplied ConvexNormResult does not match this pair")
    return _pair_probe(m1, m2, vecs, result, tol)


def _pair_probe(m1, m2, vecs, result: ConvexNormResult, tol: Tolerances) -> PairProbe:
    """:func:`build_pair_probe` from the eigenvectors ``vecs`` of m1{dag} m2
    (in :func:`~unidisc.qcore.eig_unitary` order) and their hull result."""
    if not result.distinguishable:
        raise ValueError(
            f"pair is not perfectly distinguishable (min_norm = {result.min_norm:.3e})")

    support = tuple(int(j) for j in np.nonzero(result.weights > 1e-14)[0])
    amp = np.zeros(m1.shape[0], dtype=complex)
    for j in support:
        amp += np.sqrt(result.weights[j]) * vecs[:, j]
    probe = StateVector(amp)

    ev1 = m1 @ probe.amplitudes
    ev2 = m2 @ probe.amplitudes
    cross = abs(np.vdot(ev1, ev2))
    if cross > tol.comparison / 10:  # 1e-10 at the default tolerance
        raise AssertionError(f"evolved states not orthogonal: |<.|.>| = {cross:.3e}")
    p = projector(ev1)
    measurement = (p, np.eye(m1.shape[0]) - p)
    return PairProbe(probe=probe, measurement=measurement, support=support)
