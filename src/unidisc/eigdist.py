"""Pairwise perfect-distinguishability criterion for unitaries.

Two unitaries u1, u2 can be told apart perfectly in a single shot iff the
origin lies in the convex hull of the eigenvalues of u1{dag} u2 on the unit
circle.  The distance from the origin to that hull is computed with exact
2-D geometry (no iterative optimization), together with convex weights
attaining it; a vanishing distance converts directly into a probe and a
two-outcome measurement that succeed with certainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    DEFAULT_TOL,
    StateVector,
    Tolerances,
    UnitaryOperator,
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
    ``|sum_j weights[j] points[j]| == min_norm`` up to the orthogonality
    tolerance.  Duplicate phases carry their mass on the first occurrence.
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


# -----------------------------------------------------------------------------
# Planar geometry helpers
# -----------------------------------------------------------------------------

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(pts):
    """Monotone-chain hull; returns indices into pts in CCW order."""
    order = sorted(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1]))
    if len(order) <= 2:
        return order
    lo = []
    for i in order:
        while len(lo) >= 2 and _cross(pts[lo[-2]], pts[lo[-1]], pts[i]) <= 0:
            lo.pop()
        lo.append(i)
    hi = []
    for i in reversed(order):
        while len(hi) >= 2 and _cross(pts[hi[-2]], pts[hi[-1]], pts[i]) <= 0:
            hi.pop()
        hi.append(i)
    return lo[:-1] + hi[:-1]


def _segment_closest(a, b):
    """Closest point to the origin on segment ab; returns (point, t) with
    point = t*a + (1-t)*b."""
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-30:
        return a, 1.0
    # param s along a -> b
    s = float(-(a @ ab)) / denom
    s = min(1.0, max(0.0, s))
    p = a + s * ab
    return p, 1.0 - s


def _origin_in_hull(pts, hull):
    """Strict-or-boundary containment test for the origin, CCW hull."""
    n = len(hull)
    for k in range(n):
        a = pts[hull[k]]
        b = pts[hull[(k + 1) % n]]
        if _cross(a, b, (0.0, 0.0)) < -1e-15:
            return False
    return True


# -----------------------------------------------------------------------------
# Main criterion
# -----------------------------------------------------------------------------

def min_convex_norm(phases, tol: Tolerances = DEFAULT_TOL) -> ConvexNormResult:
    """Distance from the origin to the convex hull of {e^{i theta_j}}.

    Exact case analysis: single point, collinear segment, full polygon with
    the origin inside (weights from a containing triangle) or outside
    (closest vertex or perpendicular foot on an edge).
    """
    phases = np.atleast_1d(np.asarray(phases))
    if np.iscomplexobj(phases):
        raise ValueError("phases must be real angles, not unit-circle points")
    phases = phases.astype(float)
    if phases.size == 0:
        raise ValueError("need at least one phase")
    points = np.exp(1j * phases)
    m = points.size

    # merge numerically identical points, keeping the first representative
    reps: list[int] = []
    owner = np.empty(m, dtype=int)
    for j in range(m):
        for r in reps:
            if abs(points[j] - points[r]) < _DEDUPE:
                owner[j] = r
                break
        else:
            reps.append(j)
            owner[j] = j

    weights = np.zeros(m)

    def finish(norm, wmap):
        for idx, w in wmap.items():
            if w > 0:
                weights[idx] += w
        total = weights.sum()
        if total <= 0:
            raise AssertionError("empty weight assignment")
        weights[:] /= total
        achieved = abs(np.dot(weights, points))
        if abs(achieved - norm) > 10 * tol.orthogonality:
            raise AssertionError(
                f"weight/norm mismatch: |sum w z| = {achieved:.3e}, min_norm = {norm:.3e}"
            )
        return ConvexNormResult(phases=phases, points=points,
                                min_norm=float(norm), weights=weights,
                                distinguishable=bool(norm <= tol.comparison))

    if len(reps) == 1:
        return finish(1.0, {reps[0]: 1.0})

    pts = [np.array([points[r].real, points[r].imag]) for r in reps]

    if len(reps) == 2:
        p, t = _segment_closest(pts[0], pts[1])
        return finish(float(np.hypot(*p)), {reps[0]: t, reps[1]: 1.0 - t})

    hull = _convex_hull(pts)

    if len(hull) <= 2:
        # all representatives collinear; the extremes span the segment
        a, b = hull[0], hull[-1] if len(hull) == 2 else hull[0]
        if len(hull) == 1:
            a = b = hull[0]
        p, t = _segment_closest(pts[a], pts[b])
        norm = float(np.hypot(*p))
        # interior collinear points may coincide with the foot; the two
        # extremes always suffice
        return finish(norm, {reps[a]: t, reps[b]: 1.0 - t})

    if _origin_in_hull(pts, hull):
        # fan triangulation from hull[0]; the origin lies in some triangle
        anchor = hull[0]
        for k in range(1, len(hull) - 1):
            i, j = hull[k], hull[k + 1]
            a, b, c = pts[anchor], pts[i], pts[j]
            det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
            if abs(det) < 1e-15:
                continue
            l1 = ((0.0 - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (0.0 - a[1])) / det
            l2 = ((b[0] - a[0]) * (0.0 - a[1]) - (0.0 - a[0]) * (b[1] - a[1])) / det
            l0 = 1.0 - l1 - l2
            if min(l0, l1, l2) >= -1e-12:
                wmap = {reps[anchor]: max(l0, 0.0)}
                wmap[reps[i]] = wmap.get(reps[i], 0.0) + max(l1, 0.0)
                wmap[reps[j]] = wmap.get(reps[j], 0.0) + max(l2, 0.0)
                return finish(0.0, wmap)
        raise AssertionError("origin inside hull but no containing triangle found")

    # origin outside: minimize over edges (covers vertices at t in {0,1})
    best = None
    n = len(hull)
    for k in range(n):
        a_i, b_i = hull[k], hull[(k + 1) % n]
        p, t = _segment_closest(pts[a_i], pts[b_i])
        dist = float(np.hypot(*p))
        if best is None or dist < best[0]:
            best = (dist, a_i, b_i, t)
    dist, a_i, b_i, t = best
    return finish(dist, {reps[a_i]: t, reps[b_i]: 1.0 - t})


def pair_distinguishable(u1, u2, tol: Tolerances = DEFAULT_TOL) -> ConvexNormResult:
    """Apply the hull criterion to the eigenphases of u1{dag} u2."""
    m1 = u1.matrix if isinstance(u1, UnitaryOperator) else as_matrix(u1)
    m2 = u2.matrix if isinstance(u2, UnitaryOperator) else as_matrix(u2)
    if m1.shape != m2.shape:
        raise ValueError(f"dimension mismatch {m1.shape} vs {m2.shape}")
    rel = m1.conj().T @ m2
    phases, _ = eig_unitary(rel, tol)
    return min_convex_norm(phases, tol)


def build_pair_probe(u1, u2, result: ConvexNormResult | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> PairProbe:
    """Probe and measurement for a distinguishable pair.

    The probe is sum_j sqrt(p_j) |v_j> over the (at most three) eigenvectors
    of u1{dag} u2 carrying nonzero hull weight; since those eigenvectors are
    orthonormal the evolved overlap equals sum_j p_j e^{i theta_j} = 0 and
    the two evolved states are exactly orthogonal.
    """
    m1 = u1.matrix if isinstance(u1, UnitaryOperator) else as_matrix(u1)
    m2 = u2.matrix if isinstance(u2, UnitaryOperator) else as_matrix(u2)
    rel = m1.conj().T @ m2
    phases, vecs = eig_unitary(rel, tol)
    if result is None:
        result = min_convex_norm(phases, tol)
    else:
        if result.phases.shape != phases.shape or np.max(
                np.abs(np.exp(1j * result.phases) - np.exp(1j * phases))) > 1e-9:
            raise ValueError("supplied ConvexNormResult does not match this pair")
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
    if cross > tol.orthogonality:
        raise AssertionError(f"evolved states not orthogonal: |<.|.>| = {cross:.3e}")
    p = projector(ev1)
    measurement = (p, np.eye(m1.shape[0]) - p)
    return PairProbe(probe=probe, measurement=measurement, support=support)
