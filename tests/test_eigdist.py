"""Hull-distance geometry on the unit circle and the pair criterion.

The implementation decides the hull from the circular order of the points
and the widest angular gap, so the gap oracle below restates its idea and
checks only the verdict.  The independent check is the value oracle, which
minimizes |sum_j w_j e^{i theta_j}| over the simplex with scipy's SLSQP
from several starts.  A test-local reference, a generic planar hull
(monotone chain, containment test, collinear case and fan triangulation),
pins the results bit for bit on well-separated phases.
"""

import re

import numpy as np
import pytest
from scipy.optimize import minimize

from unidisc import eigdist, qcore
from unidisc.eigdist import (
    ConvexNormResult,
    _pair_probe,
    build_pair_probe,
    min_convex_norm,
    pair_distinguishable,
)
from unidisc.families import (
    H,
    I2,
    X,
    Z,
    PhasePairParams,
    pauli_hadamard_set,
    phase_pair_set,
    qutrit_quartet_set,
    random_qubit_set,
)
from unidisc.protocols import ProductUnitarySet, SetAnalysis
from unidisc.qcore import (
    DEFAULT_TOL,
    Tolerances,
    UnitaryOperator,
    _near_unitaries,
    as_matrix,
    eig_unitary,
    haar_unitary,
)

# relative phases {0, pi - eps, pi}: the origin lies on the chord across
# the widest gap, and the fan triangle is too thin to contain it in rounding
NEAR_CHORD_EPS = [5e-5, 1e-6, 1e-9, 1e-11]

# two phases 1e-10 apart and a third antipodal to them
NEAR_DUPLICATE_PHASES = [np.pi / 10 + 1e-10, 11 * np.pi / 10 + 1e-10, np.pi / 10]

# a square with one corner doubled 4e-8 apart and the opposite corner
# antipodal to a point between the two: the origin is inside, but only a
# sliver fan triangle holds it, and the widest chord lies 0.71 away
SLIVER_INSIDE_PHASES = [np.pi / 7 + x for x in
                        (0.0, 4e-8, np.pi / 2, np.pi + 2e-8, 3 * np.pi / 2)]


def near_chord_pair(eps):
    return np.eye(3), np.diag([1.0, -1.0, -np.exp(-1j * eps)])


def gap_oracle_contains_origin(phases):
    """0 is in the hull iff the points span no open half-plane."""
    ph = np.sort(np.mod(np.asarray(phases, dtype=float), 2 * np.pi))
    gaps = np.diff(np.concatenate([ph, [ph[0] + 2 * np.pi]]))
    return np.max(gaps) <= np.pi + 1e-12


def slsqp_value_oracle(phases, tries=8):
    pts = np.exp(1j * np.asarray(phases, dtype=float))
    m = len(pts)

    def f(w):
        return abs(np.dot(w, pts)) ** 2

    best = np.inf
    rng = np.random.default_rng(12345)
    starts = [np.ones(m) / m]
    starts += [rng.dirichlet(np.ones(m)) for _ in range(tries - 1)]
    for w0 in starts:
        res = minimize(f, w0, method="SLSQP",
                       bounds=[(0.0, 1.0)] * m,
                       constraints=[{"type": "eq",
                                     "fun": lambda w: np.sum(w) - 1.0}],
                       options={"ftol": 1e-14, "maxiter": 500})
        if res.fun < best:
            best = res.fun
    return np.sqrt(max(best, 0.0))


# Reference: the generic planar-hull distance (monotone chain, containment
# test, collinear branch, fan), kept verbatim as a bit-for-bit oracle.

def _ref_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _ref_convex_hull(pts):
    """Monotone-chain hull; returns indices into pts in CCW order."""
    order = sorted(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1]))
    if len(order) <= 2:
        return order
    lo = []
    for i in order:
        while len(lo) >= 2 and _ref_cross(pts[lo[-2]], pts[lo[-1]], pts[i]) <= 0:
            lo.pop()
        lo.append(i)
    hi = []
    for i in reversed(order):
        while len(hi) >= 2 and _ref_cross(pts[hi[-2]], pts[hi[-1]], pts[i]) <= 0:
            hi.pop()
        hi.append(i)
    return lo[:-1] + hi[:-1]


def _ref_segment_closest(a, b):
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


def _ref_origin_in_hull(pts, hull):
    """Strict-or-boundary containment test for the origin, CCW hull."""
    n = len(hull)
    for k in range(n):
        a = pts[hull[k]]
        b = pts[hull[(k + 1) % n]]
        if _ref_cross(a, b, (0.0, 0.0)) < -1e-15:
            return False
    return True


def ref_min_convex_norm(phases, tol=DEFAULT_TOL):
    """Distance from the origin to the convex hull of {e^{i theta_j}}, by a
    generic planar hull: single point, collinear segment, full polygon with
    the origin inside (weights from a containing triangle) or outside
    (closest vertex or perpendicular foot on an edge)."""
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
            if abs(points[j] - points[r]) < 1e-12:
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
        if abs(achieved - norm) > tol.comparison:
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
        p, t = _ref_segment_closest(pts[0], pts[1])
        return finish(float(np.hypot(*p)), {reps[0]: t, reps[1]: 1.0 - t})

    hull = _ref_convex_hull(pts)

    if len(hull) <= 2:
        # all representatives collinear; the extremes span the segment
        a, b = hull[0], hull[-1] if len(hull) == 2 else hull[0]
        if len(hull) == 1:
            a = b = hull[0]
        p, t = _ref_segment_closest(pts[a], pts[b])
        norm = float(np.hypot(*p))
        # interior collinear points may coincide with the foot; the two
        # extremes always suffice
        return finish(norm, {reps[a]: t, reps[b]: 1.0 - t})

    if _ref_origin_in_hull(pts, hull):
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
        p, t = _ref_segment_closest(pts[a_i], pts[b_i])
        dist = float(np.hypot(*p))
        if best is None or dist < best[0]:
            best = (dist, a_i, b_i, t)
    dist, a_i, b_i, t = best
    return finish(dist, {reps[a_i]: t, reps[b_i]: 1.0 - t})


def uniform_lists(seed, count):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0, 2 * np.pi, size=int(rng.integers(1, 10)))
            for _ in range(count)]


def lattice_lists(seed, count, eps=0.0):
    """Multiples of pi/k, k <= 12, each optionally moved by -eps, 0 or +eps."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(1, 13))
        m = int(rng.integers(1, 10))
        phases = rng.integers(0, 2 * k, size=m) * np.pi / k
        out.append(phases + rng.choice([-eps, 0.0, eps], size=m))
    return out


class TestReferenceOracle:
    @staticmethod
    def assert_bit_identical(lists):
        for phases in lists:
            got, want = min_convex_norm(phases), ref_min_convex_norm(phases)
            assert got.min_norm == want.min_norm, list(phases)
            assert np.array_equal(got.weights, want.weights), list(phases)
            assert got.distinguishable == want.distinguishable, list(phases)

    def test_uniform_lists(self):
        self.assert_bit_identical(uniform_lists(11, 3000))

    @pytest.mark.parametrize("eps", [0.0, 1e-15, 1e-13])
    def test_exact_lattice_lists(self, eps):
        self.assert_bit_identical(lattice_lists(12, 2000, eps))

    def test_reference_raises_on_near_chord_family(self):
        # the crash the circular order removes; the implementation answers
        for eps in NEAR_CHORD_EPS:
            with pytest.raises(AssertionError, match="no containing triangle"):
                ref_min_convex_norm([0.0, np.pi - eps, np.pi])


class TestMinConvexNorm:
    def test_single_point(self):
        r = min_convex_norm([0.3])
        assert np.isclose(r.min_norm, 1.0)
        assert np.isclose(r.weights.sum(), 1.0)

    def test_antipodal_pair(self):
        r = min_convex_norm([0.0, np.pi])
        assert r.min_norm < 1e-12
        assert r.distinguishable

    def test_quarter_chord(self):
        # phases {0, pi/2}: perpendicular foot at distance cos(pi/4)
        r = min_convex_norm([0.0, np.pi / 2])
        assert np.isclose(r.min_norm, np.sqrt(2) / 2, atol=1e-12)
        assert not r.distinguishable

    def test_clock_phases(self):
        r = min_convex_norm([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        assert r.min_norm < 1e-12
        assert np.allclose(r.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_weights_realize_min_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            phases = rng.uniform(0, 2 * np.pi, size=m)
            r = min_convex_norm(phases)
            assert np.all(r.weights >= -1e-14)
            assert np.isclose(r.weights.sum(), 1.0, atol=1e-10)
            attained = abs(np.dot(r.weights, np.exp(1j * phases)))
            assert abs(attained - r.min_norm) < 1e-9
            # planar Caratheodory: three points suffice
            assert np.count_nonzero(r.weights > 1e-12) <= 3

    def test_verdict_matches_gap_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(1, 8))
            phases = rng.uniform(0, 2 * np.pi, size=m)
            r = min_convex_norm(phases)
            assert (r.min_norm < 1e-9) == gap_oracle_contains_origin(phases)

    def test_value_matches_slsqp_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            m = int(rng.integers(2, 6))
            phases = rng.uniform(0, 2 * np.pi, size=m)
            r = min_convex_norm(phases)
            assert abs(r.min_norm - slsqp_value_oracle(phases)) < 1e-6

    def test_duplicate_phases_mass_on_first(self):
        r = min_convex_norm([0.5, 0.5, 0.5])
        assert np.isclose(r.min_norm, 1.0)
        assert np.isclose(r.weights[0], 1.0)
        assert np.allclose(r.weights[1:], 0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            min_convex_norm([])

    @pytest.mark.parametrize("phases", [[0.0, np.pi, np.nan], [0.0, np.nan],
                                        [0.0, np.inf, 1.0]])
    def test_non_finite_raises(self, phases):
        with pytest.raises(ValueError, match=r"phases must be finite, got \[(nan|inf)\]"):
            min_convex_norm(phases)

    @pytest.mark.parametrize("phases", [[[0.1, 0.2]], np.zeros((2, 2)), np.zeros((1, 1, 3))])
    def test_multi_dimensional_phases_raise(self, phases):
        # a nested list had died with IndexError inside the hull code
        shape = re.escape(str(np.shape(phases)))
        with pytest.raises(ValueError, match=f"one-dimensional, got shape {shape}"):
            min_convex_norm(phases)

    @pytest.mark.parametrize("phases, dtype", [
        (["1", "2"], "<U1"), ([True, False], "bool"),
        (np.array([0.5, 2.0], dtype=object), "object")])
    def test_non_real_dtype_raises(self, phases, dtype):
        # numeric strings and bools cast to float, so they had passed as angles
        with pytest.raises(ValueError, match=f"real numbers, got dtype {dtype}"):
            min_convex_norm(phases)

    @pytest.mark.parametrize("eps", NEAR_CHORD_EPS)
    def test_origin_on_widest_chord(self, eps):
        r = min_convex_norm([0.0, np.pi - eps, np.pi])
        assert r.distinguishable
        assert r.min_norm < 1e-15
        assert r.weights[1] == 0.0

    def test_near_duplicate_phases(self):
        # two phases 1e-10 apart and one antipodal: the fan triangle is a
        # sliver whose weights pass the sign test yet miss the origin
        r = min_convex_norm(NEAR_DUPLICATE_PHASES)
        assert r.distinguishable
        assert abs(np.dot(r.weights, r.points)) < 1e-15

    def test_origin_inside_only_sliver_fan_triangles(self):
        r = min_convex_norm(SLIVER_INSIDE_PHASES)
        assert r.distinguishable
        assert r.min_norm == 0.0
        assert abs(np.dot(r.weights, r.points)) < 1e-15
        assert slsqp_value_oracle(SLIVER_INSIDE_PHASES) < 1e-6

    @pytest.mark.parametrize("eps", [1e-10, 1e-7])
    def test_moved_lattice_lists_answer(self, eps):
        # the reference's distance and verdict wherever it answers (near
        # duplicates may pick other weights); where it raises, the value
        # matches the SLSQP oracle
        raised = 0
        for phases in lattice_lists(12, 2000, eps):
            r = min_convex_norm(phases)
            assert abs(abs(np.dot(r.weights, r.points)) - r.min_norm) < 1e-9
            try:
                want = ref_min_convex_norm(phases)
            except AssertionError:
                raised += 1
                assert abs(r.min_norm - slsqp_value_oracle(phases)) < 1e-6, list(phases)
                continue
            assert r.min_norm == want.min_norm, list(phases)
            assert r.distinguishable == want.distinguishable, list(phases)
        assert raised > 0


class TestPairDistinguishable:
    def test_identity_vs_clock(self):
        w = np.exp(2j * np.pi / 3)
        clock = np.diag([1.0, w, w * w])
        r = pair_distinguishable(np.eye(3), clock)
        assert r.distinguishable
        assert r.min_norm < 1e-12

    def test_phase_gate_pair(self):
        # relative phases {0, pi/2} leave the hull clear of the origin
        r = pair_distinguishable(np.diag([1.0, np.exp(-1j * np.pi / 4)]),
                                 np.diag([1.0, np.exp(1j * np.pi / 4)]))
        assert not r.distinguishable
        assert np.isclose(r.min_norm, np.sqrt(2) / 2, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pair_distinguishable(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("decider", [pair_distinguishable, build_pair_probe])
    def test_rejects_non_square_inputs(self, decider):
        # the shape of the inputs is named, not the deviation of m1{dag} m2
        with pytest.raises(ValueError, match=r"must be square, got shape \(2, 3\)"):
            decider(np.ones((2, 3)), np.ones((2, 3)))

    @pytest.mark.parametrize("decider", [pair_distinguishable, build_pair_probe])
    def test_rejects_non_unitary_pair_with_unitary_relative(self, decider):
        # m1{dag} m2 = diag(-1, 1) is unitary, but neither matrix is
        with pytest.raises(ValueError, match=r"u1 is not unitary \(err 3.000e\+00\)"):
            decider(np.diag([2.0, 1.0]), np.diag([-0.5, 1.0]))

    def test_accepts_factors_a_set_accepts(self):
        # a Hadamard typed with 9 digits is 5.3e-10 off unitary: a set keeps
        # it as its polar factor, and so does the pair criterion
        h9 = np.array([[1.0, 1.0], [1.0, -1.0]]) * 0.707106781
        r = pair_distinguishable(np.eye(2), h9)
        assert r.distinguishable
        assert np.allclose(np.sort(r.phases), [0.0, np.pi], atol=1e-12)
        uset = ProductUnitarySet((2, 1), [("I", np.eye(2), [[1]]), ("H", h9, [[1]])])
        assert r.min_norm == pair_distinguishable(*uset.factors("A")).min_norm
        psi = build_pair_probe(np.eye(2), h9, r).probe.amplitudes
        h = uset.factor(1, "A")
        assert abs(np.vdot(psi, h @ psi)) <= DEFAULT_TOL.comparison / 10

    def test_tolerances_do_not_move_the_unitarity_bar(self):
        # the pair takes what a set takes, 1e-8 off, whatever Tolerances say
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="u2 is not unitary"):
            pair_distinguishable(np.eye(2), x * (1 + 1e-7), Tolerances(1e-6))
        loose = pair_distinguishable(np.eye(2), x * (1 + 2e-9), Tolerances(1e-12))
        assert loose.distinguishable

    @pytest.mark.parametrize("eps", NEAR_CHORD_EPS)
    def test_near_antipodal_chord(self, eps):
        assert pair_distinguishable(*near_chord_pair(eps)).distinguishable

    def test_near_duplicate_phases(self):
        r = pair_distinguishable(np.eye(3), np.diag(np.exp(1j * np.array(NEAR_DUPLICATE_PHASES))))
        assert r.distinguishable

    def test_invariant_under_common_rotation(self):
        # the criterion depends only on the relative unitary
        rng = np.random.default_rng(21)
        u1 = haar_unitary(3, rng).matrix
        u2 = haar_unitary(3, rng).matrix
        v = haar_unitary(3, rng).matrix
        r0 = pair_distinguishable(u1, u2)
        r1 = pair_distinguishable(v @ u1, v @ u2)
        assert abs(r0.min_norm - r1.min_norm) < 1e-9


class TestBuildPairProbe:
    def test_clock_probe_orthogonalizes(self):
        w = np.exp(2j * np.pi / 3)
        clock = np.diag([1.0, w, w * w])
        pp = build_pair_probe(np.eye(3), clock)
        psi = pp.probe.amplitudes
        assert abs(np.vdot(psi, clock @ psi)) < 1e-10
        # uniform superposition of the three eigenvectors
        assert np.allclose(np.abs(psi), np.sqrt(1 / 3) * np.ones(3))

    def test_measurement_identifies_both(self):
        rng = np.random.default_rng(33)
        found = 0
        while found < 10:
            u1 = haar_unitary(3, rng).matrix
            u2 = haar_unitary(3, rng).matrix
            r = pair_distinguishable(u1, u2)
            if not r.distinguishable:
                continue
            found += 1
            pp = build_pair_probe(u1, u2, r)
            psi = pp.probe.amplitudes
            e1 = u1 @ psi
            e2 = u2 @ psi
            p, q = pp.measurement
            assert np.isclose(np.vdot(e1, p @ e1).real, 1.0, atol=1e-9)
            assert np.isclose(np.vdot(e2, q @ e2).real, 1.0, atol=1e-9)

    @pytest.mark.parametrize("eps", NEAR_CHORD_EPS)
    def test_near_antipodal_chord_probe(self, eps):
        u1, u2 = near_chord_pair(eps)
        psi = build_pair_probe(u1, u2).probe.amplitudes
        assert abs(np.vdot(u1 @ psi, u2 @ psi)) <= DEFAULT_TOL.comparison / 10

    def test_rejects_indistinguishable(self):
        with pytest.raises(ValueError, match="not perfectly"):
            build_pair_probe(np.eye(2), np.diag([1.0, 1j]))

    def test_rejects_mismatched_result(self):
        w = np.exp(2j * np.pi / 3)
        clock = np.diag([1.0, w, w * w])
        r = min_convex_norm([0.0, np.pi / 3, np.pi])
        with pytest.raises(ValueError, match="does not match"):
            build_pair_probe(np.eye(3), clock, result=r)

    def test_no_ancilla_ever(self):
        w = np.exp(2j * np.pi / 3)
        pp = build_pair_probe(np.eye(3), np.diag([1.0, w, w * w]))
        assert pp.ancilla_dim == 1


def unstored_pair(u1, u2, tol=DEFAULT_TOL):
    """``(result, probe)`` of a pair without the store: the pair's boundary,
    the ``eig_unitary`` eigensystem of m1{dag} m2, the ``min_convex_norm`` of
    its phases and, for a distinguishable pair, ``_pair_probe`` (``None``
    otherwise), as the pair kernels computed them on every call before
    they shared the store."""
    m1 = u1.matrix if isinstance(u1, UnitaryOperator) else as_matrix(u1)
    m2 = u2.matrix if isinstance(u2, UnitaryOperator) else as_matrix(u2)
    if m1.shape != m2.shape:
        raise ValueError(f"dimension mismatch {m1.shape} vs {m2.shape}")
    if m1.shape[0] != m1.shape[1]:
        raise ValueError(f"pair unitaries must be square, got shape {m1.shape}")
    if not (isinstance(u1, UnitaryOperator) and isinstance(u2, UnitaryOperator)):
        ((m1, m2),) = _near_unitaries(
            ([m1, m2],), lambda k, err: f"u{k + 1} is not unitary (err {err:.3e})")
    phases, vecs = eig_unitary(m1.conj().T @ m2, tol)
    result = min_convex_norm(phases, tol)
    probe = _pair_probe(m1, m2, vecs, result, tol) if result.distinguishable else None
    return result, probe


def reference_pairs():
    """Seeded Haar pairs at d = 2, 3, 4, raw and as ``UnitaryOperator``s
    (and one of each), exactly distinguishable qubit pairs, pairs 4.9e-9
    off unitary, which are held as their polar factors, and the near-chord,
    near-duplicate and sliver phase cases."""
    rng = np.random.default_rng(3535)
    pairs = []
    for d in (2, 3, 4):
        for _ in range(20):
            u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
            pairs += [(u1.matrix, u2.matrix), (u1, u2), (u1, u2.matrix)]
    for a, b in ((I2, X), (I2, H), (Z, X), (X, Z @ X)):
        pairs += [(a, b), (UnitaryOperator(a), UnitaryOperator(b))]
    h9 = np.array([[1.0, 1.0], [1.0, -1.0]]) * 0.707106781
    nilpotent = np.array([[0.0, 4.9e-9], [0.0, 0.0]])
    pairs += [(np.eye(2), h9), (h9, X), (np.eye(2), X * (1 + 4.9e-9)),
              (Z, X + nilpotent), (H + nilpotent, Z)]
    pairs += [near_chord_pair(eps) for eps in NEAR_CHORD_EPS]
    for phases in (NEAR_DUPLICATE_PHASES, SLIVER_INSIDE_PHASES):
        pairs.append((np.eye(len(phases)), np.diag(np.exp(1j * np.array(phases)))))
    return pairs


def assert_same_result(got, want):
    for name in ("phases", "points", "weights"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert np.float64(got.min_norm).tobytes() == np.float64(want.min_norm).tobytes()
    assert got.distinguishable is want.distinguishable


def assert_same_probe(got, want):
    assert got.probe.amplitudes.tobytes() == want.probe.amplitudes.tobytes()
    assert [m.tobytes() for m in got.measurement] == [m.tobytes() for m in want.measurement]
    assert (got.support, got.ancilla_dim) == (want.support, want.ancilla_dim)


def store_snapshot():
    return {key: id(value) for key, value in qcore._store.items()}


class TestStoredPairCriterion:
    """The public pair kernels check their input on every call and then read
    the pair criterion of the relative from the store an analysis table
    fills."""

    def test_is_the_tables_entry(self):
        rng = np.random.default_rng(8)
        sets = [pauli_hadamard_set(), qutrit_quartet_set(),
                phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, np.pi - 1.7))]
        sets += [random_qubit_set(rng) for _ in range(12)]
        for n, uset in enumerate(sets):
            table = SetAnalysis(uset)
            for party in ("A", "B"):
                fs = uset.factors(party)
                for i in range(uset.size):
                    for j in range(i + 1, uset.size):
                        # the table first on even sets, the public kernel on odd ones
                        held = table.pair(party, i, j) if n % 2 == 0 else None
                        r = pair_distinguishable(fs[i], fs[j])
                        assert r is table.pair(party, i, j)
                        assert held in (None, r)

    def test_probe_after_criterion_decomposes_once(self, monkeypatch):
        calls = []

        def counting(u, tol=DEFAULT_TOL):
            calls.append(u.tobytes())
            return eig_unitary(u, tol)

        monkeypatch.setattr(eigdist, "eig_unitary", counting)
        rng = np.random.default_rng(91)
        found = 0
        while found < 5:
            u1, u2 = haar_unitary(4, rng), haar_unitary(4, rng)
            if not unstored_pair(u1, u2)[0].distinguishable:
                continue
            found += 1
            calls.clear()
            r = pair_distinguishable(u1, u2)
            build_pair_probe(u1, u2, r)
            build_pair_probe(u1.matrix, u2.matrix)
            assert len(calls) == 1

    def test_results_are_read_only(self):
        w = np.exp(2j * np.pi / 3)
        for u2 in (np.diag([1.0, w, w * w]), np.diag([1.0, 1j, 1.0])):
            r = pair_distinguishable(np.eye(3), u2)
            for a in (r.phases, r.points, r.weights):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0

    def test_bytes_match_unstored_computation(self):
        pairs = reference_pairs()
        assert sum(unstored_pair(*p)[0].distinguishable for p in pairs) >= 30
        # each pair twice: the store is cold for it, then warm
        for u1, u2 in pairs + pairs:
            want, want_probe = unstored_pair(u1, u2)
            r = pair_distinguishable(u1, u2)
            assert_same_result(r, want)
            if want_probe is None:
                with pytest.raises(ValueError, match="not perfectly"):
                    build_pair_probe(u1, u2)
                continue
            assert_same_probe(build_pair_probe(u1, u2, r), want_probe)
            assert_same_probe(build_pair_probe(u1, u2), want_probe)
            assert_same_probe(build_pair_probe(u1, u2, want), want_probe)

    @pytest.mark.parametrize("u1, u2", [
        (np.eye(2), np.eye(3)),
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2)),
        (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]) * (1 + 1e-7)),
        (np.diag([2.0, 1.0]), np.diag([-0.5, 1.0])),
    ], ids=["shape-mismatch", "non-square", "nan", "non-unitary", "unitary-relative"])
    @pytest.mark.parametrize("decider", [pair_distinguishable, build_pair_probe])
    def test_rejects_as_before_and_leaves_the_store(self, decider, u1, u2):
        with pytest.raises(Exception) as want:
            unstored_pair(u1, u2)
        pair_distinguishable(np.eye(2), X)
        before = store_snapshot()
        with pytest.raises(type(want.value)) as got:
            decider(u1, u2)
        assert str(got.value) == str(want.value)
        assert store_snapshot() == before
