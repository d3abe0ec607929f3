"""Hull-distance geometry on the unit circle and the pair criterion.

The independent oracles here never share code with the implementation: the
verdict oracle uses the half-plane (largest circular gap) argument, and the
value oracle minimizes |sum_j w_j e^{i theta_j}| over the simplex with
scipy's SLSQP from several starts.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from unidisc.eigdist import (
    build_pair_probe,
    min_convex_norm,
    pair_distinguishable,
)
from unidisc.qcore import haar_unitary


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
