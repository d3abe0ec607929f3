"""Common-probe feasibility: exact LP path, certificates, projections."""

import numpy as np
import pytest

from unidisc.probefeas import (
    OrthogonalityProblem,
    _solve_by_projections,
    common_probe_feasible,
    gram_overlaps,
    purify_witness,
    verify_certificate,
)
from unidisc.qcore import DEFAULT_TOL, DensityOperator, haar_unitary, partial_trace

W3 = np.exp(2j * np.pi / 3)
CLOCK = np.diag([1.0, W3, W3 * W3])
FLIP = np.diag([1.0, 1.0, -1.0])


def random_diag_unitary(d, rng):
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=d)))


class TestProblemValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            OrthogonalityProblem(2, (np.array([[1.0, 0.0], [0.0, 2.0]]),))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            OrthogonalityProblem(3, (np.eye(2),))

    def test_commuting_flag(self):
        assert OrthogonalityProblem(3, (CLOCK, FLIP)).commuting
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0])
        assert not OrthogonalityProblem(2, (x, z)).commuting


class TestSingleOperator:
    def test_clock_feasible_uniform(self):
        f = common_probe_feasible(OrthogonalityProblem(3, (CLOCK,)))
        assert f.status == "feasible"
        diag = np.diag(f.witness.matrix).real
        assert np.allclose(np.sort(diag), [1 / 3, 1 / 3, 1 / 3], atol=1e-9)
        assert abs(np.trace(f.witness.matrix @ CLOCK)) < 1e-9

    def test_lp_witness_is_pure(self):
        # constraints are diagonal in the common eigenbasis, so the LP
        # weights become squared amplitudes of one state
        ops = (CLOCK, CLOCK @ CLOCK)
        f = common_probe_feasible(OrthogonalityProblem(3, ops))
        assert f.status == "feasible"
        assert np.linalg.matrix_rank(f.witness.matrix, tol=1e-9) == 1
        _, r = purify_witness(f.witness)
        assert r == 1
        # the reported residual is the returned witness's own
        assert f.residual == max(abs(v) for v in gram_overlaps(f.witness, ops))
        assert f.residual < 1e-12

    def test_hull_gap_certified(self):
        # eigenphases {0, pi/4} cannot average to zero
        u = np.diag([1.0, np.exp(1j * np.pi / 4)])
        f = common_probe_feasible(OrthogonalityProblem(2, (u,)))
        assert f.status == "infeasible_certified"
        assert f.certificate is not None


class TestClockFlipPair:
    def test_certified_infeasible(self):
        prob = OrthogonalityProblem(3, (CLOCK, FLIP))
        f = common_probe_feasible(prob)
        assert f.status == "infeasible_certified"
        # re-verification recomputes the spectral bound from scratch
        assert verify_certificate(prob, f.certificate) >= 1 - 1e-9

    def test_certificate_is_farkas_style(self):
        # the certified combination must be entrywise >= 1 on the simplex
        # feasible directions, i.e. spectrally bounded below by ~1
        prob = OrthogonalityProblem(3, (CLOCK, FLIP))
        f = common_probe_feasible(prob)
        cert = f.certificate
        g = np.zeros((3, 3), dtype=complex)
        for t, k in enumerate(cert.op_indices):
            op = prob.operators[k]
            h = (op + op.conj().T) / 2
            s = (op - op.conj().T) / 2j
            g = g + cert.coeffs[2 * t] * h + cert.coeffs[2 * t + 1] * s
        lo = np.linalg.eigvalsh((g + g.conj().T) / 2).min()
        assert lo >= 1 - 1e-9

    def test_broken_certificate_rejected(self):
        prob = OrthogonalityProblem(3, (CLOCK, FLIP))
        f = common_probe_feasible(prob)
        bad = type(f.certificate)(op_indices=f.certificate.op_indices,
                                  coeffs=f.certificate.coeffs * 1e-3,
                                  min_eig=f.certificate.min_eig)
        with pytest.raises(ValueError):
            verify_certificate(prob, bad)


def test_empty_constraints_maximally_mixed():
    f = common_probe_feasible(OrthogonalityProblem(4, ()))
    assert f.status == "feasible"
    assert np.allclose(f.witness.matrix, np.eye(4) / 4)


class TestLpVsProjections:
    @staticmethod
    def _designed_feasible(d, nops, rng):
        # plant a balanced clock triple on three shared slots so the
        # uniform weight vector on those slots zeroes every operator
        slots = rng.choice(d, size=3, replace=False)
        ops = []
        for _ in range(nops):
            phases = rng.uniform(0, 2 * np.pi, size=d)
            base = rng.uniform(0, 2 * np.pi)
            for t, j in enumerate(rng.permutation(slots)):
                phases[j] = base + 2 * np.pi * t / 3
            ops.append(np.diag(np.exp(1j * phases)))
        return tuple(ops)

    def test_agreement_on_commuting_instances(self):
        # 100 diagonal systems, half with a planted feasible point: exact
        # LP verdict vs the projection heuristic; projections may stall
        # (not_found) but must never contradict a certified verdict
        rng = np.random.default_rng(77)
        lp_feasible = 0
        checked = 0
        for trial in range(100):
            nops = int(rng.integers(1, 4))
            if trial % 2 == 0:
                d = int(rng.integers(3, 5))
                ops = self._designed_feasible(d, nops, rng)
            else:
                d = int(rng.integers(2, 5))
                ops = tuple(random_diag_unitary(d, rng)
                            for _ in range(nops))
            prob = OrthogonalityProblem(d, ops)
            f_lp = common_probe_feasible(prob)
            f_pr = _solve_by_projections(prob, DEFAULT_TOL,
                                         restarts=4, iterations=1500)
            assert f_lp.status in ("feasible", "infeasible_certified")
            if f_lp.status == "feasible":
                lp_feasible += 1
                viol = max(abs(v) for v in
                           gram_overlaps(f_lp.witness, ops))
                assert viol < 1e-8
            if f_pr.status == "feasible":
                checked += 1
                assert f_lp.status == "feasible"
                viol = max(abs(v) for v in
                           gram_overlaps(f_pr.witness, ops))
                assert viol < 1e-8
            elif f_pr.status == "infeasible_certified":
                raise AssertionError("projection path cannot certify")
            if trial % 2 == 0:
                assert f_lp.status == "feasible"
        # both paths must do real work on this ensemble
        assert lp_feasible >= 50
        assert checked >= 25

    def test_projections_find_noncommuting_witness(self):
        # X and Z are both traceless: the maximally mixed state works, but
        # run the heuristic path and check it lands on a valid witness
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0])
        prob = OrthogonalityProblem(2, (x, z))
        f = _solve_by_projections(prob, DEFAULT_TOL)
        assert f.status == "feasible"
        assert max(abs(v) for v in gram_overlaps(f.witness, (x, z))) < 1e-9


class TestAutoNoncommuting:
    def test_mixed_state_screen(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0])
        f = common_probe_feasible(OrthogonalityProblem(2, (x, z)))
        assert f.status == "feasible"
        assert np.allclose(f.witness.matrix, np.eye(2) / 2)

    def test_single_op_screen_certifies(self):
        # a non-commuting family where one member alone is infeasible
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        t = np.diag([1.0, np.exp(1j * np.pi / 4)])
        rng = np.random.default_rng(3)
        q = haar_unitary(2, rng).matrix
        f = common_probe_feasible(
            OrthogonalityProblem(2, (q @ x @ q.conj().T, t)))
        assert f.status == "infeasible_certified"
        assert "single-operator" in f.note


class TestPurifyWitness:
    def test_round_trip_full_rank(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = g @ g.conj().T
        rho = DensityOperator(m / np.trace(m))
        state, r = purify_witness(rho)
        assert r == 3
        back = partial_trace(state.density(), (3, r), keep=[0])
        assert np.max(np.abs(back - rho.matrix)) < 1e-9

    def test_rank_one_needs_no_ancilla(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        state, r = purify_witness(rho)
        assert r == 1
        assert np.allclose(np.abs(state.amplitudes), [1.0, 0.0])

    def test_rank_two_in_dim_three(self):
        rho = DensityOperator(np.diag([0.5, 0.5, 0.0]))
        state, r = purify_witness(rho)
        assert r == 2
        back = partial_trace(state.density(), (3, 2), keep=[0])
        assert np.max(np.abs(back - rho.matrix)) < 1e-12


def test_gram_overlaps_known_value():
    # diag(1/2, 1/2, 0) against the clock phases: (1 + w)/2
    rho = DensityOperator(np.diag([0.5, 0.5, 0.0]))
    vals = gram_overlaps(rho, [CLOCK])
    assert np.isclose(vals[0], (1 + W3) / 2)
