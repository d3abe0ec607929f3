"""Alternating elimination optimization.

The two-arm qubit toy has a closed-form optimum derived independently:
with arms {1} and {T}, the best POVM for a fixed pure probe scores
1 - (trace distance between rho and T rho T+), and minimizing over the
Bloch sphere gives 1 - sin(phi/2) for T = diag(1, e^{i phi}) with
phi < pi (the overlap cannot drop below the hull distance cos(phi/2)).
So s_max = sin(phi/2) exactly.
"""

import logging

import numpy as np
import pytest

from unidisc.jsonio import seesaw_to_json
from unidisc.qcore import DensityOperator, StateVector
from unidisc.seesaw import (
    EliminationTask,
    QUARTET_BOB_FIRST_SMAX_BOUND,
    elimination_objective,
    measurement_step,
    quartet_alice_first_task,
    quartet_alice_first_warm_start,
    quartet_bob_first_task,
    rho_step,
    run_seesaw,
)
from unidisc import seesaw
from unidisc.seesaw import _ArmStack, _measurement_kernel, _sigma_blocks

I2 = np.eye(2, dtype=complex)


def two_arm_task(phi):
    t = np.diag([1.0, np.exp(1j * phi)])
    return EliminationTask(dim=2, arms=((I2,), (t,)))


def grid_minimum(phi, step_deg=1.0):
    """Brute force over pure probes; inner POVM optimum in closed form.

    For two outcomes, min_M Tr(A1 M) + Tr(A2 (1-M)) equals
    Tr A2 + (sum of negative eigenvalues of A1 - A2).
    """
    t = np.diag([1.0, np.exp(1j * phi)])
    best = np.inf
    thetas = np.deg2rad(np.arange(0.0, 180.0 + step_deg, step_deg))
    phis = np.deg2rad(np.arange(0.0, 360.0, step_deg * 4))
    for th in thetas:
        for ph in phis:
            psi = np.array([np.cos(th / 2),
                            np.exp(1j * ph) * np.sin(th / 2)])
            rho = np.outer(psi, psi.conj())
            a1 = rho
            a2 = t @ rho @ t.conj().T
            diff = np.linalg.eigvalsh(a1 - a2)
            val = 1.0 + diff[diff < 0].sum()
            if val < best:
                best = val
    return best


# ---------------------------------------------------------------------------
# reference oracle: the one-restart, one-arm-at-a-time seesaw that the
# stacked kernels replaced, kept verbatim in its arithmetic


def _ref_sigmas(task, rho):
    out = []
    for arm in task.arms:
        s = np.zeros((task.dim, task.dim), dtype=complex)
        for mat in arm:
            s += mat @ rho @ mat.conj().T
        out.append(s)
    return out


def _ref_score(sigmas, povm):
    return sum((float(np.real(np.trace(s @ m))) for s, m in zip(sigmas, povm)), 0.0)


def _ref_rho_step(task, povm):
    k = np.zeros((task.dim, task.dim), dtype=complex)
    for arm, mat_m in zip(task.arms, povm):
        for mat_u in arm:
            k += mat_u.conj().T @ mat_m @ mat_u
    v = np.linalg.eigh((k + k.conj().T) / 2)[1][:, 0]
    return np.outer(v, v.conj())


def _ref_sqrt_pinv(mat):
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    inv = np.where(vals > 1e-12 * max(1.0, float(vals[-1])),
                   1.0 / np.sqrt(np.clip(vals, 1e-12, None)), 0.0)
    return (vecs * inv) @ vecs.conj().T


def _ref_measurement_step(task, rho, misses):
    sigmas = _ref_sigmas(task, rho)
    n, d = len(sigmas), task.dim
    lam = max(float(np.linalg.eigvalsh((s + s.conj().T) / 2)[-1]) for s in sigmas) + 1e-6
    rewards = [lam * np.eye(d, dtype=complex) - s for s in sigmas]
    best = povm = [np.eye(d, dtype=complex) / n for _ in range(n)]
    best_val = prev = _ref_score(sigmas, povm)
    for _ in range(200):
        total = np.zeros((d, d), dtype=complex)
        for t, m in zip(rewards, povm):
            total += t @ m @ t
        g = _ref_sqrt_pinv(total)
        new = [g @ (t @ m @ t) @ g for t, m in zip(rewards, povm)]
        rest = np.eye(d, dtype=complex) - sum(new)
        rest = (rest + rest.conj().T) / 2
        if float(np.linalg.norm(rest)) > 1e-14:
            new[int(np.argmin([float(np.real(np.trace(s @ rest))) for s in sigmas]))] += rest
        povm = [(m + m.conj().T) / 2 for m in new]
        val = _ref_score(sigmas, povm)
        if val < best_val:
            best_val, best = val, povm
        if abs(val - prev) < 1e-12:
            break
        prev = val
    else:
        misses.append(rho)
    return best


def _ref_run(task, starts, max_sweeps=2000):
    """Per start ``(value, sweeps, trajectory)`` and the non-converged
    measurement-step count; ``starts`` are ``(rho, povm or None)`` arrays."""
    runs, misses = [], []
    for rho, povm in starts:
        if povm is None:
            povm = _ref_measurement_step(task, rho, misses)
        current = _ref_score(_ref_sigmas(task, rho), povm)
        traj, sweeps = [current], 0
        for sweeps in range(1, max_sweeps + 1):
            rho = _ref_rho_step(task, povm)
            cand_povm = _ref_measurement_step(task, rho, misses)
            sigmas = _ref_sigmas(task, rho)
            if _ref_score(sigmas, cand_povm) <= current + 1e-10:
                povm = cand_povm
            new = _ref_score(sigmas, povm)
            traj.append(min(new, current))
            done = abs(current - new) < 1e-10
            current = min(new, current)
            if done:
                break
        runs.append((current, sweeps, tuple(traj)))
    return runs, len(misses)


def _random_starts(dim, restarts, seed):
    starts = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v = v / np.linalg.norm(v)
        starts.append((np.outer(v, v.conj()), None))
    return starts


class TestEliminationTask:
    def test_validates_arm_shapes(self):
        with pytest.raises(ValueError):
            EliminationTask(dim=2, arms=((np.eye(3),),))

    def test_validates_empty(self):
        with pytest.raises(ValueError):
            EliminationTask(dim=2, arms=())

    def test_validates_empty_arm(self):
        with pytest.raises(ValueError, match="at least one operator"):
            EliminationTask(dim=2, arms=((I2,), ()))

    def test_stores_arms_as_complex_arrays(self):
        task = EliminationTask(dim=2, arms=(([[1, 0], [0, 1]],), ([[0, 1], [1, 0]],)))
        for arm in task.arms:
            for u in arm:
                assert isinstance(u, np.ndarray) and u.dtype == complex

    def test_nested_lists_run_like_arrays(self):
        task = quartet_bob_first_task()
        listed = EliminationTask(
            dim=task.dim,
            arms=tuple(tuple(u.tolist() for u in arm) for arm in task.arms))
        a = run_seesaw(task, restarts=1, seed=5)
        b = run_seesaw(listed, restarts=1, seed=5)
        assert a.s_max == b.s_max
        assert a.trajectory == b.trajectory


class TestObjectiveAndSteps:
    def test_objective_hand_value(self):
        task = quartet_bob_first_task()
        rho = DensityOperator(np.eye(9) / 9)
        povm = (np.zeros((9, 9)),) * 3 + (np.eye(9),)
        # the last arm contains only the identity, so the score is Tr(rho)
        assert np.isclose(elimination_objective(task, rho, povm), 1.0)

    @pytest.mark.parametrize("count", [1, 3, 5])
    def test_objective_rejects_povm_length_mismatch(self, count):
        task = quartet_bob_first_task()
        rho = DensityOperator(np.eye(9) / 9)
        with pytest.raises(ValueError, match="arms"):
            elimination_objective(task, rho, (np.eye(9) / count,) * count)

    def test_rho_step_rejects_povm_length_mismatch(self):
        task = quartet_bob_first_task()
        with pytest.raises(ValueError, match="arms"):
            rho_step(task, (np.eye(9),))

    @pytest.mark.parametrize("rho_dim, povm_dim, what", [
        (3, 9, "rho"),
        (9, 3, "each POVM element"),
    ])
    def test_objective_rejects_wrong_dimension(self, rho_dim, povm_dim, what):
        rho = DensityOperator(np.eye(rho_dim) / rho_dim)
        povm = (np.eye(povm_dim) / 4,) * 4
        with pytest.raises(ValueError, match=f"{what} is 3x3, the task dimension is 9"):
            elimination_objective(quartet_bob_first_task(), rho, povm)

    def test_rho_step_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="each POVM element is 3x3, "
                                             "the task dimension is 9"):
            rho_step(quartet_bob_first_task(), (np.eye(3) / 4,) * 4)

    def test_measurement_step_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="rho is 3x3, the task dimension is 9"):
            measurement_step(quartet_bob_first_task(), DensityOperator(np.eye(3) / 3))

    def test_rho_step_bottom_eigenvector(self):
        task = two_arm_task(np.pi / 4)
        povm = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        # K = M1 + T+ M2 T = diag(1, 1): degenerate; any unit vector works
        rho = rho_step(task, povm)
        assert np.isclose(np.trace(rho.matrix), 1.0)
        # now break the degeneracy
        povm = (np.diag([0.9, 0.0]), np.diag([0.0, 1.0]))
        rho = rho_step(task, povm)
        assert np.isclose(rho.matrix[0, 0].real, 1.0, atol=1e-12)

    def test_measurement_step_returns_valid_povm(self):
        task = quartet_bob_first_task()
        rng = np.random.default_rng(1)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        v /= np.linalg.norm(v)
        rho = DensityOperator(np.outer(v, v.conj()))
        povm = measurement_step(task, rho)
        total = sum(povm)
        assert np.max(np.abs(total - np.eye(9))) < 1e-8
        for m in povm:
            assert np.linalg.eigvalsh((m + m.conj().T) / 2).min() > -1e-10

    def test_measurement_step_not_worse_than_uniform(self):
        task = two_arm_task(np.pi / 3)
        rho = DensityOperator(np.diag([1.0, 0.0]))
        povm = measurement_step(task, rho)
        uniform = (np.eye(2) / 2, np.eye(2) / 2)
        assert (elimination_objective(task, rho, povm)
                <= elimination_objective(task, rho, uniform) + 1e-10)


    @pytest.mark.parametrize("rho", [
        5 * np.eye(9),  # trace 45
        np.eye(9) / 9 + np.triu(np.ones((9, 9)), 1) / 9,  # not Hermitian
        np.diag([2.0] + [-1.0 / 8] * 8),  # trace 1, not PSD
    ])
    def test_raw_rho_validated_as_density_operator(self, rho):
        task = quartet_bob_first_task()
        with pytest.raises(ValueError):
            measurement_step(task, rho)
        with pytest.raises(ValueError):
            elimination_objective(task, rho, (np.eye(9) / 4,) * 4)

    def test_raw_rho_runs_like_density_operator(self):
        task = quartet_bob_first_task()
        rho = np.eye(9) / 9
        for a, b in zip(measurement_step(task, rho),
                        measurement_step(task, DensityOperator(rho))):
            assert np.array_equal(a, b)

    def test_state_vector_probe_of_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="rho is 3x3, the task dimension is 9"):
            measurement_step(quartet_bob_first_task(), StateVector(np.ones(3)))


def _random_vector(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _assert_step_matches_reference(task, probe):
    """``measurement_step`` against the one-arm-at-a-time oracle."""
    rho = probe.density().matrix if isinstance(probe, StateVector) else probe.matrix
    ref = _ref_measurement_step(task, rho, [])
    got = measurement_step(task, probe)
    assert len(got) == len(ref)
    assert max(np.abs(a - b).max() for a, b in zip(got, ref)) <= 1e-12


class TestOrbitSubspace:
    """The measurement step on the probe's orbit subspace reproduces the
    full-space iteration."""

    def test_second_party_probe_iterates_on_three_dimensions(self):
        arms = _ArmStack(quartet_bob_first_task())
        assert len(arms.units) == 3
        assert arms.index.tolist() == [0, 1, 0, 2, 1, 2, 0]
        basis, blocks = _sigma_blocks(arms, _random_vector(9, 0)[None])
        assert basis.shape == (1, 9, 3) and blocks.shape == (1, 4, 3, 3)
        assert np.abs(basis[0].conj().T @ basis[0] - np.eye(3)).max() < 1e-14

    @pytest.mark.parametrize("make_task", [quartet_bob_first_task, quartet_alice_first_task])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_pure_probes(self, make_task, seed):
        task = make_task()
        _assert_step_matches_reference(task, StateVector(_random_vector(task.dim, seed)))

    def test_degenerate_orbit_pads_the_basis(self):
        # every arm operator fixes e0 (x) e0, so the orbit is one ray and QR
        # pads two columns on which every sigma vanishes
        task = quartet_bob_first_task()
        v = np.zeros(9, dtype=complex)
        v[0] = 1.0
        basis, blocks = _sigma_blocks(_ArmStack(task), v[None])
        assert basis.shape == (1, 9, 3)
        assert np.abs(blocks[0, :, 1:, :]).max() < 1e-15
        _assert_step_matches_reference(task, StateVector(v))

    def test_full_rank_mixed_probe(self):
        task = quartet_bob_first_task()
        rng = np.random.default_rng(4)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        rho = a @ a.conj().T
        _assert_step_matches_reference(task, DensityOperator(rho / np.trace(rho).real))

    def test_qubit_orbit_fills_the_space(self):
        _assert_step_matches_reference(two_arm_task(np.pi / 3),
                                       StateVector(_random_vector(2, 5)))

    def test_annihilated_probe(self):
        # both arms annihilate the probe: the orbit is empty, every sigma
        # vanishes and the basis is padding only
        p0, p1 = np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])
        task = EliminationTask(dim=3, arms=((p0,), (p1,)))
        _assert_step_matches_reference(task, StateVector(np.array([0, 0, 1.0])))


class TestRunSeesaw:
    def test_two_arm_toy_matches_analytic(self):
        for phi in (np.pi / 4, np.pi / 3):
            res = run_seesaw(two_arm_task(phi), restarts=8, seed=0)
            assert abs(res.s_max - np.sin(phi / 2)) < 1e-6

    def test_two_arm_toy_matches_grid(self):
        phi = np.pi / 4
        res = run_seesaw(two_arm_task(phi), restarts=8, seed=0)
        assert abs((1.0 - res.s_max) - grid_minimum(phi)) < 1e-4

    def test_trajectory_monotone(self):
        res = run_seesaw(quartet_bob_first_task(), restarts=2, seed=3,
                         max_sweeps=60)
        traj = np.array(res.trajectory)
        assert np.all(np.diff(traj) <= 1e-10)

    def test_deterministic(self):
        a = run_seesaw(two_arm_task(np.pi / 4), restarts=4, seed=7)
        b = run_seesaw(two_arm_task(np.pi / 4), restarts=4, seed=7)
        assert a.s_max == b.s_max
        assert a.trajectory == b.trajectory

    def test_single_arm_scores_zero(self):
        task = EliminationTask(dim=3, arms=((np.eye(3),),))
        res = run_seesaw(task, restarts=2, seed=0)
        assert abs(res.s_max) < 1e-9

    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_rejects_max_sweeps_below_one(self, max_sweeps):
        with pytest.raises(ValueError, match="max_sweeps"):
            run_seesaw(two_arm_task(np.pi / 4), restarts=1, max_sweeps=max_sweeps)

    def test_rejects_negative_restarts(self):
        rho, povm = quartet_alice_first_warm_start()
        with pytest.raises(ValueError, match="restarts"):
            run_seesaw(quartet_alice_first_task(), restarts=-2, warm_starts=((rho, povm),))

    def test_result_povm_and_rho_valid(self):
        res = run_seesaw(two_arm_task(np.pi / 4), restarts=3, seed=2)
        total = sum(res.povm)
        assert np.max(np.abs(total - np.eye(2))) < 1e-8
        assert np.isclose(np.trace(res.rho.matrix), 1.0)
        assert res.restarts_used == 3
        assert len(res.per_restart) == 3


class TestQuartetTasks:
    def test_bob_first_structure(self):
        task = quartet_bob_first_task()
        assert task.dim == 9
        assert len(task.arms) == 4

    def test_bob_first_below_frozen_bound(self):
        res = run_seesaw(quartet_bob_first_task(), restarts=6, seed=1)
        assert res.s_max < 1.0 - 1e-3
        assert res.s_max <= QUARTET_BOB_FIRST_SMAX_BOUND

    def test_alice_first_warm_start_exact(self):
        task = quartet_alice_first_task()
        rho, povm = quartet_alice_first_warm_start()
        assert abs(elimination_objective(task, rho, povm)) < 1e-12
        res = run_seesaw(task, restarts=1, seed=0,
                         warm_starts=((rho, povm),))
        assert abs(res.s_max - 1.0) < 1e-9

    @pytest.mark.parametrize("povm", [
        (np.zeros((9, 9)),) * 4,  # right count, incomplete
        (np.zeros((9, 9)),),  # too few elements
        (np.eye(9),),  # complete but too few elements
        (np.eye(3) / 4,) * 4,  # wrong shape
        (np.diag([2.0] + [1.0] * 8), -np.diag([1.0] + [0.0] * 8),
         np.zeros((9, 9)), np.zeros((9, 9))),  # complete, not PSD
    ])
    def test_invalid_warm_start_povm_rejected(self, povm):
        rho = DensityOperator(np.eye(9) / 9)
        with pytest.raises(ValueError):
            run_seesaw(quartet_bob_first_task(), restarts=0,
                       warm_starts=((rho, povm),))

    def test_warm_start_rho_of_wrong_dimension_rejected(self):
        rho = DensityOperator(np.eye(3) / 3)
        with pytest.raises(ValueError, match=r"warm-start rho is 3x3, the task dimension is 9"):
            run_seesaw(quartet_bob_first_task(), restarts=0,
                       warm_starts=((rho, None),))

    def test_nonconverged_measurement_steps_logged_once_each(self, caplog):
        # seed 39 has two measurement steps that run all 200 iterations
        with caplog.at_level(logging.WARNING, logger="unidisc.seesaw"):
            run_seesaw(quartet_bob_first_task(), restarts=1, seed=39)
        assert _nonconverged(caplog) == 2
        assert len(caplog.records) == 2

    def test_nonconverged_steps_counted_per_restart(self, caplog):
        task = quartet_bob_first_task()
        with caplog.at_level(logging.WARNING, logger="unidisc.seesaw"):
            res = run_seesaw(task, restarts=3, seed=39)
        assert res.nonconverged == (2, 0, 0)
        assert _nonconverged(caplog) == 2
        per_restart = seesaw_to_json(res, restarts=3)["per_restart"]
        assert [entry["nonconverged"] for entry in per_restart] == [2, 0, 0]

    def test_warm_start_povm_as_a_stack(self):
        task = quartet_alice_first_task()
        rho, povm = quartet_alice_first_warm_start()
        stacked = run_seesaw(task, restarts=0, warm_starts=((rho, np.stack(povm)),))
        listed = run_seesaw(task, restarts=0, warm_starts=((rho, povm),))
        assert abs(stacked.s_max - 1.0) < 1e-9
        assert stacked.s_max == listed.s_max

    def test_warm_start_without_povm(self):
        task = quartet_alice_first_task()
        rho, _ = quartet_alice_first_warm_start()
        res = run_seesaw(task, restarts=1, seed=0,
                         warm_starts=((rho, None),))
        assert abs(res.s_max - 1.0) < 1e-9


def _assert_matches_reference(res, runs):
    assert len(res.per_restart) == len(runs)
    for (value, sweeps), (ref_value, ref_sweeps, _) in zip(res.per_restart, runs):
        assert abs(value - ref_value) <= 1e-12
        assert sweeps == ref_sweeps
    best = 0
    for i, run in enumerate(runs):
        if run[0] < runs[best][0] - 1e-15:
            best = i
    assert abs(res.s_max - (1.0 - runs[best][0])) <= 1e-12
    assert len(res.trajectory) == len(runs[best][2])
    assert np.max(np.abs(np.subtract(res.trajectory, runs[best][2]))) <= 1e-12


def _nonconverged(caplog):
    return sum(r.getMessage() == "measurement step did not converge in 200 iterations"
               for r in caplog.records)


class TestReferenceOracle:
    """Stacked arms and restarts reproduce the one-at-a-time seesaw."""

    @pytest.mark.parametrize("seed", [1, 39])
    def test_quartet_bob_first(self, seed, caplog):
        task = quartet_bob_first_task()
        with caplog.at_level(logging.WARNING, logger="unidisc.seesaw"):
            res = run_seesaw(task, restarts=3, seed=seed)
        runs, misses = _ref_run(task, _random_starts(task.dim, 3, seed))
        _assert_matches_reference(res, runs)
        assert _nonconverged(caplog) == misses

    @pytest.mark.parametrize("arms", ["toy", "unequal"])
    def test_qubit_tasks(self, arms):
        t = np.diag([1.0, np.exp(1j * np.pi / 4)])
        task = (two_arm_task(np.pi / 4) if arms == "toy"
                else EliminationTask(dim=2, arms=((I2, t), (t @ t,))))
        res = run_seesaw(task, restarts=5, seed=0)
        runs, _ = _ref_run(task, _random_starts(task.dim, 5, 0))
        _assert_matches_reference(res, runs)

    def test_warm_starts_ahead_of_random_restarts(self):
        task = quartet_alice_first_task()
        rho, povm = quartet_alice_first_warm_start()
        rng = np.random.default_rng(11)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        v /= np.linalg.norm(v)
        other = np.outer(v, v.conj())
        uniform = (np.eye(9) / 2, np.eye(9) / 2)
        warm = ((other, uniform), (rho, None), (other, None), other, (rho, povm))
        res = run_seesaw(task, restarts=2, seed=2, warm_starts=warm)
        starts = [(other, np.array(uniform, dtype=complex)), (rho.matrix, None),
                  (other, None), (other, None), (rho.matrix, np.array(povm))]
        runs, _ = _ref_run(task, starts + _random_starts(task.dim, 2, 2))
        _assert_matches_reference(res, runs)
        assert res.restarts_used == 7

    def test_mixed_warm_start_among_random_restarts(self, caplog):
        # the mixed start runs its first measurement step on the full space,
        # and with it the random restarts' first steps
        task = quartet_bob_first_task()
        rng = np.random.default_rng(8)
        a = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
        mixed = a @ a.conj().T
        mixed /= np.trace(mixed).real
        with caplog.at_level(logging.WARNING, logger="unidisc.seesaw"):
            res = run_seesaw(task, restarts=2, seed=6, warm_starts=(mixed,))
        runs, misses = _ref_run(task, [(mixed, None)] + _random_starts(task.dim, 2, 6))
        _assert_matches_reference(res, runs)
        assert _nonconverged(caplog) == misses == sum(res.nonconverged)


# ---------------------------------------------------------------------------
# the stacked measurement kernel in its plain numpy form: np.linalg.eigh per
# iteration and the helpers as functions; the flat loop must give its bytes


def _plain_psd_sqrt_pinv(mat, base):
    vals, vecs = np.linalg.eigh(mat)
    floor = 1e-12 * np.maximum(base[:, None], vals[..., -1:])
    inv = np.where(vals > floor, 1.0 / np.sqrt(np.maximum(vals, 1e-12)), 0.0)
    return (vecs * inv[..., None, :]) @ vecs.conj().mT


def _plain_herm(mat):
    return (mat + mat.conj().mT) / 2


def _plain_traces(sigmas, povm):
    return np.einsum("...ij,...ji->...", sigmas, povm).real


def _plain_score(sigmas, povm):
    return np.einsum("rnij,rnji->r", sigmas, povm).real


def _plain_measurement_kernel(basis, blocks):
    rows, n, w, _ = blocks.shape
    dim = basis.shape[1]
    lam = np.linalg.eigvalsh(blocks)[..., -1].max(axis=1) + 1e-6
    base = np.maximum(1.0, lam * lam) if w < dim else np.ones(rows)
    eye = np.eye(w, dtype=complex)
    rewards = lam[:, None, None, None] * eye - blocks
    povm = np.broadcast_to(eye / n, blocks.shape)
    best = povm
    best_val = _plain_score(blocks, povm)
    prev = best_val
    out = np.empty(blocks.shape, dtype=complex)
    out_val = np.empty(rows)
    live = np.arange(rows)
    for _ in range(200):
        tmt = rewards @ povm @ rewards
        g = _plain_psd_sqrt_pinv(tmt.sum(axis=1), base)[:, None]
        povm = _plain_herm(g @ tmt @ g)
        rest = eye - povm.sum(axis=1)
        gap = _plain_traces(rest, rest) > 1e-28
        if gap.any():
            scores = _plain_traces(blocks[gap], rest[gap, None])
            povm[gap, scores.argmin(axis=1)] += rest[gap]
        val = _plain_score(blocks, povm)
        better = val < best_val
        if better.all():
            best, best_val = povm, val
        elif better.any():
            best = np.where(better[:, None, None, None], povm, best)
            best_val = np.where(better, val, best_val)
        done = np.abs(val - prev) < 1e-12
        prev = val
        if done.any():
            out[live[done]], out_val[live[done]] = best[done], best_val[done]
            keep = ~done
            live, blocks, rewards, base, povm, best, best_val, prev = (
                a[keep] for a in (live, blocks, rewards, base, povm, best, best_val, prev))
            if not live.size:
                break
    out[live], out_val[live] = best, best_val
    missed = np.zeros(rows, dtype=bool)
    missed[live] = True
    outside = (np.eye(dim) - basis @ basis.conj().mT) / n
    full = basis[:, None] @ out @ basis.conj().mT[:, None] + outside[:, None]
    return _plain_herm(full), out_val, missed


def _assert_kernel_bytes(basis, blocks):
    """The kernel's POVM, values and missed flags, byte for byte."""
    got = _measurement_kernel(basis, blocks)
    want = _plain_measurement_kernel(basis, blocks)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    return got


def _spy_eigh(monkeypatch):
    """The row count of each call of the bound LAPACK gufunc, which the
    kernel makes once per iteration."""
    calls, eigh = [], seesaw._eigh

    def spy(mat, **kwargs):
        calls.append(mat.shape[0])
        return eigh(mat, **kwargs)

    monkeypatch.setattr(seesaw, "_eigh", spy)
    return calls


def _spy_kernel(monkeypatch):
    """Keep the ``(basis, blocks)`` of every kernel call."""
    calls = []

    def spy(basis, blocks):
        calls.append((basis.copy(), blocks.copy()))
        return _measurement_kernel(basis, blocks)

    monkeypatch.setattr(seesaw, "_measurement_kernel", spy)
    return calls


class TestMeasurementKernelBytes:
    """The flat iteration returns the bytes of the plain numpy kernel."""

    @pytest.mark.parametrize("seed", range(6))
    def test_bob_first_pure_probes(self, seed):
        arms = _ArmStack(quartet_bob_first_task())
        basis, blocks = _sigma_blocks(arms, _random_vector(9, seed)[None])
        assert blocks.shape == (1, 4, 3, 3)
        _assert_kernel_bytes(basis, blocks)

    @pytest.mark.parametrize("seed", range(3))
    def test_alice_first_pure_probes(self, seed):
        arms = _ArmStack(quartet_alice_first_task())
        basis, blocks = _sigma_blocks(arms, _random_vector(9, seed)[None])
        assert blocks.shape == (1, 2, 2, 2)
        _assert_kernel_bytes(basis, blocks)

    def test_qubit_toy_on_the_identity_basis(self):
        arms = _ArmStack(two_arm_task(np.pi / 3))
        basis, blocks = _sigma_blocks(arms, _random_vector(2, 5)[None])
        assert np.array_equal(basis[0], np.eye(2))
        _assert_kernel_bytes(basis, blocks)

    def test_full_rank_mixed_probe(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        basis, blocks = _sigma_blocks(_ArmStack(quartet_bob_first_task()), None, rho[None])
        assert blocks.shape == (1, 4, 9, 9)
        _assert_kernel_bytes(basis, blocks)

    def test_rows_leave_at_different_iterations(self, monkeypatch):
        arms = _ArmStack(quartet_bob_first_task())
        basis, blocks = _sigma_blocks(arms, np.stack([_random_vector(9, s) for s in (7, 8, 9)]))
        calls = _spy_eigh(monkeypatch)
        _assert_kernel_bytes(basis, blocks)
        # the stack shrinks from three rows to one, a row at a time
        assert calls[0] == 3 and calls[-1] == 1 and 2 in calls

    def test_every_call_of_seeded_runs(self, monkeypatch):
        # seed 39's first restart has two steps that hit the iteration cap,
        # and its sweeps hand the kernel stacks of three rows and fewer
        calls = _spy_kernel(monkeypatch)
        run_seesaw(quartet_bob_first_task(), restarts=3, seed=39)
        run_seesaw(quartet_alice_first_task(), restarts=1, seed=0,
                   warm_starts=(quartet_alice_first_warm_start(),))
        monkeypatch.undo()
        missed = [_assert_kernel_bytes(basis, blocks)[2].sum() for basis, blocks in calls]
        assert sum(missed) == 2
        assert {blocks.shape[:2] for _, blocks in calls} >= {(3, 4), (1, 4), (1, 2)}

    def test_nan_block_raises(self, monkeypatch):
        # eigvalsh reads the lower triangle only, so a NaN above the diagonal
        # first meets LAPACK in the iteration's decomposition of the total
        arms = _ArmStack(quartet_bob_first_task())
        basis, blocks = _sigma_blocks(arms, _random_vector(9, 0)[None])
        blocks = blocks.copy()
        blocks[0, 0, 0, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            _plain_measurement_kernel(basis, blocks)
        calls = _spy_eigh(monkeypatch)
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            _measurement_kernel(basis, blocks)
        assert calls == [1]
