"""Alternating optimization of elimination measurements.

Some adaptive protocols hinge on a first measurement whose outcomes each
rule out a subset of the possible inputs.  Whether such a measurement can
be made exact is a joint optimization over the probe state and the POVM:
minimize the total probability that an outcome fires on an input it was
supposed to eliminate.  This module runs a seesaw on that objective,

* the probe step is exact: for a fixed POVM the objective is ``Tr(rho K)``
  with ``K = sum_i sum_U U^dag M_i U``, minimized by the bottom eigenvector,
* the measurement step holds the probe fixed and improves the POVM by a
  fixed-point iteration on the optimality conditions of the associated
  semidefinite program, using a pseudo-inverse square root and completing
  any missing weight on the least-penalized outcome.

Both steps work on stacked arrays: the arms sit on one axis and the
restarts on a leading one, so every restart of a :func:`run_seesaw` call,
warm and random, sweeps as one batch through the same kernels, one
batched ``eigh`` and a few batched products per fixed-point iteration.  A
restart whose sweeps have converged drops out of the batch, and so does a
row of a measurement step whose iterates have settled.  The public
:func:`measurement_step` and :func:`rho_step` are the kernels on one probe.

A vanishing optimum means a perfect elimination measurement exists; a
strictly positive optimum across restarts is numerical evidence (not a
certificate) that it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
import logging

import numpy as np

from .families import CLOCK3, FLIP3
from .qcore import DensityOperator, _kron, as_matrix, check_povm

__all__ = [
    "EliminationTask",
    "SeesawResult",
    "QUARTET_BOB_FIRST_SMAX_BOUND",
    "quartet_bob_first_task",
    "quartet_alice_first_task",
    "quartet_alice_first_warm_start",
    "elimination_objective",
    "rho_step",
    "measurement_step",
    "run_seesaw",
]

_log = logging.getLogger(__name__)

#: Regression bound for the second-party-first quartet elimination value,
#: frozen from a 50-restart calibration run and rechecked across seeds.
QUARTET_BOB_FIRST_SMAX_BOUND = 0.96855


@dataclass(frozen=True)
class EliminationTask:
    """Joint probe/POVM optimization data.

    ``arms[i]`` is the tuple of evolution unitaries whose evolved probes
    outcome ``i`` is meant to eliminate; the objective charges outcome ``i``
    with the probability mass it assigns to those evolved states.
    ``descriptions`` is parallel human-readable text for reporting.  The
    constructor stores each arm operator as a validated complex array.
    """

    dim: int
    arms: tuple
    descriptions: tuple = ()

    def __post_init__(self) -> None:
        if not self.arms:
            raise ValueError("need at least one arm")
        arms = tuple(tuple(as_matrix(u) for u in arm) for arm in self.arms)
        if not all(arms):
            raise ValueError("every arm needs at least one operator")
        for arm in arms:
            for mat in arm:
                if mat.shape != (self.dim, self.dim):
                    raise ValueError(f"arm operator shape {mat.shape} does not match dim {self.dim}")
        object.__setattr__(self, "arms", arms)


@dataclass(frozen=True)
class SeesawResult:
    s_max: float
    rho: DensityOperator
    povm: tuple
    trajectory: tuple
    restarts_used: int
    per_restart: tuple


# ---------------------------------------------------------------------------
# task constructors for the qutrit quartet


def _embed(u: np.ndarray) -> np.ndarray:
    # second party's factor acting on system (x) 3-dim ancilla
    return _kron(u, np.eye(3, dtype=complex))


def quartet_bob_first_task() -> EliminationTask:
    """Second-party-first elimination for the qutrit quartet.

    The responding party's factors are 1, C, 1, F (clock and flip), so a
    useful first measurement by that party must rule out, per outcome, one
    of the favorable factor subsets {1, C}, {1, F}, {C, F} or {1}; anything
    less leaves a set the other party cannot finish.  Probe space is the
    party's qutrit plus a qutrit ancilla.
    """
    ident = np.eye(9, dtype=complex)
    clock = _embed(CLOCK3)
    flip = _embed(FLIP3)
    return EliminationTask(
        dim=9,
        arms=(
            (ident, clock),
            (ident, flip),
            (clock, flip),
            (ident,),
        ),
        descriptions=(
            "eliminates factors {1, clock}",
            "eliminates factors {1, flip}",
            "eliminates factors {clock, flip}",
            "eliminates factor {1}",
        ),
    )


def quartet_alice_first_task() -> EliminationTask:
    """First-party-first elimination for the qutrit quartet.

    That party's factors are 1, 1, C, C; an outcome only needs to rule out
    one of the two factor values, which a clock-eigenstate superposition
    achieves exactly.
    """
    ident = np.eye(9, dtype=complex)
    clock = _embed(CLOCK3)
    return EliminationTask(
        dim=9,
        arms=((clock,), (ident,)),
        descriptions=(
            "eliminates factor {clock}",
            "eliminates factor {1}",
        ),
    )


def quartet_alice_first_warm_start() -> tuple:
    """The analytic optimum of :func:`quartet_alice_first_task`.

    The balanced superposition is orthogonal to its clock image, so the
    projective measurement along the rotated ray eliminates perfectly; the
    objective vanishes exactly at this point.
    """
    phi = np.full(3, 1.0 / np.sqrt(3.0), dtype=complex)
    psi = _kron(phi, np.array([1.0, 0.0, 0.0], dtype=complex))
    rho = DensityOperator(np.outer(psi, psi.conj()))
    rotated = _embed(CLOCK3) @ psi
    p_rot = np.outer(rotated, rotated.conj())
    povm = (np.eye(9, dtype=complex) - p_rot, p_rot)
    return rho, povm


# ---------------------------------------------------------------------------
# objective and the two half-steps
#
# The kernels work on stacks: a probe stack is (R, d, d), a sigma or POVM
# stack is (R, n, d, d) with one row per restart and one slot per arm.


#: Fixed-point iterations per measurement step, and the change in the
#: objective between iterates that ends them early.
_STEP_ITERATIONS = 200
_STEP_TOL = 1e-12
#: Change in the objective between sweeps that ends a restart.
_SWEEP_TOL = 1e-10
#: Relative eigenvalue cutoff of the pseudo-inverse square root.
_PINV_CUTOFF = 1e-12


def _check_outcomes(task: EliminationTask, povm) -> None:
    if len(povm) != len(task.arms):
        raise ValueError(f"POVM has {len(povm)} elements, the task has "
                         f"{len(task.arms)} arms")


def _check_dim(task: EliminationTask, mats: np.ndarray, what: str) -> None:
    """``mats`` is one matrix or a stack of them, each (dim, dim)."""
    if mats.shape[-2:] != (task.dim, task.dim):
        rows, cols = mats.shape[-2:]
        raise ValueError(f"{what} is {rows}x{cols}, the task dimension is {task.dim}")


def _herm(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().mT) / 2


class _ArmStack:
    """Every arm operator on one (K, d, d) stack, arm by arm: ``owner[k]`` is
    the arm of operator ``k`` and ``starts[i]`` the first operator of arm i."""

    def __init__(self, task: EliminationTask):
        self.units = np.stack([u for arm in task.arms for u in arm])
        self.units_h = self.units.conj().mT
        sizes = [len(arm) for arm in task.arms]
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        self.starts = np.cumsum([0] + sizes[:-1])


def _sigma_tildes(arms: _ArmStack, rho: np.ndarray) -> np.ndarray:
    """``sigma_i = sum_{U in arm i} U rho U^dag`` for a probe stack."""
    return np.add.reduceat(arms.units @ rho[:, None] @ arms.units_h,
                           arms.starts, axis=1)


def _score(sigmas: np.ndarray, povm: np.ndarray) -> np.ndarray:
    """``sum_i Tr(sigma_i M_i)`` per row."""
    return (sigmas @ povm).trace(axis1=-2, axis2=-1).real.sum(axis=-1)


def elimination_objective(task: EliminationTask, rho, povm) -> float:
    """Total false-elimination weight ``sum_i Tr(sigma_i M_i)``."""
    _check_outcomes(task, povm)
    rho_m = rho.matrix if isinstance(rho, DensityOperator) else as_matrix(rho)
    povm_m = np.stack([as_matrix(m) for m in povm])
    _check_dim(task, rho_m, "rho")
    _check_dim(task, povm_m, "each POVM element")
    return float(_score(_sigma_tildes(_ArmStack(task), rho_m[None]), povm_m[None])[0])


def _rho_kernel(arms: _ArmStack, povm: np.ndarray) -> np.ndarray:
    """Bottom eigenvector of ``K = sum_i sum_{U in arm i} U^dag M_i U`` per
    row, as a probe stack."""
    k = (arms.units_h @ povm[:, arms.owner] @ arms.units).sum(axis=1)
    vecs = np.linalg.eigh(_herm(k))[1]
    v = vecs[..., :, 0]
    return v[:, :, None] * v.conj()[:, None, :]


def rho_step(task: EliminationTask, povm) -> DensityOperator:
    """Exact probe update: bottom eigenvector of the averaged penalty.
    ``povm`` holds one array per arm, as :func:`measurement_step` returns."""
    _check_outcomes(task, povm)
    povm_m = np.stack(povm)
    _check_dim(task, povm_m, "each POVM element")
    return DensityOperator(_rho_kernel(_ArmStack(task), povm_m[None])[0])


def _psd_sqrt_pinv(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(_herm(mat))
    floor = _PINV_CUTOFF * np.maximum(1.0, vals[..., -1:])
    inv = np.where(vals > floor, 1.0 / np.sqrt(np.maximum(vals, _PINV_CUTOFF)), 0.0)
    return (vecs * inv[..., None, :]) @ vecs.conj().mT


def _measurement_kernel(sigmas: np.ndarray) -> np.ndarray:
    """Best fixed-point iterate per row of a sigma stack (see
    :func:`measurement_step`).  A row leaves the iteration once its objective
    settles; each row still iterating after the last one logs a warning."""
    rows, n, d, _ = sigmas.shape
    eye = np.eye(d, dtype=complex)
    lam = np.linalg.eigvalsh(_herm(sigmas))[..., -1].max(axis=1) + 1e-6
    rewards = lam[:, None, None, None] * eye - sigmas
    povm = np.broadcast_to(eye / n, sigmas.shape)
    best = povm
    best_val = _score(sigmas, povm)
    prev = best_val
    out = np.empty(sigmas.shape, dtype=complex)
    live = np.arange(rows)
    for _ in range(_STEP_ITERATIONS):
        tmt = rewards @ povm @ rewards
        g = _psd_sqrt_pinv(tmt.sum(axis=1))[:, None]
        new = g @ tmt @ g
        rest = _herm(eye - new.sum(axis=1))
        gap = np.linalg.norm(rest, axis=(1, 2)) > 1e-14
        if gap.any():
            # hand the uncovered subspace to the outcome it penalizes least
            scores = (sigmas[gap] @ rest[gap, None]).trace(axis1=-2, axis2=-1).real
            new[gap, scores.argmin(axis=1)] += rest[gap]
        povm = _herm(new)
        val = _score(sigmas, povm)
        better = val < best_val
        best = np.where(better[:, None, None, None], povm, best)
        best_val = np.where(better, val, best_val)
        done = np.abs(val - prev) < _STEP_TOL
        prev = val
        if done.any():
            out[live[done]] = best[done]
            keep = ~done
            live, sigmas, rewards, povm, best, best_val, prev = (
                a[keep] for a in (live, sigmas, rewards, povm, best, best_val, prev))
            if not live.size:
                return out
    for _ in live:
        _log.warning("measurement step did not converge in %d iterations",
                     _STEP_ITERATIONS)
    out[live] = best
    return out


def measurement_step(task: EliminationTask, rho):
    """POVM update at fixed probe via a fixed-point iteration.

    Minimizing ``sum_i Tr(sigma_i M_i)`` equals maximizing
    ``sum_i Tr(T_i M_i)`` with ``T_i = lambda 1 - sigma_i`` for any constant
    shift, since the POVM constraint fixes ``sum_i Tr(M_i)``-weighted
    identity terms.  The update conjugates each element by its reward and
    renormalizes through the pseudo-inverse square root of the total; mass
    outside the support is assigned to a least-penalized outcome.  Returns
    the best iterate.
    """
    rho_m = rho.matrix if isinstance(rho, DensityOperator) else as_matrix(rho)
    _check_dim(task, rho_m, "rho")
    return tuple(_measurement_kernel(_sigma_tildes(_ArmStack(task), rho_m[None]))[0])


# ---------------------------------------------------------------------------
# main loop


def _random_rho(dim: int, rng: np.random.Generator) -> DensityOperator:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = v / np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()))


def _starts(task: EliminationTask, restarts: int, seed: int, warm_starts):
    """Probe and POVM (or ``None``) of every start: warm starts, then random."""
    starts = []
    for entry in warm_starts:
        if isinstance(entry, (tuple, list)):
            rho0, povm0 = entry
        else:
            rho0, povm0 = entry, None
        if not isinstance(rho0, DensityOperator):
            rho0 = DensityOperator(as_matrix(rho0))
        _check_dim(task, rho0.matrix, "warm-start rho")
        if povm0 is not None:
            _check_outcomes(task, povm0)
            povm0 = np.stack(check_povm(povm0, task.dim, "warm-start POVM"))
        starts.append((rho0.matrix, povm0))
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        starts.append((_random_rho(task.dim, rng).matrix, None))
    return starts


def run_seesaw(
    task: EliminationTask,
    restarts: int = 50,
    seed: int = 0,
    max_sweeps: int = 2000,
    warm_starts=(),
) -> SeesawResult:
    """Best elimination value over seeded random restarts.

    Each restart alternates the exact probe step with the fixed-point
    measurement step, accepting a measurement update only when it does not
    increase the objective, so accepted sweep values are non-increasing up
    to the sweep tolerance.  ``warm_starts`` entries are ``(rho, povm)``
    pairs (``povm`` may be ``None``) evaluated before the random restarts.
    A warm-start rho must be a (dim, dim) density operator, and a warm-start
    POVM must have one (dim, dim) Hermitian PSD element per arm, summing to
    the identity; both are checked on entry (``ValueError``).  All restarts
    sweep together as one stack; a restart leaves it once it converges.
    Reported ``s_max`` is one minus the smallest objective found, taking the
    first start in order on ties within 1e-15.
    """
    if restarts < 1 and not warm_starts:
        raise ValueError("need at least one restart or warm start")
    starts = _starts(task, restarts, seed, warm_starts)
    arms = _ArmStack(task)
    rho = np.stack([r for r, _ in starts])
    sigmas = _sigma_tildes(arms, rho)
    cold = [i for i, (_, p) in enumerate(starts) if p is None]
    povm = np.empty(sigmas.shape, dtype=complex)
    for i, (_, p) in enumerate(starts):
        if p is not None:
            povm[i] = p
    if cold:
        povm[cold] = _measurement_kernel(sigmas[cold])
    current = _score(sigmas, povm)
    trajs = [[float(v)] for v in current]

    # final probe, POVM, value and sweep count per start
    final_rho, final_povm = rho.copy(), povm.copy()
    final_val = current.copy()
    sweeps = np.zeros(len(starts), dtype=int)
    live = np.arange(len(starts))
    for sweep in range(1, max_sweeps + 1):
        rho = _rho_kernel(arms, povm)
        sigmas = _sigma_tildes(arms, rho)
        cand_povm = _measurement_kernel(sigmas)
        accept = _score(sigmas, cand_povm) <= current + _SWEEP_TOL
        povm = np.where(accept[:, None, None, None], cand_povm, povm)
        new = _score(sigmas, povm)
        done = np.abs(current - new) < _SWEEP_TOL
        current = np.minimum(new, current)
        for i, v in zip(live, current):
            trajs[i].append(float(v))
        if sweep == max_sweeps:
            done[:] = True
        if done.any():
            ended = live[done]
            final_rho[ended], final_povm[ended] = rho[done], povm[done]
            final_val[ended], sweeps[ended] = current[done], sweep
            keep = ~done
            live, povm, current = live[keep], povm[keep], current[keep]
            if not live.size:
                break

    best = 0
    for i in range(1, len(starts)):
        if final_val[i] < final_val[best] - 1e-15:
            best = i
    return SeesawResult(
        s_max=1.0 - float(final_val[best]),
        rho=DensityOperator(final_rho[best]),
        povm=tuple(final_povm[best]),
        trajectory=tuple(trajs[best]),
        restarts_used=len(starts),
        per_restart=tuple((float(v), int(s)) for v, s in zip(final_val, sweeps)),
    )
