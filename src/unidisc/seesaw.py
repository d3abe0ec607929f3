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
warm and random, sweeps as one batch through the same kernels.  A restart
whose sweeps have converged drops out of the batch, and so does a row of a
measurement step whose iterates have settled.

The measurement step runs on a subspace.  With ``rho = sum_k v_k v_k^dag``,
every ``sigma_i = sum_{U in arm i} U rho U^dag`` has its support in the
orbit space W spanned by the vectors ``U v_k``, U a distinct arm operator.
On the orthogonal complement each reward ``lambda 1 - sigma_i`` is
``lambda 1``, so from the start ``1/n`` every iterate, its total and the
total's pseudo-inverse square root split into a block on W and a multiple
of the identity on the complement, in exact arithmetic.  The iteration
therefore runs on the w x w blocks in an orthonormal basis of W; the
complement's eigenvalue ``lambda^2`` of the total still counts towards the
pseudo-inverse floor.  For the pure probes of the quartet's second-party
task w is 3 instead of 9.  The basis comes from a QR factorization of the
``U v_k``, with no rank threshold: a column left over by a dependent image
carries no part of any sigma_i, so it behaves like the complement.  A mixed
probe, or one whose images fill the space, runs with the identity basis.
The public :func:`measurement_step` and :func:`rho_step` are the kernels on
one probe.

On blocks that small an iteration is bound by the overhead of its few dozen
numpy calls, not by their arithmetic.  So the iteration calls the LAPACK
gufunc under ``np.linalg.eigh`` directly (``qcore._eigh``, the package's one
LAPACK binding), takes its traces from the ``c_einsum`` that ``np.einsum``
runs when it does not optimize, enters one ``errstate`` for the whole step
instead of one per decomposition, and tests its row flags as Python lists;
every output byte is that of the plain numpy formulation.

A vanishing optimum means a perfect elimination measurement exists; a
strictly positive optimum across restarts is numerical evidence (not a
certificate) that it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
import logging

import numpy as np
from numpy._core.multiarray import c_einsum  # np.einsum without its dispatch

from .checker import check_povm
from .families import CLOCK3, FLIP3
from .qcore import DensityOperator, StateVector, _eigh, _kron, _raise_nonconvergence, as_matrix

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
    """What :func:`run_seesaw` found.  ``per_restart`` holds one
    ``(objective, sweeps)`` pair per start, and ``nonconverged`` the number of
    that start's measurement steps that ran out of iterations."""

    s_max: float
    rho: DensityOperator
    povm: tuple
    trajectory: tuple
    restarts_used: int
    per_restart: tuple
    nonconverged: tuple


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
# The kernels work on stacks with one row per restart and one slot per arm:
# probe vectors (R, d) or matrices (R, d, d), sigma or POVM stacks
# (R, n, d, d), orbit bases (R, d, w) and sigma blocks (R, n, w, w).


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
    """The task's distinct arm operators on one (K, d, d) stack, matched by
    exact equality.  The arms' slots run arm by arm: slot s holds operator
    ``index[s]``, and ``starts[i]`` is the first slot of arm i.
    ``uses[k, i]`` counts the slots of operator k in arm i."""

    def __init__(self, task: EliminationTask):
        units, index = [], []
        for u in (u for arm in task.arms for u in arm):
            k = next((k for k, seen in enumerate(units) if np.array_equal(u, seen)), len(units))
            if k == len(units):
                units.append(u)
            index.append(k)
        self.units = np.stack(units)
        self.units_h = self.units.conj().mT
        self.index = np.array(index)
        sizes = [len(arm) for arm in task.arms]
        self.starts = np.cumsum([0] + sizes[:-1])
        self.uses = np.zeros((len(units), len(sizes)))
        np.add.at(self.uses, (self.index, np.repeat(np.arange(len(sizes)), sizes)), 1.0)


def _sigma_tildes(arms: _ArmStack, rho: np.ndarray) -> np.ndarray:
    """``sigma_i = sum_{U in arm i} U rho U^dag`` for a probe stack."""
    images = arms.units @ rho[:, None] @ arms.units_h
    return np.add.reduceat(images[:, arms.index], arms.starts, axis=1)


def _sigma_blocks(arms: _ArmStack, vecs, rho=None) -> tuple:
    """Basis Q (R, d, w) and sigma blocks ``Q^dag sigma_i Q`` (R, n, w, w) of
    a probe stack given by unit vectors ``vecs`` (R, d), or by the matrices
    ``rho`` when ``vecs`` is ``None``.

    For vectors, Q has orthonormal columns spanning every ``U v``, and the
    blocks come from the coordinates of the ``U v``, which the QR factor
    holds; a dependent image leaves a padding column on which every sigma
    vanishes.  Matrices, and vectors with at least d distinct operators,
    take the identity basis and the full sigmas."""
    if vecs is None or len(arms.units) >= vecs.shape[1]:
        if rho is None:
            rho = vecs[:, :, None] * vecs.conj()[:, None, :]
        rows, dim, _ = rho.shape
        basis = np.broadcast_to(np.eye(dim, dtype=complex), (rows, dim, dim))
        return basis, _sigma_tildes(arms, rho)
    basis, coords = np.linalg.qr((arms.units @ vecs[:, None, :, None])[..., 0].mT)
    cols = coords.mT[:, arms.index]
    return basis, np.add.reduceat(cols[..., :, None] * cols.conj()[..., None, :],
                                  arms.starts, axis=1)


def _score(sigmas: np.ndarray, povm: np.ndarray) -> np.ndarray:
    """``sum_i Tr(sigma_i M_i)`` per row, elementwise."""
    return c_einsum("rnij,rnji->r", sigmas, povm).real


def _probe(task: EliminationTask, rho, what: str) -> tuple:
    """A probe validated at the boundary: its (dim, dim) matrix, and its unit
    vector when it comes as a :class:`StateVector` (else ``None``).  Anything
    else must pass as a :class:`DensityOperator`."""
    if isinstance(rho, StateVector):
        vec = rho.amplitudes
        mat = np.outer(vec, vec.conj())
    else:
        vec = None
        mat = (rho if isinstance(rho, DensityOperator) else DensityOperator(rho)).matrix
    _check_dim(task, mat, what)
    return mat, vec


def elimination_objective(task: EliminationTask, rho, povm) -> float:
    """Total false-elimination weight ``sum_i Tr(sigma_i M_i)``.  ``rho`` is
    a density operator (a raw array is validated as one) or a state vector."""
    _check_outcomes(task, povm)
    rho_m, _ = _probe(task, rho, "rho")
    povm_m = np.stack([as_matrix(m) for m in povm])
    _check_dim(task, povm_m, "each POVM element")
    return float(_score(_sigma_tildes(_ArmStack(task), rho_m[None]), povm_m[None])[0])


def _rho_kernel(arms: _ArmStack, povm: np.ndarray) -> np.ndarray:
    """Bottom eigenvector of ``K = sum_i sum_{U in arm i} U^dag M_i U`` per
    row: each distinct U conjugates the sum of the elements of its arms."""
    rows, n, dim, _ = povm.shape
    weights = (arms.uses @ povm.reshape(rows, n, dim * dim)).reshape(rows, -1, dim, dim)
    k = (arms.units_h @ weights @ arms.units).sum(axis=1)
    return np.linalg.eigh(_herm(k))[1][..., :, 0]


def rho_step(task: EliminationTask, povm) -> DensityOperator:
    """Exact probe update: bottom eigenvector of the averaged penalty.
    ``povm`` holds one array per arm, as :func:`measurement_step` returns."""
    _check_outcomes(task, povm)
    povm_m = np.stack(povm)
    _check_dim(task, povm_m, "each POVM element")
    v = _rho_kernel(_ArmStack(task), povm_m[None])[0]
    return DensityOperator(np.outer(v, v.conj()))


def _measurement_kernel(basis: np.ndarray, blocks: np.ndarray) -> tuple:
    """Best fixed-point iterate per row (see :func:`measurement_step`), its
    objective, and whether the row ran out of iterations.

    ``blocks`` holds ``Q^dag sigma_i Q`` for the orthonormal columns Q of
    ``basis`` (R, d, w), whose span holds the support of every sigma_i.  On
    the complement of Q each reward is ``lambda 1``, so the iterates there
    stay ``1/n`` and the total ``lambda^2``: the iteration runs on the w x w
    blocks, the complement's ``lambda^2`` joins the pseudo-inverse floor, and
    the POVM returned is ``Q M_i Q^dag + (1 - Q Q^dag)/n``.  (The total is
    at most ``n lambda^2``, so ``lambda^2`` clears the floor unless every
    sigma_i vanishes, when every POVM scores 0.)  A row leaves the
    iteration once its objective settles; each row still iterating after the
    last one logs a warning.  A failed eigendecomposition raises
    ``LinAlgError``."""
    rows, n, w, _ = blocks.shape
    dim = basis.shape[1]
    lam = np.linalg.eigvalsh(blocks)[..., -1].max(axis=1) + 1e-6
    # the pseudo-inverse square root of the total treats eigenvalues at or
    # below _PINV_CUTOFF times the larger of base (per row) and the top
    # eigenvalue as zero
    base = (np.maximum(1.0, lam * lam) if w < dim else np.ones(rows))[:, None]
    eye = np.eye(w, dtype=complex)
    rewards = lam[:, None, None, None] * eye - blocks
    povm = np.broadcast_to(eye / n, blocks.shape)
    best = povm
    best_val = c_einsum("rnij,rnji->r", blocks, povm).real
    prev = best_val.tolist()
    out = np.empty(blocks.shape, dtype=complex)
    out_val = np.empty(rows)
    live = np.arange(rows)
    with np.errstate(call=_raise_nonconvergence, invalid="call"):
        for _ in range(_STEP_ITERATIONS):
            tmt = rewards @ povm @ rewards
            vals, vecs = _eigh(tmt.sum(axis=1), signature="D->dD")
            floor = _PINV_CUTOFF * np.maximum(base, vals[..., -1:])
            # the flags over the square roots: 1/sqrt above the floor, 0 below
            inv = (vals > floor) / np.sqrt(np.maximum(vals, _PINV_CUTOFF))
            g = ((vecs * inv[..., None, :]) @ vecs.conj().mT)[:, None]
            povm = g @ tmt @ g
            povm = (povm + povm.conj().mT) / 2
            rest = eye - povm.sum(axis=1)
            # squared norm of a Hermitian rest
            gap = c_einsum("...ij,...ji->...", rest, rest).real > 1e-28
            if any(gap.tolist()):
                # hand the uncovered subspace to the outcome it penalizes least
                scores = c_einsum("...ij,...ji->...", blocks[gap], rest[gap, None]).real
                povm[gap, scores.argmin(axis=1)] += rest[gap]
            val = c_einsum("rnij,rnji->r", blocks, povm).real
            better = val < best_val
            better_rows = better.tolist()
            if all(better_rows):
                best, best_val = povm, val
            elif any(better_rows):
                best = np.where(better[:, None, None, None], povm, best)
                best_val = np.where(better, val, best_val)
            now = val.tolist()
            done = [abs(v - p) < _STEP_TOL for v, p in zip(now, prev)]
            prev = now
            if any(done):
                done = np.array(done)
                out[live[done]], out_val[live[done]] = best[done], best_val[done]
                keep = ~done
                live, blocks, rewards, base, povm, best, best_val, val = (
                    a[keep] for a in (live, blocks, rewards, base, povm, best, best_val, val))
                prev = val.tolist()
                if not live.size:
                    break
    for _ in live:
        _log.warning("measurement step did not converge in %d iterations",
                     _STEP_ITERATIONS)
    out[live], out_val[live] = best, best_val
    missed = np.zeros(rows, dtype=bool)
    missed[live] = True
    outside = (np.eye(dim) - basis @ basis.conj().mT) / n
    full = basis[:, None] @ out @ basis.conj().mT[:, None] + outside[:, None]
    return _herm(full), out_val, missed


def measurement_step(task: EliminationTask, rho):
    """POVM update at fixed probe via a fixed-point iteration.

    Minimizing ``sum_i Tr(sigma_i M_i)`` equals maximizing
    ``sum_i Tr(T_i M_i)`` with ``T_i = lambda 1 - sigma_i`` for any constant
    shift, since the POVM constraint fixes ``sum_i Tr(M_i)``-weighted
    identity terms.  The update conjugates each element by its reward and
    renormalizes through the pseudo-inverse square root of the total; mass
    outside the support is assigned to a least-penalized outcome.  Returns
    the best iterate.  A :class:`StateVector` probe is solved on the span of
    its images under the arm operators; a density operator (a raw array is
    validated as one) on the full space.
    """
    rho_m, vec = _probe(task, rho, "rho")
    basis, blocks = _sigma_blocks(_ArmStack(task), None if vec is None else vec[None],
                                  rho_m[None])
    return tuple(_measurement_kernel(basis, blocks)[0][0])


# ---------------------------------------------------------------------------
# main loop


def _random_probe(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _starts(task: EliminationTask, restarts: int, seed: int, warm_starts):
    """Probe matrix, probe vector (or ``None``) and POVM (or ``None``) of every
    start: warm starts, then random."""
    starts = []
    for entry in warm_starts:
        if isinstance(entry, (tuple, list)):
            rho0, povm0 = entry
        else:
            rho0, povm0 = entry, None
        mat, vec = _probe(task, rho0, "warm-start rho")
        if povm0 is not None:
            _check_outcomes(task, povm0)
            povm0 = np.stack(check_povm(povm0, task.dim, "warm-start POVM"))
        starts.append((mat, vec, povm0))
    for r in range(restarts):
        v = _random_probe(task.dim, np.random.default_rng([seed, r]))
        starts.append((np.outer(v, v.conj()), v, None))
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
    A warm-start rho must be a (dim, dim) density operator or a state
    vector, and a warm-start POVM must have one (dim, dim) Hermitian PSD
    element per arm, summing to the identity; both are checked on entry
    (``ValueError``), as are ``restarts >= 0`` and ``max_sweeps >= 1``.  All
    restarts sweep together as one stack; a restart leaves it once it
    converges.  Reported ``s_max`` is one minus the smallest objective
    found, taking the first start in order on ties within 1e-15.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be at least 0, got {restarts}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if restarts < 1 and not warm_starts:
        raise ValueError("need at least one restart or warm start")
    starts = _starts(task, restarts, seed, warm_starts)
    arms = _ArmStack(task)
    rows, n, dim = len(starts), len(task.arms), task.dim
    povm = np.empty((rows, n, dim, dim), dtype=complex)
    current = np.empty(rows)
    misses = np.zeros(rows, dtype=int)
    warm = [i for i, (_, _, p) in enumerate(starts) if p is not None]
    cold = [i for i, (_, _, p) in enumerate(starts) if p is None]
    if warm:
        povm[warm] = [starts[i][2] for i in warm]
        rho = np.stack([starts[i][0] for i in warm])
        current[warm] = _score(_sigma_tildes(arms, rho), povm[warm])
    if cold:
        vecs = [starts[i][1] for i in cold]
        basis, blocks = _sigma_blocks(
            arms, None if any(v is None for v in vecs) else np.stack(vecs),
            np.stack([starts[i][0] for i in cold]))
        povm[cold], current[cold], misses[cold] = _measurement_kernel(basis, blocks)
    trajs = [[float(v)] for v in current]

    # final probe vector, POVM, value and sweep count per start
    final_vec = np.empty((rows, dim), dtype=complex)
    final_povm = np.empty_like(povm)
    final_val = np.empty(rows)
    sweeps = np.zeros(rows, dtype=int)
    live = np.arange(rows)
    for sweep in range(1, max_sweeps + 1):
        vecs = _rho_kernel(arms, povm)
        basis, blocks = _sigma_blocks(arms, vecs)
        cand_povm, cand_val, missed = _measurement_kernel(basis, blocks)
        misses[live] += missed
        accept = cand_val <= current + _SWEEP_TOL
        # the previous POVM scores against the new sigmas as Q^dag M_i Q
        old_val = _score(blocks, basis.conj().mT[:, None] @ povm @ basis[:, None])
        new = np.where(accept, cand_val, old_val)
        povm = np.where(accept[:, None, None, None], cand_povm, povm)
        done = np.abs(current - new) < _SWEEP_TOL
        current = np.minimum(new, current)
        for i, v in zip(live, current):
            trajs[i].append(float(v))
        if sweep == max_sweeps:
            done[:] = True
        if done.any():
            ended = live[done]
            final_vec[ended], final_povm[ended] = vecs[done], povm[done]
            final_val[ended], sweeps[ended] = current[done], sweep
            keep = ~done
            live, povm, current = live[keep], povm[keep], current[keep]
            if not live.size:
                break

    best = 0
    for i in range(1, rows):
        if final_val[i] < final_val[best] - 1e-15:
            best = i
    v = final_vec[best]
    return SeesawResult(
        s_max=1.0 - float(final_val[best]),
        rho=DensityOperator(np.outer(v, v.conj())),
        povm=tuple(final_povm[best]),
        trajectory=tuple(trajs[best]),
        restarts_used=rows,
        per_restart=tuple((float(v), int(s)) for v, s in zip(final_val, sweeps)),
        nonconverged=tuple(int(k) for k in misses),
    )
