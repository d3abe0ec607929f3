"""Feasibility of a common probe orthogonalizing several relative unitaries.

A probe state (with arbitrary ancilla) sends the evolved images of unitaries
u_i to mutually orthogonal states iff its reduced density operator rho on
the system satisfies Tr(rho K) = 0 for every relative unitary K = u_i{dag}
u_j in the constraint set.  Feasibility over density operators is decided

* exactly, by a phase-1 simplex over simplex weights in the common
  eigenbasis, when all constraint operators commute;
* exactly in the negative, whenever some single constraint operator already
  has its eigenvalue hull away from the origin (a one-operator problem is
  always a commuting problem);
* by testing the maximally mixed candidate, which settles every feasible
  qubit instance and many composite ones;
* otherwise heuristically, by Dykstra-corrected alternating projections
  between the density-operator set and the affine constraint subspace.

Infeasibility certificates are stored basis-free: real coefficients c such
that G = sum_k (cRe_k ReK_k + cIm_k ImK_k) satisfies G >= 1, which makes
Tr(rho G) >= 1 > 0 for every density operator while the constraints demand
it vanish.  ``verify_certificate`` recomputes the spectral bound from
scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    DEFAULT_TOL,
    DensityOperator,
    StateVector,
    Tolerances,
    as_matrix,
    partial_trace,
    simultaneous_eigenbasis,
)
from .simplex import feasible_point

__all__ = [
    "OrthogonalityProblem",
    "ProbeFeasibility",
    "InfeasibilityCertificate",
    "common_probe_feasible",
    "verify_certificate",
    "purify_witness",
    "gram_overlaps",
]


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Real combination of constraint components spectrally bounded below.

    ``op_indices`` names the constraint operators involved; ``coeffs`` holds
    (cRe_k, cIm_k) pairs flattened in that order; ``min_eig`` is the
    verified smallest eigenvalue of the combined Hermitian operator (>= 1 up
    to tolerance).
    """

    op_indices: tuple
    coeffs: np.ndarray
    min_eig: float


@dataclass(frozen=True)
class OrthogonalityProblem:
    """Constraint set Tr(rho K_k) = 0 over densities on a given dimension."""

    dim: int
    operators: tuple
    commuting: bool = field(init=False)

    def __post_init__(self):
        ops = tuple(as_matrix(k) for k in self.operators)
        for k in ops:
            if k.shape != (self.dim, self.dim):
                raise ValueError(f"operator shape {k.shape} does not match dim {self.dim}")
            err = np.max(np.abs(k.conj().T @ k - np.eye(self.dim)))
            if err > 1e-8:
                raise ValueError(f"constraint operator not unitary (err {err:.3e})")
        object.__setattr__(self, "operators", ops)
        comm = True
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if np.max(np.abs(ops[i] @ ops[j] - ops[j] @ ops[i])) > 1e-9:
                    comm = False
                    break
            if not comm:
                break
        object.__setattr__(self, "commuting", comm)


@dataclass(frozen=True)
class ProbeFeasibility:
    status: str  # "feasible" | "infeasible_certified" | "not_found"
    witness: DensityOperator | None = None
    certificate: InfeasibilityCertificate | None = None
    residual: float | None = None
    note: str = ""


# -----------------------------------------------------------------------------
# Pieces
# -----------------------------------------------------------------------------

def _hermitian_parts(k):
    return (k + k.conj().T) / 2, (k - k.conj().T) / 2j


def _certificate_from_lp(ops, indices, farkas):
    """Convert a Farkas vector of the eigenbasis LP into a spectral bound."""
    y = farkas.y
    coeffs = -np.asarray(y[:-1], dtype=float)  # drop the normalization row
    g = np.zeros_like(ops[0])
    for t, k in enumerate(indices):
        h, s = _hermitian_parts(ops[k])
        g = g + coeffs[2 * t] * h + coeffs[2 * t + 1] * s
    lo = float(np.linalg.eigvalsh((g + g.conj().T) / 2).min())
    if lo < 1 - 1e-7:
        raise AssertionError(f"certificate bound failed: min eig {lo:.6e}")
    return InfeasibilityCertificate(op_indices=tuple(indices), coeffs=coeffs, min_eig=lo)


def verify_certificate(problem: OrthogonalityProblem,
                       cert: InfeasibilityCertificate,
                       tol: Tolerances = DEFAULT_TOL) -> float:
    """Recompute the spectral lower bound of a certificate from scratch.

    Returns the recomputed minimum eigenvalue; raises if it fails to clear
    the strictly positive bar, since then the certificate proves nothing.
    """
    g = np.zeros((problem.dim, problem.dim), dtype=complex)
    for t, k in enumerate(cert.op_indices):
        h, s = _hermitian_parts(problem.operators[k])
        g = g + cert.coeffs[2 * t] * h + cert.coeffs[2 * t + 1] * s
    lo = float(np.linalg.eigvalsh((g + g.conj().T) / 2).min())
    if lo < 1 - tol.comparison:
        raise ValueError(f"certificate does not verify: min eig {lo:.6e}")
    return lo


def _solve_commuting(problem, indices, tol):
    """Exact LP over simplex weights in the common eigenbasis of a commuting
    subset of the constraints."""
    ops = [problem.operators[k] for k in indices]
    parts = []
    for k in ops:
        h, s = _hermitian_parts(k)
        parts.extend([h, s])
    basis = simultaneous_eigenbasis(parts)
    d = problem.dim
    mu = np.empty((len(ops), d), dtype=complex)
    for t, k in enumerate(ops):
        mu[t] = np.einsum("li,lk,ki->i", basis.conj(), k, basis)

    rows = []
    for t in range(len(ops)):
        rows.append(mu[t].real)
        rows.append(mu[t].imag)
    rows.append(np.ones(d))
    a = np.vstack(rows)
    b = np.zeros(len(rows))
    b[-1] = 1.0

    lp = feasible_point(a, b)
    if lp.status == "feasible":
        q = lp.x
        rho = (basis * q[None, :]) @ basis.conj().T
        rho = (rho + rho.conj().T) / 2
        return ProbeFeasibility(
            status="feasible",
            witness=DensityOperator(rho),
            residual=float(np.max(np.abs(mu @ q))),
            note="common-eigenbasis linear program",
        )
    cert = _certificate_from_lp(problem.operators, indices, lp.certificate)
    return ProbeFeasibility(
        status="infeasible_certified",
        certificate=cert,
        note="common-eigenbasis linear program (Farkas dual)",
    )


def _project_simplex(vals):
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(vals)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(u) + 1)
    cond = u - css / idx > 0
    k = idx[cond][-1]
    theta = css[cond][-1] / k
    return np.maximum(vals - theta, 0.0)


def _project_density(x):
    h = (x + x.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w = _project_simplex(w)
    return (v * w[None, :]) @ v.conj().T


def _solve_by_projections(problem, tol, restarts=10, iterations=5000, seed=0):
    """Dykstra-corrected alternating projections onto densities vs the
    affine constraint subspace.  Heuristic: success yields a witness, but a
    residual floor is not an infeasibility proof."""
    d = problem.dim
    # never empty: the caller handles an empty constraint set, and each
    # operator is unitary, so one of its two parts is nonzero
    funcs = []
    for k in problem.operators:
        for g in _hermitian_parts(k):
            if np.max(np.abs(g)) > 1e-14:
                funcs.append(g)

    gram = np.array([[np.vdot(gi, gj).real for gj in funcs] for gi in funcs])
    gram_pinv = np.linalg.pinv(gram, rcond=1e-12)

    def project_affine(x):
        vals = np.array([np.vdot(g, x).real for g in funcs])
        coef = gram_pinv @ vals
        out = x.copy()
        for c, g in zip(coef, funcs):
            out = out - c * g
        return out

    def violation(rho):
        return max(abs(np.trace(rho @ k)) for k in problem.operators)

    rng = np.random.default_rng(seed)
    best = None
    best_viol = np.inf
    for r in range(restarts):
        if r == 0:
            x = np.eye(d, dtype=complex) / d
        else:
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            x = np.outer(v, v.conj())
        p = np.zeros_like(x)
        q = np.zeros_like(x)
        for it in range(iterations):
            y = _project_density(x + p)
            p = x + p - y
            x_new = project_affine(y + q)
            q = y + q - x_new
            x = x_new
            if it % 50 == 49 or it == iterations - 1:
                cand = _project_density(x)
                viol = violation(cand)
                if viol < best_viol:
                    best_viol = viol
                    best = cand
                if viol < 1e-11:
                    break
        if best_viol < 1e-11:
            break

    # plain alternating polish inside the near-miss band
    if best is not None and 1e-11 <= best_viol < 1e-7:
        x = best
        for it in range(2000):
            x = _project_density(project_affine(x))
            if it % 100 == 99:
                viol = violation(x)
                if viol < best_viol:
                    best_viol = viol
                    best = x
                if viol < 1e-11:
                    break

    if best is not None and best_viol < tol.comparison:
        return ProbeFeasibility(status="feasible", witness=DensityOperator(best),
                                residual=float(best_viol),
                                note="alternating projections")
    return ProbeFeasibility(status="not_found", residual=float(best_viol),
                            note=f"alternating projections stalled at residual {best_viol:.3e}")


# -----------------------------------------------------------------------------
# Entry point
# -----------------------------------------------------------------------------

def common_probe_feasible(problem: OrthogonalityProblem,
                          tol: Tolerances = DEFAULT_TOL,
                          method: str = "auto",
                          restarts: int = 10,
                          iterations: int = 5000,
                          seed: int = 0) -> ProbeFeasibility:
    """Decide whether one reduced probe state satisfies every constraint.

    ``method`` forces a path for testing: "lp" (commuting problems only) or
    "projections"; "auto" runs the exact screens first.
    """
    if method not in ("auto", "lp", "projections"):
        raise ValueError(f"unknown method {method!r}")
    d = problem.dim

    if not problem.operators:
        return ProbeFeasibility(status="feasible",
                                witness=DensityOperator(np.eye(d) / d),
                                residual=0.0, note="empty constraint set")

    if method == "projections":
        return _solve_by_projections(problem, tol, restarts, iterations, seed)

    if problem.commuting:
        return _solve_commuting(problem, range(len(problem.operators)), tol)
    if method == "lp":
        raise ValueError("LP path requires commuting constraint operators")

    # one operator alone is a commuting problem; any single-operator
    # infeasibility certifies the whole system
    for k in range(len(problem.operators)):
        sub = _solve_commuting(problem, [k], tol)
        if sub.status == "infeasible_certified":
            return ProbeFeasibility(
                status="infeasible_certified",
                certificate=sub.certificate,
                note=f"single-operator spectral certificate (operator {k})",
            )

    # cheap exact candidate: the maximally mixed state
    mixed = np.eye(d) / d
    if max(abs(np.trace(mixed @ k)) for k in problem.operators) < tol.comparison:
        return ProbeFeasibility(status="feasible", witness=DensityOperator(mixed),
                                residual=float(max(abs(np.trace(mixed @ k))
                                                   for k in problem.operators)),
                                note="maximally mixed witness")

    return _solve_by_projections(problem, tol, restarts, iterations, seed)


# -----------------------------------------------------------------------------
# Witness utilities
# -----------------------------------------------------------------------------

def purify_witness(witness: DensityOperator, tol: Tolerances = DEFAULT_TOL):
    """Purification on system (x) ancilla, ancilla sized by the rank.

    Returns ``(state, ancilla_dim)``; tracing the ancilla out of the state
    recovers the witness.
    """
    rho = witness.matrix
    w, v = np.linalg.eigh(rho)
    keep = [i for i in range(len(w)) if w[i] > 1e-12]
    keep.reverse()  # largest eigenvalue first
    r = len(keep)
    if r == 0:
        raise ValueError("witness has numerically zero rank")
    d = rho.shape[0]
    amp = np.zeros(d * r, dtype=complex)
    for slot, i in enumerate(keep):
        amp += np.sqrt(w[i]) * np.kron(v[:, i], np.eye(r)[:, slot])
    state = StateVector(amp)
    back = partial_trace(np.outer(state.amplitudes, state.amplitudes.conj()),
                         [d, r], keep=[0])
    err = np.max(np.abs(back - rho))
    if err > tol.comparison:
        raise AssertionError(f"purification round trip failed ({err:.3e})")
    return state, r


def gram_overlaps(witness: DensityOperator, operators) -> list:
    """Tr(rho K) for each constraint operator (the evolved-state Gram
    entries of any purification of rho)."""
    rho = witness.matrix
    return [complex(np.trace(rho @ as_matrix(k))) for k in operators]
