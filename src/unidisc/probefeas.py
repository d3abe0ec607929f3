"""Feasibility of a common probe orthogonalizing several relative unitaries.

A probe state (with arbitrary ancilla) sends the evolved images of unitaries
u_i to mutually orthogonal states iff its reduced density operator rho on
the system satisfies Tr(rho K) = 0 for every relative unitary K = u_i{dag}
u_j in the constraint set.  Feasibility over density operators is decided

* exactly, by a phase-1 simplex over simplex weights in the common
  eigenbasis, when all constraint operators commute; the witness is the
  pure state with those weights as squared amplitudes, so it needs no
  ancilla;
* exactly in the negative, whenever some single constraint operator already
  has its eigenvalue hull away from the origin (a one-operator problem is
  always a commuting problem);
* by testing the maximally mixed candidate, which settles every feasible
  qubit instance and many composite ones;
* otherwise by Dykstra-corrected alternating projections between the
  density-operator set and the constraint subspace, one run from the
  maximally mixed state.  Both sets are convex, so one start suffices: the
  iterates converge to a feasible point whenever one exists (Boyle &
  Dykstra, 1986).  The density set is also compact, so an infeasible
  problem keeps the two sets a positive distance apart, and Dykstra's
  iterates converge to the gap vector v between them (Bauschke & Borwein,
  J. Approx. Theory 79, 418 (1994)).
  v lies in the span of the constraints' Hermitian parts, and since its
  density end minimizes Tr(rho v) over densities, lambda_min(v) = |v|^2 > 0:
  rescaled, v is a certificate of the form below.  A feasible rho* forces
  lambda_min(v) <= Tr(rho* v) = 0 for every v in that span, so the
  projections certify only infeasible problems.  ``not_found`` means the
  iteration budget ran out with neither a witness nor a certificate.

Infeasibility certificates are stored basis-free: real coefficients c such
that G = sum_k (cRe_k ReK_k + cIm_k ImK_k) satisfies G >= 1, which makes
Tr(rho G) >= 1 > 0 for every density operator while the constraints demand
it vanish (a theorem of alternatives; Boyd & Vandenberghe, Convex
Optimization, section 5.8).  ``verify_certificate`` recomputes the spectral
bound from scratch.
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


def _combined_min_eig(problem, indices, coeffs):
    """Smallest eigenvalue of G = sum_t (c_2t ReK + c_2t+1 ImK) over the
    constraint operators K that ``indices`` names, in that order."""
    g = np.zeros((problem.dim, problem.dim), dtype=complex)
    for t, k in enumerate(indices):
        h, s = _hermitian_parts(problem.operators[k])
        g = g + coeffs[2 * t] * h + coeffs[2 * t + 1] * s
    return float(np.linalg.eigvalsh((g + g.conj().T) / 2).min())


def _certificate_from_lp(problem, indices, farkas):
    """Convert a Farkas vector of the eigenbasis LP into a spectral bound."""
    y = farkas.y
    coeffs = -np.asarray(y[:-1], dtype=float)  # drop the normalization row
    lo = _combined_min_eig(problem, indices, coeffs)
    if lo < 1 - 1e-7:
        raise AssertionError(f"certificate bound failed: min eig {lo:.6e}")
    return InfeasibilityCertificate(op_indices=tuple(indices), coeffs=coeffs, min_eig=lo)


def verify_certificate(problem: OrthogonalityProblem,
                       cert: InfeasibilityCertificate,
                       tol: Tolerances = DEFAULT_TOL) -> float:
    """Recompute the spectral lower bound of a certificate from scratch.

    Returns the recomputed minimum eigenvalue; raises ``ValueError`` if the
    certificate does not fit the problem (an index that is not an integer
    in range, or not two finite coefficients per index) or if the bound
    fails to clear the strictly positive bar, since then it proves nothing.
    """
    n = len(problem.operators)
    bad = [k for k in cert.op_indices if not (isinstance(k, (int, np.integer)) and 0 <= k < n)]
    if bad:
        raise ValueError(f"certificate op_indices {bad} are not indices "
                         f"of a problem with {n} operators")
    if np.shape(cert.coeffs) != (2 * len(cert.op_indices),):
        raise ValueError(f"certificate needs {2 * len(cert.op_indices)} coefficients for "
                         f"{len(cert.op_indices)} op_indices, got shape {np.shape(cert.coeffs)}")
    if not np.isfinite(cert.coeffs).all():
        raise ValueError("certificate coefficients must be finite")
    lo = _combined_min_eig(problem, cert.op_indices, cert.coeffs)
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
        # every constraint is diagonal in the basis, so the pure state with
        # weights q meets them exactly as the mixture would, without ancilla
        psi = basis @ np.sqrt(np.maximum(lp.x, 0.0))
        rho = np.outer(psi, psi.conj())
        return ProbeFeasibility(
            status="feasible",
            witness=DensityOperator(rho),
            residual=float(max(abs(np.trace(rho @ k)) for k in ops)),
            note="common-eigenbasis linear program",
        )
    cert = _certificate_from_lp(problem, indices, lp.certificate)
    return ProbeFeasibility(
        status="infeasible_certified",
        certificate=cert,
        note="common-eigenbasis linear program (Farkas dual)",
    )


def _project_density(x):
    """Nearest density operator to the Hermitian part of ``x``: one ``eigh``,
    then the eigenvalues go to their Euclidean projection onto the
    probability simplex."""
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    u = w[::-1]  # eigh returns the eigenvalues in ascending order
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(u) + 1)
    # the last index where the condition holds (it holds at index 0)
    k = np.flatnonzero(u - css / idx > 0)[-1]
    w = np.maximum(w - css[k] / idx[k], 0.0)
    return (v * w) @ v.conj().T


def _span_coefficients(x, funcs, gram_pinv):
    """The coefficients over the rows of ``funcs`` (the nonzero Hermitian
    parts, flattened) of the orthogonal projection of ``x`` onto their real
    span."""
    return gram_pinv @ (funcs.conj() @ x.reshape(-1)).real


def _project_affine(x, funcs, gram_pinv):
    """Project ``x`` onto the matrices with Re<g, x> = 0 for every row g of
    ``funcs``."""
    return x - (_span_coefficients(x, funcs, gram_pinv) @ funcs).reshape(x.shape)


def _gap_certificate(problem, funcs, gram_pinv, slots, cand, tol):
    """An infeasibility certificate from the component of the density
    ``cand`` in the constraint span, rescaled to smallest eigenvalue 1, or
    None unless that component is positive definite and the certificate
    passes ``verify_certificate``.  ``slots`` maps the rows of ``funcs`` to
    their (cRe_k, cIm_k) positions."""
    coef = _span_coefficients(cand, funcs, gram_pinv)
    lo = np.linalg.eigvalsh((coef @ funcs).reshape(cand.shape)).min()
    if lo <= 0:
        return None
    coeffs = np.zeros(2 * len(problem.operators))
    coeffs[slots] = coef / lo
    indices = tuple(range(len(problem.operators)))
    cert = InfeasibilityCertificate(
        op_indices=indices, coeffs=coeffs,
        min_eig=_combined_min_eig(problem, indices, coeffs))
    try:
        verify_certificate(problem, cert, tol)
    except ValueError:
        return None
    return cert


def _violations(rho, ops_t):
    """max_k |Tr(rho K_k)|; column k of ``ops_t`` is K_k transposed and
    flattened."""
    return float(np.abs(rho.reshape(-1) @ ops_t).max())


def _dykstra_steps(x, p, q, steps, funcs, gram_pinv):
    """``steps`` Dykstra iterations: iterate ``x`` with the corrections
    ``p`` (density side) and ``q`` (constraint side)."""
    for _ in range(steps):
        xp = x + p
        y = _project_density(xp)
        p = xp - y
        yq = y + q
        x = _project_affine(yq, funcs, gram_pinv)
        q = yq - x
    return x, p, q


def _solve_by_projections(problem, tol, iterations=5000):
    """Dykstra-corrected alternating projections onto densities vs the
    constraint subspace, from the maximally mixed state.

    One run suffices: both sets are convex and the density set is compact,
    so from any start the iterates converge to a feasible point when one
    exists (Boyle & Dykstra, 1986) and otherwise to the gap vector between
    the sets (Bauschke & Borwein, J. Approx. Theory 79, 418 (1994)), which
    yields a certificate (see the module docstring); another start would
    only spend more of the budget on the same limit.

    Every 50 iterations and at the last, the projected iterate is returned
    as a witness once its residual is below 1e-11, and otherwise its
    component in the constraint span is returned as a certificate once
    ``verify_certificate`` accepts it.  When the budget runs out, the last
    projected iterate is a witness if its residual is below
    ``tol.comparison``, and the answer is ``not_found`` if not.
    """
    if iterations < 1:
        raise ValueError(f"need at least one iteration, got iterations={iterations}")
    d = problem.dim
    # never empty: the caller handles an empty constraint set, and each
    # operator is unitary, so one of its two parts is nonzero
    parts = np.array([g.reshape(-1) for k in problem.operators for g in _hermitian_parts(k)])
    slots = np.flatnonzero(np.abs(parts).max(axis=1) > 1e-14)
    funcs = parts[slots]
    gram = np.array([[np.vdot(gi, gj).real for gj in funcs] for gi in funcs])
    gram_pinv = np.linalg.pinv(gram, rcond=1e-12)
    ops_t = np.array([k.T.reshape(-1) for k in problem.operators]).T

    x = np.eye(d, dtype=complex) / d
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    prev = 0
    for check in (*range(50, iterations, 50), iterations):
        x, p, q = _dykstra_steps(x, p, q, check - prev, funcs, gram_pinv)
        prev = check
        cand = _project_density(x)
        viol = _violations(cand, ops_t)
        if viol < 1e-11:
            break
        cert = _gap_certificate(problem, funcs, gram_pinv, slots, cand, tol)
        if cert is not None:
            return ProbeFeasibility(
                status="infeasible_certified", certificate=cert,
                note="alternating projections separating certificate")

    if viol < tol.comparison:
        return ProbeFeasibility(status="feasible", witness=DensityOperator(cand),
                                residual=viol, note="alternating projections")
    return ProbeFeasibility(status="not_found", residual=viol,
                            note=f"alternating projections stalled at residual {viol:.3e}")


# -----------------------------------------------------------------------------
# Entry point
# -----------------------------------------------------------------------------

def common_probe_feasible(problem: OrthogonalityProblem,
                          tol: Tolerances = DEFAULT_TOL) -> ProbeFeasibility:
    """Decide whether one reduced probe state satisfies every constraint;
    the exact screens run first, projections last."""
    d = problem.dim

    if not problem.operators:
        return ProbeFeasibility(status="feasible",
                                witness=DensityOperator(np.eye(d) / d),
                                residual=0.0, note="empty constraint set")

    if problem.commuting:
        return _solve_commuting(problem, range(len(problem.operators)), tol)

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
    mixed_residual = float(max(abs(np.trace(mixed @ k)) for k in problem.operators))
    if mixed_residual < tol.comparison:
        return ProbeFeasibility(status="feasible", witness=DensityOperator(mixed),
                                residual=mixed_residual, note="maximally mixed witness")

    return _solve_by_projections(problem, tol)


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
