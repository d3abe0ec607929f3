"""Feasibility of a common probe orthogonalizing several relative unitaries.

A probe state (with arbitrary ancilla) sends the evolved images of unitaries
u_i to mutually orthogonal states iff its reduced density operator rho on
the system satisfies Tr(rho K) = 0 for every relative unitary K = u_i{dag}
u_j in the constraint set.  Feasibility over density operators is decided

* exactly, for one constraint operator, by the hull of its eigenvalues:
  Tr(rho K) ranges over the convex hull of K's eigenvalues, so the problem
  is feasible iff the origin lies in that hull (Acin, PRL 87, 177901
  (2001); Duan, Feng & Ying, PRL 98, 100503 (2007)).  This is the
  common-eigenbasis linear program below on one operator, solved in closed
  form by :func:`~unidisc.eigdist.min_convex_norm`.  The witness is the
  pure state sum_j sqrt(w_j) v_j over K's eigenvectors with the hull
  weights w, so it needs no ancilla; when the origin lies at distance
  delta along the direction e^{i phi} outside the hull, every eigenvalue
  has Re(e^{-i phi} lambda_j) >= delta, so (cos phi ReK + sin phi ImK) /
  delta >= 1 is a certificate of the form below;
* exactly, by a phase-1 simplex over simplex weights in the common
  eigenbasis, when two or more constraint operators commute; the witness
  is the pure state with those weights as squared amplitudes, so it needs
  no ancilla;
* by testing the maximally mixed candidate, which settles every feasible
  qubit instance and many composite ones;
* exactly in the negative, whenever some single constraint operator already
  has its eigenvalue hull away from the origin, by that operator's hull
  certificate;
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

The two exact routes return the pure witness they build as
``ProbeFeasibility.state``, which the deciders measure as it is; only mixed
witnesses (the maximally mixed state, the projections' witnesses) go through
:func:`purify_witness`.  Both accept a pure witness by one check: it meets
every constraint to ``tol.comparison`` and is a density operator, or the
answer is ``not_found``.

Infeasibility certificates are stored basis-free: real coefficients c such
that G = sum_k (cRe_k ReK_k + cIm_k ImK_k) satisfies G >= 1, which makes
Tr(rho G) >= 1 > 0 for every density operator while the constraints demand
it vanish (a theorem of alternatives; Boyd & Vandenberghe, Convex
Optimization, section 5.8).  Every route holds a certificate to the one bar
of :mod:`~unidisc.checker`, whose ``verify_certificate`` recomputes the
spectral bound from scratch: lambda_min(G) >= 1 - ``tol.comparison``, and a
NaN bound fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checker import _clears_bar, _combined_min_eig, _hermitian_parts
from .checker import verify_certificate  # noqa: F401 - callers import it from here too
from .eigdist import _spectrum
from .qcore import (
    DEFAULT_TOL,
    DensityOperator,
    StateVector,
    Tolerances,
    _eigh_c,
    _near_unitaries,
    _valid_prefix,
    as_matrix,
    simultaneous_eigenbasis,
)
from .simplex import feasible_point

__all__ = [
    "OrthogonalityProblem",
    "ProbeFeasibility",
    "InfeasibilityCertificate",
    "common_probe_feasible",
    "purify_witness",
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
    """Constraint set Tr(rho K_k) = 0 over densities on a given dimension.

    The constructor accepts outside operators by the rule of
    :func:`~unidisc.qcore._near_unitaries` (up to 1e-8 off, kept as their
    polar factor past rounding).  A ``SetAnalysis`` poses its problems by
    :meth:`_accepted`, on operators built from an accepted set, unchecked.
    """

    dim: int
    operators: tuple
    commuting: bool = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got dim={self.dim}")
        ops = tuple(as_matrix(k) for k in self.operators)

        def shaped(k):
            if k.shape != (self.dim, self.dim):
                raise ValueError(f"operator shape {k.shape} does not match dim {self.dim}")
            return k

        valid, held = _valid_prefix(ops, shaped)
        (ops,) = _near_unitaries(
            (valid,), lambda k, err: f"constraint operator not unitary (err {err:.3e})")
        if held is not None:
            raise held
        self._hold(self.dim, ops)

    @classmethod
    def _accepted(cls, dim: int, operators: tuple) -> OrthogonalityProblem:
        """The problem on unitaries built from accepted ones (a set's relatives
        and their products), held as they are, past the constructor's checks."""
        return object.__new__(cls)._hold(dim, operators)

    def _hold(self, dim, ops):
        """Store the fields; the family commutes iff each K_i K_j = K_j K_i."""
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "operators", ops)
        comm = True
        if len(ops) > 1:
            stack = np.array(ops)
            prod = stack[:, None] @ stack[None, :]  # every product K_i K_j at once
            comm = bool(np.abs(prod - prod.transpose(1, 0, 2, 3)).max() <= 1e-9)
        object.__setattr__(self, "commuting", comm)
        return self


@dataclass(frozen=True)
class ProbeFeasibility:
    """The answer to one problem.  ``state`` is the pure probe whose outer
    product is ``witness``, when the route built one (the eigenvalue hull
    and the commuting linear program do); the JSON form does not carry it."""

    status: str  # "feasible" | "infeasible_certified" | "not_found"
    witness: DensityOperator | None = None
    state: StateVector | None = None
    certificate: InfeasibilityCertificate | None = None
    residual: float | None = None
    note: str = ""


# -----------------------------------------------------------------------------
# Pieces
# -----------------------------------------------------------------------------

def _certificate(problem, indices, coeffs, tol):
    """``(cert, lo)``: lo is the smallest eigenvalue of the combination of
    the constraint operators ``indices`` with ``coeffs``, computed once, and
    cert the certificate carrying it, or ``None`` unless lo clears the one
    bar every certificate must, :func:`~unidisc.checker._clears_bar`."""
    lo = _combined_min_eig(problem, indices, coeffs)
    if not _clears_bar(lo, tol):
        return None, lo
    return InfeasibilityCertificate(op_indices=tuple(indices), coeffs=coeffs, min_eig=lo), lo


def _lp_failed(why, residual=None):
    """The ``not_found`` answer of the linear program, by either route."""
    return ProbeFeasibility(status="not_found", residual=residual,
                            note=f"common-eigenbasis linear program failed: {why}")


def _lp_witness(problem, indices, psi, tol):
    """The linear program's answer with the pure witness ``psi`` for the
    constraint operators ``indices``: ``feasible`` when the witness meets
    each of them to ``tol.comparison`` and is a density operator, and
    ``not_found`` if not."""
    rho = np.outer(psi, psi.conj())
    residual = float(max(abs(np.trace(rho @ problem.operators[k])) for k in indices))
    if residual > tol.comparison:
        return _lp_failed(f"witness residual {residual:.3e}", residual)
    try:
        witness = DensityOperator(rho)
    except ValueError as exc:
        return _lp_failed(f"witness {exc}", residual)
    return ProbeFeasibility(status="feasible", witness=witness, state=StateVector(psi),
                            residual=residual, note="common-eigenbasis linear program")


def _lp_certified(problem, indices, coeffs, tol):
    """The linear program's answer with the Farkas coefficients ``coeffs``
    on the constraint operators ``indices``: certified when their
    :func:`_certificate` clears the bar, and ``not_found`` if not."""
    cert, lo = _certificate(problem, indices, coeffs, tol)
    if cert is None:
        return _lp_failed(f"certificate bound failed: min eig {lo:.6e}")
    return ProbeFeasibility(status="infeasible_certified", certificate=cert,
                            note="common-eigenbasis linear program (Farkas dual)")


def _solve_commuting(problem, indices, tol=DEFAULT_TOL):
    """Exact LP over simplex weights in the common eigenbasis of a commuting
    subset of the constraints; :func:`common_probe_feasible` poses it with
    two or more operators, since :func:`_solve_single` solves the
    one-operator LP in closed form.

    ``not_found`` when the answer fails its re-check: the simplex's own
    (a point off the constraints, a Farkas vector that does not separate),
    or the witness check of :func:`_lp_witness` or the certificate bar of
    :func:`_certificate`.
    """
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
    if lp.status == "failed":  # the simplex re-checks its answer
        return _lp_failed(lp.note)
    if lp.status == "feasible":
        # every constraint is diagonal in the basis, so the pure state with
        # weights q meets them exactly as the mixture would, without ancilla
        return _lp_witness(problem, indices, basis @ np.sqrt(np.maximum(lp.x, 0.0)), tol)
    # the Farkas vector, without its normalization row
    return _lp_certified(problem, indices, -np.asarray(lp.certificate.y[:-1], dtype=float), tol)


def _solve_single(problem, k, spectrum, tol):
    """Decide Tr(rho K) = 0 for the one constraint operator K =
    ``problem.operators[k]`` from ``spectrum``, its
    :func:`~unidisc.eigdist._spectrum`.  This is the linear program of
    :func:`_solve_commuting` on one operator, solved in closed form, so the
    answers carry that program's notes; the certificate is a Farkas vector
    of it.

    Feasible when the hull holds the origin, with the pure witness
    sum_j sqrt(w_j) v_j; otherwise certified by the unit direction e^{i phi}
    of the closest hull point, at distance delta, as the coefficients
    (cos phi, sin phi) / delta on (ReK, ImK) (see the module docstring).
    ``not_found`` when the witness fails the check of :func:`_lp_witness`
    or the certificate the bar of :func:`_certificate`.
    """
    _, vecs, hull = spectrum
    if hull.distinguishable:
        return _lp_witness(problem, (k,), vecs @ np.sqrt(hull.weights), tol)
    phi = np.angle(hull.weights @ hull.points)
    return _lp_certified(problem, (k,), np.array([np.cos(phi), np.sin(phi)]) / hull.min_norm, tol)


def _project_density(x):
    """Nearest density operator to the Hermitian part of ``x``: one ``eigh``,
    then the eigenvalues go to their Euclidean projection onto the
    probability simplex."""
    w, v = _eigh_c((x + x.conj().T) / 2)
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
    clears the bar of :func:`_certificate`.  ``slots`` maps the rows of
    ``funcs`` to their (cRe_k, cIm_k) positions."""
    coef = _span_coefficients(cand, funcs, gram_pinv)
    lo = np.linalg.eigvalsh((coef @ funcs).reshape(cand.shape)).min()
    if lo <= 0:
        return None
    coeffs = np.zeros(2 * len(problem.operators))
    coeffs[slots] = coef / lo
    return _certificate(problem, range(len(problem.operators)), coeffs, tol)[0]


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
    component in the constraint span is returned as a certificate once it
    clears the bar of :func:`_certificate`.  When the budget runs out, the
    last projected iterate is a witness if its residual is below
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
    """Decide whether one reduced probe state satisfies every constraint.

    The routes run in this order, and the first that decides answers: an
    empty constraint set; the eigenvalue hull of a single operator; the
    common-eigenbasis LP when two or more operators commute; the maximally
    mixed state; each operator's eigenvalue hull, looking for a spectral
    certificate; the projections.  The mixed state may go before the
    per-operator hulls because whatever it settles they cannot contradict:
    a state meeting every constraint meets each one alone, and by the
    theorem of alternatives no operator it meets has a certificate.  A
    mixed residual that is merely below ``tol.comparison`` is accepted at
    that tolerance, as the projections' witnesses are; a single-operator
    certificate could then exist only with coefficients above 1/residual.

    Each operator's eigensystem and hull is its
    :func:`~unidisc.eigdist._spectrum` under ``tol``, read from the
    process-wide store, so a problem that shares an operator's bytes with
    an earlier one skips its decomposition.
    """
    d = problem.dim
    ops = problem.operators

    if not ops:
        return ProbeFeasibility(status="feasible",
                                witness=DensityOperator(np.eye(d) / d),
                                residual=0.0, note="empty constraint set")

    if len(ops) == 1:
        return _solve_single(problem, 0, _spectrum(ops[0], tol), tol)

    if problem.commuting:
        return _solve_commuting(problem, range(len(ops)), tol)

    # cheap exact candidate: the maximally mixed state; it goes before the
    # per-operator hulls, which could only agree with it (see above)
    mixed = np.eye(d) / d
    mixed_residual = float(max(abs(np.trace(mixed @ k)) for k in ops))
    if mixed_residual < tol.comparison:
        return ProbeFeasibility(status="feasible", witness=DensityOperator(mixed),
                                residual=mixed_residual, note="maximally mixed witness")

    # any single-operator infeasibility certifies the whole system; an
    # operator whose hull holds the origin has no certificate
    for k in range(len(ops)):
        spec = _spectrum(ops[k], tol)
        if spec[2].distinguishable:
            continue
        sub = _solve_single(problem, k, spec, tol)
        if sub.status == "infeasible_certified":
            return ProbeFeasibility(
                status="infeasible_certified",
                certificate=sub.certificate,
                note=f"single-operator spectral certificate (operator {k})",
            )

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
    w, v = _eigh_c(rho)
    keep = np.flatnonzero(w > 1e-12)[::-1]  # largest eigenvalue first
    d, r = rho.shape[0], keep.size
    if r == 0:
        raise ValueError("witness has numerically zero rank")
    # each kept eigenvector, weighted, in its ancilla column: adding them to
    # zeros leaves the bytes a Kronecker product with e_slot would give
    amp = np.zeros((d, r), dtype=complex) + np.sqrt(w[keep]) * v[:, keep]
    state = StateVector(amp.reshape(-1))
    # with the amplitudes as a (system, ancilla) matrix a, tracing the
    # ancilla out of the state leaves a a{dag}
    a = state.amplitudes.reshape(d, r)
    err = np.abs(a @ a.conj().T - rho).max()
    if err > tol.comparison:
        raise AssertionError(f"purification round trip failed ({err:.3e})")
    return state, r

