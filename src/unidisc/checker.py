"""The trusted checker: every test of whether a witness or a certificate holds.

A ``distinguishable`` verdict carries a witness, and an
``indistinguishable_certified`` one a certificate in the theorem-of-alternatives
form (Boyd & Vandenberghe, Convex Optimization, section 5.8).  This module
checks POVMs, simulates trees and probe witnesses exactly, and recomputes a
certificate's spectral bound against the one bar the deciders build to.  It
imports only numpy and ``qcore``'s array basics, and reads the deciders'
objects by attribute, constructing none: trusting a verdict means reading
this module, and a test pins its imports.
"""

import numpy as np

from .qcore import _eigvalsh_c, _kron, _valid_prefix, as_matrix

__all__ = ["VerifyResult", "check_povm", "verify_tree", "verify_probe", "verify_certificate"]

_PARTIES = ("A", "B")


def _party_index(party):
    if party not in _PARTIES:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    return _PARTIES.index(party)


def _other(party):
    """The party that is not ``party``."""
    return _PARTIES[1 - _party_index(party)]


def check_povm(povm, dim: int, what: str = "POVM") -> tuple:
    """Validate a POVM on a ``dim``-dimensional space and return its elements
    as complex arrays: each one (dim, dim), Hermitian and PSD, summing to 1.
    ``povm`` is a sequence of matrices or one ``(n, dim, dim)`` stack."""
    if len(povm) == 0:
        raise ValueError(f"{what}: empty POVM")

    def element(km):
        k, m = km
        m = as_matrix(m)
        if m.shape != (dim, dim):
            raise ValueError(f"{what}: element {k} has shape {m.shape}, expected {(dim, dim)}")
        return m

    mats, held = _valid_prefix(enumerate(povm), element)
    if mats:
        stack = np.array(mats)
        adj = stack.conj().transpose(0, 2, 1)
        herm = np.abs(stack - adj).max(axis=(1, 2)) > 1e-8
        lo = _eigvalsh_c((stack + adj) / 2).min(axis=1)
        bad = herm | (lo < -1e-10)
        if bad.any():
            k = int(bad.argmax())
            if herm[k]:
                raise ValueError(f"{what}: element {k} is not Hermitian")
            raise ValueError(f"{what}: element {k} has eigenvalue {float(lo[k]):.3e} < -1e-10")
    if held is not None:
        raise held
    err = float(np.abs(sum(mats) - np.eye(dim)).max())
    if err > 1e-8:
        raise ValueError(f"{what}: completeness violated by {err:.3e}")
    return tuple(mats)


class VerifyResult:
    """What :func:`verify_tree` found, one entry per unitary of the set."""

    def __init__(self, success, leakage, stage1_probs):
        self.success = success  # probability of the correct guess
        self.leakage = leakage  # mass on outcomes that should not fire
        self.stage1_probs = stage1_probs  # (num unitaries) x (stage-1 outcomes)


def _evolved(u, ancilla_dim, probe):
    if ancilla_dim > 1:
        u = _kron(u, np.eye(ancilla_dim))
    return u @ probe.amplitudes


def _checked_povm(block, d, answers, what):
    """The POVM of a probe block (a tree's stage 1, a stage 2 or a probe
    witness) on a ``d``-dimensional system, checked with everything else
    the block says about it: the probe lives on the system and its
    ancilla, and ``answers`` (branches or guesses) name every outcome."""
    dim = d * block.ancilla_dim
    if block.probe.dim != dim:
        raise ValueError(f"{what} probe dim {block.probe.dim} != {d} * {block.ancilla_dim}")
    povm = check_povm(block.povm, dim, f"{what} POVM")
    if len(answers) != len(povm):
        noun = "branches" if hasattr(block, "branches") else "guesses"
        raise ValueError(f"{what} has {len(answers)} {noun} for {len(povm)} outcomes")
    return povm


def _probability(phi, el) -> float:
    """Probability of the outcome with POVM element ``el`` on the state ``phi``."""
    return float(np.real(phi.conj() @ (el @ phi)))


def verify_tree(uset, tree) -> VerifyResult:
    """Exact simulation of a protocol tree on every unitary of the set.

    Returns per-unitary success probability, leakage (mass on outcomes
    whose retained set excludes the true index, plus mass on dead ends),
    and the full stage-1 outcome table.
    """
    start, resp = tree.start, _other(tree.start)
    d1, d2 = (uset.party_dims[_party_index(p)] for p in (start, resp))
    povm1 = _checked_povm(tree, d1, tree.branches, "stage-1")
    povm2 = {}  # stage-2 POVMs by outcome, checked on every branch, reached or not
    for a, br in enumerate(tree.branches):
        st = br.stage2
        if st is not None:
            if st.party != resp:
                raise ValueError(f"stage-2 (outcome {a}) party must be the responder")
            povm2[a] = _checked_povm(st, d2, st.guesses, f"stage-2 (outcome {a})")

    m = uset.size
    success = np.zeros(m)
    leakage = np.zeros(m)
    stage1 = np.zeros((m, len(tree.povm)))

    def answer(i, guess, p):
        if guess is None:
            leakage[i] += p  # declared possible but no answer
        elif guess == i:
            success[i] += p

    for i in range(m):
        phi1 = _evolved(uset.factor(i, start), tree.ancilla_dim, tree.probe)
        for a, (el, br) in enumerate(zip(povm1, tree.branches)):
            p = stage1[i, a] = max(_probability(phi1, el), 0.0)
            if p < 1e-15:
                continue
            if i not in br.retained:
                leakage[i] += p
            elif br.stage2 is None:
                answer(i, br.guess, p)
            else:
                st = br.stage2
                phi2 = _evolved(uset.factor(i, resp), st.ancilla_dim, st.probe)
                for el2, guess in zip(povm2[a], st.guesses):
                    answer(i, guess, p * max(_probability(phi2, el2), 0.0))
    return VerifyResult(success=success, leakage=leakage, stage1_probs=stage1)


def verify_probe(unitaries, witness) -> np.ndarray:
    """Success probabilities of a one-shot probe witness on given unitaries."""
    mats = [as_matrix(u) for u in unitaries]
    if not mats:
        raise ValueError("no unitaries to verify")
    for i, u in enumerate(mats):
        if u.shape != mats[0].shape:
            raise ValueError(f"unitary {i} has shape {u.shape}, unitary 0 has {mats[0].shape}")
    povm = _checked_povm(witness, mats[0].shape[0], witness.guesses, "witness")
    success = np.zeros(len(mats))
    for i, u in enumerate(mats):
        phi = _evolved(u, witness.ancilla_dim, witness.probe)
        for el, guess in zip(povm, witness.guesses):
            if guess == i:
                success[i] += _probability(phi, el)
    return success


def _hermitian_parts(k):
    return (k + k.conj().T) / 2, (k - k.conj().T) / 2j


def _combined_min_eig(problem, indices, coeffs):
    """Smallest eigenvalue of G = sum_t (c_2t ReK + c_2t+1 ImK) over the
    constraint operators K that ``indices`` names, in that order."""
    g = np.zeros((problem.dim, problem.dim), dtype=complex)
    for t, k in enumerate(indices):
        h, s = _hermitian_parts(problem.operators[k])
        g = g + coeffs[2 * t] * h + coeffs[2 * t + 1] * s
    return float(_eigvalsh_c((g + g.conj().T) / 2).min())


def _clears_bar(lo, tol) -> bool:
    """The one bar every certificate must clear, ``lo >= 1 - tol.comparison``
    (NaN fails); ``tol`` of ``None`` means the default comparison, 1e-9."""
    return lo >= 1 - (1e-9 if tol is None else tol.comparison)


def verify_certificate(problem, cert, tol=None) -> float:
    """Recompute the spectral lower bound of a certificate from scratch.

    Returns the recomputed minimum eigenvalue; raises ``ValueError`` if the
    certificate does not fit the problem (an index that is not an integer
    in range, or not two finite coefficients per index) or if the bound
    fails to clear the strictly positive bar of :func:`_clears_bar`, since
    then it proves nothing.
    """
    n = len(problem.operators)
    # bool is an int subclass, but True is no name for operator 1
    bad = [k for k in cert.op_indices if isinstance(k, bool)
           or not (isinstance(k, (int, np.integer)) and 0 <= k < n)]
    if bad:
        raise ValueError(f"certificate op_indices {bad} are not indices "
                         f"of a problem with {n} operators")
    if np.shape(cert.coeffs) != (2 * len(cert.op_indices),):
        raise ValueError(f"certificate needs {2 * len(cert.op_indices)} coefficients for "
                         f"{len(cert.op_indices)} op_indices, got shape {np.shape(cert.coeffs)}")
    if not np.isfinite(cert.coeffs).all():
        raise ValueError("certificate coefficients must be finite")
    lo = _combined_min_eig(problem, cert.op_indices, cert.coeffs)
    if not _clears_bar(lo, tol):
        raise ValueError(f"certificate does not verify: min eig {lo:.6e}")
    return lo
