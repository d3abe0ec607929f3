"""Dense complex linear algebra primitives for unitary discrimination.

Everything downstream works with small dense operators (local dimensions 2
and 3, composites up to 9 or 16), so all routines here are plain numpy on
``complex128`` arrays.  The module provides

* validated wrapper types (:class:`UnitaryOperator`, :class:`DensityOperator`,
  :class:`StateVector`) whose invariants are checked at construction,
* projectors and partial traces,
* eigendecomposition of a unitary through its commuting Hermitian parts,
  degeneracy-safe via blockwise refinement.

Matrices are ordinary 2-D ``numpy`` arrays in row-major layout; state
vectors are 1-D arrays.  Tensor factors are ordered left to right, i.e.
``np.kron(a, b)`` acts on the composite with ``a`` on the first factor;
the package forms such products with :func:`_kron`, which computes the same
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "UnitaryOperator",
    "DensityOperator",
    "StateVector",
    "as_matrix",
    "check_povm",
    "partial_trace",
    "eig_unitary",
    "simultaneous_eigenbasis",
    "projector",
    "haar_unitary",
]


# -----------------------------------------------------------------------------
# Tolerance record
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    validation : bound on constructor invariants (unitarity, hermiticity, ...)
    comparison : bound when comparing computed against expected quantities
    orthogonality : bound on inner products that must vanish

    Every field must be finite and positive: a NaN bound makes every
    comparison false and an infinite one makes every comparison true.
    """

    validation: float = 1e-10
    comparison: float = 1e-9
    orthogonality: float = 1e-10

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 < value < float("inf"):
                raise ValueError(f"tolerance {name} must be finite and positive, got {value}")


DEFAULT_TOL = Tolerances()


# -----------------------------------------------------------------------------
# Array plumbing
# -----------------------------------------------------------------------------

def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array (no copy when already fine)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # false when either part is not finite
        raise ValueError("matrix contains non-finite entries")
    return a


def _kron(a, b) -> np.ndarray:
    """``np.kron`` of two vectors or two matrices: the same elementwise
    products by the same ufunc, without its generic shape handling."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _valid_prefix(items, check):
    """``check`` applied to each item until one raises ``ValueError``: the
    results so far and that error (``None`` when every item passed).

    Stacked validators run their per-item structural checks through this,
    then their numeric checks over the stack of the valid prefix, and raise
    the held error last, so the first failing item is the one a loop over
    the items would have reported."""
    out = []
    for item in items:
        try:
            out.append(check(item))
        except ValueError as exc:
            return out, exc
    return out, None


#: An operator further than this off unitary (the largest entry of
#: ``U^dag U - 1``) is off by more than rounding.
_ROUNDING = 1e-12


def _nearest_unitary(mat: np.ndarray) -> np.ndarray:
    """The polar factor ``u vh`` of ``mat``'s SVD, its nearest unitary."""
    u, _, vh = np.linalg.svd(mat)
    return u @ vh


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
        lo = np.linalg.eigvalsh((stack + adj) / 2).min(axis=1)
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


def _as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    if not np.isfinite(a).all():  # false when either part is not finite
        raise ValueError("vector contains non-finite entries")
    return a


# -----------------------------------------------------------------------------
# Validated types
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitaryOperator:
    """A square matrix U with U{dag}U = 1 within the validation tolerance."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        n, k = m.shape
        if n != k:
            raise ValueError(f"unitary must be square, got {m.shape}")
        err = np.abs(m.conj().T @ m - np.eye(n)).max()
        if err > DEFAULT_TOL.validation:
            raise ValueError(f"not unitary: max |U+U - 1| = {err:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        n, k = m.shape
        if n != k:
            raise ValueError(f"density operator must be square, got {m.shape}")
        adj = m.conj().T
        herm = np.abs(m - adj).max()
        if herm > DEFAULT_TOL.validation:
            raise ValueError(f"not Hermitian: max |rho - rho+| = {herm:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > DEFAULT_TOL.validation:
            raise ValueError(f"trace is {tr:.12g}, expected 1")
        lo = np.linalg.eigvalsh((m + adj) / 2).min()
        if lo < -DEFAULT_TOL.validation:
            raise ValueError(f"negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class StateVector:
    """A pure state; the constructor normalizes, so norm is exactly 1."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = _as_vector(self.amplitudes)
        n = np.linalg.norm(v)
        if n < 1e-12:
            raise ValueError("cannot normalize a (near-)zero vector")
        object.__setattr__(self, "amplitudes", v / n)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> DensityOperator:
        v = self.amplitudes
        return DensityOperator(np.outer(v, v.conj()))


# -----------------------------------------------------------------------------
# Projectors and partial traces
# -----------------------------------------------------------------------------

def projector(psi) -> np.ndarray:
    """|psi><psi| as a plain array."""
    v = psi.amplitudes if isinstance(psi, StateVector) else _as_vector(psi)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` is an
    iterable of subsystem indices to retain (order preserved as given).
    """
    m = rho.matrix if isinstance(rho, DensityOperator) else as_matrix(rho)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    keep = [int(k) for k in keep]
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate keep indices")

    n = len(dims)
    t = m.reshape(dims + dims)
    # contract the traced subsystems pairwise
    for sub in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=sub, axis2=sub + t.ndim // 2)
    kept = [d for i, d in enumerate(dims) if i in keep]
    # axes of kept subsystems are already in increasing original order; reorder
    # to match the order the caller asked for
    perm = [sorted(keep).index(k) for k in keep]
    if perm != list(range(len(keep))):
        half = len(kept)
        t = t.transpose(perm + [half + p for p in perm])
        kept = [dims[k] for k in keep]
    d = int(np.prod(kept)) if kept else 1
    return t.reshape(d, d)


# -----------------------------------------------------------------------------
# Eigendecomposition of unitaries
# -----------------------------------------------------------------------------

# gap below which two eigenvalues of a Hermitian part are treated as one
# cluster during blockwise refinement
_CLUSTER_GAP = 1e-8

# the fixed pseudo-random angle at which eig_unitary mixes a unitary's two
# Hermitian parts; irrational multiples of pi rarely collide with spectral
# symmetries
_MIX_ANGLE = 0.7390851332151607
_MIX_COS = float(np.cos(_MIX_ANGLE))
_MIX_SIN = float(np.sin(_MIX_ANGLE))


def simultaneous_eigenbasis(ops) -> np.ndarray:
    """Common eigenbasis of a family of commuting Hermitian operators.

    Blockwise refinement: diagonalize the first operator, then within each
    degenerate eigenspace diagonalize the compression of the next, and so on.
    Exact for genuinely commuting families; raises if some operator refuses
    to diagonalize in the final basis.
    """
    ops = [as_matrix(h) for h in ops]
    if not ops:
        raise ValueError("need at least one operator")
    d = ops[0].shape[0]
    for h in ops:
        if h.shape != (d, d):
            raise ValueError("operators must share one dimension")

    basis = np.eye(d, dtype=complex)
    blocks = [(0, d)]  # the column ranges [a, b) of the eigenspaces so far
    for h in ops:
        new_blocks = []
        for a, b in blocks:
            if b - a == 1:
                new_blocks.append((a, b))
                continue
            cols = basis[:, a:b]
            comp = cols.conj().T @ h @ cols
            comp = (comp + comp.conj().T) / 2
            w, q = np.linalg.eigh(comp)
            basis[:, a:b] = cols @ q
            # split the block wherever the spectrum jumps
            cuts = [a, *(a + i for i in range(1, b - a) if w[i] - w[i - 1] > _CLUSTER_GAP), b]
            new_blocks.extend(zip(cuts[:-1], cuts[1:]))
        blocks = new_blocks

    off = np.abs(basis.conj().T @ np.array(ops) @ basis).reshape(len(ops), d * d)
    off[:, ::d + 1] = 0.0  # the diagonals
    if off.max() > 1e-7:
        raise ValueError("operators do not commute: no common eigenbasis")
    return basis


def eig_unitary(u, tol: Tolerances = DEFAULT_TOL, *, checked: bool = False):
    """Eigenphases and eigenvectors of a unitary.

    Returns ``(phases, vectors)`` with phases in ``[0, 2*pi)`` sorted
    ascending and ``vectors[:, j]`` the eigenvector for ``phases[j]``.

    A unitary is normal, so its Hermitian part (U+U+)/2 and anti-Hermitian
    part (U-U+)/2i commute; a generic real combination of the two usually
    separates all eigenvectors in one shot.  Degenerate combinations are
    rescued by refining with both parts blockwise.

    A raw array must be unitary within ``tol.validation * d`` unless
    ``checked`` says its owner has already checked it: an
    ``OrthogonalityProblem`` keeps its operators unitary to rounding.  The
    decomposition residual is checked either way.
    """
    mat = u.matrix if isinstance(u, UnitaryOperator) else as_matrix(u)
    d = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("unitary must be square")
    adj = mat.conj().T
    if not (checked or isinstance(u, UnitaryOperator)):
        err = float(np.abs(adj @ mat - np.eye(d)).max())
        if err > tol.validation * d:
            raise ValueError(f"matrix is not unitary: deviation {err:.3e}")
    c = (mat + adj) / 2
    s = (mat - adj) / 2j

    _, q = np.linalg.eigh(_MIX_COS * c + _MIX_SIN * s)
    diag = q.conj().T @ mat @ q
    off = np.abs(diag)
    off.flat[::d + 1] = 0.0  # the diagonal
    if off.max() <= 1e-10:
        basis, lam = q, diag.diagonal()
    else:
        basis = simultaneous_eigenbasis([c, s])
        lam = (basis.conj().T @ mat @ basis).diagonal()
    resid = np.abs(mat @ basis - basis * lam).max()
    if resid > tol.comparison:
        raise ValueError(f"eigendecomposition residual {resid:.3e}")

    # np.angle without its wrapper, and np.mod as its operator
    phases = np.arctan2(lam.imag, lam.real) % (2 * np.pi)
    phases[phases > 2 * np.pi - 1e-12] = 0.0
    order = phases.argsort(kind="stable")
    return phases[order], basis[:, order]


# -----------------------------------------------------------------------------
# Random sampling
# -----------------------------------------------------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryOperator:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got dim={dim}")
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity of QR so the distribution is Haar
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return UnitaryOperator(q * ph[None, :])
