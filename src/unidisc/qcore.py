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

from dataclasses import dataclass, fields, is_dataclass
from functools import partial

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "UnitaryOperator",
    "DensityOperator",
    "StateVector",
    "as_matrix",
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
    """Numerical tolerance of the deciders.

    comparison : bound when comparing computed against expected quantities,
        and a tenth of it bounds a pair probe's evolved overlap

    It does not move which matrices are accepted as unitary: that is the one
    rule of :func:`_near_unitaries`.  It must be finite and positive: a NaN
    bound makes every comparison false and an infinite one makes every
    comparison true.
    """

    comparison: float = 1e-9

    def __post_init__(self):
        if not 0 < self.comparison < float("inf"):
            raise ValueError(
                f"tolerance comparison must be finite and positive, got {self.comparison}")


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


# -----------------------------------------------------------------------------
# LAPACK binding
# -----------------------------------------------------------------------------
# On matrices this small a ``np.linalg`` wrapper costs more than its LAPACK call, so
# the kernels call its gufunc (numpy's private ``_umath_linalg``) on complex128 input,
# with its signature and floating-point state: the same bytes and ``LinAlgError``.

def _raise_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _raise_qr(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def _lapack(gufunc, raiser, *args, signature):
    with np.errstate(call=raiser, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return gufunc(*args, signature=signature)


#: ``zheevd`` on the lower triangle; the seesaw loop enters its own ``errstate``
_eigh = _umath_linalg.eigh_lo
_eigh_c = partial(_lapack, _eigh, _raise_nonconvergence, signature="D->dD")
_eigvalsh_c = partial(_lapack, _umath_linalg.eigvalsh_lo, _raise_nonconvergence, signature="D->d")


def _qr_c(a):
    """``np.linalg.qr(a)`` as ``(q, f)``, with ``r`` the upper triangle of ``f``."""
    f = a.astype(complex)
    tau = _lapack(_umath_linalg.qr_r_raw, _raise_qr, f, signature="D->D")
    return _lapack(_umath_linalg.qr_reduced, _raise_qr, f, tau, signature="DD->D"), f


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


def _nearest_unitary(mat: np.ndarray) -> np.ndarray:
    """The polar factor ``u vh`` of ``mat``'s SVD, its nearest unitary."""
    u, _, vh = np.linalg.svd(mat)
    return u @ vh


def _near_unitaries(columns, message, stacks=None):
    """Accept matrices from outside the package as unitaries: each may be
    up to 1e-8 off (the largest entry of ``U^dag U - 1``), and one off by
    more than rounding (1e-12) is kept as its :func:`_nearest_unitary`, so
    that it decomposes like an exact unitary.

    ``columns`` are equally long sequences of square matrices (``stacks``
    their stacks, if the caller has them); columns of one shape take one
    batched product together, and otherwise one each.  Raises
    ``ValueError(message(k, err))`` for the first index k at which some
    column is more than 1e-8 off, by ``err`` (a NaN deviation is off).
    Returns, per column, the accepted matrices as a tuple."""
    stacks = stacks or [np.array(c) for c in columns]
    n = len(stacks[0])
    if not n:
        return [tuple(c) for c in columns]
    joint = len(stacks) > 1 and len({s.shape for s in stacks}) == 1
    errs = []  # per column
    # an overflow gives inf or NaN, which fails below: the error is the only report
    with np.errstate(over="ignore", invalid="ignore"):
        for s in [np.concatenate(stacks)] if joint else stacks:
            p = s.conj().mT @ s
            p.reshape(len(s), -1)[:, ::s.shape[1] + 1] -= 1  # U^dag U - 1, on the diagonal
            errs += np.abs(p).max(axis=(1, 2)).reshape(-1, n).tolist()
    out = [list(c) for c in columns]
    for k, ek in enumerate(zip(*errs)):
        if not all(e <= 1e-8 for e in ek):  # NaN fails too
            raise ValueError(message(k, float(np.max(ek))))
        for j, e in enumerate(ek):
            if e > 1e-12:
                out[j][k] = _nearest_unitary(stacks[j][k])
    return [tuple(c) for c in out]


def _norm(v):
    """The 2-norm of a 1-D complex ``v``, by the sum of its squared parts."""
    return np.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _unit(v) -> np.ndarray:
    """``v / np.linalg.norm(v)`` for a nonzero 1-D complex ``v``, by :func:`_norm`."""
    n = _norm(v)
    if n < 1e-12:
        raise ValueError("cannot normalize a (near-)zero vector")
    return v / n


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
    """A square matrix accepted by the one unitarity rule,
    :func:`_near_unitaries`: up to 1e-8 off, held as its polar factor past
    rounding, so unitary to rounding; :func:`haar_unitary` holds its draws unchecked."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"unitary must be square, got {m.shape}")
        ((m,),) = _near_unitaries(
            ([m],), lambda _, err: f"not unitary: max |U+U - 1| = {err:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# bound on a density operator's Hermiticity, trace and smallest eigenvalue
_DENSITY_TOL = 1e-10


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
        if herm > _DENSITY_TOL:
            raise ValueError(f"not Hermitian: max |rho - rho+| = {herm:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > _DENSITY_TOL:
            raise ValueError(f"trace is {tr.real:.12g}, expected 1")
        lo = _eigvalsh_c((m + adj) / 2).min()
        if lo < -_DENSITY_TOL:
            raise ValueError(f"negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class StateVector:
    """A pure state; the constructor normalizes, so its norm is 1 to rounding."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _unit(_as_vector(self.amplitudes)))

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
    """|psi><psi| as a plain array, for a state or a nonzero vector."""
    v = _unit(psi.amplitudes if isinstance(psi, StateVector) else _as_vector(psi))
    return v[:, None] * v.conj()[None, :]  # np.outer, unwrapped


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` is an
    iterable of subsystem indices to retain (order preserved as given).
    """
    m = rho.matrix if isinstance(rho, DensityOperator) else as_matrix(rho)
    dims, keep = list(dims), list(keep)
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in dims + keep):
        raise ValueError(f"dims {dims} and keep indices {keep} must be integers")
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
            w, q = _eigh_c(comp)
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


def eig_unitary(u, tol: Tolerances = DEFAULT_TOL):
    """Eigenphases and eigenvectors of a unitary.

    Returns ``(phases, vectors)`` with phases in ``[0, 2*pi)`` sorted
    ascending and ``vectors[:, j]`` the eigenvector for ``phases[j]``.

    A unitary is normal, so its Hermitian part (U+U+)/2 and anti-Hermitian
    part (U-U+)/2i commute; a generic real combination of the two usually
    separates all eigenvectors in one shot, by one ``eigh`` through the LAPACK
    binding.  Degenerate combinations are refined with both parts blockwise.

    It decomposes the matrix it is given: a :class:`UnitaryOperator`, or an
    array accepted by :func:`_near_unitaries` or built from accepted ones.
    Only the decomposition is checked: its residual (a NaN residual fails),
    and then each eigenvalue's modulus, which must lie within 1e-8 of 1.
    """
    mat = u.matrix if isinstance(u, UnitaryOperator) else as_matrix(u)
    d = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("unitary must be square")
    adj = mat.conj().T
    # entries near the float limit overflow here; the fallback rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        c = (mat + adj) / 2
        s = (mat - adj) / 2j
        mix = _MIX_COS * c + _MIX_SIN * s
    _, q = _eigh_c(mix)
    diag = q.conj().T @ mat @ q
    off = np.abs(diag)
    off.flat[::d + 1] = 0.0  # the diagonal
    if off.max() <= 1e-10:
        basis, lam = q, diag.diagonal()
    else:
        if not np.isfinite(mix).all():
            raise ValueError("Hermitian parts overflow: entries too large for a unitary")
        basis = simultaneous_eigenbasis([c, s])
        lam = (basis.conj().T @ mat @ basis).diagonal()
    resid = np.abs(mat @ basis - basis * lam).max()
    if not resid <= tol.comparison:  # NaN fails too
        raise ValueError(f"eigendecomposition residual {resid:.3e}")
    mod = np.abs(lam)
    worst = np.abs(mod - 1.0).argmax()
    if abs(mod[worst] - 1.0) > 1e-8:
        raise ValueError(f"eigenvalue modulus {mod[worst]:.12g}, expected 1")

    # np.angle without its wrapper, and np.mod as its operator
    phases = np.arctan2(lam.imag, lam.real) % (2 * np.pi)
    phases[phases > 2 * np.pi - 1e-12] = 0.0
    order = phases.argsort(kind="stable")
    return phases[order], basis[:, order]


# -----------------------------------------------------------------------------
# The store
# -----------------------------------------------------------------------------
# The spectra and pair criteria of :func:`~unidisc.eigdist._spectrum` (which
# the analysis tables, the probe solver and the public pair kernels read) and
# the other sub-problem entries of :class:`~unidisc.protocols.SetAnalysis`,
# the GDR problem's included, are pure functions of the bytes they read, so
# they are computed once per process and shared, read-only.

# the store is emptied when it holds this many entries.  A spectrum or a pair
# criterion of a qubit relative takes about 0.8 KB with its key, one of
# dimension 4 about 1.1 KB; an audit's entries average about 1.9 KB, and
# auditing the first 1000 ``random_qubit_set`` draws of rng 0 leaves 1491, so
# a full store holds about 2-4 MB
_STORE_CAP = 2048
_store = {}  # the shared entries, by (tolerances, kind, bytes)
# the values stored since the store was last empty, by id: read-only already,
# so an entry that holds one (a spectrum holds its pair criterion) skips it
_held = {}
_field_names = {}  # type -> the names of its fields, none unless a dataclass


def _read_only(value):
    """``value``, with every array it holds, through tuples and dataclass
    fields, made read-only; a tuple's ``states`` too (the projective
    measurement's).  A value of ``_held`` is not walked again."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif _held.get(id(value)) is value:
        pass
    elif isinstance(value, tuple):
        for v in value:
            _read_only(v)
        if isinstance(getattr(value, "states", None), np.ndarray):
            value.states.setflags(write=False)
    else:
        names = _field_names.get(type(value))
        if names is None:
            names = _field_names[type(value)] = (
                tuple(f.name for f in fields(value)) if is_dataclass(value) else ())
        for name in names:
            _read_only(getattr(value, name))
    return value


def _stored(key, compute):
    """The entry of the store under ``key``, computed on first request with
    its arrays made read-only; a full store is emptied before it takes one
    more."""
    if key not in _store:
        if not _store:  # emptied, here or by a caller
            _held.clear()
        value = _read_only(compute())
        if len(_store) >= _STORE_CAP:
            _store.clear()
            _held.clear()
        _store[key] = _held[id(value)] = value
    return _store[key]


# -----------------------------------------------------------------------------
# Random sampling
# -----------------------------------------------------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryOperator:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got dim={dim}")
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, f = _qr_c(z)
    # fix the phase ambiguity of QR so the distribution is Haar
    ph = f.diagonal() / np.abs(f.diagonal())
    u = object.__new__(UnitaryOperator)  # unitary by construction: held unchecked
    object.__setattr__(u, "matrix", q * ph[None, :])
    return u
