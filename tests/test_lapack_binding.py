"""The direct LAPACK binding in ``qcore`` and the kernels that run on it.

Each kernel is compared byte for byte with a test-local copy of its plain
numpy formulation (``np.linalg.eigh``, ``eigvalsh``, ``qr`` and ``norm``
through their wrappers), on the inputs the deciders give it and on the
inputs that take its error paths; an error must carry the same type and
message.  The set constructor, which stacks each party's factors for the
unitarity rule, is compared the same way with the item-by-item loop.
"""

import warnings

import numpy as np
import pytest

from unidisc.eigdist import pair_distinguishable
from unidisc.probefeas import _project_density, purify_witness
from unidisc.protocols import ProductUnitarySet, _orthonormalize_states
from unidisc.qcore import (
    DEFAULT_TOL,
    DensityOperator,
    StateVector,
    UnitaryOperator,
    _eigh_c,
    _eigvalsh_c,
    _lapack,
    _near_unitaries,
    _nearest_unitary,
    _qr_c,
    _raise_nonconvergence,
    _raise_qr,
    as_matrix,
    check_povm,
    eig_unitary,
    haar_unitary,
    projector,
    simultaneous_eigenbasis,
)

# -----------------------------------------------------------------------------
# The plain numpy formulations
# -----------------------------------------------------------------------------

_MIX_ANGLE = 0.7390851332151607


def _plain_eig_unitary(mat, tol=DEFAULT_TOL):
    mat = as_matrix(mat)
    d = mat.shape[0]
    adj = mat.conj().T
    c = (mat + adj) / 2
    s = (mat - adj) / 2j
    _, q = np.linalg.eigh(np.cos(_MIX_ANGLE) * c + np.sin(_MIX_ANGLE) * s)
    diag = q.conj().T @ mat @ q
    off = np.abs(diag)
    off.flat[::d + 1] = 0.0
    if off.max() <= 1e-10:
        basis, lam = q, diag.diagonal()
    else:
        basis = simultaneous_eigenbasis([c, s])
        lam = (basis.conj().T @ mat @ basis).diagonal()
    resid = np.abs(mat @ basis - basis * lam).max()
    if resid > tol.comparison:
        raise ValueError(f"eigendecomposition residual {resid:.3e}")
    phases = np.mod(np.angle(lam), 2 * np.pi)
    phases[phases > 2 * np.pi - 1e-12] = 0.0
    order = np.argsort(phases, kind="stable")
    return phases[order], basis[:, order]


def _plain_near_unitaries(columns, message):
    stacks = [np.array(c) for c in columns]
    if not len(stacks[0]):
        return [(tuple(c), s) for c, s in zip(columns, stacks)]
    with np.errstate(over="ignore", invalid="ignore"):
        errs = [np.abs(s.conj().transpose(0, 2, 1) @ s - np.eye(s.shape[1])).max(axis=(1, 2))
                .tolist() for s in stacks]
    for k, ek in enumerate(zip(*errs)):
        if not all(e <= 1e-8 for e in ek):
            raise ValueError(message(k, float(np.max(ek))))
    out = []
    for c, s, err in zip(columns, stacks, errs):
        c = list(c)
        for i, e in enumerate(err):
            if e > 1e-12:
                c[i] = s[i] = _nearest_unitary(s[i])
        out.append((tuple(c), s))
    return out


def _plain_check_povm(povm, dim, what="POVM"):
    mats = []
    for k, m in enumerate(povm):
        m = as_matrix(m)
        if m.shape != (dim, dim):
            raise ValueError(f"{what}: element {k} has shape {m.shape}, expected {(dim, dim)}")
        mats.append(m)
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
    err = float(np.abs(sum(mats) - np.eye(dim)).max())
    if err > 1e-8:
        raise ValueError(f"{what}: completeness violated by {err:.3e}")
    return tuple(mats)


def _plain_density(m):
    m = as_matrix(m)
    adj = m.conj().T
    herm = np.abs(m - adj).max()
    if herm > 1e-10:
        raise ValueError(f"not Hermitian: max |rho - rho+| = {herm:.3e}")
    tr = m.trace()
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"trace is {tr.real:.12g}, expected 1")
    lo = np.linalg.eigvalsh((m + adj) / 2).min()
    if lo < -1e-10:
        raise ValueError(f"negative eigenvalue {lo:.3e}")
    return m


def _plain_unit(v):
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ValueError("cannot normalize a (near-)zero vector")
    return v / n


def _plain_orthonormalize(states):
    q, r = np.linalg.qr(np.column_stack(states))
    for k in range(len(states)):
        piv = r[k, k]
        if abs(piv) < 1e-12:
            raise ValueError("states are not linearly independent")
        q[:, k] *= piv / abs(piv)
    return [q[:, k] for k in range(len(states))]


def _plain_project_density(x):
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    u = w[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(u) + 1)
    k = np.flatnonzero(u - css / idx > 0)[-1]
    w = np.maximum(w - css[k] / idx[k], 0.0)
    return (v * w) @ v.conj().T


def _plain_purification(rho):
    w, v = np.linalg.eigh(rho)
    keep = [i for i in range(len(w)) if w[i] > 1e-12]
    keep.reverse()
    amp = np.zeros((rho.shape[0], len(keep)), dtype=complex)
    for slot, i in enumerate(keep):
        amp[:, slot] += np.sqrt(w[i]) * v[:, i]
    return StateVector(amp.reshape(-1)), len(keep)


# -----------------------------------------------------------------------------
# Comparison helpers and inputs
# -----------------------------------------------------------------------------


def _outcome(f, *args):
    """``f(*args)``, or the type and message of the error it raised."""
    try:
        return f(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def _flat(x):
    """Every array in a nested result, as (dtype, shape, bytes); other
    leaves as they are."""
    if isinstance(x, np.ndarray):
        return [(x.dtype.str, x.shape, x.tobytes())]
    if isinstance(x, (tuple, list)):
        return [leaf for item in x for leaf in _flat(item)]
    if isinstance(x, StateVector):
        return _flat(x.amplitudes)
    return [x]


def _assert_same(got, want):
    assert _flat(got) == _flat(want)


def _noise(rng, shape, scale):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _mixing_degenerate(rng, d):
    """A unitary whose phases t +- 0.4 sit symmetrically about the mixing
    angle t, so the mixed Hermitian part is degenerate."""
    t = _MIX_ANGLE
    v = haar_unitary(d, rng).matrix
    phases = np.concatenate([[t + 0.4, t - 0.4], rng.uniform(0, 2 * np.pi, d - 2)])
    return v @ np.diag(np.exp(1j * phases)) @ v.conj().T


def _unitaries(rng):
    mats = [haar_unitary(d, rng).matrix for d in (2, 3, 4, 9) for _ in range(40)]
    for d in (1, 2, 3, 4, 9):
        # diagonal spectra with repeats, which the mixing cannot split
        mats += [np.diag(np.exp(1j * rng.choice([0.0, np.pi / 2, np.pi, 1.3], d)))
                 for _ in range(10)]
    mats += [_mixing_degenerate(rng, d) for d in (2, 3, 4) for _ in range(10)]
    # products with a repeated factor spectrum: degenerate in every mixing
    mats += [np.kron(haar_unitary(2, rng).matrix, np.diag([1.0, -1.0])) for _ in range(10)]
    # near-unitary factors, some off by more than the residual bound
    mats += [haar_unitary(d, rng).matrix + _noise(rng, (d, d), scale)
             for d in (2, 4) for scale in (1e-14, 1e-11, 1e-9, 1e-7) for _ in range(5)]
    return mats


# -----------------------------------------------------------------------------
# The kernels, byte for byte
# -----------------------------------------------------------------------------


def test_eig_unitary_matches_plain_bytes():
    failed = 0
    rng = np.random.default_rng(2718)
    for mat in _unitaries(rng):
        want = _outcome(_plain_eig_unitary, mat)
        _assert_same(_outcome(eig_unitary, mat), want)
        failed += want[0] is ValueError
    # the near-unitary inputs off by 1e-7 fail the residual check
    assert failed > 0


def test_eig_unitary_takes_the_refinement_branch(monkeypatch):
    import unidisc.qcore as qcore

    calls = []

    def spy(ops):
        calls.append(len(ops))
        return simultaneous_eigenbasis(ops)

    monkeypatch.setattr(qcore, "simultaneous_eigenbasis", spy)
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        mat = _mixing_degenerate(rng, d)
        _assert_same(eig_unitary(mat), _plain_eig_unitary(mat))
    assert calls == [2, 2, 2]


def _message(k, err):
    return f"item {k}: {err:.6e}"


def _columns(rng):
    """Columns of one and two matrices: exact, polar-replaced, failing at
    different indices, and NaN in either column."""
    exact = [haar_unitary(2, rng).matrix for _ in range(4)]
    near = [u + _noise(rng, (2, 2), 3e-10) for u in exact]
    far = [u + _noise(rng, (2, 2), 1e-6) for u in exact]
    third = [haar_unitary(3, rng).matrix for _ in range(4)]
    nan = np.full((3, 3), np.nan, dtype=complex)
    return [
        ([],),
        (exact,),
        (near,),
        (exact[:2] + near[2:], third),
        (exact[:1] + far[1:],),
        (exact[:3] + far[3:], third[:2] + [3 * third[2]] + third[3:]),
        (near, third[:1] + [nan] + third[2:]),
        ([nan[:2, :2]] + exact[1:], third),
    ]


def test_near_unitaries_matches_plain_bytes():
    rng = np.random.default_rng(99)
    for columns in _columns(rng):
        got = _outcome(_near_unitaries, [list(c) for c in columns], _message)
        _assert_same(got, _outcome(_plain_near_unitaries, [list(c) for c in columns], _message))


def test_near_unitaries_names_the_first_failing_index():
    rng = np.random.default_rng(3)
    got = _outcome(_near_unitaries, _columns(rng)[5], _message)
    assert got[0] is ValueError and got[1].startswith("item 2: ")


# -----------------------------------------------------------------------------
# The set constructor, which stacks each party's factors for the rule
# -----------------------------------------------------------------------------

def _plain_matrix(m):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def _plain_set(dims, items):
    """A set's items accepted one by one: each item's type and shape up to
    the first fault, then the unitarity of the items before it, then that
    fault; the labels and factors of an accepted set."""
    if not items:
        raise ValueError("a set needs at least one item")
    da, db = dims
    if da < 1 or db < 1:
        raise ValueError(f"party dimensions must be positive, got {dims}")
    valid, held = [], None
    for entry in items:
        try:
            label, a, b = entry
            a, b = _plain_matrix(a), _plain_matrix(b)
            if a.shape != (da, da) or b.shape != (db, db):
                raise ValueError(f"item {label!r}: factor shapes {a.shape}, {b.shape} "
                                 f"do not match party dims {dims}")
            valid.append((str(label), a, b))
        except ValueError as exc:
            held = exc
            break
    (fa, _), (fb, _) = _plain_near_unitaries(
        ([a for _, a, _ in valid], [b for _, _, b in valid]),
        lambda k, _: f"item {items[k][0]!r}: factor is not unitary")
    if held is not None:
        raise held
    return tuple(zip([label for label, _, _ in valid], fa, fb))


def _set_outcome(make, dims, items):
    try:
        return make(dims, items)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _real_unitary(rng, d):
    """A signed permutation matrix, as int, float or nested-list input."""
    m = np.eye(d, dtype=int)[rng.permutation(d)] * rng.choice([-1, 1], d)
    return [m, m.astype(float), m.tolist()][rng.integers(3)]


def _factor(rng, d):
    """A unitary of dimension d in one of the forms a caller gives: a complex
    array exact to rounding or off by about 1e-9 (kept as its polar factor),
    a complex nested list, or a real matrix."""
    u = haar_unitary(d, rng).matrix
    return [u, u + _noise(rng, (d, d), 3e-10), u.tolist(), _real_unitary(rng, d)][
        rng.integers(4)]


_FAULTS = {
    "nan": lambda u, d: np.where(np.eye(d, dtype=bool), np.asarray(u, dtype=complex), np.nan),
    "inf": lambda u, d: np.full((d, d), np.inf),
    "1-D": lambda u, d: np.ones(d, dtype=complex),
    "shape": lambda u, d: np.eye(d + 1, dtype=complex),
    "string": lambda u, d: [["x"] * d] * d,
    "ragged": lambda u, d: [[1.0] * d] + [[1.0] * (d + 1)] * (d - 1),
    "not unitary": lambda u, d: 2 * np.asarray(u, dtype=complex),
    "object": lambda u, d: object(),
}


def _set_cases(rng):
    """(dims, items): accepted sets in every party-dimension mix, and each
    fault at one item, alone and with a factor that is not unitary at an
    earlier or a later item."""
    cases = [((2, 2), []), ((0, 2), [("a", np.eye(1), np.eye(2))])]
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for m in (1, 2, 4):
            for _ in range(6):
                cases.append((dims, [(f"U{i}", _factor(rng, dims[0]), _factor(rng, dims[1]))
                                     for i in range(m)]))
    for dims in ((2, 2), (2, 3)):
        for fault in _FAULTS:
            for other in (None, "before", "after"):
                for _ in range(4):
                    items = [[f"U{i}", _factor(rng, dims[0]), _factor(rng, dims[1])]
                             for i in range(4)]
                    k = int(rng.integers(1, 3))
                    side = int(rng.integers(2))
                    items[k][1 + side] = _FAULTS[fault](items[k][1 + side], dims[side])
                    if other is not None:
                        j = k - 1 if other == "before" else k + 1
                        side = int(rng.integers(2))
                        items[j][1 + side] = _FAULTS["not unitary"](items[j][1 + side],
                                                                    dims[side])
                    cases.append((dims, [tuple(it) for it in items]))
    # an entry that is not a triple, and a label that is not a string
    u = np.eye(2, dtype=complex)
    cases += [((2, 2), [("a", u, u), ("b", u)]), ((2, 2), [(7, u, u), (8, 2 * u, u)])]
    return cases


def test_set_acceptance_matches_the_per_item_loop():
    # accepted sets hold the factors the per-item loop holds, byte for byte,
    # each the caller's array or one of its own (the polar factor of a
    # complex array off by 1e-12 to 1e-8); faulty sets raise its error
    rng = np.random.default_rng(33)
    outcomes, swapped = set(), 0
    for dims, items in _set_cases(rng):
        want = _set_outcome(_plain_set, dims, items)
        got = _set_outcome(lambda d, it: ProductUnitarySet(d, it).items, dims, items)
        _assert_same(got, want)
        outcomes.add(want[0] if isinstance(want[0], type) else "accepted")
        if want[0] is ValueError or want[0] is TypeError:
            continue
        given = [f for _, a, b in items for f in (a, b)]
        for kept, plain, f in zip((f for _, a, b in got for f in (a, b)),
                                  (f for _, a, b in want for f in (a, b)), given):
            assert (kept is f) == (plain is f)
            assert kept is f or kept.base is None
            swapped += type(f) is np.ndarray and f.dtype == complex and kept is not f
    assert outcomes == {"accepted", ValueError, TypeError}
    assert swapped > 0


def _povms(rng):
    out = []
    for d in (2, 3, 4, 6):
        u = haar_unitary(d, rng).matrix
        projectors = [np.outer(u[:, k], u[:, k].conj()) for k in range(d)]
        out.append((projectors, d))
        out.append(([projectors[0], np.eye(d) - projectors[0]], d))
        a = _noise(rng, (d, d), 1.0)
        h = a @ a.conj().T
        h = h / (1.5 * np.linalg.eigvalsh(h)[-1])
        out.append(([h, np.eye(d) - h], d))
        out.append(([h, np.eye(d) - h + 1e-12 * np.eye(d)], d))
        out.append(([h, np.eye(d) - 2 * h], d))  # a negative eigenvalue
        out.append(([h + 1e-6 * a, np.eye(d) - h], d))  # not Hermitian
        out.append(([h, np.eye(d) - h + 1e-7 * np.eye(d)], d))  # incomplete
        out.append(([h, np.eye(d + 1)], d))  # wrong shape
    return out


def test_check_povm_matches_plain_bytes():
    rng = np.random.default_rng(41)
    for povm, d in _povms(rng):
        _assert_same(_outcome(check_povm, povm, d), _outcome(_plain_check_povm, povm, d))


def test_density_operator_matches_plain_bytes():
    rng = np.random.default_rng(43)
    for d in (1, 2, 3, 4, 9):
        for rank in range(1, d + 1):
            a = _noise(rng, (d, rank), 1.0)
            rho = a @ a.conj().T
            for m in (rho / np.trace(rho), rho / np.trace(rho) - 1e-6 * np.eye(d) / d,
                      rho / np.trace(rho) + 1e-9 * np.eye(d), rho / np.trace(rho)
                      - 1e-8 * np.outer(a[:, 0], a[:, 0].conj()) / np.vdot(a[:, 0], a[:, 0])):
                want = _outcome(_plain_density, m)
                got = _outcome(lambda x: DensityOperator(x).matrix, m)
                _assert_same(got, want)


def test_state_vector_and_projector_match_plain_bytes():
    rng = np.random.default_rng(47)
    for d in (1, 2, 3, 4, 9, 16, 36):
        for scale in (1.0, 1e-6, 1e3):
            v = _noise(rng, d, scale)
            # a strided view, as an eigenvector column is
            column = _noise(rng, (d, 3), scale)[:, 1]
            for x in (v, column):
                _assert_same(StateVector(x).amplitudes, _plain_unit(x))
                want = _plain_unit(x)
                _assert_same(projector(x), np.outer(want, want.conj()))
    with pytest.raises(ValueError, match="near-"):
        StateVector(np.full(3, 1e-13))


def test_orthonormalize_states_matches_plain_bytes():
    rng = np.random.default_rng(53)
    for d in (2, 3, 4, 8, 9, 18):
        for n in range(1, min(d, 4) + 1):
            u = haar_unitary(d, rng).matrix
            states = [u[:, k] + _noise(rng, d, 1e-9) for k in range(n)]
            _assert_same(_outcome(_orthonormalize_states, states),
                         _outcome(_plain_orthonormalize, states))
    dependent = [np.array([1.0, 0.0], dtype=complex), np.array([1.0, 0.0], dtype=complex)]
    got = _outcome(_orthonormalize_states, dependent)
    assert got == _outcome(_plain_orthonormalize, dependent)
    assert got == (ValueError, "states are not linearly independent")


def test_project_density_matches_plain_bytes():
    rng = np.random.default_rng(59)
    for d in (2, 3, 4, 6, 9):
        for _ in range(20):
            x = _noise(rng, (d, d), 1.0)
            _assert_same(_project_density(x), _plain_project_density(x))


def _witnesses(rng):
    for d in (1, 2, 3, 4, 9):
        for rank in range(1, d + 1):
            a = _noise(rng, (d, rank), 1.0)
            rho = a @ a.conj().T
            yield rho / np.trace(rho)
        # diagonal and block-diagonal witnesses, whose eigenvectors can
        # carry signed zeros
        for _ in range(10):
            yield np.diag(rng.dirichlet(np.ones(d))).astype(complex)
            a = _noise(rng, (2, 2), 1.0)
            yield np.kron(a @ a.conj().T / np.vdot(a, a).real, np.diag(rng.dirichlet(np.ones(d))))


def test_purify_witness_matches_plain_bytes():
    rng = np.random.default_rng(61)
    for rho in _witnesses(rng):
        witness = DensityOperator(rho)
        state, r = purify_witness(witness)
        want_state, want_r = _plain_purification(witness.matrix)
        assert r == want_r and type(r) is int
        _assert_same(state, want_state)


# -----------------------------------------------------------------------------
# The binding itself
# -----------------------------------------------------------------------------


def test_binding_matches_the_wrappers_on_stacks():
    rng = np.random.default_rng(67)
    h = _noise(rng, (5, 4, 4), 1.0)
    h = h + h.conj().transpose(0, 2, 1)
    _assert_same(_eigh_c(h), tuple(np.linalg.eigh(h)))
    _assert_same(_eigvalsh_c(h), np.linalg.eigvalsh(h))
    for shape in ((4, 4), (6, 3), (9, 2)):
        a = _noise(rng, shape, 1.0)
        q, f = _qr_c(a)
        want_q, want_r = np.linalg.qr(a)
        _assert_same((q, np.triu(f[:shape[1]])), (want_q, want_r))


def test_nan_raises_the_wrappers_linalg_error():
    # a full NaN matrix fails LAPACK's eigensolver; np.linalg.eigh raises
    nan = np.full((4, 4), np.nan, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.eigh(nan)
    for f in (_eigh_c, _eigvalsh_c):
        with pytest.raises(np.linalg.LinAlgError) as got:
            f(nan)
        assert str(got.value) == str(want.value) == "Eigenvalues did not converge"


def test_nan_qr_behaves_as_the_wrapper():
    # LAPACK's QR takes NaN input without an error flag, so np.linalg.qr
    # returns NaN factors rather than raising, and so does the binding
    nan = np.full((3, 2), np.nan, dtype=complex)
    q, f = _qr_c(nan)
    want_q, want_r = np.linalg.qr(nan)
    _assert_same((q, np.triu(f[:2])), (want_q, want_r))


@pytest.mark.parametrize("raiser, message", [
    (_raise_nonconvergence, "Eigenvalues did not converge"),
    (_raise_qr, "Incorrect argument found while performing QR factorization"),
])
def test_a_flagged_call_raises_the_wrappers_message(raiser, message):
    # the gufuncs report a LAPACK failure by the invalid flag, which the
    # binding's floating-point state turns into the wrapper's LinAlgError
    with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
        _lapack(np.sqrt, raiser, np.array(-1.0), signature="d->d")


def test_no_runtime_warning_from_huge_finite_factors():
    huge = 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryOperator(huge)
        with pytest.raises(ValueError, match="u1 is not unitary"):
            pair_distinguishable(huge, np.eye(2))
        with pytest.raises(ValueError, match="factor is not unitary"):
            ProductUnitarySet((2, 2), (("a", huge, np.eye(2)), ("b", np.eye(2), np.eye(2))))
        with pytest.raises(ValueError, match="item 0"):
            _near_unitaries(([huge * 1e108, np.eye(2)],), _message)
        # the eigensolver scales huge Hermitian input itself
        w = _eigvalsh_c(np.full((3, 3), 1e307, dtype=complex))
        assert np.isfinite(w).all()
