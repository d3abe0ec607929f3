"""Core operator and state types, tensor plumbing, unitary spectra."""

import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from unidisc.qcore import (
    DEFAULT_TOL,
    DensityOperator,
    StateVector,
    Tolerances,
    UnitaryOperator,
    _kron,
    _near_unitaries,
    _nearest_unitary,
    as_matrix,
    check_povm,
    eig_unitary,
    haar_unitary,
    partial_trace,
    projector,
    simultaneous_eigenbasis,
)


def test_tolerance_defaults():
    t = Tolerances()
    assert t.comparison == 1e-9
    assert DEFAULT_TOL == t
    # one tolerance, and the unitarity rule has no field: no tolerance moves it
    assert [f.name for f in fields(Tolerances)] == ["comparison"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-9])
def test_tolerances_reject_non_finite_or_non_positive(bad):
    with pytest.raises(ValueError, match="comparison must be finite and positive"):
        Tolerances(comparison=bad)


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])


# a non-finite real part, imaginary part, or both
NON_FINITE = [complex(float("nan"), 0.0), complex(0.0, float("inf")),
              complex(float("-inf"), float("nan"))]


@pytest.mark.parametrize("z", NON_FINITE)
def test_as_matrix_rejects_non_finite_part(z):
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[1.0, 0.0], [0.0, z]])


@pytest.mark.parametrize("z", NON_FINITE)
def test_state_vector_rejects_non_finite_part(z):
    with pytest.raises(ValueError, match="non-finite"):
        StateVector([1.0, z])


def test_as_matrix_keeps_finite_input_without_copy():
    m = np.array([[1.0, -0.0j], [1e300j, -1e-300]])
    assert as_matrix(m) is m


class TestUnitaryOperator:
    def test_accepts_unitary(self):
        u = UnitaryOperator(np.diag([1, 1j]))
        assert u.dim == 2
        assert u.matrix.dtype == complex

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            UnitaryOperator(np.ones((2, 3)))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))

    # the one rule of _near_unitaries, as sets, problems and pairs apply it

    def test_accepts_near_unitary_as_its_polar_factor(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]]) * (1 + 5e-9)
        u = UnitaryOperator(m)
        assert u.matrix.tobytes() == _nearest_unitary(m.astype(complex)).tobytes()
        assert np.abs(u.matrix.conj().T @ u.matrix - np.eye(2)).max() <= 1e-15

    def test_rejects_beyond_the_rule(self):
        with pytest.raises(ValueError, match=r"^not unitary: max \|U\+U - 1\| = 4\.000e-08$"):
            UnitaryOperator(np.eye(2) * (1 + 2e-8))

    def test_rejects_nan_deviation(self):
        # finite entries whose U{dag}U overflows, with inf - inf off the
        # diagonal: no comparison with NaN holds, so it must not pass
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryOperator(np.array([[1e200, 1e200], [1e200, 1e200j]]))

    def test_overflow_raises_only_the_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not unitary"):
                UnitaryOperator(1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_haar_keeps_the_qr_bytes(self, dim):
        # QR's factor is unitary to rounding, so it is held as computed
        z_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
        z = z_rng.normal(size=(dim, dim)) + 1j * z_rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        ph = np.diag(r) / np.abs(np.diag(r))
        assert haar_unitary(dim, rng).matrix.tobytes() == (q * ph[None, :]).tobytes()


class TestNearUnitaries:
    """The one rule for matrices from outside: up to 1e-8 off unitary, kept
    as given within rounding and as the polar factor beyond it."""

    def test_first_failing_index_over_all_columns(self):
        # column 0 fails at index 2, column 1 at index 1: index 1 is named
        cols = ([np.eye(2), np.eye(2), 2 * np.eye(2)], [np.eye(3), 3 * np.eye(3), np.eye(3)])
        with pytest.raises(ValueError, match=r"^1 8\.000e\+00$"):
            _near_unitaries(cols, lambda k, err: f"{k} {err:.3e}")

    def test_nan_deviation_fails(self):
        # no comparison with NaN holds, so a NaN deviation must not pass
        with pytest.raises(ValueError, match="^1 nan$"):
            _near_unitaries(([np.eye(2), np.full((2, 2), np.nan)],), lambda k, err: f"{k} {err}")

    def test_nan_in_a_later_column_fails(self):
        # exact matrices in the first column, a NaN deviation in the second:
        # the reduction over columns must not drop it
        with pytest.raises(ValueError, match="^1 nan$"):
            _near_unitaries(([np.eye(2), np.eye(2)], [np.eye(2), np.full((2, 2), np.nan)]),
                            lambda k, err: f"{k} {err}")


class TestDensityOperator:
    def test_accepts_maximally_mixed(self):
        rho = DensityOperator(np.eye(3) / 3)
        assert rho.dim == 3

    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(m)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError,
                           match=r"^density operator must be square, got \(2, 3\)$"):
            DensityOperator(np.ones((2, 3)) / 2)


class TestStateVector:
    def test_normalizes(self):
        psi = StateVector([3.0, 4.0])
        assert np.isclose(np.linalg.norm(psi.amplitudes), 1.0)
        assert np.isclose(psi.amplitudes[0], 0.6)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            StateVector([0.0, 0.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match=r"^expected a 1-D vector, got shape \(2, 1\)$"):
            StateVector([[1.0], [0.0]])

    def test_density_is_projector(self):
        psi = StateVector([1.0, 1j])
        rho = psi.density().matrix
        assert np.allclose(rho @ rho, rho)
        assert np.isclose(np.trace(rho), 1.0)


def test_apply_overlap_projector():
    psi = StateVector([1.0, 0.0])
    p = projector(psi)
    assert np.allclose(p, np.diag([1.0, 0.0]))


class TestPartialTrace:
    def _random_density(self, d, rng):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = g @ g.conj().T
        return m / np.trace(m)

    def test_product_state_splits(self):
        rng = np.random.default_rng(7)
        ra = self._random_density(2, rng)
        rb = self._random_density(3, rng)
        joint = np.kron(ra, rb)
        assert np.allclose(partial_trace(joint, (2, 3), keep=[0]), ra)
        assert np.allclose(partial_trace(joint, (2, 3), keep=[1]), rb)

    def test_einsum_oracle_three_parties(self):
        # independent contraction of the middle subsystem via einsum
        rng = np.random.default_rng(11)
        rho = self._random_density(2 * 3 * 2, rng)
        t = rho.reshape(2, 3, 2, 2, 3, 2)
        expect = np.einsum("ajkalm->jklm", t).reshape(6, 6)
        got = partial_trace(rho, (2, 3, 2), keep=[1, 2])
        assert np.allclose(got, expect)

    def test_keep_order_swaps_subsystems(self):
        rng = np.random.default_rng(13)
        ra = self._random_density(2, rng)
        rb = self._random_density(3, rng)
        joint = np.kron(ra, rb)
        swapped = partial_trace(joint, (2, 3), keep=[1, 0])
        assert np.allclose(swapped, np.kron(rb, ra))

    def test_trace_everything(self):
        rng = np.random.default_rng(17)
        rho = self._random_density(4, rng)
        full = partial_trace(rho, (2, 2), keep=[])
        assert np.isclose(full[0, 0], 1.0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, (2, 3), keep=[0])
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, (2, 2), keep=[0, 0])
        with pytest.raises(ValueError,
                           match=r"^keep indices \[0, 2\] out of range for 2 subsystems$"):
            partial_trace(np.eye(4) / 4, (2, 2), keep=[0, 2])
        with pytest.raises(ValueError, match=r"out of range"):
            partial_trace(np.eye(4) / 4, (2, 2), keep=[-1])


class TestEigUnitary:
    def test_reconstructs(self):
        rng = np.random.default_rng(23)
        u = haar_unitary(5, rng).matrix
        phases, vecs = eig_unitary(u)
        recon = vecs @ np.diag(np.exp(1j * phases)) @ vecs.conj().T
        assert np.max(np.abs(recon - u)) < 1e-9

    def test_phases_sorted_in_range(self):
        rng = np.random.default_rng(29)
        u = haar_unitary(6, rng).matrix
        phases, _ = eig_unitary(u)
        assert np.all(np.diff(phases) >= 0)
        assert phases[0] >= 0 and phases[-1] < 2 * np.pi

    def test_identity_degenerate(self):
        phases, vecs = eig_unitary(np.eye(4))
        assert np.allclose(phases, 0.0)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(4))

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        phases, vecs = eig_unitary(x)
        assert np.allclose(sorted(phases), [0.0, np.pi])
        for j in range(2):
            assert np.allclose(x @ vecs[:, j],
                               np.exp(1j * phases[j]) * vecs[:, j])

    @pytest.mark.parametrize("mat", [[[1e308, 1e308], [1e308, -1e308]],
                                     [[1e308, -1e308], [1e308, 1e308]],
                                     [[1e308j, 1e308], [-1e308, 1e308]]])
    def test_overflowing_hermitian_parts_raise_only_the_error(self, mat):
        # finite entries whose (U + U{dag})/2 or (U - U{dag})/2i overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Hermitian parts overflow: "
                                                 "entries too large for a unitary$"):
                eig_unitary(np.array(mat))

    @pytest.mark.parametrize("mat, modulus", [
        (np.diag([2.0, 1.0]), "2"),
        (np.diag([1e200, 1.0]), "1e+200"),
        (np.diag([1.0, 1j * (1 + 2e-8)]), "1.00000002"),
    ])
    def test_eigenvalue_off_the_unit_circle_named(self, mat, modulus):
        # the residual of a diagonal matrix is exactly 0; the modulus is not 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^eigenvalue modulus {re.escape(modulus)}, expected 1$"):
                eig_unitary(mat)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="^unitary must be square$"):
            eig_unitary(np.ones((2, 3)))

    def test_clustered_spectrum(self):
        # eigenvalues {1, 1, -1} force the blockwise rescue path to stay exact
        rng = np.random.default_rng(31)
        q = haar_unitary(3, rng).matrix
        u = q @ np.diag([1.0, 1.0, -1.0]) @ q.conj().T
        phases, vecs = eig_unitary(u)
        assert np.allclose(np.sort(phases), [0.0, 0.0, np.pi], atol=1e-9)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(3))) < 1e-9


# -----------------------------------------------------------------------------
# Bytes oracle: eig_unitary's decomposition as first written, with numpy's
# cos, sin, diag and angle helpers.  The trimmed routine must return the same
# bytes.
# -----------------------------------------------------------------------------

def _reference_eig_unitary(mat, tol=DEFAULT_TOL):
    d = mat.shape[0]
    adj = mat.conj().T
    c = (mat + adj) / 2
    s = (mat - adj) / 2j
    t = 0.7390851332151607
    w, q = np.linalg.eigh(np.cos(t) * c + np.sin(t) * s)
    diag = q.conj().T @ mat @ q
    off = np.abs(diag)
    off.flat[::d + 1] = 0.0
    if off.max() <= 1e-10:
        basis, lam = q, np.diag(diag)
    else:
        basis = simultaneous_eigenbasis([c, s])
        lam = np.diag(basis.conj().T @ mat @ basis)
    resid = np.abs(mat @ basis - basis * lam[None, :]).max()
    assert resid <= tol.comparison
    phases = np.mod(np.angle(lam), 2 * np.pi)
    phases[phases > 2 * np.pi - 1e-12] = 0.0
    order = np.argsort(phases, kind="stable")
    return phases[order], basis[:, order]


def _byte_oracle_matrices():
    rng = np.random.default_rng(12345)
    mats = [haar_unitary(d, rng).matrix for d in (2, 3, 4, 9) for _ in range(100)]
    for _ in range(100):
        d = int(rng.integers(1, 6))
        angles = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, rng.uniform(0, 7)]
        mats.append(np.diag(np.exp(1j * rng.choice(angles, d))))
    z = np.diag([1.0, -1.0]).astype(complex)
    for _ in range(100):
        a = haar_unitary(int(rng.integers(2, 4)), rng).matrix
        mats.append(np.kron(a, haar_unitary(2, rng).matrix if rng.random() < 0.5 else z))
    return mats


def _mixing_degenerate(rng):
    """A unitary whose phases t +- 0.4 sit symmetrically about the mixing
    angle t, so the mixed Hermitian part is degenerate and eig_unitary must
    refine with ``simultaneous_eigenbasis``."""
    t = 0.7390851332151607
    v = haar_unitary(3, rng).matrix
    return v @ np.diag(np.exp(1j * np.array([t + 0.4, t - 0.4, 2.5]))) @ v.conj().T


class TestEigUnitaryBytes:
    def test_matches_reference_bytes(self):
        for mat in _byte_oracle_matrices():
            want = _reference_eig_unitary(mat)
            got = eig_unitary(mat)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_refinement_matches_reference_bytes(self, monkeypatch):
        import unidisc.qcore as qcore

        refined = []

        def spy(ops):
            refined.append(1)
            return simultaneous_eigenbasis(ops)

        monkeypatch.setattr(qcore, "simultaneous_eigenbasis", spy)
        rng = np.random.default_rng(7)
        for _ in range(20):
            mat = _mixing_degenerate(rng)
            got = eig_unitary(mat)
            assert [a.tobytes() for a in got] == [
                a.tobytes() for a in _reference_eig_unitary(mat)]
        assert len(refined) == 20


class TestSimultaneousEigenbasis:
    def test_commuting_family(self):
        rng = np.random.default_rng(37)
        q = haar_unitary(4, rng).matrix
        h1 = q @ np.diag([1.0, 1.0, 2.0, 3.0]) @ q.conj().T
        h2 = q @ np.diag([5.0, -1.0, 0.5, 0.5]) @ q.conj().T
        basis = simultaneous_eigenbasis([h1, h2])
        for h in (h1, h2):
            off = basis.conj().T @ h @ basis
            off = off - np.diag(np.diag(off))
            assert np.max(np.abs(off)) < 1e-8

    def test_non_commuting_raises(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="commute"):
            simultaneous_eigenbasis([x, z])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            simultaneous_eigenbasis([])

    def test_two_sizes_raise(self):
        with pytest.raises(ValueError, match="^operators must share one dimension$"):
            simultaneous_eigenbasis([np.eye(2), np.eye(3)])


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(41)
        for d in (2, 3, 5):
            u = haar_unitary(d, rng).matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12

    def test_seed_reproducible(self):
        a = haar_unitary(3, np.random.default_rng(5)).matrix
        b = haar_unitary(3, np.random.default_rng(5)).matrix
        assert np.array_equal(a, b)

    def test_draws_differ(self):
        rng = np.random.default_rng(43)
        a = haar_unitary(3, rng).matrix
        b = haar_unitary(3, rng).matrix
        assert np.max(np.abs(a - b)) > 1e-3

    @pytest.mark.parametrize("dim", [0, -1])
    def test_rejects_non_positive_dimension(self, dim):
        with pytest.raises(ValueError, match=f"dimension must be positive, got dim={dim}"):
            haar_unitary(dim, np.random.default_rng(0))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_draws_hold_the_constructors_bytes(self, dim):
        # a draw is held past UnitaryOperator's check, so it must be what
        # that check would keep: the QR factor as computed, unitary to rounding
        z_rng, rng = np.random.default_rng(dim), np.random.default_rng(dim)
        for _ in range(500):
            z = z_rng.normal(size=(dim, dim)) + 1j * z_rng.normal(size=(dim, dim))
            q, r = np.linalg.qr(z)
            ph = np.diag(r) / np.abs(np.diag(r))
            u = haar_unitary(dim, rng)
            assert type(u) is UnitaryOperator
            assert u.matrix.tobytes() == UnitaryOperator(q * ph[None, :]).matrix.tobytes()
            assert np.abs(u.matrix.conj().T @ u.matrix - np.eye(dim)).max() <= 1e-12


def _signed_operand(shape, kind, rng):
    """Random entries of one dtype, with some parts set to +0.0 or -0.0."""
    a = rng.normal(size=shape)
    if kind == "complex":
        a = a + 1j * rng.normal(size=shape)
        a.imag[rng.random(shape) < 0.3] = -0.0
    a.real[rng.random(shape) < 0.3] = -0.0
    a.real[rng.random(shape) < 0.2] = 0.0
    return a


class TestKron:
    """``_kron`` computes the bytes of ``np.kron``, dtype promotion included."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kinds", [("complex", "complex"), ("real", "real"),
                                       ("complex", "real"), ("real", "complex")])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_matches_np_kron_bytes(self, n, kinds, ndim):
        rng = np.random.default_rng(n)
        for m in (1, 2, 3, 4):
            a = _signed_operand((n,) * ndim, kinds[0], rng)
            b = _signed_operand((m,) * ndim, kinds[1], rng)
            got, want = _kron(a, b), np.kron(a, b)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_identity_factor_bytes(self):
        # the ancilla embedding u (x) 1 of the protocol simulators
        u = _signed_operand((3, 3), "complex", np.random.default_rng(7))
        for r in (1, 2, 3):
            assert _kron(u, np.eye(r)).tobytes() == np.kron(u, np.eye(r)).tobytes()


class TestCheckPovm:
    def test_returns_complex_arrays(self):
        povm = check_povm(([[1, 0], [0, 0]], [[0, 0], [0, 1]]), 2)
        assert isinstance(povm, tuple) and len(povm) == 2
        for m in povm:
            assert isinstance(m, np.ndarray) and m.dtype == complex
        assert np.array_equal(povm[0], np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("povm, message", [
        ((), "empty"),
        ((np.eye(3),), "shape"),
        ((np.array([[0.5, 0.5], [0.0, 0.5]]), np.array([[0.5, 0.0], [0.0, 0.5]])),
         "Hermitian"),
        ((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])), "eigenvalue"),
        ((np.zeros((2, 2)),) * 2, "completeness"),
    ])
    def test_rejects(self, povm, message):
        with pytest.raises(ValueError, match=message):
            check_povm(povm, 2, "test POVM")

    NOT_PSD = np.diag([1.5, -0.5])
    NOT_HERMITIAN = np.array([[0.5, 0.5], [0.0, 0.5]])
    HALF = np.diag([0.5, 0.5])

    # with several faults, the first failing element is reported, and for it
    # the first failing check in the order shape, Hermiticity, eigenvalue
    @pytest.mark.parametrize("povm, message", [
        ((NOT_PSD, NOT_HERMITIAN), "test POVM: element 0 has eigenvalue -5.000e-01 < -1e-10"),
        ((NOT_HERMITIAN, NOT_PSD), "test POVM: element 0 is not Hermitian"),
        ((HALF, NOT_PSD, NOT_HERMITIAN), "test POVM: element 1 has eigenvalue -5.000e-01 < -1e-10"),
        ((NOT_PSD, np.eye(3)), "test POVM: element 0 has eigenvalue -5.000e-01 < -1e-10"),
        ((HALF, np.eye(3), NOT_HERMITIAN), "test POVM: element 1 has shape (3, 3), expected (2, 2)"),
        ((np.array([[-0.5, 1.0], [0.0, 0.5]]), HALF), "test POVM: element 0 is not Hermitian"),
        ((NOT_HERMITIAN, np.array([[np.nan, 0.0], [0.0, 1.0]])),
         "test POVM: element 0 is not Hermitian"),
        ((NOT_PSD, np.ones(2)), "test POVM: element 0 has eigenvalue -5.000e-01 < -1e-10"),
        ((HALF, HALF, HALF), "test POVM: completeness violated by 5.000e-01"),
    ])
    def test_reports_first_failure(self, povm, message):
        with pytest.raises(ValueError) as info:
            check_povm(povm, 2, "test POVM")
        assert str(info.value) == message

    def test_accepts_a_stack(self):
        povm = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        got = check_povm(np.stack(povm), 2)
        assert len(got) == 2
        assert all(np.array_equal(g, p) for g, p in zip(got, povm))
        with pytest.raises(ValueError, match="empty POVM"):
            check_povm(np.zeros((0, 2, 2)), 2)


class TestProjectorAndIndexInputs:
    @pytest.mark.parametrize("v", [np.zeros(2), np.full(3, 1e-13j)])
    def test_projector_rejects_a_near_zero_vector(self, v):
        # the bar and message of StateVector, with no NaN matrix or warning
        with pytest.raises(ValueError, match=r"cannot normalize a \(near-\)zero vector"):
            projector(v)

    def test_projector_keeps_the_outer_product_bytes(self):
        rng = np.random.default_rng(19)
        for d in (1, 2, 4, 9):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            u = v / np.linalg.norm(v)
            assert projector(v).tobytes() == np.outer(u, u.conj()).tobytes()
            psi = StateVector(v)
            u = psi.amplitudes / np.linalg.norm(psi.amplitudes)
            assert projector(psi).tobytes() == np.outer(u, u.conj()).tobytes()

    @pytest.mark.parametrize("dims, keep", [
        ([2, 2], [True]),
        ([2, 2], [np.bool_(False)]),
        ([2, 2], [0.0]),
        ([2, 2], [1.7]),
        ([2.0, 2], [0]),
        ([2.5, 2], [0]),
        ([True, 4], [1]),
    ])
    def test_partial_trace_rejects_bools_and_non_integers(self, dims, keep):
        with pytest.raises(ValueError, match="must be integers"):
            partial_trace(np.eye(4) / 4, dims, keep)

    def test_partial_trace_takes_numpy_integers_and_iterables(self):
        rho = np.kron(np.diag([0.25, 0.75]), np.eye(2) / 2)
        got = partial_trace(rho, np.array([2, 2]), (k for k in [np.int64(0)]))
        assert np.array_equal(got, np.diag([0.25, 0.75]))
