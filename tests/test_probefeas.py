"""Common-probe feasibility: eigenvalue hull, exact LP path, certificates,
projections."""

import json
from dataclasses import replace

import numpy as np
import pytest

from unidisc import probefeas
from unidisc.eigdist import pair_distinguishable
from unidisc.families import (
    PhasePairParams,
    pauli_hadamard_set,
    phase_pair_set,
    qutrit_quartet_set,
    random_qubit_set,
)
from unidisc.jsonio import certificate_from_json, dumps, feasibility_to_json, verdict_to_json
from unidisc.probefeas import (
    InfeasibilityCertificate,
    OrthogonalityProblem,
    ProbeFeasibility,
    _solve_by_projections,
    common_probe_feasible,
    purify_witness,
    verify_certificate,
)
from unidisc.protocols import (
    ProductUnitarySet,
    check_gdr,
    check_lda,
    gdr_problem,
    hierarchy_audit,
)
from unidisc.qcore import (
    DEFAULT_TOL,
    DensityOperator,
    UnitaryOperator,
    _nearest_unitary,
    haar_unitary,
    partial_trace,
)

W3 = np.exp(2j * np.pi / 3)
CLOCK = np.diag([1.0, W3, W3 * W3])
FLIP = np.diag([1.0, 1.0, -1.0])
X2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_diag_unitary(d, rng):
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=d)))


def gram_overlaps(witness, operators) -> list:
    """Tr(rho K) for each constraint operator (the evolved-state Gram
    entries of any purification of rho)."""
    rho = witness.matrix
    return [complex(np.trace(rho @ np.asarray(k, dtype=complex))) for k in operators]


class TestProblemValidation:
    # the public constructor is the one check on outside operators; the
    # problems a table poses skip it, so its messages are pinned here
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match=r"^constraint operator not unitary \(err 3\.000e\+00\)$"):
            OrthogonalityProblem(2, (np.array([[1.0, 0.0], [0.0, 2.0]]),))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"^operator shape \(2, 2\) does not match dim 3$"):
            OrthogonalityProblem(3, (np.eye(2),))

    def test_rejects_nan_entry(self):
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            OrthogonalityProblem(2, (np.eye(2), np.array([[1.0, 0.0], [0.0, np.nan]])))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_rejects_non_positive_dimension(self, dim):
        # an empty problem on no dimension had been accepted, and then
        # failed inside common_probe_feasible
        with pytest.raises(ValueError, match=f"dimension must be positive, got dim={dim}"):
            OrthogonalityProblem(dim=dim, operators=())

    def test_commuting_flag(self):
        assert OrthogonalityProblem(3, (CLOCK, FLIP)).commuting
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0])
        assert not OrthogonalityProblem(2, (x, z)).commuting


class TestSingleOperator:
    def test_clock_feasible_uniform(self):
        f = common_probe_feasible(OrthogonalityProblem(3, (CLOCK,)))
        assert f.status == "feasible"
        diag = np.diag(f.witness.matrix).real
        assert np.allclose(np.sort(diag), [1 / 3, 1 / 3, 1 / 3], atol=1e-9)
        assert abs(np.trace(f.witness.matrix @ CLOCK)) < 1e-9

    def test_lp_witness_is_pure(self):
        # constraints are diagonal in the common eigenbasis, so the LP
        # weights become squared amplitudes of one state
        ops = (CLOCK, CLOCK @ CLOCK)
        f = common_probe_feasible(OrthogonalityProblem(3, ops))
        assert f.status == "feasible"
        assert np.linalg.matrix_rank(f.witness.matrix, tol=1e-9) == 1
        _, r = purify_witness(f.witness)
        assert r == 1
        # the reported residual is the returned witness's own
        assert f.residual == max(abs(v) for v in gram_overlaps(f.witness, ops))
        assert f.residual < 1e-12

    def test_lp_witness_residual_above_tolerance(self):
        # |0> meets Z with overlap 1
        f = probefeas._lp_witness(OrthogonalityProblem(2, (np.diag([1.0, -1.0]),)), (0,),
                                  np.array([1.0, 0.0], dtype=complex), DEFAULT_TOL)
        assert (f.status, f.residual, f.witness) == ("not_found", 1.0, None)
        assert f.note == "common-eigenbasis linear program failed: witness residual 1.000e+00"

    def test_lp_witness_not_a_density_operator(self):
        # (1, 1) meets Z exactly but has trace 2
        f = probefeas._lp_witness(OrthogonalityProblem(2, (np.diag([1.0, -1.0]),)), (0,),
                                  np.array([1.0, 1.0], dtype=complex), DEFAULT_TOL)
        assert (f.status, f.residual, f.witness) == ("not_found", 0.0, None)
        assert f.note == "common-eigenbasis linear program failed: witness trace is 2, expected 1"

    def test_hull_gap_certified(self):
        # eigenphases {0, pi/4} cannot average to zero
        u = np.diag([1.0, np.exp(1j * np.pi / 4)])
        f = common_probe_feasible(OrthogonalityProblem(2, (u,)))
        assert f.status == "infeasible_certified"
        assert f.certificate is not None

    def test_near_antipodal_spectra_match_pair_criterion(self):
        # diag(e^{i t}, -e^{i(t + eps)}) with |eps| <= 1e-9: the hull misses
        # the origin by rounding only, which the pair criterion calls
        # distinguishable; the one-operator problem reads the same hull, so
        # it answers as the pair criterion does, and every answer must be
        # one a reader can re-verify
        rng = np.random.default_rng(0)
        for _ in range(2000):
            t, eps = rng.uniform(0, 2 * np.pi), rng.uniform(-1e-9, 1e-9)
            k = np.diag([np.exp(1j * t), -np.exp(1j * (t + eps))])
            prob = OrthogonalityProblem(2, (k,))
            f = common_probe_feasible(prob)
            assert f.note.startswith("common-eigenbasis linear program")
            assert f.status != "not_found"
            pair = pair_distinguishable(np.eye(2), k)
            assert f.status == ("feasible" if pair.distinguishable else "infeasible_certified")
            if f.status == "infeasible_certified":
                verify_certificate(prob, f.certificate)
            else:
                assert f.residual <= DEFAULT_TOL.comparison


def _hull_oracle(k):
    """``(delta, phi)`` for a unitary whose eigenvalue hull misses the
    origin, from the widest gap g > pi between its eigenphases (from
    ``np.linalg.eigvals``): the closest point is the midpoint of the chord
    across the gap, at distance -cos(g/2), along the bisector of the rest
    of the circle; one distinct eigenvalue is its own closest point."""
    p = np.sort(np.mod(np.angle(np.linalg.eigvals(k)), 2 * np.pi))
    gaps = np.diff(np.concatenate([p, [p[0] + 2 * np.pi]]))
    g = int(np.argmax(gaps))
    if gaps[g] > 2 * np.pi - 1e-9:  # one distinct eigenvalue
        return 1.0, p[0]
    return -np.cos(gaps[g] / 2), p[g] + gaps[g] / 2 + np.pi


def _single_operators(rng):
    """600 one-operator problems: Haar unitaries in d = 2, 3, 4,
    degenerate spectra (Z x Z and turned copies, e^{i a} I, two doubly
    degenerate eigenvalues) and 1 x 1 operators."""
    z = np.diag([1.0, -1.0])
    ops = [haar_unitary(d, rng).matrix for d in (2, 3, 4) for _ in range(150)]
    ops.append(np.kron(z, z))
    for _ in range(40):
        v = haar_unitary(4, rng).matrix
        ops.append(v @ np.kron(z, z) @ v.conj().T * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    for d in (1, 2, 3, 4):
        ops.extend(np.exp(1j * a) * np.eye(d) for a in rng.uniform(0, 2 * np.pi, size=10))
    for n in range(49):
        a, b = rng.uniform(0, 2 * np.pi, size=2)
        if n % 5 == 0:  # antipodal: feasible
            b = a + np.pi
        v = haar_unitary(4, rng).matrix
        ops.append(v @ np.diag(np.exp(1j * np.array([a, a, b, b]))) @ v.conj().T)
    ops.extend(np.array([[np.exp(1j * a)]]) for a in rng.uniform(0, 2 * np.pi, size=20))
    return ops


class TestEigenvalueHull:
    """One-operator problems are decided by the hull of the operator's
    eigenvalues; the common-eigenbasis LP on the same operator is the
    oracle."""

    def test_lp_oracle(self):
        rng = np.random.default_rng(2024)
        ops = _single_operators(rng)
        assert len(ops) == 600
        seen = set()
        for k in ops:
            prob = OrthogonalityProblem(k.shape[0], (k,))
            f = common_probe_feasible(prob)
            lp = probefeas._solve_commuting(prob, [0])
            seen.add(f.status)
            if lp.status != "not_found":
                assert f.status == lp.status
            if f.status == "feasible":
                assert f.residual == abs(np.trace(f.witness.matrix @ k))
                assert f.residual <= DEFAULT_TOL.comparison
                DensityOperator(f.witness.matrix)
                assert purify_witness(f.witness)[1] == 1
            else:
                assert f.status == "infeasible_certified"
                assert f.certificate.op_indices == (0,)
                assert verify_certificate(prob, f.certificate) >= 1 - DEFAULT_TOL.comparison
                delta, phi = _hull_oracle(k)
                assert np.allclose(f.certificate.coeffs * delta, [np.cos(phi), np.sin(phi)],
                                   rtol=0, atol=1e-9)
        assert seen == {"feasible", "infeasible_certified"}

    def test_near_antipodal_d4_sweep(self):
        # diag(e^{i t1}, e^{i t2}, -e^{i(t1 + e1)}, -e^{i(t2 + e2)}): the
        # origin lies well inside the hull, but the simplex's vertex can
        # carry an entry near -5e-10, whose clipped witness fails its trace
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(2000):
            t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
            e1, e2 = rng.uniform(-1e-9, 1e-9, size=2)
            k = np.diag(np.exp(1j * np.array([t1, t2, t1 + e1 + np.pi, t2 + e2 + np.pi])))
            f = common_probe_feasible(OrthogonalityProblem(4, (k,)))
            assert f.status == "feasible", f.note
            worst = max(worst, f.residual)
        assert worst <= 1e-9

    @pytest.mark.parametrize("phase, status", [
        pytest.param(np.pi / 4, "infeasible_certified", id="certified"),
        pytest.param(np.pi, "feasible", id="feasible"),
    ])
    def test_operator_checked_by_its_problem_only(self, phase, status):
        # 3e-10 off unitary: a UnitaryOperator accepts it by the problem's
        # rule, as its polar factor, and deciding the problem does not
        # check it again
        k = np.diag([1.0, np.exp(1j * phase)]) * (1 + 3e-10)
        assert UnitaryOperator(k).matrix.tobytes() == _nearest_unitary(k).tobytes()
        f = common_probe_feasible(OrthogonalityProblem(2, (k,)))
        assert f.status == status

    @pytest.mark.parametrize("phase, status", [
        pytest.param(np.pi / 4, "indistinguishable_certified", id="certified"),
        pytest.param(np.pi, "distinguishable", id="distinguishable"),
    ])
    @pytest.mark.parametrize("decide", [
        pytest.param(lambda uset: [check_gdr(uset)], id="gdr"),
        pytest.param(lambda uset: [check_lda(uset, "A")], id="lda"),
        pytest.param(lambda uset: [v for _, v in hierarchy_audit(uset)], id="audit"),
    ])
    def test_factor_checked_by_its_set_only(self, phase, status, decide):
        # the same for a factor the set accepted: its relatives and the GDR
        # operator are checked through the set, not again by the deciders
        a = np.diag([1.0, np.exp(1j * phase)]) * (1 + 3e-10)
        uset = ProductUnitarySet(party_dims=(2, 2),
                                 items=(("I", np.eye(2), np.eye(2)), ("K", a, np.eye(2))))
        assert {v.status for v in decide(uset)} == {status}

    def test_simplex_never_sees_one_operator(self, monkeypatch):
        sizes = []
        solve = probefeas._solve_commuting

        def spy(problem, indices, tol=DEFAULT_TOL):
            sizes.append(len(indices))
            return solve(problem, indices, tol)

        monkeypatch.setattr(probefeas, "_solve_commuting", spy)
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            common_probe_feasible(OrthogonalityProblem(d, (haar_unitary(d, rng).matrix,)))
        common_probe_feasible(OrthogonalityProblem(3, (CLOCK, FLIP)))
        common_probe_feasible(OrthogonalityProblem(3, (CLOCK, CLOCK @ CLOCK)))
        common_probe_feasible(STALLED)
        sets = [pauli_hadamard_set(), qutrit_quartet_set(),
                phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, np.pi - 1.7))]
        sets += [random_qubit_set(rng) for _ in range(10)]
        for uset in sets:
            hierarchy_audit(uset)
        assert sizes and min(sizes) >= 2


class TestNearUnitaryOperators:
    """A problem accepts operators up to 1e-8 off unitary, so it must decide
    them: one further off than rounding is kept as its polar factor, one
    within rounding as given."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_perturbed_haar_operators_answer(self, d):
        # Haar unitary plus a complex perturbation whose largest entry is
        # 3e-9: non-normal, so the hull route's eigendecomposition of the
        # operator as given had raised on most draws
        rng = np.random.default_rng(0)
        for _ in range(100):
            e = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            k = haar_unitary(d, rng).matrix + 3e-9 * e / np.abs(e).max()
            prob = OrthogonalityProblem(d, (k,))
            kept = prob.operators[0]
            assert np.abs(kept.conj().T @ kept - np.eye(d)).max() < 1e-14
            assert np.abs(kept - k).max() < 1e-8
            f = common_probe_feasible(prob)
            if f.status == "feasible":
                DensityOperator(f.witness.matrix)
                assert f.residual == abs(np.trace(f.witness.matrix @ kept))
                assert f.residual <= DEFAULT_TOL.comparison
                assert abs(np.trace(f.witness.matrix @ k)) <= 1e-8
            else:
                assert f.status == "infeasible_certified", f.note
                assert verify_certificate(prob, f.certificate) >= 1 - DEFAULT_TOL.comparison

    def test_operators_within_rounding_kept_as_given(self):
        # off by rounding (a Haar draw, and 8e-13) next to one off by 2e-9
        u = haar_unitary(3, np.random.default_rng(1)).matrix
        ops = (u, CLOCK * (1 + 4e-13), u * (1 + 1e-9))
        kept = OrthogonalityProblem(3, ops).operators
        for given, op in zip(ops[:2], kept):
            assert op.tobytes() == given.tobytes()
        assert np.abs(kept[2] - u).max() < 1e-14
        assert np.abs(kept[2] - ops[2]).max() > 1e-10


class TestClockFlipPair:
    def test_certified_infeasible(self):
        prob = OrthogonalityProblem(3, (CLOCK, FLIP))
        f = common_probe_feasible(prob)
        assert f.status == "infeasible_certified"
        # re-verification recomputes the spectral bound from scratch
        assert verify_certificate(prob, f.certificate) >= 1 - 1e-9

    def test_certificate_is_farkas_style(self):
        # the certified combination must be entrywise >= 1 on the simplex
        # feasible directions, i.e. spectrally bounded below by ~1
        prob = OrthogonalityProblem(3, (CLOCK, FLIP))
        f = common_probe_feasible(prob)
        cert = f.certificate
        g = np.zeros((3, 3), dtype=complex)
        for t, k in enumerate(cert.op_indices):
            op = prob.operators[k]
            h = (op + op.conj().T) / 2
            s = (op - op.conj().T) / 2j
            g = g + cert.coeffs[2 * t] * h + cert.coeffs[2 * t + 1] * s
        lo = np.linalg.eigvalsh((g + g.conj().T) / 2).min()
        assert lo >= 1 - 1e-9

    def test_broken_certificate_rejected(self):
        prob = OrthogonalityProblem(3, (CLOCK, FLIP))
        f = common_probe_feasible(prob)
        bad = type(f.certificate)(op_indices=f.certificate.op_indices,
                                  coeffs=f.certificate.coeffs * 1e-3,
                                  min_eig=f.certificate.min_eig)
        with pytest.raises(ValueError):
            verify_certificate(prob, bad)

    def test_negative_indices_rejected(self):
        # -2 and -1 name the same operators as 0 and 1, but a certificate
        # names its operators by their place in the problem
        prob = OrthogonalityProblem(3, (CLOCK, FLIP))
        cert = common_probe_feasible(prob).certificate
        bad = replace(cert, op_indices=tuple(k - 2 for k in cert.op_indices))
        with pytest.raises(ValueError, match=r"op_indices \[-2, -1\] are not indices"):
            verify_certificate(prob, bad)

    @pytest.mark.parametrize("indices, coeffs, match", [
        pytest.param((5,), [1.0, 0.0], r"op_indices \[5\] are not indices of a problem with 2",
                     id="index-past-end"),
        pytest.param((0.0, 1), [1.0, 0.0, 1.0, 0.0], r"op_indices \[0.0\] are not indices",
                     id="float-index"),
        pytest.param((True,), [1.0, 0.0], r"op_indices \[True\] are not indices",
                     id="bool-index"),
        pytest.param((0, 1), [1.0, 0.0, 1.0], "needs 4 coefficients for 2 op_indices",
                     id="too-few-coeffs"),
        pytest.param((0,), [1.0, 0.0, 1.0], "needs 2 coefficients for 1 op_indices",
                     id="too-many-coeffs"),
        pytest.param((0,), [np.nan, 0.0], "must be finite", id="nan-coeff"),
        pytest.param((0,), [np.inf, 0.0], "must be finite", id="inf-coeff"),
    ])
    def test_malformed_certificate_rejected(self, indices, coeffs, match):
        prob = OrthogonalityProblem(3, (CLOCK, FLIP))
        cert = InfeasibilityCertificate(op_indices=indices, coeffs=np.array(coeffs),
                                        min_eig=1.0)
        with pytest.raises(ValueError, match=match):
            verify_certificate(prob, cert)

    @pytest.mark.parametrize("indices, match", [
        pytest.param((0,), r"op_indices \[0\] are not indices of a problem with 0 operators",
                     id="index"),
        pytest.param((), "does not verify: min eig 0", id="no-index"),
    ])
    def test_certificate_for_empty_problem_rejected(self, indices, match):
        cert = InfeasibilityCertificate(op_indices=indices, coeffs=np.zeros(2 * len(indices)),
                                        min_eig=1.0)
        with pytest.raises(ValueError, match=match):
            verify_certificate(OrthogonalityProblem(3, ()), cert)


def test_carried_bounds_are_exact_on_gdr_problems():
    # a certificate carries the bound its route computed once; that must be
    # the bound verify_certificate recomputes, to the last bit, on every
    # certified GDR problem of the rng 0 pool, over every certifying route
    rng = np.random.default_rng(0)
    routes = set()
    for _ in range(300):
        problem = gdr_problem(random_qubit_set(rng))
        f = common_probe_feasible(problem)
        if f.certificate is not None:
            assert f.certificate.min_eig == verify_certificate(problem, f.certificate), f.note
            routes.add(f.note.split(" (")[0])
    assert routes == {"common-eigenbasis linear program",
                      "single-operator spectral certificate",
                      "alternating projections separating certificate"}


def test_empty_constraints_maximally_mixed():
    f = common_probe_feasible(OrthogonalityProblem(4, ()))
    assert f.status == "feasible"
    assert np.allclose(f.witness.matrix, np.eye(4) / 4)


class TestLpVsProjections:
    @staticmethod
    def _designed_feasible(d, nops, rng):
        # plant a balanced clock triple on three shared slots so the
        # uniform weight vector on those slots zeroes every operator
        slots = rng.choice(d, size=3, replace=False)
        ops = []
        for _ in range(nops):
            phases = rng.uniform(0, 2 * np.pi, size=d)
            base = rng.uniform(0, 2 * np.pi)
            for t, j in enumerate(rng.permutation(slots)):
                phases[j] = base + 2 * np.pi * t / 3
            ops.append(np.diag(np.exp(1j * phases)))
        return tuple(ops)

    def test_agreement_on_commuting_instances(self):
        # 100 diagonal systems, half with a planted feasible point: exact
        # LP verdict vs the projections; projections may run out of budget
        # (not_found), but each witness and each certificate they return
        # must agree with the LP verdict and re-check on its own
        rng = np.random.default_rng(77)
        lp_feasible = 0
        checked = 0
        for trial in range(100):
            nops = int(rng.integers(1, 4))
            if trial % 2 == 0:
                d = int(rng.integers(3, 5))
                ops = self._designed_feasible(d, nops, rng)
            else:
                d = int(rng.integers(2, 5))
                ops = tuple(random_diag_unitary(d, rng)
                            for _ in range(nops))
            prob = OrthogonalityProblem(d, ops)
            f_lp = common_probe_feasible(prob)
            f_pr = _solve_by_projections(prob, DEFAULT_TOL, iterations=1500)
            assert f_lp.status in ("feasible", "infeasible_certified")
            if f_lp.status == "feasible":
                lp_feasible += 1
                viol = max(abs(v) for v in
                           gram_overlaps(f_lp.witness, ops))
                assert viol < 1e-8
            if f_pr.status == "feasible":
                checked += 1
                assert f_lp.status == "feasible"
                viol = max(abs(v) for v in
                           gram_overlaps(f_pr.witness, ops))
                assert viol < 1e-8
            elif f_pr.status == "infeasible_certified":
                assert f_lp.status == "infeasible_certified"
                assert verify_certificate(prob, f_pr.certificate) >= 1 - 1e-9
            if trial % 2 == 0:
                assert f_lp.status == "feasible"
        # both paths must do real work on this ensemble
        assert lp_feasible >= 50
        assert checked >= 25

    def test_projections_find_noncommuting_witness(self):
        # X and Z are both traceless: the maximally mixed state works, but
        # run the heuristic path and check it lands on a valid witness
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0])
        prob = OrthogonalityProblem(2, (x, z))
        f = _solve_by_projections(prob, DEFAULT_TOL)
        assert f.status == "feasible"
        assert max(abs(v) for v in gram_overlaps(f.witness, (x, z))) < 1e-9


class TestMixedStateScreen:
    @staticmethod
    def _traceless_unitary(d, rng):
        # antipodal eigenvalue pairs sum to zero; a Haar rotation makes
        # draws from it fail to commute
        half = np.exp(1j * rng.uniform(0, 2 * np.pi, size=d // 2))
        v = haar_unitary(d, rng).matrix
        return v @ np.diag(np.concatenate([half, -half])) @ v.conj().T

    def test_traceless_problem_skips_single_operator_lps(self, monkeypatch):
        # neither the LP nor the per-operator hull runs
        calls = []
        for name in ("_solve_commuting", "_solve_single"):
            solve = getattr(probefeas, name)
            monkeypatch.setattr(probefeas, name,
                                lambda *args, _solve=solve: calls.append(args) or _solve(*args))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0])
        f = common_probe_feasible(OrthogonalityProblem(2, (x, z)))
        assert (f.status, f.note) == ("feasible", "maximally mixed witness")
        assert calls == []

    @pytest.mark.parametrize("d", [2, 4])
    def test_mixed_witness_leaves_no_single_operator_certificate(self, d):
        # whenever the maximally mixed state meets every constraint (here up
        # to rounding), each one-operator problem the screen now skips is
        # feasible, by the LP and by the hull route that would run, so
        # skipping it cannot hide a certificate
        rng = np.random.default_rng(31 + d)
        for _ in range(40):
            ops = tuple(self._traceless_unitary(d, rng) for _ in range(int(rng.integers(2, 5))))
            prob = OrthogonalityProblem(d, ops)
            assert not prob.commuting
            assert max(abs(np.trace(k)) / d for k in ops) < DEFAULT_TOL.comparison
            assert common_probe_feasible(prob).note == "maximally mixed witness"
            for k in range(len(ops)):
                assert probefeas._solve_commuting(prob, [k]).status == "feasible"
                spectrum = probefeas._operator_spectrum(ops[k])
                assert spectrum[2].distinguishable
                assert (probefeas._solve_single(prob, k, spectrum, DEFAULT_TOL).status
                        == "feasible")


def _ref_simplex(vals):
    u = np.sort(vals)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(u) + 1)
    cond = u - css / idx > 0
    k = idx[cond][-1]
    return np.maximum(vals - css[cond][-1] / k, 0.0)


def _ref_density(x):
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    return (v * _ref_simplex(w)[None, :]) @ v.conj().T


def _ref_projections(problem, tol, restarts=10, iterations=5000, seed=0, stops=None):
    """Restarts run one after another on single matrices, each checked every
    50 iterations, then a near-miss polish; with ``restarts=1`` it is the
    oracle for the solver.  Appends to ``stops`` each restart that reaches
    the 1e-11 stop."""
    d = problem.dim
    funcs = [g for k in problem.operators
             for g in ((k + k.conj().T) / 2, (k - k.conj().T) / 2j)
             if np.max(np.abs(g)) > 1e-14]
    gram = np.array([[np.vdot(gi, gj).real for gj in funcs] for gi in funcs])
    gram_pinv = np.linalg.pinv(gram, rcond=1e-12)

    def project_affine(x):
        coef = gram_pinv @ np.array([np.vdot(g, x).real for g in funcs])
        for c, g in zip(coef, funcs):
            x = x - c * g
        return x

    def violation(rho):
        return max(abs(np.trace(rho @ k)) for k in problem.operators)

    rng = np.random.default_rng(seed)
    best, best_viol = None, np.inf
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
            y = _ref_density(x + p)
            p = x + p - y
            x_new = project_affine(y + q)
            q = y + q - x_new
            x = x_new
            if it % 50 == 49 or it == iterations - 1:
                cand = _ref_density(x)
                viol = violation(cand)
                if viol < best_viol:
                    best_viol, best = viol, cand
                if viol < 1e-11:
                    if stops is not None:
                        stops.append(r)
                    break
        if best_viol < 1e-11:
            break
    if best is not None and 1e-11 <= best_viol < 1e-7:
        x = best
        for it in range(2000):
            x = _ref_density(project_affine(x))
            if it % 100 == 99:
                viol = violation(x)
                if viol < best_viol:
                    best_viol, best = viol, x
                if viol < 1e-11:
                    break
    if best is not None and best_viol < tol.comparison:
        return ProbeFeasibility(status="feasible", witness=DensityOperator(best),
                                residual=float(best_viol), note="alternating projections")
    return ProbeFeasibility(status="not_found", residual=float(best_viol),
                            note=f"alternating projections stalled at residual {best_viol:.3e}")


def _assert_same_answer(got, ref):
    assert got.status == ref.status
    assert got.note == ref.note
    assert abs(got.residual - ref.residual) <= 1e-12
    assert (got.witness is None) == (ref.witness is None)
    if ref.witness is not None:
        assert np.max(np.abs(got.witness.matrix - ref.witness.matrix)) <= 1e-12


_H = 1 / np.sqrt(2)
# the product unitaries of a benchmark-pool set whose GDR problem stalls
_G4 = _H * np.array([[1.0, 1.0], [1.0, -1.0]])
_G6 = _H * np.array([[1.0, -1.0], [1.0, 1.0]])
_G7 = _H * np.array([[-1.0, 1.0], [1.0, 1.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_STALL_FACTORS = ((np.eye(2), _G7), (np.eye(2), _G4), (_G6, _X), (_G7, np.eye(2)))
_STALL_GATES = [np.kron(a, b) for a, b in _STALL_FACTORS]
# dim 4, six relative unitaries; no exact route decides them, no witness
# exists, and the projections' residual stalls at 1/2
STALLED = OrthogonalityProblem(4, tuple(
    _STALL_GATES[i].conj().T @ _STALL_GATES[j]
    for i in range(4) for j in range(i + 1, 4)))
# a qutrit pair that each admit a probe alone, but not the maximally mixed one
FEASIBLE = OrthogonalityProblem(3, (np.diag([1.0, -1.0, 1j]), np.roll(np.eye(3), 1, axis=0)))
# two random qutrit unitaries with a planted common pure-state witness; the
# run from I/d reaches the 1e-11 stop only at its eighth check
LATER_WINNER = OrthogonalityProblem(3, tuple(np.array(k) for k in (
    [
        [(0.6576998202906216+0.29434558276328854j),
         (0.35934811332750133-0.49487493873779j),
         (-0.2282540605280748-0.23379357691584315j)],
        [(-0.44254771535755544+0.21954999866757108j),
         (0.14315362935783865-0.22982558081345514j),
         (-0.7067441747988152+0.42795937880861556j)],
        [(0.47915185461851284-0.08458393600407514j),
         (0.17578706744536238+0.7223253257235485j),
         (-0.3369104479646509+0.3116014100983592j)],
    ],
    [
        [(-0.5179147206269742+0.11020352657270174j),
         (-0.06086560040483916-0.5792078436723621j),
         (0.4956153583018698-0.367149280293321j)],
        [(0.39106324842406687+0.49713533559709844j),
         (-0.19045432800546605+0.09741989251281184j),
         (0.6531521768917606+0.3571480661309953j)],
        [(0.5560922190889828+0.10152321207630796j),
         (0.24117880185246415-0.7462459055429111j),
         (-0.2521024483307993+0.04299617217226246j)],
    ],
)))


class TestStackedRestarts:
    """The single run from I/d gives the sequential loop's witness, and a
    certificate where the loop finds none."""

    def test_stalled_pool_problem(self):
        # the loop finds no witness; the run certifies from the gap vector
        ref = _ref_projections(STALLED, DEFAULT_TOL, restarts=1, iterations=300)
        got = _solve_by_projections(STALLED, DEFAULT_TOL, iterations=300)
        assert ref.status == "not_found"
        assert got.status == "infeasible_certified"
        assert got.note == "alternating projections separating certificate"
        assert verify_certificate(STALLED, got.certificate) >= 1 - 1e-9

    def test_first_checkpoint_certifies(self):
        got = _solve_by_projections(STALLED, DEFAULT_TOL, iterations=50)
        assert got.status == "infeasible_certified"
        assert verify_certificate(STALLED, got.certificate) >= 1 - 1e-9

    def test_feasible_problem(self):
        ref = _ref_projections(FEASIBLE, DEFAULT_TOL, restarts=1)
        got = _solve_by_projections(FEASIBLE, DEFAULT_TOL)
        assert ref.status == "feasible"
        _assert_same_answer(got, ref)

    def test_single_run_solves_later_winner(self, monkeypatch):
        stops = []
        ref = _ref_projections(LATER_WINNER, DEFAULT_TOL, restarts=1, stops=stops)
        steps = []
        dykstra = probefeas._dykstra_steps
        monkeypatch.setattr(probefeas, "_dykstra_steps",
                            lambda *args: steps.append(args[3]) or dykstra(*args))
        got = _solve_by_projections(LATER_WINNER, DEFAULT_TOL)
        assert stops == [0]
        assert steps == [50] * 8
        assert ref.status == "feasible"
        _assert_same_answer(got, ref)

    def test_stalled_call_is_deterministic(self):
        # traced and untraced benchmark runs must see the same answers
        first = common_probe_feasible(STALLED)
        second = common_probe_feasible(STALLED)
        assert first.status == "infeasible_certified"
        assert first.certificate.coeffs.tobytes() == second.certificate.coeffs.tobytes()
        assert first.note == second.note

    @pytest.mark.parametrize("problem, status", [
        pytest.param(FEASIBLE, "feasible", id="feasible"),
        pytest.param(STALLED, "infeasible_certified", id="stalled"),
    ])
    def test_first_check_decides(self, problem, status, monkeypatch):
        # both problems are decided at the first check, so the run stops
        # after one block of 50 iterations
        steps = []
        dykstra = probefeas._dykstra_steps
        monkeypatch.setattr(probefeas, "_dykstra_steps",
                            lambda *args: steps.append(args[3]) or dykstra(*args))
        got = _solve_by_projections(problem, DEFAULT_TOL)
        assert got.status == status
        assert steps == [50]

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError, match="at least one iteration"):
            _solve_by_projections(FEASIBLE, DEFAULT_TOL, iterations=0)


def test_stalled_gdr_certificate_round_trips_through_json():
    # the benchmark's gate: a GDR certificate decoded from the verdict's
    # JSON re-verifies against the problem rebuilt from the set
    uset = ProductUnitarySet((2, 2), tuple((f"u{i}", a, b)
                                           for i, (a, b) in enumerate(_STALL_FACTORS)))
    verdict = check_gdr(uset)
    assert verdict.status == "indistinguishable_certified"
    data = json.loads(dumps(verdict_to_json(verdict)))
    cert = certificate_from_json(data["feasibility"]["certificate"])
    assert verify_certificate(gdr_problem(uset), cert) >= 1 - 1e-9


class TestAutoNoncommuting:
    def test_mixed_state_screen(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0])
        f = common_probe_feasible(OrthogonalityProblem(2, (x, z)))
        assert f.status == "feasible"
        assert np.allclose(f.witness.matrix, np.eye(2) / 2)

    def test_single_op_screen_certifies(self):
        # a non-commuting family where one member alone is infeasible
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        t = np.diag([1.0, np.exp(1j * np.pi / 4)])
        rng = np.random.default_rng(3)
        q = haar_unitary(2, rng).matrix
        f = common_probe_feasible(
            OrthogonalityProblem(2, (q @ x @ q.conj().T, t)))
        assert f.status == "infeasible_certified"
        assert "single-operator" in f.note


class TestPurifyWitness:
    def test_round_trip_full_rank(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = g @ g.conj().T
        rho = DensityOperator(m / np.trace(m))
        state, r = purify_witness(rho)
        assert r == 3
        back = partial_trace(state.density(), (3, r), keep=[0])
        assert np.max(np.abs(back - rho.matrix)) < 1e-9

    def test_rank_one_needs_no_ancilla(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        state, r = purify_witness(rho)
        assert r == 1
        assert np.allclose(np.abs(state.amplitudes), [1.0, 0.0])

    def test_rank_two_in_dim_three(self):
        rho = DensityOperator(np.diag([0.5, 0.5, 0.0]))
        state, r = purify_witness(rho)
        assert r == 2
        back = partial_trace(state.density(), (3, 2), keep=[0])
        assert np.max(np.abs(back - rho.matrix)) < 1e-12


class TestCarriedState:
    """The eigenvalue hull and the commuting linear program return the pure
    state they build, which the deciders measure as it is."""

    @staticmethod
    def answers():
        """Feasible answers of the hull (one operator) and of the linear
        program (two or more commuting operators)."""
        rng = np.random.default_rng(17)
        hull = [common_probe_feasible(OrthogonalityProblem(d, (haar_unitary(d, rng).matrix,)))
                for d in (2, 3, 4) for _ in range(20)]
        lp = [common_probe_feasible(OrthogonalityProblem(3, (CLOCK, CLOCK @ CLOCK)))]
        for _ in range(20):
            # two commuting operators with antipodal phase pairs on the same
            # eigenvectors of a Haar basis v, so the problem is feasible
            v = haar_unitary(4, rng).matrix
            ops = []
            for _ in range(2):
                a, b = rng.uniform(0, 2 * np.pi, size=2)
                ops.append(v @ np.diag(np.exp(1j * np.array([a, a + np.pi, b, b + np.pi])))
                           @ v.conj().T)
            lp.append(common_probe_feasible(OrthogonalityProblem(4, tuple(ops))))
        hull = [f for f in hull if f.status == "feasible"]
        assert len(hull) >= 20 and {f.status for f in lp} == {"feasible"}
        return hull + lp

    def test_state_matches_witness(self):
        for f in self.answers():
            psi = f.state.amplitudes
            assert abs(np.linalg.norm(psi) - 1) < 1e-15
            outer = np.outer(psi, psi.conj())
            assert np.abs(outer - f.witness.matrix).max() <= DEFAULT_TOL.comparison

    def test_mixed_routes_carry_no_state(self):
        empty = common_probe_feasible(OrthogonalityProblem(2, ()))
        mixed = common_probe_feasible(OrthogonalityProblem(2, (np.diag([1.0, -1.0]), X2)))
        assert [f.note for f in (empty, mixed)] == ["empty constraint set",
                                                    "maximally mixed witness"]
        assert empty.state is None and mixed.state is None

    def test_json_keys_unchanged(self):
        for f in self.answers():
            assert list(feasibility_to_json(f)) == [
                "status", "residual", "note", "witness", "certificate"]

    @pytest.mark.parametrize("uset", [
        pytest.param(phase_pair_set(PhasePairParams(0.3, 0.5, 0.9, np.pi - 1.7)), id="lp"),
        pytest.param(ProductUnitarySet((2, 2), (("II", np.eye(2), np.eye(2)),
                                               ("XZ", X2, np.diag([1.0, -1.0])))), id="hull"),
    ])
    def test_verdict_witness_needs_no_ancilla(self, uset):
        verdict = check_gdr(uset)
        assert verdict.status == "distinguishable"
        assert verdict.feasibility.state is not None
        assert verdict.witness.ancilla_dim == 1


def test_gram_overlaps_known_value():
    # diag(1/2, 1/2, 0) against the clock phases: (1 + w)/2
    rho = DensityOperator(np.diag([0.5, 0.5, 0.0]))
    vals = gram_overlaps(rho, [CLOCK])
    assert np.isclose(vals[0], (1 + W3) / 2)
