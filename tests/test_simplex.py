"""Phase-1 feasibility simplex: points, infeasibility certificates, edge cases."""

import numpy as np
import pytest

from unidisc.simplex import PIVOT_TOL, FarkasCertificate, feasible_point


def test_two_constraints():
    # x0 + 2 x1 = 4, x0 - x1 = 1: unique point (2, 1)
    res = feasible_point([[1.0, 2.0], [1.0, -1.0]], [4.0, 1.0])
    assert res.status == "feasible"
    assert np.allclose(res.x, [2.0, 1.0], atol=1e-9)


def test_negative_rhs_handled():
    res = feasible_point([[-1.0, -1.0]], [-3.0])
    assert res.status == "feasible"
    assert np.all(res.x >= 0.0)
    assert np.isclose(res.x.sum(), 3.0)


def test_infeasible_certificate():
    # x0 + x1 = -1 has no nonnegative solution
    res = feasible_point([[1.0, 1.0]], [-1.0])
    assert res.status == "infeasible"
    cert = res.certificate
    assert isinstance(cert, FarkasCertificate)
    a = np.array([[1.0, 1.0]])
    b = np.array([-1.0])
    assert np.isclose(cert.y @ b, 1.0)
    assert np.max(cert.y @ a) <= 1e-7


def test_infeasible_certificate_multirow():
    # x0 = 1 and x0 = 2 cannot both hold
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([1.0, 2.0])
    res = feasible_point(a, b)
    assert res.status == "infeasible"
    y = res.certificate.y
    assert np.isclose(y @ b, 1.0)
    assert np.max(y @ a) <= 1e-7


def test_feasible_point():
    res = feasible_point([[1.0, 1.0, 1.0]], [1.0])
    assert res.status == "feasible"
    x = res.x
    assert np.all(x >= -1e-12)
    assert np.isclose(x.sum(), 1.0)


def test_feasible_point_infeasible():
    res = feasible_point([[1.0, 1.0]], [-2.0])
    assert res.status == "infeasible"
    assert res.certificate is not None


def test_shape_validation():
    with pytest.raises(ValueError):
        feasible_point([[1.0, 1.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        feasible_point([1.0, 1.0], [1.0])
    # a NaN residual never exceeds the re-check bound, so these used to
    # come back "feasible"
    with pytest.raises(ValueError, match="finite"):
        feasible_point([[np.inf, 1.0]], [1.0])
    with pytest.raises(ValueError, match="finite"):
        feasible_point([[1.0, np.nan]], [1.0])
    with pytest.raises(ValueError, match="finite"):
        feasible_point([[1.0, 1.0]], [np.inf])


def test_random_feasible_systems_agree_with_lstsq():
    # on square invertible systems with a nonnegative solution the simplex
    # must find exactly that solution
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = rng.integers(2, 5)
        a = rng.normal(size=(n, n))
        x_true = rng.uniform(0.1, 1.0, size=n)
        b = a @ x_true
        res = feasible_point(a, b)
        assert res.status == "feasible"
        assert np.allclose(a @ res.x, b, atol=1e-8)
        assert np.all(res.x >= -1e-9)


def test_empty_system_is_feasible():
    # no rows: every x >= 0 is feasible, and the origin is returned
    res = feasible_point(np.zeros((0, 3)), np.zeros(0))
    assert res.status == "feasible"
    assert res.x.tobytes() == np.zeros(3).tobytes()
    assert res.certificate is None


# -----------------------------------------------------------------------------
# Bytes oracle: the same simplex on a numpy tableau, one row operation at a
# time.  The list-of-floats kernel must return the same bytes.
# -----------------------------------------------------------------------------

def _np_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _np_simplex_core(tableau, basis, m, ncols):
    while True:
        enter = next((j for j in range(ncols) if tableau[m, j] < -PIVOT_TOL), -1)
        if enter < 0:
            return
        leave, best = -1, np.inf
        for r in range(m):
            a = tableau[r, enter]
            if a > PIVOT_TOL:
                ratio = tableau[r, -1] / a
                if ratio < best - PIVOT_TOL or (
                        abs(ratio - best) <= PIVOT_TOL
                        and (leave < 0 or basis[r] < basis[leave])):
                    best, leave = ratio, r
        assert leave >= 0
        _np_pivot(tableau, basis, leave, enter)


def _np_feasible_point(a_eq, b_eq):
    """(status, x or y, margin) bytes of the numpy-tableau simplex."""
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    m, n = a.shape
    a0, b0 = a.copy(), b.copy()
    flip = b < 0
    a[flip] *= -1
    b[flip] *= -1
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    basis = list(range(n, n + m))
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()
    _np_simplex_core(t, basis, m, n + m)
    if -t[m, -1] > 1e-7 * max(1.0, np.abs(b).max()):
        y = 1.0 - t[m, n:n + m].copy()
        y[flip] *= -1
        y /= float(y @ b0)
        margin = float((y @ a0).max()) if n else 0.0
        return "infeasible", y.tobytes(), np.float64(margin).tobytes()
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if abs(t[r, j]) > PIVOT_TOL:
                    _np_pivot(t, basis, r, j)
                    break
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = t[r, -1]
    x[np.abs(x) < 1e-12] = 0.0
    return "feasible", x.tobytes(), None


def _result_bytes(res):
    if res.status == "feasible":
        return "feasible", res.x.tobytes(), None
    cert = res.certificate
    return "infeasible", cert.y.tobytes(), np.float64(cert.margin).tobytes()


def _random_systems(rng, count):
    for k in range(count):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 8))
        kind = k % 5
        if kind == 0:
            # signed rhs: rows with negative b are flipped
            a, b = rng.normal(size=(m, n)), rng.normal(size=m)
        elif kind == 1:
            # small integers, so ratio ties are common, with signed zeros
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            b = rng.integers(-2, 3, size=m).astype(float)
            a[a == 0] = rng.choice([0.0, -0.0], size=int((a == 0).sum()))
            b[b == 0] = rng.choice([0.0, -0.0], size=int((b == 0).sum()))
        elif kind == 2:
            # feasible with a sparse solution: degenerate vertices
            a = rng.normal(size=(m, n))
            b = a @ (np.abs(rng.normal(size=n)) * (rng.random(n) < 0.5))
        elif kind == 3:
            # redundant rows keep artificials basic at zero level
            a = rng.normal(size=(m, n))
            a = np.vstack([a, 2.0 * a[:1], -a[-1:]])
            b = a @ np.abs(rng.normal(size=n))
        else:
            # one-decimal data: exact ties in the Bland ratio test
            a = np.round(rng.normal(size=(m, n)), 1)
            b = a @ np.round(np.abs(rng.normal(size=n)), 1)
        yield a, b


def test_float_tableau_matches_numpy_tableau_bytes():
    rng = np.random.default_rng(2024)
    statuses = set()
    for a, b in _random_systems(rng, 1500):
        expected = _np_feasible_point(a, b)
        assert _result_bytes(feasible_point(a, b)) == expected
        statuses.add(expected[0])
    assert statuses == {"feasible", "infeasible"}


@pytest.mark.parametrize("a, b", [
    # signed zeros in a column: numpy's column sum starts from +0.0
    ([[-0.0, 1.0], [-0.0, 1.0]], [1.0, 1.0]),
    ([[-0.0, -1.0]], [-0.0]),
    # a tie in the ratio test, broken by the lower basic index
    ([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]], [1.0, 1.0]),
    # a redundant row: the artificial is driven out or stays at zero
    ([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0]),
    # infeasible: the Farkas y and its margin
    ([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0]),
    ([[1.0, 1.0]], [-1.0]),
])
def test_float_tableau_edge_cases_match_numpy_tableau(a, b):
    assert _result_bytes(feasible_point(a, b)) == _np_feasible_point(a, b)
