"""Phase-1 feasibility simplex: points, infeasibility certificates, edge cases."""

import numpy as np
import pytest

from unidisc.simplex import FarkasCertificate, feasible_point


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
