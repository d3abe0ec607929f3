"""Dense phase-1 simplex deciding feasibility of small equality-form systems.

Decides whether  A x = b, x >= 0  has a solution, in floating point.
Instances here are tiny (tens of variables at most), so the implementation
favors robustness over speed: Bland's anti-cycling pivot rule throughout, a
fixed pivot tolerance, a re-checked residual for every returned point, and
an explicitly re-verified Farkas certificate whenever phase 1 proves
infeasibility.

The pivots run on a tableau of plain Python floats, one list per row: at
these sizes reading and writing numpy scalars one at a time costs more than
the arithmetic.  Each entry still goes through the same IEEE operations in
the same order as a row-wise numpy update (a row divided by its pivot, then
``row_r - f * pivot_row`` for every other row with a nonzero factor f), so
the points, certificates and margins are the ones a numpy tableau gives.
Input validation, the initial column sums, the Farkas extraction and the
residual re-check stay in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

__all__ = ["FarkasCertificate", "LpResult", "feasible_point"]

PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class FarkasCertificate:
    """Separating dual vector for an infeasible system A x = b, x >= 0.

    Satisfies  y.A <= tol componentwise  and  y.b = 1, which no nonnegative
    x can reconcile with A x = b.  ``margin`` is max(y.A) as re-verified.
    """

    y: np.ndarray
    margin: float


@dataclass(frozen=True)
class LpResult:
    status: str  # "feasible" | "infeasible"
    x: np.ndarray | None
    certificate: FarkasCertificate | None


def _pivot(rows, basis, row, col):
    p = rows[row][col]
    prow = rows[row] = [v / p for v in rows[row]]
    for r, cur in enumerate(rows):
        if r != row:
            f = cur[col]
            # a zero factor leaves the row alone, signed zeros included
            if abs(f) > 0:
                rows[r] = [u - f * v for u, v in zip(cur, prow)]
    basis[row] = col


def _simplex_core(rows, basis, cost_row, ncols):
    """Run Bland-rule simplex on an (m+1)-row tableau of ncols+1 columns in
    place until no reduced cost is negative.

    Row ``cost_row`` holds reduced costs (minimization); rightmost column is
    the rhs.  Only phase 1 runs here, whose objective is bounded below by 0.
    """
    m = cost_row
    while True:
        cost = rows[m]
        enter = -1
        for j in range(ncols):
            if cost[j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = math.inf
        for r in range(m):
            cur = rows[r]
            a = cur[enter]
            if a > PIVOT_TOL:
                ratio = cur[-1] / a
                if ratio < best - PIVOT_TOL or (
                        abs(ratio - best) <= PIVOT_TOL
                        and (leave < 0 or basis[r] < basis[leave])):
                    best = ratio
                    leave = r
        if leave < 0:
            raise AssertionError("phase 1 unbounded")
        _pivot(rows, basis, leave, enter)


def feasible_point(a_eq, b_eq) -> LpResult:
    """A point of {x >= 0 : A x = b}, or a Farkas certificate that none exists."""
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float).ravel()
    if a.ndim != 2:
        raise ValueError("A must be 2-D")
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("A and b shapes disagree")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")

    # negate the rows with a negative rhs; the originals stay for the
    # certificate and residual re-checks
    a0, b0 = a, b
    flip = b < 0
    if flip.any():
        a, b = a.copy(), b.copy()
        a[flip] *= -1
        b[flip] *= -1

    # phase 1: artificials, minimize their sum; the reduced costs of that
    # sum are numpy's column sums, so they carry its summation order
    rhs = b.tolist()
    rows = a.tolist()
    for r, row in enumerate(rows):
        row.extend([0.0] * m)
        row[n + r] = 1.0
        row.append(rhs[r])
    rows.append((-a.sum(axis=0)).tolist() + [0.0] * m + [float(-b.sum())])
    basis = list(range(n, n + m))

    _simplex_core(rows, basis, m, n + m)
    phase1 = -rows[m][-1]

    if phase1 > 1e-7 * max(1.0, max(map(abs, rhs), default=0.0)):
        # infeasible: dual multipliers of phase 1 separate b from the cone.
        # Recover y from the final reduced costs of the artificial columns:
        # for artificial j, reduced cost = 1 - y_j (flipped rows negate y_j).
        y = 1.0 - np.array(rows[m][n:n + m])
        y[flip] *= -1
        num = float(y @ b0)
        if num <= PIVOT_TOL:
            raise AssertionError("Farkas extraction failed: y.b not positive")
        y /= num
        margin = float((y @ a0).max()) if n else 0.0
        if margin > 1e-7:
            raise AssertionError(f"Farkas certificate failed re-verification ({margin:.3e})")
        return LpResult("infeasible", None, FarkasCertificate(y=y, margin=margin))

    # drive leftover artificials out of the basis where possible; redundant
    # rows may keep one basic at zero level, and contribute no variable
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if abs(rows[r][j]) > PIVOT_TOL:
                    _pivot(rows, basis, r, j)
                    break

    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = rows[r][-1]
    x[np.abs(x) < 1e-12] = 0.0
    resid = np.max(np.abs(a0 @ x - b0)) if m else 0.0
    if resid > 1e-7:
        raise AssertionError(f"simplex solution violates constraints ({resid:.3e})")
    return LpResult("feasible", x, None)
