"""Dense phase-1 simplex kernel for the small feasibility problems in this
package: the general reward shift, and the Blackwell and reverse
factorizations whose factor is not unique (a square, invertible sensor
matrix fixes the factor, and ``orders`` decides those in closed form).

It solves one form, find x >= 0 with A x = b; a caller with inequality rows
or free variables writes its own surplus and split columns.  Everything is
deliberately plain: one dense tableau, Bland's anti-cycling pivot rule,
explicit tolerances.  Problem sizes here top out around a few hundred
columns, so predictability is worth more than sparse-matrix tricks.  No
caller has an objective, so there is no phase 2: the point is read from the
phase-1 basis and accepted only after its residuals are checked on the
original rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
NUMERICAL_FAILURE = "numerical_failure"

FEAS_TOL = 1e-8
_PIVOT_TOL = 1e-11
_RC_TOL = 1e-9  # reduced-cost threshold for entering columns
_BOUND_SLACK = 1e-9  # how far below zero a returned coordinate may sit


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """Solver verdict: status string and, when feasible, the point found."""

    status: str
    x: np.ndarray | None = None


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    colvals = tableau[:, col].copy()
    colvals[row] = 0.0
    tableau -= np.outer(colvals, tableau[row])
    # clean the pivot column so later Bland scans see exact unit vectors
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _phase1(tableau, basis, n_enterable, max_iter) -> bool:
    """Bland-rule simplex loop on a tableau whose last row holds reduced
    costs; only the first ``n_enterable`` columns may enter.  The phase-1
    objective is bounded below by zero, so a column with no positive pivot
    means the tableau has lost accuracy: False then, and on running out of
    iterations."""
    for _ in range(max_iter):
        negative = np.flatnonzero(tableau[-1, :n_enterable] < -_RC_TOL)
        if negative.size == 0:
            return True
        enter = negative[0]
        col = tableau[:-1, enter]
        pos = col > _PIVOT_TOL
        if not pos.any():
            return False
        ratios = np.full(col.shape, np.inf)
        ratios[pos] = tableau[:-1, -1][pos] / col[pos]
        ties = np.flatnonzero(ratios == ratios.min())
        _pivot(tableau, basis, ties[np.argmin(basis[ties])], enter)
    return False


def lp_solve(a_eq, b_eq) -> LpOutcome:
    """Find x with  a_eq x = b_eq,  x >= 0.

    Rows with a negative right-hand side are negated, and every row gets an
    artificial column whose sum phase 1 minimizes.  The phase-1 point is
    checked against the original rows first, and one within ``FEAS_TOL`` of
    every row and ``_BOUND_SLACK`` of the bound is feasible whatever the
    optimum: the optimum sums all m artificials, so it can exceed the
    per-row ``FEAS_TOL`` while every row is met.  Otherwise an optimum above
    ``FEAS_TOL`` is infeasible; a lower one, or a stalled loop, is a
    numerical failure.
    """
    a_eq = np.asarray(a_eq, dtype=float)
    if a_eq.ndim != 2:
        raise ValueError(f"a_eq must be a 2-D array, got shape {a_eq.shape}")
    b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
    if b_eq.shape != (a_eq.shape[0],):
        raise ValueError("b_eq length does not match the rows of a_eq")

    m, n = a_eq.shape
    sign = np.where(b_eq < 0, -1.0, 1.0)
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m] = np.hstack([a_eq * sign[:, None], np.eye(m), np.abs(b_eq)[:, None]])
    tableau[-1, :n] = -tableau[:m, :n].sum(axis=0)
    tableau[-1, -1] = -tableau[:m, -1].sum()
    basis = np.arange(n, n + m)
    if not _phase1(tableau, basis, n, 1000 + 40 * (m + n)):
        return LpOutcome(status=NUMERICAL_FAILURE)

    # Artificials left in the basis sit at or below the phase-1 optimum and
    # are simply not read back.
    x = np.zeros(n + m)
    x[basis] = tableau[:m, -1]
    x = x[:n]
    if (np.isfinite(x).all()
            and (np.abs(a_eq @ x - b_eq) <= FEAS_TOL).all()
            and (x >= -_BOUND_SLACK).all()):
        return LpOutcome(status=FEASIBLE, x=x)
    return LpOutcome(status=INFEASIBLE if -tableau[-1, -1] > FEAS_TOL
                     else NUMERICAL_FAILURE)
