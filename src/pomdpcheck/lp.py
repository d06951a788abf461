"""Dense phase-1 simplex kernel for the small feasibility problems in this
package: Blackwell and reverse factorizations and the general reward shift.

Everything is deliberately plain: one dense tableau, Bland's anti-cycling
pivot rule, explicit tolerances.  Problem sizes here top out around a few
hundred columns, so predictability is worth more than sparse-matrix tricks.
No caller has an objective, so there is no phase 2: the point is read from
the phase-1 basis and accepted only after its residuals are checked on the
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


def _as_rows(a, rhs, num_vars, name):
    """Validated (matrix, rhs) pair; an absent pair becomes zero rows."""
    if (a is None) != (rhs is None):
        raise ValueError(f"{name} matrix and right-hand side must be given together")
    if a is None:
        return np.zeros((0, num_vars)), np.zeros(0)
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {mat.shape}")
    if mat.shape[1] != num_vars:
        raise ValueError(f"{name} has {mat.shape[1]} columns, expected {num_vars}")
    vec = np.atleast_1d(np.asarray(rhs, dtype=float))
    if vec.shape != (mat.shape[0],):
        raise ValueError(f"{name} right-hand side length does not match its rows")
    return mat, vec


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


def lp_solve(a_eq=None, b_eq=None, g_ub=None, h_ub=None, *,
             free=None) -> LpOutcome:
    """Find x with  a_eq x = b_eq,  g_ub x <= h_ub,  x >= 0.

    Coordinates flagged in ``free`` drop the nonnegativity bound.  Free
    coordinates are split into positive and negative parts, inequality rows
    get slack columns, and every row gets an artificial column whose sum
    phase 1 minimizes.  Infeasibility is certified by a phase-1 optimum above
    ``FEAS_TOL`` and never conflated with numerical failure, which is
    reported when the loop stalls or the point misses a row or bound.
    """
    if a_eq is None and g_ub is None:
        raise ValueError("at least one constraint block is required")
    shape = np.shape(a_eq if a_eq is not None else g_ub)
    if len(shape) != 2:
        raise ValueError(f"constraint matrices must be 2-D, got shape {shape}")
    num_vars = shape[1]
    a_eq, b_eq = _as_rows(a_eq, b_eq, num_vars, "a_eq")
    g_ub, h_ub = _as_rows(g_ub, h_ub, num_vars, "g_ub")
    free = np.zeros(num_vars, dtype=bool) if free is None \
        else np.asarray(free, dtype=bool)
    if free.shape != (num_vars,):
        raise ValueError("free mask length does not match the variables")

    base = np.vstack([a_eq, g_ub])
    rhs = np.concatenate([b_eq, h_ub])
    m, n_ub = base.shape[0], g_ub.shape[0]
    slack = np.zeros((m, n_ub))
    slack[m - n_ub:] = np.eye(n_ub)
    a_std = np.hstack([base, -base[:, free], slack])
    flip = rhs < 0
    a_std[flip] *= -1.0
    rhs = np.abs(rhs)
    n_std = a_std.shape[1]

    tableau = np.zeros((m + 1, n_std + m + 1))
    tableau[:m, :n_std] = a_std
    tableau[:m, n_std:n_std + m] = np.eye(m)
    tableau[:m, -1] = rhs
    tableau[-1, :n_std] = -a_std.sum(axis=0)
    tableau[-1, -1] = -rhs.sum()
    basis = np.arange(n_std, n_std + m)
    if not _phase1(tableau, basis, n_std, 1000 + 40 * (m + n_std)):
        return LpOutcome(status=NUMERICAL_FAILURE)
    if -tableau[-1, -1] > FEAS_TOL:
        return LpOutcome(status=INFEASIBLE)

    # Artificials left in the basis sit at or below the phase-1 optimum and
    # are simply not read back.
    x_std = np.zeros(n_std + m)
    x_std[basis] = tableau[:m, -1]
    x = x_std[:num_vars].copy()
    x[free] -= x_std[num_vars:num_vars + int(free.sum())]

    ok = (np.isfinite(x).all()
          and (a_eq.shape[0] == 0 or np.abs(a_eq @ x - b_eq).max() <= FEAS_TOL)
          and (n_ub == 0 or (g_ub @ x - h_ub).max() <= FEAS_TOL)
          and (free.all() or x[~free].min() >= -_BOUND_SLACK))
    return LpOutcome(status=FEASIBLE if ok else NUMERICAL_FAILURE,
                     x=x if ok else None)
