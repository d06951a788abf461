"""Stochastic-order and matrix-dominance predicates.

Covers likelihood-ratio and first-order dominance of probability vectors,
total positivity of order two, copositive dominance of transition matrices,
row-wise first-order dominance and single-crossing (Lehmann) precision of
observation matrices, the boundary-column consistency check, and the two
stochastic-factorization tests (a garbling factor on the right, a mixing
factor on the left).  A factorization test whose sensor matrix is square,
invertible and well conditioned has one candidate factor and is decided in
closed form (``_unique_factor``); only a factor that is not unique, or
sits too close to the sign boundary, goes to the LP.

Every predicate returns the JSON-ready dict ``pomdpcheck check`` prints:
``{"holds": True}``, or ``{"holds": False, "witness": {...}}`` with the
indices and values (index pairs and points as lists) of the violated
inequality; a factorization that holds adds its ``"factor"`` as nested
lists.  LP-backed verdicts come back undetermined (``"holds": None``, with
a witness) when the solver fails numerically.  A dict is always truthy, so
``if verdict:`` is always true: test ``verdict["holds"] is True``.  A
non-finite input entry raises ValueError.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from . import lp
# belief_grid stays importable here: bench/selftest.py checks its aliases.
from .model import belief_grid  # noqa: F401

PAIR_TOL = 1e-12
COPOSITIVE_MARGIN = 1e-9
FACTOR_RESIDUAL_TOL = lp.FEAS_TOL
# A unique factor is decided in closed form up to this condition number of
# the inverted matrix; the reach margin is doubled (see _unique_factor).
_MAX_FACTOR_COND = 1e6
_REACH_SAFETY = 2.0
_EPS = 2.0 ** -52  # float64 machine epsilon


@lru_cache(maxsize=64)
def _subsets(n: int, size: int) -> np.ndarray:
    """Every ``size``-element subset of range(n), one per row of a read-only
    array, in ``combinations`` order (for size 2, ``np.triu_indices``
    order)."""
    out = np.array(list(combinations(range(n), size)), dtype=np.intp)
    out = out.reshape(-1, size)
    out.setflags(write=False)
    return out


def _vec(value, name="vector") -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has a non-finite entry")
    return arr


def _mat(value, name="matrix") -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has a non-finite entry")
    return arr


def mlr_dominates(pi1, pi2) -> dict:
    """Does pi1 dominate pi2 in the monotone likelihood ratio order?

    Holds iff pi1[i] * pi2[j] <= pi2[i] * pi1[j] + PAIR_TOL for all i < j.
    """
    p1, p2 = _vec(pi1, "pi1"), _vec(pi2, "pi2")
    if p1.size != p2.size:
        raise ValueError("vectors must have equal length")
    lhs = np.outer(p1, p2)
    rhs = np.outer(p2, p1)
    gap = lhs - rhs
    gap[np.tril_indices(p1.size)] = -np.inf  # only i < j matters
    worst = gap.max()
    if worst <= PAIR_TOL:
        return {"holds": True}
    i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return {"holds": False, "witness": {
        "kind": "mlr", "i": int(i), "j": int(j),
        "lhs": float(lhs[i, j]), "rhs": float(rhs[i, j])}}


def fosd_dominates(p1, p2) -> dict:
    """First-order stochastic dominance: every upper tail of p1 weighs at
    least as much as the same tail of p2 (within PAIR_TOL)."""
    a, b = _vec(p1, "p1"), _vec(p2, "p2")
    if a.size != b.size:
        raise ValueError("vectors must have equal length")
    tail1 = np.cumsum(a[::-1])[::-1]
    tail2 = np.cumsum(b[::-1])[::-1]
    margins = tail1 - tail2
    j = int(np.argmin(margins))
    if margins[j] >= -PAIR_TOL:
        return {"holds": True}
    return {"holds": False, "witness": {
        "kind": "fosd", "j": j,
        "tail1": float(tail1[j]), "tail2": float(tail2[j])}}


def is_tp2(matrix) -> dict:
    """Total positivity of order two: every 2x2 minor is >= -PAIR_TOL.

    Negative entries are rejected outright.
    """
    m = _mat(matrix, "matrix")
    if m.min() < -PAIR_TOL:
        raise ValueError(f"matrix has negative entry {m.min()}")
    ii, kk = _subsets(m.shape[0], 2).T
    jj, ll = _subsets(m.shape[1], 2).T
    if ii.size == 0 or jj.size == 0:
        return {"holds": True}
    top, bottom = m[ii], m[kk]
    sub = top[:, jj] * bottom[:, ll] - top[:, ll] * bottom[:, jj]
    flat = int(np.argmin(sub))
    r, c = np.unravel_index(flat, sub.shape)
    worst = sub[r, c]
    if worst >= -PAIR_TOL:
        return {"holds": True}
    return {"holds": False, "witness": {
        "kind": "tp2_minor", "rows": [int(ii[r]), int(kk[r])],
        "cols": [int(jj[c]), int(ll[c])], "minor": float(worst)}}


def gamma_matrices(p1, p2) -> np.ndarray:
    """Symmetrized cross-difference matrices of two equally sized stochastic
    matrices, as a read-only (X-1, X, X) stack: for each adjacent column pair
    (j, j+1), raw[m, n] = p1[m, j] * p2[n, j+1] - p1[m, j+1] * p2[n, j],
    symmetrized as (raw + raw') / 2."""
    a, b = _mat(p1, "p1"), _mat(p2, "p2")
    if a.shape != b.shape:
        raise ValueError("matrices must have equal shape")
    cols = a.shape[1]
    out = np.empty((cols - 1, a.shape[0], b.shape[0]))
    for j in range(cols - 1):
        raw = np.outer(a[:, j], b[:, j + 1]) - np.outer(a[:, j + 1], b[:, j])
        out[j] = 0.5 * (raw + raw.T)
    out.setflags(write=False)
    return out


def _face_stationary_candidates(a: np.ndarray):
    """Stationary points of the quadratic form on every face of the simplex.

    Solving [[2A_F, 1], [1', 0]] [pi; lam] = [0; 1] on each support set F gives
    every candidate minimizer in the relative interior of F; infeasible or
    singular faces are skipped.  The faces of one size are solved in one
    batched call, and points come out in ``combinations`` order, smallest
    faces first.  Every vertex is a one-point face whose system is never
    singular, so at least n points are yielded."""
    n = a.shape[0]
    for size in range(1, n + 1):
        faces = _subsets(n, size)
        systems = np.zeros((len(faces), size + 1, size + 1))
        systems[:, :size, :size] = 2.0 * a[faces[:, :, None], faces[:, None, :]]
        systems[:, :size, size] = 1.0
        systems[:, size, :size] = 1.0
        regular = np.linalg.det(systems) != 0.0
        faces, systems = faces[regular], systems[regular]
        rhs = np.zeros((len(faces), size + 1, 1))
        rhs[:, size] = 1.0
        weights = np.linalg.solve(systems, rhs)[:, :size, 0]
        feasible = ~(weights.min(axis=1) < -1e-12)
        faces, weights = faces[feasible], weights[feasible]
        points = np.zeros((len(faces), n))
        points[np.arange(len(faces))[:, None], faces] = np.maximum(weights, 0.0)
        totals = points.sum(axis=1)
        live = ~(totals <= 0)
        yield from points[live] / totals[live, None]


def is_copositive(matrix) -> dict:
    """Is the quadratic form pi' A pi nonnegative over the whole belief simplex
    (within COPOSITIVE_MARGIN)?

    Exact: the minimum is taken over the stationary points of every face of
    the simplex (``_face_stationary_candidates``), which contain a global
    minimizer for three reasons.  The minimum of a quadratic form over the
    simplex is attained at a KKT point in the relative interior of some
    face.  If that face's KKT system is singular, the form is constant along
    its null direction, so the minimizer extends to a smaller face with the
    same value.  Every vertex is a one-point face, whose system is never
    singular.
    """
    a = _mat(matrix, "matrix")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    if np.abs(a - a.T).max() > 1e-9:
        raise ValueError("matrix must be symmetric within 1e-9")
    a = 0.5 * (a + a.T)

    best_val, best_pt = np.inf, None
    for cand in _face_stationary_candidates(a):
        value = float(cand @ a @ cand)
        if value < best_val:
            best_val, best_pt = value, cand

    if best_val >= -COPOSITIVE_MARGIN:
        return {"holds": True}
    return {"holds": False, "witness": {
        "kind": "copositivity", "point": best_pt.tolist(),
        "value": best_val}}


def copositive_dominates(p1, p2) -> dict:
    """Copositive dominance of transition matrices: every symmetrized
    cross-difference matrix of (p1, p2) must be copositive."""
    for j, gamma in enumerate(gamma_matrices(p1, p2)):
        verdict = is_copositive(gamma)
        if verdict["holds"] is not True:
            return {"holds": False,
                    "witness": {**verdict["witness"], "gamma_index": j}}
    return {"holds": True}


def check_a5(b1, b2) -> dict:
    """Row-wise first-order dominance: every row of b2 dominates the matching
    row of b1, i.e. CDF(b1 row) >= CDF(b2 row) columnwise (within PAIR_TOL)."""
    m1, m2 = _mat(b1, "b1"), _mat(b2, "b2")
    if m1.shape != m2.shape:
        raise ValueError("matrices must have equal shape")
    gap = np.cumsum(m1, axis=1) - np.cumsum(m2, axis=1)
    i, j = np.unravel_index(int(np.argmin(gap)), gap.shape)
    if gap[i, j] >= -PAIR_TOL:
        return {"holds": True}
    return {"holds": False, "witness": {
        "kind": "row_dominance", "row": int(i), "col": int(j),
        "cdf1": float(np.cumsum(m1, axis=1)[i, j]),
        "cdf2": float(np.cumsum(m2, axis=1)[i, j])}}


def lehmann_precision(b1, b2) -> dict:
    """Single-crossing precision order: b2 is more precise than b1.

    For every pair of column cutoffs (j for b1, l for b2), the sequence
    d_i = CDF_b1[i, j] - CDF_b2[i, l] over rows i must never step from
    strictly positive to strictly negative; values within PAIR_TOL of zero
    are sign-neutral.

    Only whole-column cutoffs are tested.  Lehmann's order for discrete
    signals is stated for the signal made continuous by adding uniform
    noise, where fractional cutoffs (a share of one column's mass) count as
    well; that randomized-signal form is not checked here and is strictly
    stronger.  The bundled ex1 pair passes this check but fails the
    randomized form: b1[x, 0] / b2[x, 0] falls from 0.889 to 0.5.  Which
    form the paper's precision hypothesis means is not settled here, so this
    check may be weaker than that hypothesis.
    """
    m1, m2 = _mat(b1, "b1"), _mat(b2, "b2")
    if m1.shape[0] != m2.shape[0]:
        raise ValueError("matrices must have the same number of rows")
    c1 = np.cumsum(m1, axis=1)
    c2 = np.cumsum(m2, axis=1)
    for j in range(m1.shape[1]):
        for l in range(m2.shape[1]):
            diffs = c1[:, j] - c2[:, l]
            seen_positive_at = None
            for i, d in enumerate(diffs):
                if d > PAIR_TOL:
                    seen_positive_at = i
                elif d < -PAIR_TOL and seen_positive_at is not None:
                    return {"holds": False, "witness": {
                        "kind": "sign_change", "col1": int(j), "col2": int(l),
                        "row_positive": int(seen_positive_at), "row_negative": int(i),
                        "value_positive": float(diffs[seen_positive_at]),
                        "value_negative": float(d)}}
    return {"holds": True}


def check_a7(b1, b2) -> dict:
    """Boundary-column consistency of an observation-matrix pair.

    With b1 in the less-informative role and b2 in the more-informative role,
    requires for every row i, within PAIR_TOL:
      first column:  b1[i, 0] * b2[X-1, 0]  <=  b2[i, 0] * b1[X-1, 0]
      last column:   b1[i, -1] * b2[X-1, -1] >= b2[i, -1] * b1[X-1, -1]
    Products of zeros satisfy both sides.
    """
    m1, m2 = _mat(b1, "b1"), _mat(b2, "b2")
    if m1.shape != m2.shape:
        raise ValueError("matrices must have equal shape")
    last = m1.shape[0] - 1
    for i in range(m1.shape[0]):
        lhs = m1[i, 0] * m2[last, 0]
        rhs = m2[i, 0] * m1[last, 0]
        if lhs > rhs + PAIR_TOL:
            return {"holds": False, "witness": {
                "kind": "boundary_first_col", "row": int(i),
                "lhs": float(lhs), "rhs": float(rhs)}}
        lhs = m1[i, -1] * m2[last, -1]
        rhs = m2[i, -1] * m1[last, -1]
        if lhs < rhs - PAIR_TOL:
            return {"holds": False, "witness": {
                "kind": "boundary_last_col", "row": int(i),
                "lhs": float(lhs), "rhs": float(rhs)}}
    return {"holds": True}


def _infeasible_verdict() -> dict:
    return {"holds": False, "witness": {
        "kind": "factorization_infeasible",
        "detail": f"no row-stochastic factor within residual {FACTOR_RESIDUAL_TOL}"}}


def _defects(factor: np.ndarray, residual_of) -> tuple[float, float]:
    """A candidate factor's unscaled product residual and row-sum defect."""
    return (float(residual_of(factor)),
            float(np.abs(factor.sum(axis=1) - 1.0).max()))


def _unique_factor(pivot: np.ndarray, axis: int, factor_of,
                   residual_of) -> dict | None:
    """Closed-form verdict of a factorization test whose factor is unique,
    or None when only the LP can decide.

    ``pivot`` is the observation matrix the product equation multiplies the
    factor by.  When it is square with a finite inverse and a condition
    number (in the norm of ``axis``) of at most _MAX_FACTOR_COND, the
    equation has exactly one solution F = ``factor_of(inverse)``.  F's rows
    sum to 1 up to rounding because pivot @ 1 = 1 (and the other matrix's
    rows sum to 1 too), so only its sign is open:

    - min F >= -_BOUND_SLACK with residual and row defect within
      FACTOR_RESIDUAL_TOL: F itself is a checked certificate, so the test
      holds however F was computed.
    - min F < -reach: no factor the LP path could accept exists.  Such a
      factor G has G >= -_BOUND_SLACK and a product residual R of at most
      FACTOR_RESIDUAL_TOL (at most max|pivot| times it in the LP's scaled
      phase 1), and G - F is R pushed through the inverse, so no entry of
      G - F exceeds the inverse's max row sum (``axis`` 1: the factor sits
      right of the pivot) or max column sum (``axis`` 0: left of it) times
      that residual.  Reach is that distance plus the bound slack and the
      rounding of F itself, doubled.  The verdict is the LP path's
      ``factorization_infeasible``.
    - Anything in between goes to the LP, as do singular, ill-conditioned
      and non-square pivots.
    """
    size = pivot.shape[0]
    if pivot.shape[1] != size:
        return None
    try:
        inverse = np.linalg.inv(pivot)
    except np.linalg.LinAlgError:
        return None
    inverse_norm = float(np.abs(inverse).sum(axis=axis).max())
    cond = float(np.abs(pivot).sum(axis=axis).max()) * inverse_norm
    if not cond <= _MAX_FACTOR_COND:  # also refuses a non-finite inverse
        return None
    factor = factor_of(inverse)
    low = float(factor.min())
    if low >= -lp._BOUND_SLACK:
        if max(_defects(factor, residual_of)) > FACTOR_RESIDUAL_TOL:
            return None
        return {"holds": True, "factor": factor.tolist()}
    residual_reach = max(float(np.abs(pivot).max()), 1.0) * FACTOR_RESIDUAL_TOL
    rounding = size * cond * _EPS * float(np.abs(factor).max())
    reach = _REACH_SAFETY * (inverse_norm * residual_reach + lp._BOUND_SLACK
                             + rounding)
    return _infeasible_verdict() if low < -reach else None


def _solve_factor(product_rows: np.ndarray, product_rhs: np.ndarray,
                  shape: tuple[int, int], residual_of) -> dict:
    """LP feasibility core shared by the two factorization tests, for the
    factors ``_unique_factor`` leaves open.

    Finds a row-stochastic matrix of the given shape (flattened row-major in
    the LP) whose product constraints are ``product_rows @ vec = product_rhs``;
    ``residual_of`` recomputes the unscaled defect for the post-check.
    """
    rows_f, cols_f = shape
    sum_rows = np.kron(np.eye(rows_f), np.ones((1, cols_f)))
    outcome = lp.lp_solve(
        a_eq=np.vstack([product_rows, sum_rows]),
        b_eq=np.concatenate([product_rhs, np.ones(rows_f)]))
    if outcome.status == lp.INFEASIBLE:
        return _infeasible_verdict()
    if outcome.status != lp.FEASIBLE:
        return {"holds": None, "witness": {"kind": "lp_numerical_failure"}}
    factor = outcome.x.reshape(rows_f, cols_f)
    residual, row_defect = _defects(factor, residual_of)
    if residual > FACTOR_RESIDUAL_TOL or row_defect > FACTOR_RESIDUAL_TOL:
        return {"holds": None, "witness": {
            "kind": "lp_numerical_failure", "residual": residual,
            "row_defect": row_defect}}
    return {"holds": True, "factor": factor.tolist()}


def blackwell_dominates(b_high, b_low) -> dict:
    """Is b_low a garbling of b_high?  Holds iff a row-stochastic L exists
    with b_high @ L = b_low (within the residual tolerance).

    A square, invertible, reasonably conditioned b_high leaves one candidate,
    L = inv(b_high) @ b_low, and its sign decides the test in closed form
    (``_unique_factor``); otherwise an LP searches for L (``_blackwell_lp``).
    """
    hi, lo = _mat(b_high, "b_high"), _mat(b_low, "b_low")
    if hi.shape[0] != lo.shape[0]:
        raise ValueError("matrices must have the same number of rows")
    verdict = _unique_factor(hi, 1, lambda inverse: inverse @ lo,
                             lambda f: np.abs(hi @ f - lo).max())
    return verdict if verdict is not None else _blackwell_lp(hi, lo)


def _blackwell_lp(hi: np.ndarray, lo: np.ndarray) -> dict:
    """The LP form of ``blackwell_dominates``.  Constraint rows are scaled
    by the max-norm of b_high before solving; the residual post-check runs
    on the unscaled system."""
    scale = max(float(np.abs(hi).max()), 1e-12)
    return _solve_factor(
        product_rows=np.kron(hi / scale, np.eye(lo.shape[1])),
        product_rhs=(lo / scale).reshape(-1),
        shape=(hi.shape[1], lo.shape[1]),
        residual_of=lambda f: np.abs(hi @ f - lo).max())


def reverse_factorization(b_low, b_high) -> dict:
    """Does a row-stochastic state-mixing factor M exist with
    M @ b_high = b_low (within the residual tolerance)?

    A square, invertible, reasonably conditioned b_high leaves one candidate,
    M = b_low @ inv(b_high), decided in closed form as in
    ``blackwell_dominates``; otherwise an LP searches for M
    (``_reverse_lp``)."""
    lo, hi = _mat(b_low, "b_low"), _mat(b_high, "b_high")
    if lo.shape != hi.shape:
        raise ValueError("matrices must have equal shape")
    verdict = _unique_factor(hi, 0, lambda inverse: lo @ inverse,
                             lambda f: np.abs(f @ hi - lo).max())
    return verdict if verdict is not None else _reverse_lp(lo, hi)


def _reverse_lp(lo: np.ndarray, hi: np.ndarray) -> dict:
    """The LP form of ``reverse_factorization``, scaled like
    ``_blackwell_lp``."""
    scale = max(float(np.abs(hi).max()), 1e-12)
    return _solve_factor(
        product_rows=np.kron(np.eye(lo.shape[0]), hi.T / scale),
        product_rhs=(lo / scale).reshape(-1),
        shape=(lo.shape[0], hi.shape[0]),
        residual_of=lambda f: np.abs(f @ hi - lo).max())
