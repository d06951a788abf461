"""Phase-1 feasibility kernel: statuses, returned points, shape validation,
and a cross-check against SciPy's HiGHS on random programs."""

import numpy as np
import pytest

from pomdpcheck.lp import FEAS_TOL, FEASIBLE, INFEASIBLE, lp_solve


def test_equality_constraint():
    out = lp_solve(a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert out.status == FEASIBLE
    assert (out.x >= 0.0).all()
    assert out.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_infeasible_detected():
    out = lp_solve(g_ub=[[1.0]], h_ub=[-1.0])
    assert out.status == INFEASIBLE
    assert out.x is None
    out = lp_solve(a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 2.0])
    assert out.status == INFEASIBLE
    out = lp_solve(g_ub=[[1.0, 0.0], [-1.0, 0.0]], h_ub=[1.0, -2.0])
    assert out.status == INFEASIBLE


def test_free_variable_bounded_and_unbounded():
    # x <= -2 needs a negative coordinate: infeasible when bounded, feasible
    # once x is free.
    assert lp_solve(g_ub=[[1.0]], h_ub=[-2.0]).status == INFEASIBLE
    out = lp_solve(g_ub=[[1.0]], h_ub=[-2.0], free=[True])
    assert out.status == FEASIBLE
    assert out.x[0] <= -2.0 + FEAS_TOL
    # x free, y >= 0, x + y = 1, x <= -3  ->  y >= 4
    out = lp_solve(a_eq=[[1.0, 1.0]], b_eq=[1.0], g_ub=[[1.0, 0.0]],
                   h_ub=[-3.0], free=[True, False])
    assert out.status == FEASIBLE
    assert out.x[0] <= -3.0 + FEAS_TOL and out.x[1] >= 4.0 - FEAS_TOL
    assert out.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_input_validation():
    with pytest.raises(ValueError):
        lp_solve()
    with pytest.raises(ValueError):
        lp_solve(a_eq=[[1.0]], b_eq=None)
    with pytest.raises(ValueError):
        lp_solve(g_ub=[[1.0]])
    with pytest.raises(ValueError):
        lp_solve(a_eq=[[1.0, 1.0]], b_eq=[1.0], g_ub=[[1.0]], h_ub=[1.0])
    with pytest.raises(ValueError):
        lp_solve(a_eq=[[1.0, 1.0]], b_eq=[1.0, 2.0])
    with pytest.raises(ValueError):
        lp_solve(a_eq=[1.0, 1.0], b_eq=[1.0])
    with pytest.raises(ValueError):
        lp_solve(g_ub=[[1.0]], h_ub=[1.0], free=[True, False])


def test_random_programs_match_scipy_linprog():
    """Feasibility against SciPy's HiGHS (zero objective) on random programs
    with 2-5 variables, some of them free, and a mix of equality and
    inequality rows; every point returned meets each row within FEAS_TOL
    and respects its bounds."""
    from scipy.optimize import linprog
    codes = {0: FEASIBLE, 2: INFEASIBLE}
    rng = np.random.default_rng(17)
    seen = {FEASIBLE: 0, INFEASIBLE: 0}
    for _ in range(400):
        n = int(rng.integers(2, 6))
        m_ub, m_eq = int(rng.integers(0, 5)), int(rng.integers(0, 3))
        if m_ub + m_eq == 0:
            m_ub = 1
        g = rng.uniform(-1.0, 1.0, (m_ub, n)) if m_ub else None
        h = rng.uniform(-0.5, 1.5, m_ub) if m_ub else None
        a = rng.uniform(-1.0, 1.0, (m_eq, n)) if m_eq else None
        b = rng.uniform(-1.0, 1.0, m_eq) if m_eq else None
        free = rng.random(n) < 0.3
        ref = linprog(np.zeros(n), A_ub=g, b_ub=h, A_eq=a, b_eq=b,
                      bounds=[(None, None) if f else (0.0, None) for f in free],
                      method="highs")
        assert ref.status in codes
        out = lp_solve(a_eq=a, b_eq=b, g_ub=g, h_ub=h, free=free)
        assert out.status == codes[ref.status]
        if out.status == FEASIBLE:
            if m_eq:
                assert np.abs(a @ out.x - b).max() <= FEAS_TOL
            if m_ub:
                assert (g @ out.x - h).max() <= FEAS_TOL
            assert (out.x[~free] >= 0.0).all()
        seen[out.status] += 1
    assert min(seen.values()) >= 40, seen
