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
    # x = -1 with x >= 0; two parallel rows with different right-hand sides;
    # x0 + s = 1 and x0 - t = 2 with s, t >= 0.
    out = lp_solve([[1.0]], [-1.0])
    assert out.status == INFEASIBLE
    assert out.x is None
    out = lp_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert out.status == INFEASIBLE
    out = lp_solve([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]], [1.0, 2.0])
    assert out.status == INFEASIBLE


def test_input_validation():
    with pytest.raises(ValueError):
        lp_solve([1.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        lp_solve([[1.0, 1.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        lp_solve([[1.0, 1.0], [0.0, 1.0]], [[1.0, 2.0]])


def test_random_programs_match_scipy_linprog():
    """Feasibility against SciPy's HiGHS (zero objective) on random programs
    with 2-5 variables, some of them free, and a mix of equality and
    inequality rows.  Each goes to lp_solve in standard form: a free
    coordinate splits into positive and negative parts and each inequality
    row gets a slack, [A, -A[:, free], 0; G, -G[:, free], I].  The point
    mapped back meets each row within FEAS_TOL and respects its bounds."""
    from scipy.optimize import linprog
    codes = {0: FEASIBLE, 2: INFEASIBLE}
    rng = np.random.default_rng(17)
    seen = {FEASIBLE: 0, INFEASIBLE: 0}
    for _ in range(400):
        n = int(rng.integers(2, 6))
        m_ub, m_eq = int(rng.integers(0, 5)), int(rng.integers(0, 3))
        if m_ub + m_eq == 0:
            m_ub = 1
        g = rng.uniform(-1.0, 1.0, (m_ub, n))
        h = rng.uniform(-0.5, 1.5, m_ub)
        a = rng.uniform(-1.0, 1.0, (m_eq, n))
        b = rng.uniform(-1.0, 1.0, m_eq)
        free = rng.random(n) < 0.3
        ref = linprog(np.zeros(n), A_ub=g if m_ub else None,
                      b_ub=h if m_ub else None, A_eq=a if m_eq else None,
                      b_eq=b if m_eq else None,
                      bounds=[(None, None) if f else (0.0, None) for f in free],
                      method="highs")
        assert ref.status in codes
        std = np.block([[a, -a[:, free], np.zeros((m_eq, m_ub))],
                        [g, -g[:, free], np.eye(m_ub)]])
        out = lp_solve(std, np.concatenate([b, h]))
        assert out.status == codes[ref.status]
        if out.status == FEASIBLE:
            x = out.x[:n].copy()
            x[free] -= out.x[n:n + int(free.sum())]
            assert np.abs(a @ x - b).max(initial=0.0) <= FEAS_TOL
            assert (g @ x - h).max(initial=0.0) <= FEAS_TOL
            assert (x[~free] >= 0.0).all()
        seen[out.status] += 1
    assert min(seen.values()) >= 40, seen
