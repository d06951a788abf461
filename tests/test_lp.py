"""Two-phase simplex kernel: known optima, statuses, and a brute-force
vertex-enumeration cross-check on random two-variable programs."""

import numpy as np
import pytest

from pomdpcheck.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram,
                           lp_feasible, lp_solve)


def test_known_optimum_two_constraints():
    # min -x - y  s.t.  x + 2y <= 4,  3x + y <= 6  ->  x = 8/5, y = 6/5
    out = lp_solve(LinearProgram(c=[-1.0, -1.0],
                                 g_ub=[[1.0, 2.0], [3.0, 1.0]],
                                 h_ub=[4.0, 6.0]))
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(-14.0 / 5.0, abs=1e-9)
    assert out.x == pytest.approx([8.0 / 5.0, 6.0 / 5.0], abs=1e-9)


def test_equality_constraint():
    out = lp_solve(LinearProgram(c=[1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(0.0, abs=1e-10)
    assert out.x[0] == pytest.approx(0.0, abs=1e-9)
    assert out.x[1] == pytest.approx(1.0, abs=1e-9)


def test_infeasible_detected():
    out = lp_solve(LinearProgram(c=[1.0], g_ub=[[1.0]], h_ub=[-1.0]))
    assert out.status == INFEASIBLE
    out = lp_solve(LinearProgram(c=[0.0, 0.0], a_eq=[[1.0, 1.0], [1.0, 1.0]],
                                 b_eq=[1.0, 2.0]))
    assert out.status == INFEASIBLE


def test_unbounded_detected():
    out = lp_solve(LinearProgram(c=[-1.0, 0.0], g_ub=[[0.0, 1.0]], h_ub=[1.0]))
    assert out.status == UNBOUNDED


def test_free_variable_bounded_and_unbounded():
    # x free, x <= 3, min -x  ->  x = 3
    out = lp_solve(LinearProgram(c=[-1.0], g_ub=[[1.0]], h_ub=[3.0],
                                 free=[True]))
    assert out.status == OPTIMAL
    assert out.x[0] == pytest.approx(3.0, abs=1e-9)
    # x free, y >= 0, x + y = 1, min x  ->  unbounded below
    out = lp_solve(LinearProgram(c=[1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                                 free=[True, False]))
    assert out.status == UNBOUNDED


def test_feasibility_wrapper():
    out = lp_feasible(a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert out.ok
    assert out.x.sum() == pytest.approx(1.0, abs=1e-9)
    out = lp_feasible(g_ub=[[1.0, 0.0], [-1.0, 0.0]], h_ub=[1.0, -2.0])
    assert out.status == INFEASIBLE


def test_input_validation():
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], a_eq=[[1.0]], b_eq=None)
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 1.0], g_ub=[[1.0]], h_ub=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], free=[True, False])


def _vertex_enumeration_minimum(c, g, h):
    """Brute-force optimum of min c'x st Gx <= h, x >= 0 in two variables:
    enumerate all intersections of constraint boundaries (including the
    axes), keep the feasible ones, and take the best objective.  Returns
    None when no feasible vertex exists (infeasible or fully unbounded
    feasible cones are excluded by construction in the test below)."""
    lines = [(g[i], h[i]) for i in range(len(h))]
    lines += [(np.array([1.0, 0.0]), None), (np.array([0.0, 1.0]), None)]
    best = None
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a1, b1 = lines[i]
            a2, b2 = lines[j]
            mat = np.array([a1, a2])
            rhs = np.array([0.0 if b1 is None else b1,
                            0.0 if b2 is None else b2])
            if abs(np.linalg.det(mat)) < 1e-9:
                continue
            x = np.linalg.solve(mat, rhs)
            if (x >= -1e-9).all() and (g @ x <= h + 1e-9).all():
                val = float(c @ x)
                if best is None or val < best:
                    best = val
    return best


def test_random_programs_match_vertex_enumeration():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(60):
        c = rng.uniform(-1.0, 1.0, 2)
        g = rng.uniform(-1.0, 1.0, (4, 2))
        h = rng.uniform(0.1, 2.0, 4)     # origin always feasible
        # keep the feasible set bounded so both methods report an optimum
        g = np.vstack([g, [1.0, 1.0]])
        h = np.append(h, 3.0)
        expected = _vertex_enumeration_minimum(c, g, h)
        out = lp_solve(LinearProgram(c=c, g_ub=g, h_ub=h))
        assert out.status == OPTIMAL
        assert out.objective == pytest.approx(expected, abs=1e-8)
        checked += 1
    assert checked == 60


def test_random_programs_match_scipy_linprog():
    """Status and objective against SciPy's HiGHS on random programs with
    2-5 variables, some of them free, and a mix of equality and inequality
    rows; the draw yields optimal, infeasible and unbounded programs."""
    from scipy.optimize import linprog
    codes = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
    rng = np.random.default_rng(17)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(400):
        n = int(rng.integers(2, 6))
        m_ub, m_eq = int(rng.integers(0, 5)), int(rng.integers(0, 3))
        if m_ub + m_eq == 0:
            m_ub = 1
        c = rng.uniform(-1.0, 1.0, n)
        g = rng.uniform(-1.0, 1.0, (m_ub, n)) if m_ub else None
        h = rng.uniform(-0.5, 1.5, m_ub) if m_ub else None
        a = rng.uniform(-1.0, 1.0, (m_eq, n)) if m_eq else None
        b = rng.uniform(-1.0, 1.0, m_eq) if m_eq else None
        free = rng.random(n) < 0.3
        ref = linprog(c, A_ub=g, b_ub=h, A_eq=a, b_eq=b,
                      bounds=[(None, None) if f else (0.0, None) for f in free],
                      method="highs")
        assert ref.status in codes
        out = lp_solve(LinearProgram(c=c, a_eq=a, b_eq=b, g_ub=g, h_ub=h,
                                     free=free))
        assert out.status == codes[ref.status]
        if out.status == OPTIMAL:
            assert out.objective == pytest.approx(ref.fun, abs=1e-8,
                                                  rel=1e-8)
        seen[out.status] += 1
    assert min(seen.values()) >= 40, seen
