"""Shared fixtures: bundled models, cached solves, and the acceptance
summary that prints one line per criterion at the end of the run.

The expensive solves (grid resolution 100 at the default residual budget,
exact horizons 10, 5 and 6) are session-scoped so the acceptance tests and the
unit tests share one computation each.
"""

from __future__ import annotations

import pytest

from pomdpcheck import gen_example, solve_exact, solve_grid

RESIDUAL = 1e-8
GRID = 100


@pytest.fixture(scope="session")
def ex1():
    return gen_example("ex1")


@pytest.fixture(scope="session")
def ex2():
    return gen_example("ex2")


@pytest.fixture(scope="session")
def reversed_factor_model():
    return gen_example("reversed_factor")


@pytest.fixture(scope="session")
def hier():
    return gen_example("hierarchical")


@pytest.fixture(scope="session")
def hier_weak():
    return gen_example("hierarchical", garbled=True)


@pytest.fixture(scope="session")
def tri():
    return gen_example("tridiagonal")


@pytest.fixture(scope="session")
def ex1_exact_h10(ex1):
    return solve_exact(ex1, horizon=10)


@pytest.fixture(scope="session")
def ex2_exact_h5(ex2):
    return solve_exact(ex2, horizon=5)


@pytest.fixture(scope="session")
def hier_exact_h6(hier):
    return solve_exact(hier, horizon=6)


@pytest.fixture(scope="session")
def ex1_grid100(ex1):
    return solve_grid(ex1, resolution=GRID, residual=RESIDUAL)


@pytest.fixture(scope="session")
def ex2_grid100(ex2):
    return solve_grid(ex2, resolution=GRID, residual=RESIDUAL)


# ---------------------------------------------------------------------------
# Acceptance summary
# ---------------------------------------------------------------------------

CRITERIA = {
    1: "ex1 hypothesis report matches the banded-sensor expectations",
    2: "ex2 hypothesis report adds row-wise dominance, still no garbling",
    3: "reversed_factor: reverse factorization exists, forward is infeasible",
    4: "verify at grid 100 / residual 1e-8: dominance clean on ex1/ex2; gain "
       "margin within budget where Blackwell predicts it (hierarchical, "
       "exact horizon 6); the ex1/ex2 gain dips match the exact solves",
    5: "psi sweep nonnegative on ex1/ex2; endpoints vanish on random models",
    6: "horizon-3 exact solver matches expectimax on 100 random models",
    7: "residual ratios contract on all fixtures; exact and grid agree on ex1",
    8: "value monotone/convex on lines; alpha coordinates nondecreasing (ex1)",
    9: "hierarchical pair value gap within budget; self-compare exactly zero",
    10: "order-theory property suite, 10k cases per family, zero failures",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                tail = nodeid.split("test_criterion_", 1)[1]
                num = int(tail[:2])
                # setup/teardown reports shadow call reports only on error
                if num not in results or outcome != "passed":
                    results[num] = outcome
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        status = "PASS" if results[num] == "passed" else "FAIL"
        terminalreporter.write_line(
            f"criterion {num:2d}: {status} - {CRITERIA[num]}")
