"""End-to-end acceptance suite: ten criteria, one test each.

The conftest terminal hook prints one PASS/FAIL line per criterion after
the run.  Criterion 4 asserts myopic-policy dominance on ex1 and ex2, holds
the gain-monotonicity margin to its budget wherever a Blackwell ordering
predicts it, and checks that exact solves reproduce the ex1/ex2 gain dips,
where no checked order predicts monotonicity.
"""

import json

import numpy as np
import pytest

from pomdpcheck import (belief_grid, blackwell_dominates, compare_models,
                        fosd_dominates, gen_example, is_copositive, is_tp2,
                        mlr_dominates, psi_sweep, reverse_factorization,
                        save_model, slack_budget, solve_grid,
                        gamma_monotone_report, verify_policy_dominance,
                        verify_q_diff_monotone, verify_value_monotone_convex,
                        solve_exact)
from pomdpcheck.cli import main

from oracles import (copositive2_closed_form, copositive3_closed_form,
                     copositive_grid_oracle, expectimax_values, mlr_oracle,
                     psi_sweep_oracle, random_belief, random_model,
                     random_stochastic, tp2_oracle)

RESIDUAL = 1e-8
Q_SLACK = 2.0 * RESIDUAL / 0.1          # comparison budget at discount 0.9
RATIO_BOUND = 0.9 + 1e-6


def _check_via_cli(tmp_path, name, **params):
    path = tmp_path / f"{name}.json"
    save_model(gen_example(name, **params), path)
    out = tmp_path / f"{name}_report.json"
    assert main(["check", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _holds(section):
    return [v["holds"] for v in section]


def test_criterion_01_banded_fixture_hypotheses(tmp_path):
    doc = _check_via_cli(tmp_path, "ex1")
    assert _holds(doc["a2_tp2_transition"]) == [True, True]
    assert _holds(doc["a3_tp2_observation"]) == [True, True]
    assert _holds(doc["a6_precision"]) == [True]
    assert _holds(doc["a7_boundary"]) == [True]
    assert _holds(doc["a5_row_dominance"]) == [False]
    assert _holds(doc["blackwell"]) == [False]


def test_criterion_02_dense_fixture_hypotheses(tmp_path):
    doc = _check_via_cli(tmp_path, "ex2")
    assert _holds(doc["a2_tp2_transition"]) == [True, True]
    assert _holds(doc["a3_tp2_observation"]) == [True, True]
    assert _holds(doc["a6_precision"]) == [True]
    assert _holds(doc["a7_boundary"]) == [True]
    assert _holds(doc["a5_row_dominance"]) == [True]
    assert _holds(doc["blackwell"]) == [False]


def test_criterion_03_reverse_factorization(reversed_factor_model):
    m = reversed_factor_model
    forward = blackwell_dominates(m.observation[1], m.observation[0])
    assert forward["holds"] is False
    reverse = reverse_factorization(m.observation[0], m.observation[1])
    assert reverse["holds"] is True
    factor = np.asarray(reverse["factor"])
    assert factor.min() >= -1e-9
    assert np.abs(factor.sum(axis=1) - 1.0).max() <= 1e-8
    assert np.abs(factor @ m.observation[1] - m.observation[0]).max() <= 1e-8


def test_criterion_04_dominance_and_gain_margin(ex1, ex2, hier, ex1_grid100,
                                                ex2_grid100, hier_exact_h6,
                                                ex1_exact_h10, ex2_exact_h5):
    # Dominance of the myopic policy is the paper's stated result and is
    # asserted on the fixtures that satisfy the statement 1/2 hypotheses.
    for name, m, vf in (("banded", ex1, ex1_grid100),
                        ("dense", ex2, ex2_grid100)):
        dom = verify_policy_dominance(m, vf, resolution=100, slack=Q_SLACK)
        assert dom["num_beliefs"] == 5151
        assert dom["violations"] == [], (
            f"{name}: {len(dom['violations'])} dominance violations")

    # Gain monotonicity is predicted only for a shared transition with
    # Blackwell-ordered sensors, and then for every convex value function,
    # so hierarchical's exact horizon-6 solve is enough to hold it to the
    # budget.
    hier_gain = verify_q_diff_monotone(hier, hier_exact_h6, resolution=100)
    assert hier_gain["predicted"] is True
    assert hier_gain["min_margin"] >= -Q_SLACK, (
        f"hierarchical: gain margin {hier_gain['min_margin']:.6e} at belief "
        f"{hier_gain['argmin_belief']} is below the budget {-Q_SLACK:.1e}")

    # ex1 and ex2 pass only the whole-column precision check, which does not
    # predict gain monotonicity; their dips belong to the models, so the
    # exact solves put the same dip at the same belief.  The margin is blind
    # to a constant added to V, so a finite-horizon solve reproduces it long
    # before its values converge: ex1 at horizon 10 agrees with the grid to
    # about 2e-8, and ex2's margin still moves 1.5e-5 from horizon 4 to 5.
    # Both tolerances stay below 1.2% of the dip.
    for name, m, grid, exact, tol in (
            ("banded", ex1, ex1_grid100, ex1_exact_h10, 1e-6),
            ("dense", ex2, ex2_grid100, ex2_exact_h5, 1e-4)):
        gain = verify_q_diff_monotone(m, grid, resolution=100)
        ref = verify_q_diff_monotone(m, exact, resolution=100)
        assert gain["num_beliefs"] == 5151
        assert gain["predicted"] is False and ref["predicted"] is False
        assert (ref["argmin_belief"], ref["argmin_pair"]) == (
            gain["argmin_belief"], gain["argmin_pair"]), (
            f"{name}: exact dip at {ref['argmin_belief']}, grid dip at "
            f"{gain['argmin_belief']}")
        assert abs(ref["min_margin"] - gain["min_margin"]) <= tol, (
            f"{name}: grid gain margin {gain['min_margin']:.6e} vs exact "
            f"{ref['min_margin']:.6e} at {gain['argmin_belief']}")


def test_criterion_05_psi_sweep(ex1, ex2):
    rng = np.random.default_rng(50)
    for m in (ex1, ex2):
        beliefs = rng.dirichlet(np.ones(3), size=200)
        sweep = psi_sweep(m, beliefs)
        assert sweep["num_beliefs"] == 200
        # psi is piecewise linear with its breakpoints in [0, 1], so a fine
        # uniform grid cannot find a lower value than the breakpoints do
        oracle_minima = psi_sweep_oracle(m, beliefs, 2001)[0]
        assert np.abs(sweep["minima"] - oracle_minima).max() <= 1e-15
        assert sweep["min"] >= -1e-9
        assert sweep["max_abs_psi_at_0"] <= 1e-12
        assert sweep["max_abs_psi_at_1"] <= 1e-12
    # endpoints vanish on arbitrary shared-kernel models as well
    for seed in range(30):
        model_rng = np.random.default_rng(1000 + seed)
        m = random_model(model_rng, int(model_rng.integers(2, 5)),
                         int(model_rng.integers(2, 5)),
                         int(model_rng.integers(2, 4)), shared=True)
        beliefs = [random_belief(model_rng, m.num_states) for _ in range(5)]
        sweep = psi_sweep(m, beliefs)
        assert sweep["max_abs_psi_at_0"] <= 1e-12
        assert sweep["max_abs_psi_at_1"] <= 1e-12


def test_criterion_06_exact_solver_matches_expectimax():
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(100):
        dims = rng.integers(2, 4, size=3)
        m = random_model(rng, int(dims[0]), int(dims[1]), int(dims[2]))
        vf = solve_exact(m, horizon=3)
        beliefs = np.array([random_belief(rng, m.num_states)
                            for _ in range(50)])
        diff = np.abs(vf.values_at(beliefs) - expectimax_values(m, beliefs, 3))
        worst = max(worst, float(diff.max()))
    assert worst <= 1e-9, f"worst expectimax gap {worst:.3e}"


def test_criterion_07_contraction_and_cross_method(ex1, ex1_exact_h10,
                                                    ex2_exact_h5,
                                                    hier_exact_h6):
    solves = {"banded": ex1_exact_h10, "ex2": ex2_exact_h5,
              "hierarchical": hier_exact_h6}
    for name, horizon in (("reversed_factor", 6), ("tridiagonal", 6)):
        solves[name] = solve_exact(gen_example(name), horizon=horizon)
    solves["hier-garbled"] = solve_exact(
        gen_example("hierarchical", garbled=True), horizon=6)
    for name, vf in solves.items():
        res = np.asarray(vf.residuals)
        assert res.min() > 0.0
        ratios = res[1:] / res[:-1]
        assert (ratios <= RATIO_BOUND).all(), (
            f"{name}: ratio {ratios.max():.8f} exceeds {RATIO_BOUND}")
    grid = solve_grid(ex1, resolution=100, horizon=10)
    exact_vals = ex1_exact_h10.values_at(grid.beliefs)
    gap = np.abs(grid.values - exact_vals).max()
    assert gap <= 1e-3, f"exact/grid gap {gap:.3e} at shared grid points"
    assert (grid.values <= exact_vals + 1e-9).all()


def test_criterion_08_value_shape_and_alpha_monotonicity(ex1_exact_h10):
    shape = verify_value_monotone_convex(ex1_exact_h10)
    assert shape["tol"] == 1e-9
    assert shape["monotone_ok"], shape
    assert shape["convex_ok"], shape
    gamma = gamma_monotone_report(ex1_exact_h10)
    assert gamma["fully_increasing"], gamma


def test_criterion_09_cross_model_value_dominance(hier, hier_weak):
    report = compare_models(hier, hier_weak, resolution=100,
                            residual=RESIDUAL, method="grid")
    assert report["hypotheses_hold"], report["hypotheses"]
    assert report["slack"] == pytest.approx(Q_SLACK)
    assert report["min_gap"] >= -2.0 * Q_SLACK, report["min_gap"]
    self_report = compare_models(hier, hier, resolution=40, horizon=40)
    assert self_report["min_gap"] == 0.0
    assert self_report["mean_gap"] == 0.0


def test_criterion_10_order_property_suite():
    rng = np.random.default_rng(100)
    failures = []

    # likelihood-ratio dominance implies first-order dominance
    for k in range(10_000):
        n = int(rng.integers(2, 7))
        base = rng.dirichlet(np.ones(n))
        if k % 2 == 0:
            tilt = base * np.exp(rng.uniform(0.1, 2.0) * np.arange(n))
            other = tilt / tilt.sum()
        else:
            other = rng.dirichlet(np.ones(n))
        if mlr_dominates(other, base)["holds"]:
            if not fosd_dominates(other, base)["holds"]:
                failures.append(("mlr-fosd", k))

    # TP2 by minors equals likelihood-ratio ordering of every row pair
    for k in range(10_000):
        rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        mat = random_stochastic(rng, rows, cols,
                                zero_prob=0.3 if k % 3 == 0 else 0.0)
        by_minors = is_tp2(mat)["holds"]
        by_rows = all(mlr_oracle(mat[j], mat[i], tol=1e-12)
                      for i in range(rows) for j in range(i + 1, rows))
        if by_minors != by_rows:
            failures.append(("tp2-mlr", k))
        if by_minors != tp2_oracle(mat):
            failures.append(("tp2-minors", k))

    # copositivity: library verdict vs independent closed forms and the
    # dense-grid certificate
    for k in range(10_000):
        n = 2 if k < 5_000 else 3
        q = rng.uniform(-1.0, 1.0, (n, n))
        q = (q + q.T) / 2.0
        closed = (copositive2_closed_form(q) if n == 2
                  else copositive3_closed_form(q))
        lib = is_copositive(q)["holds"]
        if lib != closed:
            failures.append(("copositive-closed", k))
        if k % 10 == 0:
            gmin = copositive_grid_oracle(q, 150)
            if closed and gmin < -1e-9:
                failures.append(("copositive-grid-pos", k))
            if not closed and gmin > 10.0 * np.abs(q).max() / 150.0 ** 2:
                failures.append(("copositive-grid-neg", k))

    # constructed garblings are always detected with a tight factor
    for k in range(10_000):
        states = int(rng.integers(2, 5))
        obs = int(rng.integers(2, 5))
        b_high = random_stochastic(rng, states, obs)
        b_low = b_high @ random_stochastic(rng, obs, obs)
        verdict = blackwell_dominates(b_high, b_low)
        if verdict["holds"] is not True:
            failures.append(("blackwell-detect", k))
            continue
        factor = np.asarray(verdict["factor"])
        if np.abs(b_high @ factor - b_low).max() > 1e-8:
            failures.append(("blackwell-residual", k))
        if factor.min() < -1e-9 or np.abs(factor.sum(1) - 1).max() > 1e-8:
            failures.append(("blackwell-stochastic", k))

    assert failures == [], f"{len(failures)} failures: {failures[:10]}"
