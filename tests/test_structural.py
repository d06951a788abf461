"""Hypothesis reports, dominance/gain measurements, psi sweeps, shape
checks, and the two-model comparison, on small solves."""

import json

import numpy as np
import pytest

from pomdpcheck import (PomdpModel, assumption_report, compare_models,
                        gen_example, psi_sweep, slack_budget, solve_exact,
                        solve_grid, verification_report,
                        verify_policy_dominance, verify_q_diff_monotone,
                        verify_range_containment,
                        verify_value_monotone_convex)
from pomdpcheck.model import belief_grid
from pomdpcheck.solver import _residual_sweeps

from oracles import psi_sweep_oracle, random_model, range_failures_oracle


@pytest.fixture(scope="module")
def ex1_small(ex1):
    return solve_grid(ex1, resolution=30, horizon=60)


# ---------------------------------------------------------------------------
# Assumption report
# ---------------------------------------------------------------------------

def _holds(verdicts):
    return [v["holds"] for v in verdicts]


def test_assumption_report_fields_on_ex1(ex1):
    rep = assumption_report(ex1)
    assert _holds(rep["a1_monotone_rewards"]) == [True, True]
    assert rep["a1_prime_reward_shift"]["status"] == "feasible"
    assert _holds(rep["a2_tp2_transition"]) == [True, True]
    assert _holds(rep["a3_tp2_observation"]) == [True, True]
    assert _holds(rep["a4_copositive_dominance"]) == [True]  # shared: trivial
    assert _holds(rep["a5_row_dominance"]) == [False]
    assert _holds(rep["a6_precision"]) == [True]
    assert _holds(rep["a7_boundary"]) == [True]
    assert rep["shared_transition"] is True
    assert rep["statement1_applicable"] is True
    assert rep["statement2_applicable"] is False   # A5 fails
    json.dumps(rep, allow_nan=False)               # JSON-ready


def test_assumption_report_single_action():
    m = PomdpModel(name="solo", discount=0.5,
                   transition=[[0.7, 0.3], [0.4, 0.6]],
                   observation=[[[0.9, 0.1], [0.2, 0.8]]],
                   reward=[[0.0, 1.0]])
    rep = assumption_report(m)
    assert rep["a4_copositive_dominance"] == [] and \
        rep["a5_row_dominance"] == [] and rep["blackwell"] == []
    assert any("single action" in n for n in rep["notes"])
    assert rep["statement1_applicable"] is True  # vacuous pairwise hypotheses
    assert rep["statement2_applicable"] is True


# ---------------------------------------------------------------------------
# Slack budget and solver plumbing
# ---------------------------------------------------------------------------

def test_slack_budget_formulas(ex1):
    assert slack_budget(ex1, residual=1e-8) == pytest.approx(2e-7)
    expected = 2.0 * 0.9 ** 10 * 3.4 / 0.1
    assert slack_budget(ex1, horizon=10) == pytest.approx(expected)
    with pytest.raises(ValueError):
        slack_budget(ex1, residual=1e-8, horizon=10)
    with pytest.raises(ValueError):
        slack_budget(ex1)
    # rho^k and 1 - rho bound nothing for a negative discount: at -0.5 the
    # horizon-5 formula went negative and the horizon-4 one divided by 1.5.
    negative = PomdpModel(name="negative", discount=-0.5,
                          transition=ex1.transition,
                          observation=ex1.observation, reward=ex1.reward)
    for stop in ({"residual": 1e-8}, {"horizon": 4}, {"horizon": 5}):
        with pytest.raises(ValueError, match=r"discount in \[0, 1\)"):
            slack_budget(negative, **stop)


def test_residual_sweep_count(ex1):
    k = _residual_sweeps(ex1, 1e-8)
    assert k == 187
    assert 0.9 ** k * 3.4 <= 1e-8 < 0.9 ** (k - 1) * 3.4


def test_solve_for_verification_modes(ex1):
    """``verification_report`` measures the solve its ``method`` names,
    with the given resolution and stop rule."""
    for method, solve, stop in (("grid", solve_grid, {"horizon": 5}),
                                ("grid", solve_grid, {"residual": 1e-4}),
                                ("exact", solve_exact, {"horizon": 2})):
        report = verification_report(ex1, method=method, resolution=10,
                                     **stop)
        direct = solve(ex1, resolution=10, **stop)
        assert report["method"] == method
        assert report["achieved_residual"] == direct.residual
        assert report["value_shape"] == verify_value_monotone_convex(direct)
        assert report["theorem1"]["dominance"] == verify_policy_dominance(
            ex1, direct, resolution=10, slack=report["slack"])
    assert solve_grid(ex1, resolution=10, horizon=5).iterations == 5
    assert solve_grid(ex1, resolution=10, residual=1e-4).iterations == \
        _residual_sweeps(ex1, 1e-4)
    assert solve_exact(ex1, resolution=10, horizon=2).horizon == 2
    with pytest.raises(KeyError):
        verification_report(ex1, method="nope", resolution=10, horizon=2)
    with pytest.raises(ValueError):
        solve_grid(ex1, resolution=10)


# ---------------------------------------------------------------------------
# Dominance and gain monotonicity
# ---------------------------------------------------------------------------

def test_policy_dominance_clean_on_ex1(ex1, ex1_small):
    report = verify_policy_dominance(ex1, ex1_small, resolution=30,
                                     slack=slack_budget(ex1, horizon=60))
    assert report["violations"] == []
    assert report["min_margin"] == 0.0
    assert report["num_beliefs"] == 496


def test_policy_dominance_flags_engineered_violation():
    # a negative slack makes the tolerance band unsatisfiable, so every
    # belief is flagged; this exercises the violation records end to end
    m = gen_example("ex1")
    vf = solve_grid(m, resolution=10, horizon=20)
    report = verify_policy_dominance(m, vf, resolution=10, slack=-1.0)
    assert report["violations"]
    first = report["violations"][0]
    assert set(first) == {"belief", "myopic_action", "optimal_action",
                          "margin"}
    assert 1 <= first["myopic_action"] <= 2


def test_q_diff_monotone_reports_negative_pocket(ex1, ex1_small):
    report = verify_q_diff_monotone(ex1, ex1_small, resolution=30)
    assert report["num_beliefs"] == 496
    assert len(report["min_margin_per_pair"]) == 1
    # the bundled banded model genuinely dips negative; the check reports
    # rather than asserts
    assert report["min_margin"] < 0.0
    assert report["argmin_pair"] == [1, 2]
    assert len(report["argmin_belief"]) == 3


def test_q_diff_single_action_vacuous():
    m = PomdpModel(name="solo", discount=0.5,
                   transition=[[0.7, 0.3], [0.4, 0.6]],
                   observation=[[[0.9, 0.1], [0.2, 0.8]]],
                   reward=[[0.0, 1.0]])
    vf = solve_exact(m, resolution=5, horizon=3)
    report = verify_q_diff_monotone(m, vf, resolution=5)
    assert report["min_margin_per_pair"] == []
    assert report["min_margin"] is None


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------

def test_psi_endpoints_vanish(ex1):
    rng = np.random.default_rng(0)
    beliefs = [rng.dirichlet(np.ones(3)) for _ in range(20)]
    sweep = psi_sweep(ex1, beliefs)
    assert sweep["num_beliefs"] == 20
    assert sweep["max_abs_psi_at_0"] <= 1e-12
    assert sweep["max_abs_psi_at_1"] <= 1e-12


def test_psi_nonnegative_on_ex1(ex1):
    rng = np.random.default_rng(1)
    beliefs = rng.dirichlet(np.ones(3), size=50)
    sweep = psi_sweep(ex1, beliefs)
    assert sweep["min"] >= -1e-9
    assert sweep["minima"].shape == (50, 1)


def test_tail_sweeps_match_per_belief_oracles():
    """The batched psi sweep and range check agree with per-belief loops on
    random shared-transition models with 2-4 states: minima and endpoints
    within 1e-15, verdicts and failure records exactly.  In the last model
    the second action never emits its first observation (sigma = 0), whose
    breakpoint must reach neither the psi minima nor the tail ranges."""
    rng = np.random.default_rng(61)
    models = [random_model(rng, x, y, u, shared=True)
              for x, y, u in ((2, 2, 2), (3, 3, 3), (4, 2, 2), (4, 3, 3))]
    m = random_model(rng, 3, 3, 3, shared=True)
    obs = m.observation.copy()
    obs[1][:, 0] = 0.0
    obs[1] /= obs[1].sum(axis=1, keepdims=True)
    models.append(PomdpModel(name="dead_obs", discount=m.discount,
                             transition=m.transition[0], observation=obs,
                             reward=m.reward))
    failing = passing = 0
    for m in models:
        beliefs = rng.dirichlet(np.ones(m.num_states), size=60)
        sweep = psi_sweep(m, beliefs)
        minima, end_low, end_high = psi_sweep_oracle(m, beliefs, 201)
        assert np.abs(sweep["minima"] - minima).max() <= 1e-15
        assert abs(sweep["max_abs_psi_at_0"] - np.abs(end_low).max()) <= 1e-15
        assert abs(sweep["max_abs_psi_at_1"] - np.abs(end_high).max()) <= 1e-15
        reports = verify_range_containment(m, beliefs)
        assert len(reports) == m.num_actions - 1
        for u, report in enumerate(reports):
            assert report["pair"] == [u + 1, u + 2]
            expected = range_failures_oracle(m, beliefs, u, u + 1,
                                             report["tol"])
            assert report["failures"] == expected
            assert report["holds"] == (not expected)
            failing += len(expected)
            passing += beliefs.shape[0] - len(expected)
    assert failing and passing


def test_psi_requires_shared_transition():
    rng = np.random.default_rng(2)
    m = random_model(rng, 3, 3, 2, shared=False)
    with pytest.raises(ValueError):
        psi_sweep(m, [[0.3, 0.3, 0.4]])


# ---------------------------------------------------------------------------
# Range containment and shape
# ---------------------------------------------------------------------------

def test_range_containment_on_fixtures():
    rng = np.random.default_rng(3)
    beliefs = rng.dirichlet(np.ones(3), size=40)
    for name in ("ex1", "ex2"):
        m = gen_example(name)
        report = verify_range_containment(m, beliefs)[0]
        assert report["holds"], report["failures"][:2]


def test_range_containment_detects_violation():
    # an identity sensor's posterior tails span [0, 1] while an uninformative
    # sensor pins every posterior at the prior, so putting the uninformative
    # sensor in the high role breaks containment at any interior belief
    base = gen_example("ex1")
    m = PomdpModel("uniform-vs-identity", base.discount, base.transition[0],
                   [np.eye(3), np.full((3, 3), 1.0 / 3.0)], base.reward)
    rng = np.random.default_rng(4)
    beliefs = rng.dirichlet(np.ones(3), size=40)
    report = verify_range_containment(m, beliefs)[0]
    assert not report["holds"]
    assert report["failures"]
    # and with the roles the right way round it is satisfied
    m_ok = PomdpModel("identity-over-uniform", base.discount,
                      base.transition[0],
                      [np.full((3, 3), 1.0 / 3.0), np.eye(3)], base.reward)
    assert verify_range_containment(m_ok, beliefs)[0]["holds"]


def test_value_shape_on_exact_solve(ex1):
    vf = solve_exact(ex1, horizon=6)
    report = verify_value_monotone_convex(vf)
    assert report["monotone_ok"] and report["convex_ok"]
    assert report["min_convexity_margin"] >= -1e-9


def test_value_shape_flags_nonmonotone_envelope():
    # a decreasing linear function is trivially convex but not monotone
    vf = type("VF", (), {})()
    vf.vectors = np.array([[1.0, 0.0, 0.0]])
    vf.values_at = lambda pts: pts @ vf.vectors[0]
    report = verify_value_monotone_convex(vf)
    assert not report["monotone_ok"]
    assert report["convex_ok"]


# ---------------------------------------------------------------------------
# Reward-shift invariance
# ---------------------------------------------------------------------------

def test_reward_shift_preserves_optimal_actions(ex1):
    # a state potential common to all actions, steep enough to make every
    # reward row increasing: 3.6 = reward spread + 1
    delta = 3.6 * np.arange(1.0, 4.0)
    shifted = PomdpModel("ex1_shifted", ex1.discount, ex1.transition,
                         ex1.observation, ex1.reward + delta)
    pts = belief_grid(3, 12)
    vf_a = solve_exact(ex1, horizon=6)
    vf_b = solve_exact(shifted, horizon=6)
    from pomdpcheck.solver import _q_batch
    qa = _q_batch(ex1, vf_a.vectors, pts)
    qb = _q_batch(shifted, vf_b.vectors, pts)
    # advantage gaps are invariant, so tie-tolerant argmaxes agree
    best_a = np.argmax(qa >= qa.max(1, keepdims=True) - 1e-9, axis=1)
    best_b = np.argmax(qb >= qb.max(1, keepdims=True) - 1e-9, axis=1)
    assert (best_a == best_b).all()


# ---------------------------------------------------------------------------
# compare_models
# ---------------------------------------------------------------------------

def test_compare_models_preconditions(hier, hier_weak, ex1):
    with pytest.raises(ValueError):
        compare_models(hier, ex1, resolution=5, horizon=2)
    worse_reward = PomdpModel(name="r", discount=hier.discount,
                              transition=hier.transition[0],
                              observation=hier.observation,
                              reward=hier.reward * 2.0)
    with pytest.raises(ValueError):
        compare_models(hier, worse_reward, resolution=5, horizon=2)
    other_discount = PomdpModel(name="d", discount=0.5,
                                transition=hier.transition[0],
                                observation=hier.observation,
                                reward=hier.reward)
    with pytest.raises(ValueError):
        compare_models(hier, other_discount, resolution=5, horizon=2)


def test_compare_models_self_is_exact_zero(hier):
    report = compare_models(hier, hier, resolution=15, horizon=10)
    assert report["identical_observations"]
    assert report["min_gap"] == 0.0
    assert report["mean_gap"] == 0.0
    assert report["gap_ok"]


def test_compare_models_hierarchical_pair_small(hier, hier_weak):
    report = compare_models(hier, hier_weak, resolution=20, horizon=60)
    assert report["hypotheses_hold"]
    assert report["blackwell"][2]["holds"] is True   # top rung identical
    assert report["min_gap"] >= -report["slack"]
    assert report["mean_gap"] > 0.0


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

def test_verification_report_sections_and_json(ex1):
    report = verification_report(ex1, resolution=15, horizon=40,
                                 method="grid")
    for key in ("assumptions", "theorem1", "theorem3", "theorem5", "psi",
                "value_shape"):
        assert key in report
    assert report["theorem3"] is None
    assert report["theorem1"]["dominance"]["violations"] == []
    assert report["psi"]["min"] >= -1e-9
    json.dumps(report)


def test_verification_report_skips_psi_without_shared_kernel():
    rng = np.random.default_rng(9)
    m = random_model(rng, 2, 2, 2, shared=False, discount=0.6)
    report = verification_report(m, resolution=8, horizon=10, method="grid")
    assert report["psi"] is None
    json.dumps(report)
