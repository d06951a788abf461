"""Exact and grid solvers against brute-force expectimax, plus pruning,
policy queries, and the cross-method consistency contracts."""

import numpy as np
import pytest

from pomdpcheck import (CapacityError, belief_grid, gen_example,
                        gamma_monotone_report, make_model, myopic_policy_at,
                        optimal_policy_at, prune, q_values, solve_exact,
                        solve_grid, value_at, vf_to_dict, vi_exact_step)
from pomdpcheck.solver import (_POINT_BLOCK, ExactVF, _batch_margins,
                               _grid_backup)

from oracles import (envelope_on_grid, expectimax_value, game_margin_oracle,
                     point_backup_q, random_belief, random_model)


def zero_vf(num_states):
    return ExactVF(vectors=np.zeros((1, num_states)),
                   actions=np.zeros(1, dtype=int), horizon=0)


# ---------------------------------------------------------------------------
# Exactness against expectimax
# ---------------------------------------------------------------------------

def test_horizon_zero_is_zero():
    vf = solve_exact(gen_example("ex1"), horizon=0)
    assert vf.num_vectors == 1
    assert value_at(vf, [0.2, 0.3, 0.5]) == 0.0


def test_horizon_one_is_best_immediate_reward():
    rng = np.random.default_rng(21)
    for _ in range(10):
        m = random_model(rng, 3, 3, 2)
        vf = solve_exact(m, horizon=1)
        for _ in range(10):
            pi = random_belief(rng, 3)
            expected = (m.reward @ pi).max()
            assert value_at(vf, pi) == pytest.approx(expected, abs=1e-12)


def test_small_models_match_expectimax_depth_three():
    rng = np.random.default_rng(22)
    for _ in range(20):
        dims = rng.integers(2, 4, size=3)
        m = random_model(rng, int(dims[0]), int(dims[1]), int(dims[2]))
        vf = solve_exact(m, horizon=3)
        for _ in range(10):
            pi = random_belief(rng, m.num_states)
            assert value_at(vf, pi) == pytest.approx(
                expectimax_value(m, pi, 3), abs=1e-9)


def test_iterates_monotone_for_nonnegative_rewards():
    rng = np.random.default_rng(23)
    m = random_model(rng, 3, 3, 2)
    m = make_model(name="nn", discount=0.8, transition=m.transition,
                   observation=m.observation,
                   reward=m.reward - m.reward.min())
    pts = belief_grid(3, 8)
    vf = zero_vf(3)
    prev = np.zeros(pts.shape[0])
    for _ in range(4):
        vf = vi_exact_step(m, vf)
        cur = vf.values_at(pts)
        assert (cur >= prev - 1e-12).all()
        prev = cur


def test_capacity_error_raised():
    m = gen_example("hierarchical")
    vf = solve_exact(m, horizon=2)
    with pytest.raises(CapacityError):
        vi_exact_step(m, vf, cap=3)


def test_exact_residual_mode_reaches_its_residual():
    vf = solve_exact(gen_example("ex1"), residual=1e-3, resolution=10)
    assert max(vf.residuals[-1], vf.grid_residuals[-1]) <= 1e-3
    assert len(vf.residuals) == vf.horizon


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def test_prune_preserves_envelope():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n, x = int(rng.integers(3, 40)), int(rng.integers(2, 5))
        vectors = rng.uniform(-1.0, 1.0, (n, x))
        pruned, kept = prune(vectors, 1e-10)
        assert pruned.shape[0] == kept.size <= n
        before = envelope_on_grid(vectors, 40)
        after = envelope_on_grid(pruned, 40)
        assert np.abs(before - after).max() <= 1e-9
        # Every dropped vector is within eps of the kept envelope, and none
        # of them rises clearly above all the other input vectors.
        for i in np.setdiff1d(np.arange(n), kept):
            assert game_margin_oracle(vectors[i], pruned) <= 1e-10 + 1e-9
            others = np.delete(vectors, i, axis=0)
            assert game_margin_oracle(vectors[i], others) <= 1e-6


def test_batch_margins_match_vertex_oracle():
    rng = np.random.default_rng(32)
    for _ in range(30):
        x, r = int(rng.integers(2, 5)), int(rng.integers(1, 9))
        refs = rng.uniform(-1.0, 1.0, (r, x))
        cands = rng.uniform(-1.0, 1.0, (20, x))
        # A copy of a reference and a strictly dominated vector sit beside
        # random ones, so LPs in one batch finish at different sweeps.
        copy_at, dominated_at = rng.choice(20, size=2, replace=False)
        cands[copy_at] = refs[int(rng.integers(r))]
        cands[dominated_at] = refs.max(axis=0) - 0.5
        margins, witnesses = _batch_margins(cands, refs)
        expected = np.array([game_margin_oracle(v, refs) for v in cands])
        assert np.abs(margins - expected).max() <= 1e-9
        assert (witnesses >= 0.0).all()
        assert np.abs(witnesses.sum(axis=1) - 1.0).max() <= 1e-12
        attained = np.einsum("brx,bx->br", cands[:, None, :] - refs[None, :, :],
                             witnesses).min(axis=1)
        assert (attained >= margins - 1e-9).all()


def test_prune_drops_strictly_dominated_and_duplicate_pieces():
    base = np.array([[1.0, 0.0], [0.0, 1.0]])
    dominated = np.array([[-1.0, -1.0]])
    dupe = base[:1].copy()
    vectors = np.vstack([base, dominated, dupe])
    pruned, kept = prune(vectors, 1e-10)
    assert pruned.shape[0] == 2
    assert set(map(tuple, pruned)) == set(map(tuple, base))


def test_prune_keeps_needed_interior_piece():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]])
    pruned, _ = prune(vectors, 1e-10)
    assert pruned.shape[0] == 3


# ---------------------------------------------------------------------------
# Grid solver
# ---------------------------------------------------------------------------

def test_grid_vertices_only_undiscounted():
    m = gen_example("ex1")
    m0 = make_model(name="flat", discount=0.0, transition=m.transition,
                    observation=m.observation, reward=m.reward)
    vf = solve_grid(m0, resolution=1, residual=1e-12)
    # the three vertices, in grid order, valued at the best immediate reward
    best = np.asarray(m.reward).max(axis=0)
    for point, value in zip(vf.beliefs, vf.values):
        state = int(np.argmax(point))
        assert value == pytest.approx(best[state], abs=1e-12)


def test_grid_backup_matches_pointwise_oracle():
    rng = np.random.default_rng(42)
    beliefs = belief_grid(3, 45)
    assert beliefs.shape[0] > _POINT_BLOCK
    for num_obs, num_actions in ((2, 2), (3, 2), (2, 3)):
        m = random_model(rng, 3, num_obs, num_actions)
        vectors = rng.uniform(-1.0, 2.0, (int(rng.integers(5, 30)), 3))
        values, alphas, acts = _grid_backup(m, vectors, beliefs)
        q = np.array([point_backup_q(m, vectors, pi) for pi in beliefs])
        assert np.abs(values - q.max(axis=1)).max() <= 1e-12
        assert np.abs(np.einsum("px,px->p", alphas, beliefs)
                      - values).max() <= 1e-12
        assert (q[np.arange(q.shape[0]), acts] >= q.max(axis=1) - 1e-12).all()


def test_grid_never_exceeds_exact():
    rng = np.random.default_rng(41)
    for _ in range(10):
        m = random_model(rng, 3, 3, 2)
        exact = solve_exact(m, horizon=4)
        grid = solve_grid(m, resolution=10, horizon=4)
        upper = exact.values_at(grid.beliefs)
        assert (grid.values <= upper + 1e-9).all()


def test_grid_horizon_runs_requested_sweeps():
    m = gen_example("ex1")
    vf = solve_grid(m, resolution=15, horizon=7)
    assert vf.iterations == 7
    assert len(vf.residuals) == 7


def test_grid_refinement_stays_within_residual_budget():
    m = gen_example("ex1")
    coarse = solve_grid(m, resolution=50, residual=1e-6)
    fine = solve_grid(m, resolution=100, residual=1e-6)
    shared = belief_grid(3, 50)
    drift = np.abs(fine.values_at(shared) - coarse.values_at(shared)).max()
    assert drift <= 1e-6 / (1.0 - m.discount)


# ---------------------------------------------------------------------------
# Q-values and policies
# ---------------------------------------------------------------------------

def test_q_values_zero_function_reduces_to_rewards():
    rng = np.random.default_rng(51)
    m = random_model(rng, 3, 3, 3)
    for _ in range(10):
        pi = random_belief(rng, 3)
        query = q_values(m, zero_vf(3), pi)
        assert query.q == pytest.approx(m.reward @ pi, abs=1e-12)
        assert optimal_policy_at(m, zero_vf(3), pi) == myopic_policy_at(m, pi)


def test_q_values_match_depth_two_expectimax():
    rng = np.random.default_rng(52)
    for _ in range(20):
        m = random_model(rng, 2, 2, 2)
        vf = solve_exact(m, horizon=1)
        for _ in range(10):
            pi = random_belief(rng, 2)
            query = q_values(m, vf, pi)
            assert query.q.max() == pytest.approx(
                expectimax_value(m, pi, 2), abs=1e-10)


def test_policy_tie_breaks_to_lowest_action():
    m = make_model(name="ties", discount=0.0,
                   transition=np.eye(2),
                   observation=[np.eye(2)] * 3,
                   reward=[[1.0, 1.0]] * 3)
    assert myopic_policy_at(m, [0.5, 0.5]) == 0
    assert optimal_policy_at(m, zero_vf(2), [0.5, 0.5]) == 0


def test_myopic_crossing_on_ex1():
    m = gen_example("ex1")
    assert myopic_policy_at(m, [1.0, 0.0, 0.0]) == 0   # r1 wins low
    assert myopic_policy_at(m, [0.0, 0.0, 1.0]) == 1   # r2 wins high


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_gamma_monotone_report_on_exact_solve():
    vf = solve_exact(gen_example("ex1"), horizon=5)
    report = gamma_monotone_report(vf, tol=1e-10)
    assert report["fully_increasing"]
    assert report["num_vectors"] == vf.num_vectors


def test_vf_to_dict_shapes():
    vf = solve_exact(gen_example("ex1"), horizon=2)
    doc = vf_to_dict(vf)
    assert doc["kind"] == "exact"
    assert len(doc["vectors"]) == vf.num_vectors
    assert all(v["action"] >= 1 for v in doc["vectors"])
    grid = solve_grid(gen_example("ex1"), resolution=10, horizon=3)
    gdoc = vf_to_dict(grid)
    assert gdoc["kind"] == "grid"
