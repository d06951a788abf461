"""Model container, validation, belief checks, reward shifts, and JSON
round-trips."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomdpcheck import (ModelFormatError, PomdpModel, belief_grid,
                        gen_example, load_model, loads_model, model_to_json,
                        psi_sweep, reward_shift_general, save_model,
                        solve_grid, validate_model, verify_range_containment)
from pomdpcheck.lp import FEAS_TOL
from pomdpcheck.model import SHIFT_MARGIN, _belief_rows, _freudenthal
from pomdpcheck.structural import _posterior_tails

from oracles import compositions_oracle, random_model


def simplex_points(n):
    return st.lists(st.floats(0.001, 1.0), min_size=n, max_size=n).map(
        lambda w: np.array(w) / np.sum(w))


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_model_broadcasts_a_shared_transition():
    m = gen_example("ex1")
    assert m.shared_transition
    assert m.transition.shape == (2, 3, 3)
    assert m.transition.flags.c_contiguous
    assert np.array_equal(m.transition[0], m.transition[1])
    # the counts and the flag are read off the arrays, so a stack of equal
    # matrices is as shared as one broadcast matrix
    assert [f.name for f in dataclasses.fields(PomdpModel) if f.init] == [
        "name", "discount", "transition", "observation", "reward"]
    stack = PomdpModel("stack", m.discount, np.array(m.transition),
                       m.observation, m.reward)
    assert (stack.num_states, stack.num_obs, stack.num_actions) == (3, 3, 2)
    assert stack.shared_transition


def test_model_distinct_transitions():
    rng = np.random.default_rng(0)
    m = random_model(rng, 3, 3, 2, shared=False)
    assert not m.shared_transition
    assert not np.array_equal(m.transition[0], m.transition[1])


def test_per_action_file_with_equal_matrices_loads_as_shared():
    m = gen_example("ex1")
    doc = json.loads(model_to_json(m))
    doc["transition"] = {"per_action": m.transition.tolist()}
    again = loads_model(json.dumps(doc))
    assert again.shared_transition
    assert model_to_json(again) == model_to_json(m)   # written as "shared"


def test_arrays_are_readonly():
    m = gen_example("ex1")
    for arr in (m.transition, m.observation, m.reward):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.5


def test_validate_model_flags_bad_rows():
    m = gen_example("ex1")
    broken = PomdpModel(name="broken", discount=1.5,
                        transition=[[0.5, 0.5, 0.0],
                                    [0.2, 0.9, 0.1],
                                    [0.0, 0.0, 1.0]],
                        observation=m.observation, reward=m.reward)
    violations = validate_model(broken)
    assert violations
    assert any("discount" in v for v in violations)
    assert any("row" in v for v in violations)


def test_bundled_examples_validate_clean():
    for name in ("ex1", "ex2", "reversed_factor", "hierarchical",
                 "tridiagonal"):
        assert validate_model(gen_example(name)) == []


def test_belief_validation(ex1):
    with pytest.raises(ValueError):
        _belief_rows(np.array([0.5, 0.6]), 2)        # sums to 1.1
    with pytest.raises(ValueError):
        _belief_rows(np.array([-0.2, 1.2]), 2)       # negative entry
    with pytest.raises(ValueError):
        _belief_rows(np.array([np.nan, 1.0]), 2)
    with pytest.raises(ValueError):
        _belief_rows([0.2, 0.3, 0.5], 2)             # wrong length
    rows = np.array([[0.2, 0.3, 0.5], [-1e-10, 0.5, 0.5 + 1e-10]])
    assert _belief_rows(rows, 3) is rows             # used as given
    assert _belief_rows([0.2, 0.3, 0.5], 3).shape == (1, 3)
    for bad, match in (([[0.5, 0.5]], "shape"),
                       ([[[0.2, 0.3, 0.5]]], "shape"),
                       ([[np.nan, 0.5, 0.5]], "finite"),
                       ([[np.inf, 0.5, 0.5]], "finite"),
                       ([[3.0, -1.0, -1.0]], "negative"),
                       ([[0.2, 0.3, 0.5], [5.0, 5.0, 5.0]], "sums")):
        with pytest.raises(ValueError, match=match):
            _belief_rows(bad, 3)
    # every library entry point that takes belief rows checks them
    with pytest.raises(ValueError, match="finite"):
        psi_sweep(ex1, [[np.nan, 0.5, 0.5]])
    with pytest.raises(ValueError, match="negative"):
        verify_range_containment(ex1, [[3.0, -1.0, -1.0]])
    vf = solve_grid(ex1, resolution=10, horizon=20)
    with pytest.raises(ValueError, match="sums"):
        vf.values_at([[5.0, 5.0, 5.0]])


def test_belief_grid_size_and_cache():
    pts = belief_grid(3, 100)
    assert pts.shape == (5151, 3)            # C(102, 2) compositions
    assert np.allclose(pts.sum(axis=1), 1.0)
    assert belief_grid(3, 100) is pts        # lru-cached
    with pytest.raises(ValueError):
        pts[0, 0] = 2.0                      # read-only


def test_belief_grid_rows_match_composition_oracle():
    for num_states in range(1, 6):
        for resolution in (1, 2, 5, 9):
            expected = np.array(compositions_oracle(num_states, resolution),
                                dtype=float) / resolution
            pts = belief_grid(num_states, resolution)
            assert pts.dtype == np.float64
            assert np.array_equal(pts, expected)     # same rows, same order


@pytest.mark.parametrize("num_states, resolution",
                         [(2, 37), (3, 20), (4, 9), (5, 6), (6, 4)])
def test_freudenthal_cells_rebuild_their_beliefs(num_states, resolution):
    """Random beliefs, beliefs on faces, grid points, and face beliefs whose
    entries sum to a hair over 1, as a computed posterior's may: the weights
    are nonnegative and sum to 1, the vertices are grid rows, and the
    weighted vertices rebuild the belief."""
    rng = np.random.default_rng(70 + num_states)
    grid = belief_grid(num_states, resolution)
    interior = rng.dirichlet(np.ones(num_states), 300)
    faces = interior * (rng.random(interior.shape) < 0.5)
    faces[np.arange(300), rng.integers(0, num_states, 300)] += 0.1
    faces /= faces.sum(axis=1, keepdims=True)
    over = faces.copy()
    over[:, 0] = 0.0
    over[:, 1] += 1e-9
    over /= over.sum(axis=1, keepdims=True)
    over *= 1.0 + 4e-15
    points = np.vstack([interior, faces, grid, over])
    rows, weights = _freudenthal(points, resolution)
    assert rows.shape == weights.shape == points.shape
    assert (weights >= 0.0).all()
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12
    assert rows.min() >= 0 and rows.max() < grid.shape[0]
    rebuilt = np.einsum("pj,pjx->px", weights, grid[rows])
    assert np.abs(rebuilt - points).max() <= 1e-12
    on_grid = slice(600, 600 + grid.shape[0])
    own = np.argmax(weights[on_grid], axis=1)
    assert np.array_equal(rows[on_grid][np.arange(grid.shape[0]), own],
                          np.arange(grid.shape[0]))
    assert (weights[on_grid].max(axis=1) >= 1.0 - 1e-12).all()


# ---------------------------------------------------------------------------
# Observation likelihoods
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(simplex_points(3), st.integers(0, 1), st.integers(0, 41))
def test_observation_likelihoods_sum_to_one(pi, u, seed):
    m = random_model(np.random.default_rng(seed), 3, 3, 2)
    tails, sigmas, _ = _posterior_tails(m, pi[None, :])
    assert sigmas[0, u].sum() == pytest.approx(1.0, abs=1e-12)
    assert (tails[0, u] >= 0.0).all()
    assert (tails[0, u] <= sigmas[0, u]).all()


# ---------------------------------------------------------------------------
# Reward shifts
# ---------------------------------------------------------------------------

def test_reward_shift_general_feasible_on_bundled():
    shift = reward_shift_general(gen_example("ex1"))
    assert shift["status"] == "feasible"
    assert shift["f"] is not None


def test_reward_shift_general_matches_highs_on_random_kernels():
    """The shift's verdict against SciPy's HiGHS on rows f >= SHIFT_MARGIN
    with f free, rows being the consecutive differences of I - 0.95 P(u),
    on seeded 3-state models: Dirichlet(0.3) transition rows, identity
    sensors.  Both verdicts occur (41 of the 500 are infeasible), and every
    potential returned meets each row within FEAS_TOL."""
    from scipy.optimize import linprog
    rng = np.random.default_rng(0)
    seen = {"feasible": 0, "infeasible": 0}
    for _ in range(500):
        transition = rng.dirichlet(np.full(3, 0.3), size=(2, 3))
        m = PomdpModel(name="random", discount=0.95, transition=transition,
                       observation=np.tile(np.eye(3), (2, 1, 1)),
                       reward=rng.uniform(-1.0, 2.0, (2, 3)))
        rows = np.vstack([np.diff(np.eye(3) - 0.95 * p, axis=0)
                          for p in transition])
        ref = linprog(np.zeros(3), A_ub=-rows,
                      b_ub=np.full(len(rows), -SHIFT_MARGIN),
                      bounds=[(None, None)] * 3, method="highs")
        shift = reward_shift_general(m)
        assert shift["status"] == {0: "feasible", 2: "infeasible"}[ref.status]
        if shift["f"] is not None:
            assert (rows @ shift["f"]).min() >= SHIFT_MARGIN - FEAS_TOL
        seen[shift["status"]] += 1
    assert min(seen.values()) > 0, seen


# ---------------------------------------------------------------------------
# JSON I/O
# ---------------------------------------------------------------------------

def test_json_round_trip_preserves_arrays(tmp_path):
    for name in ("ex1", "hierarchical", "tridiagonal"):
        m = gen_example(name)
        again = loads_model(model_to_json(m))
        assert np.array_equal(m.transition, again.transition)
        assert np.array_equal(m.observation, again.observation)
        assert np.array_equal(m.reward, again.reward)
        assert m.discount == again.discount
        assert m.shared_transition == again.shared_transition
        path = tmp_path / f"{name}.json"
        save_model(m, path)
        assert model_to_json(load_model(path)) == path.read_text()


def test_json_round_trip_is_byte_identical(tmp_path):
    m = gen_example("ex2")
    path = tmp_path / "m.json"
    save_model(m, path)
    first = path.read_text()
    save_model(load_model(path), path)
    assert path.read_text() == first


def test_model_rejects_an_empty_action_stack():
    with pytest.raises(ModelFormatError, match="must all be positive"):
        PomdpModel("z", 0.9, np.zeros((0, 3, 3)), np.zeros((0, 3, 2)),
                   np.zeros((0, 3)))


def test_malformed_json_raises_model_format_error():
    with pytest.raises(ModelFormatError):
        loads_model("{not json")
    with pytest.raises(ModelFormatError):
        loads_model(json.dumps({"name": "x"}))
    with pytest.raises(ModelFormatError, match="reward shape"):
        loads_model(json.dumps({
            "name": "x", "X": 2, "Y": 1, "U": 1, "discount": 0.9,
            "transition": {"shared": [[1.0, 0.0], [0.0, 1.0]]},
            "observation": [[[1.0], [1.0]]],      # 1 action
            "reward": [[0.0, 1.0], [1.0, 0.0]],   # 2 actions
        }))


@pytest.mark.parametrize("field, value", [
    ("reward", [0.0, 1.0, 2.0]),                        # 1-D reward
    ("transition", {"per_action": [[1.0, 0.0, 0.0],     # 2-D per_action
                                   [0.0, 1.0, 0.0],
                                   [0.0, 0.0, 1.0]]}),
    ("transition", {"shared": [[1.0, 0.0], [0.0, 1.0]]}),  # 2 x 2 for X = 3
    ("observation", [[[1.0, 0.0]] * 3]),                 # 1 action for U = 2
], ids=["reward-1d", "per-action-2d", "shared-wrong-size", "observation-u"])
def test_misshapen_array_raises_model_format_error(field, value):
    doc = json.loads(model_to_json(gen_example("ex1")))
    doc[field] = value
    with pytest.raises(ModelFormatError, match="shape"):
        loads_model(json.dumps(doc))


@pytest.mark.parametrize("discount", [np.nan, np.inf, -np.inf])
def test_non_finite_discount_raises_model_format_error(discount):
    """Python's json parses NaN and Infinity, so the model itself refuses a
    discount that is not finite, whichever way it is built."""
    m = gen_example("ex1")
    with pytest.raises(ModelFormatError, match="discount .* is not finite"):
        PomdpModel(name="bad", discount=discount, transition=m.transition,
                   observation=m.observation, reward=m.reward)
    doc = json.loads(model_to_json(m))
    doc["discount"] = discount
    with pytest.raises(ModelFormatError, match="discount .* is not finite"):
        loads_model(json.dumps(doc))                 # writes NaN / Infinity
