"""Exact and grid solvers against brute-force expectimax, plus pruning,
policy queries, and the cross-method consistency contracts."""

import csv
import tracemalloc

import numpy as np
import pytest

from pomdpcheck import (CapacityError, PomdpModel, belief_grid, gen_example,
                        gamma_monotone_report, prune, save_model,
                        solve_exact, solve_grid, vf_to_dict)
from pomdpcheck import solver
from pomdpcheck.cli import main
from pomdpcheck.solver import (_GEMM_BUDGET, PRUNE_EPS, ExactVF,
                               _batch_margins, _best_rows, _chord_covered,
                               _grid_backup, _lowest_argmax, _q_batch,
                               _residual_sweeps, _streaming_top2,
                               _sup_residual, _unique_rows)

from oracles import (envelope_on_grid, expectimax_values, game_margin_oracle,
                     grid_sweeps_oracle, point_backup_q, random_belief,
                     random_model, top2_sort_oracle)


def zero_vf(num_states):
    return ExactVF(vectors=np.zeros((1, num_states)),
                   actions=np.zeros(1, dtype=int), horizon=0)


# ---------------------------------------------------------------------------
# Exactness against expectimax
# ---------------------------------------------------------------------------

def test_horizon_zero_is_zero():
    vf = solve_exact(gen_example("ex1"), horizon=0)
    assert vf.num_vectors == 1
    assert vf.values_at([0.2, 0.3, 0.5])[0] == 0.0


def test_horizon_one_is_best_immediate_reward():
    rng = np.random.default_rng(21)
    for _ in range(10):
        m = random_model(rng, 3, 3, 2)
        vf = solve_exact(m, horizon=1)
        for _ in range(10):
            pi = random_belief(rng, 3)
            expected = (m.reward @ pi).max()
            assert vf.values_at(pi)[0] == pytest.approx(expected, abs=1e-12)


def test_small_models_match_expectimax_depth_three():
    rng = np.random.default_rng(22)
    for _ in range(20):
        dims = rng.integers(2, 4, size=3)
        m = random_model(rng, int(dims[0]), int(dims[1]), int(dims[2]))
        vf = solve_exact(m, horizon=3)
        beliefs = np.array([random_belief(rng, m.num_states)
                            for _ in range(10)])
        assert vf.values_at(beliefs) == pytest.approx(
            expectimax_values(m, beliefs, 3), abs=1e-9)


def test_iterates_monotone_for_nonnegative_rewards():
    rng = np.random.default_rng(23)
    m = random_model(rng, 3, 3, 2)
    m = PomdpModel(name="nn", discount=0.8, transition=m.transition,
                   observation=m.observation,
                   reward=m.reward - m.reward.min())
    pts = belief_grid(3, 8)
    prev = np.zeros(pts.shape[0])
    for k in range(1, 5):
        cur = solve_exact(m, horizon=k).values_at(pts)
        assert (cur >= prev - 1e-12).all()
        prev = cur


def test_capacity_error_raised(monkeypatch):
    monkeypatch.setattr(solver, "CROSS_SUM_CAP", 3)
    with pytest.raises(CapacityError, match="cap 3"):
        solve_exact(gen_example("hierarchical"), horizon=3)


def test_exact_residual_mode_reaches_its_residual():
    vf = solve_exact(gen_example("ex1"), residual=1e-3, resolution=10)
    assert max(vf.residuals[-1], vf.grid_residuals[-1]) <= 1e-3
    assert len(vf.residuals) == len(vf.grid_residuals) == vf.horizon
    # the LP-certified change is seeded with the grid change, so the stop
    # rule needs only the first
    assert all(r >= g for r, g in zip(vf.residuals, vf.grid_residuals))


def test_exact_residual_warm_start_below_grid_floor():
    """At resolution 6 the point-based change of ex1 floors near 3.3e-5,
    above the 1e-5 target.  ``resolution`` sets only the history grid: the
    warm start runs its fixed sweep count on its own resolution-20 grid,
    and the exact backups reach the target."""
    vf = solve_exact(gen_example("ex1"), residual=1e-5, resolution=6)
    assert max(vf.residuals[-1], vf.grid_residuals[-1]) <= 1e-5
    assert len(vf.residuals) == len(vf.grid_residuals) == vf.horizon
    # the LP-certified change is seeded with the grid change, so the stop
    # rule needs only the first
    assert all(r >= g for r, g in zip(vf.residuals, vf.grid_residuals))


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def _cross_sum_with_shifted_copies(rng):
    """A (+) B of two pruned random sets, beside copies of every sum shifted
    by +-1e-12: each survivor's witness then has near-tied winners."""
    x = int(rng.integers(2, 5))
    a, b = (prune(rng.uniform(-1.0, 1.0, (int(rng.integers(2, 6)), x)))[0]
            for _ in range(2))
    sums = (a[:, None, :] + b[None, :, :]).reshape(-1, x)
    return np.vstack([sums, sums + 1e-12, sums - 1e-12])


def test_prune_preserves_envelope():
    rng = np.random.default_rng(31)
    cases = [rng.uniform(-1.0, 1.0, (int(rng.integers(3, 40)),
                                     int(rng.integers(2, 5))))
             for _ in range(25)]
    cases += [_cross_sum_with_shifted_copies(rng) for _ in range(10)]
    for vectors in cases:
        n = vectors.shape[0]
        pruned, kept = prune(vectors)
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


def test_prune_admits_witness_winners(monkeypatch):
    """Each prune round admits the winner at every survivor's witness, so a
    candidate is not priced again round after round while it waits to win
    at its own witness.  ex1 at horizon 11 prices 25 073 LP candidates when
    only the survivor itself can be admitted, 15 925 when the rounds admit
    witness winners, and 4 176 once the chord screen and the residual's
    grid floor keep covered candidates away from the LP."""
    priced = 0
    batch_margins = solver._batch_margins

    def counting(cands, refs):
        nonlocal priced
        priced += np.atleast_2d(cands).shape[0]
        return batch_margins(cands, refs)

    monkeypatch.setattr(solver, "_batch_margins", counting)
    solve_exact(gen_example("ex1"), horizon=11)
    assert priced <= 6_000


def test_forced_vectors_are_retested_in_batches(monkeypatch):
    """The final re-test of forced vectors prices them together in margin
    LP batches, each against the admitted set minus itself, and re-prices
    only the ones a drop could change.  ex1 at horizon 11 makes 381
    single-candidate margin calls when each is re-tested on its own, and
    38 here."""
    single = 0
    batch_margins = solver._batch_margins

    def counting(cands, refs):
        nonlocal single
        single += np.atleast_2d(cands).shape[0] == 1
        return batch_margins(cands, refs)

    monkeypatch.setattr(solver, "_batch_margins", counting)
    solve_exact(gen_example("ex1"), horizon=11)
    assert single <= 60


def test_margin_tableaus_stay_within_the_batch_budget(monkeypatch):
    """Every margin-LP batch, the sup-norm residual's included, builds a
    tableau of at most _LP_BATCH_BYTES.  Unbatched residual calls built
    2 221 824 bytes on ex1 at horizon 11 and 4 436 640 on tridiagonal-4 at
    horizon 7."""
    sizes = []
    batch_margins = solver._batch_margins

    def measuring(cands, refs):
        cands, refs = np.atleast_2d(cands), np.atleast_2d(refs)
        x = cands.shape[1]
        sizes.append(8 * cands.shape[0] * (x + 1) * (refs.shape[0] + x + 1))
        return batch_margins(cands, refs)

    monkeypatch.setattr(solver, "_batch_margins", measuring)
    solve_exact(gen_example("ex1"), horizon=11)
    solve_exact(gen_example("tridiagonal", num_states=4), horizon=7)
    assert sizes and max(sizes) <= solver._LP_BATCH_BYTES


# A one-byte budget puts each forced vector in a group of its own.
@pytest.mark.parametrize("budget", [solver._LP_BATCH_BYTES, 1])
def test_retest_forced_matches_one_at_a_time(monkeypatch, budget):
    """Batched re-testing drops exactly what re-testing each forced vector
    in index order against the current set drops.  Each set ends with
    copies of its first three rows shifted by 1e-12: a row and its copy
    both start at or below eps, and once the first goes the second must
    stay wherever the row is on the envelope."""
    monkeypatch.setattr(solver, "_LP_BATCH_BYTES", budget)
    rng = np.random.default_rng(34)
    dropped = revived = 0
    for _ in range(30):
        x = int(rng.integers(2, 5))
        base = rng.uniform(-1.0, 1.0, (int(rng.integers(3, 20)), x))
        cands = np.vstack([base, base[:3] + 1e-12])
        in_r = rng.random(cands.shape[0]) < 0.7
        in_r[:3] = in_r[-3:] = True
        pending = np.flatnonzero(in_r & (rng.random(in_r.size) < 0.6))
        pending = np.union1d(pending, [0, 1, 2, *range(len(cands) - 3,
                                                        len(cands))])
        expected = in_r.copy()
        for idx in pending:
            others = np.flatnonzero(expected)
            others = others[others != idx]
            if others.size and _batch_margins(
                    cands[idx:idx + 1], cands[others])[0][0] <= 1e-10:
                expected[idx] = False
            elif idx >= len(base):
                revived += 1
        solver._retest_forced(cands, in_r, pending, 1e-10)
        assert np.array_equal(in_r, expected)
        dropped += int((~in_r[pending]).sum())
    assert dropped and revived


def test_chord_screen_drops_only_what_the_lp_would():
    """Every candidate the closed-form screen removes has margin at most eps
    against the references, by the vertex-enumeration oracle.  Candidates
    sit on random chords of two references, moved by up to two eps per
    coordinate.  Integer vectors with eps = 1 make many slacks exactly
    zero; the cross-sums with shifted copies are screened against their
    own envelope."""
    rng = np.random.default_rng(38)
    chord_only = kept = 0
    for trial in range(40):
        x = int(rng.integers(2, 6))
        kind = trial % 4
        if kind == 3:
            vectors = _cross_sum_with_shifted_copies(rng)
            x, eps = vectors.shape[1], PRUNE_EPS
            refs = prune(vectors)[0]
        elif kind == 2:
            refs, eps = rng.integers(-3, 4, (int(rng.integers(2, 7)), x)) * 1.0, 1.0
        else:
            refs = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 7)), x))
            eps = (PRUNE_EPS, 0.05)[kind]
        i, j = rng.integers(refs.shape[0], size=(2, 60))
        mu = rng.integers(0, 5, (60, 1)) / 4.0
        moves = rng.integers(-2, 3, (60, x)) if kind == 2 else \
            rng.uniform(-2.0, 2.0, (60, x))
        cands = (1.0 - mu) * refs[i] + mu * refs[j] + moves * eps
        if kind == 3:
            cands = np.vstack([cands, vectors])
        covered = _chord_covered(cands, refs, eps)
        for v in cands[covered]:
            assert game_margin_oracle(v, refs) <= eps + 1e-12
        single = (cands[:, None, :] - refs[None, :, :]).max(axis=2).min(axis=1)
        chord_only += int((covered & (single > eps)).sum())
        kept += int((~covered).sum())
    assert chord_only and kept


def test_chord_screen_sends_only_uncovered_candidates_to_the_lp(monkeypatch):
    """Two envelope vectors cross at a belief off the prune's grid.  Their
    midpoint lowered by 1e-12 lies under their chord and never reaches a
    margin LP; the midpoint raised by 1e-6 wins on a sliver around the
    crossing, so the LP prices it and it stays."""
    w1, w2 = np.array([0.0, 1.0]), np.array([0.7, 0.0])
    middle = (w1 + w2) / 2
    vectors = np.array([w1, w2, middle - 1e-12, middle + 1e-6])
    priced = []
    batch_margins = solver._batch_margins

    def recording(cands, refs):
        priced.extend(np.atleast_2d(cands))
        return batch_margins(cands, refs)

    monkeypatch.setattr(solver, "_batch_margins", recording)
    kept = prune(vectors)[1]
    assert not any(np.array_equal(row, vectors[2]) for row in priced)
    assert any(np.array_equal(row, vectors[3]) for row in priced)
    assert kept.tolist() == [0, 1, 3]


def test_chord_screen_stays_within_the_batch_budget():
    """The screen's (candidates, references) temporaries are blocked to
    _LP_BATCH_BYTES; 20 000 candidates against 300 references would take
    48 MB per float array unblocked."""
    rng = np.random.default_rng(39)
    cands = rng.uniform(-1.0, 1.0, (20_000, 3))
    refs = rng.uniform(-1.0, 1.0, (300, 3))
    tracemalloc.start()
    try:
        _chord_covered(cands, refs, PRUNE_EPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # plus a few per-candidate arrays: indices, bounds and masks
    assert peak <= solver._LP_BATCH_BYTES + 40 * cands.shape[0]


def test_sup_residual_floor_changes_nothing():
    """A floor below the sup only spares LPs: on ex1 at horizons 1-11, with
    the change on the solver's history grid as the floor, and on random
    pairs of sets, with a grid change as the floor, the sup is the one
    found with no floor."""
    m = gen_example("ex1")
    grid = belief_grid(3, 100)
    old = np.zeros((1, 3))
    pairs = []
    for _ in range(11):
        new = solver._backup_arrays(m, old)[0]
        pairs.append((new, old, grid))
        old = new
    rng = np.random.default_rng(40)
    for _ in range(20):
        x = int(rng.integers(2, 5))
        pairs.append((rng.uniform(-1.0, 1.0, (int(rng.integers(1, 30)), x)),
                      rng.uniform(-1.0, 1.0, (int(rng.integers(1, 30)), x)),
                      belief_grid(x, 6)))
    for new, old, points in pairs:
        floor = float(np.abs(_best_rows(points, new)[1]
                             - _best_rows(points, old)[1]).max())
        assert floor <= _sup_residual(new, old, 0.0) + 1e-9
        assert abs(_sup_residual(new, old, floor)
                   - _sup_residual(new, old, 0.0)) <= 1e-12


def test_prune_forces_a_survivor_when_no_round_progresses(monkeypatch):
    """Every margin reads 1e-9 high here, ten times PRUNE_EPS, as the LP
    resolves margins only to about that.  A midpoint of two envelope
    vectors lowered by 5e-10 then survives its LP while one of the two wins
    at its witness, so a round can drop and admit nothing; only forcing the
    survivor of largest margin ends the loop, and the envelope stays exact.
    With true margins every midpoint goes."""
    rng = np.random.default_rng(37)
    batch_margins = solver._batch_margins

    def reading_high(cands, refs):
        margins, witnesses = batch_margins(cands, refs)
        return margins + 1e-9, witnesses

    forced_midpoints = 0
    for _ in range(30):
        x = int(rng.integers(2, 5))
        base = prune(rng.uniform(-1.0, 1.0, (int(rng.integers(3, 8)), x)))[0]
        i, j = np.triu_indices(base.shape[0], 1)
        vectors = np.vstack([base, (base[i] + base[j]) / 2 - 5e-10])
        assert np.array_equal(prune(vectors)[1], np.arange(base.shape[0]))
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_batch_margins", reading_high)
            pruned, kept = prune(vectors)
        assert np.abs(envelope_on_grid(pruned, 40)
                      - envelope_on_grid(vectors, 40)).max() <= 1e-9
        # a midpoint never wins at any belief, so only the fallback admits it
        forced_midpoints += int((kept >= base.shape[0]).sum())
    assert forced_midpoints


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


def test_batch_margin_lanes_are_independent(monkeypatch):
    # Each LP in a batch must come out bit for bit as if solved alone or in
    # another chunk, however many lanes are still running in a sweep.
    class ActiveLanes:
        """Stands in for NumPy in the solver and records, per simplex
        sweep, how many LPs are still running (one finiteness check of the
        ratio-test minima per sweep)."""

        def __init__(self):
            self.per_sweep = []

        def __getattr__(self, name):
            return getattr(np, name)

        def isfinite(self, x):
            self.per_sweep.append(x.shape[0])
            return np.isfinite(x)

    rng = np.random.default_rng(33)
    refs = rng.uniform(-1.0, 1.0, (7, 3))
    cands = rng.uniform(-1.0, 1.0, (24, 3))
    cands[3] = refs[2]
    cands[11] = refs.max(axis=0) - 0.5
    spy = ActiveLanes()
    monkeypatch.setattr(solver, "np", spy)
    margins, witnesses = _batch_margins(cands, refs)
    monkeypatch.undo()
    assert len(set(spy.per_sweep)) > 1, "every LP finished at the same sweep"

    alone = [_batch_margins(cands[i:i + 1], refs) for i in range(len(cands))]
    assert np.array_equal(margins, np.concatenate([m for m, _ in alone]))
    assert np.array_equal(witnesses, np.vstack([w for _, w in alone]))
    head, tail = _batch_margins(cands[:10], refs), _batch_margins(cands[10:], refs)
    assert np.array_equal(margins, np.concatenate([head[0], tail[0]]))
    assert np.array_equal(witnesses, np.vstack([head[1], tail[1]]))


def test_streaming_top2_matches_sort_oracle():
    # Integer rows and beliefs in steps of 1/64 make every product exact,
    # so blockwise and whole-matrix products agree bit for bit.  Up to 50
    # rows leave every point in one score block; 2000 rows shrink the block
    # to 43 points, leaving a 42-point tail; every other winning row repeats
    # after the originals, so ties must break to the lowest index in every
    # block.
    rng = np.random.default_rng(34)
    eps = 1e-10
    for num_points, num_rows in ((300, 50), (40, 50), (300, 1), (300, 2000)):
        points = rng.multinomial(64, np.ones(3) / 3, size=num_points) / 64.0
        rows = rng.integers(-1000, 1000, (num_rows, 3)).astype(float)
        if num_rows == 2000:
            assert _GEMM_BUDGET // (num_rows * 3) == 43
            winners = np.unique(np.argmax(points @ rows[:1500].T, axis=1))
            losers = np.setdiff1d(np.arange(1500), winners)
            rows[1500:] = rows[np.concatenate([
                winners[::2], rng.choice(losers, 500 - winners[::2].size)])]
        idx, top, second = _streaming_top2(rows, points)
        want_top, want_second = top2_sort_oracle(rows, points)
        assert np.array_equal(top, want_top)
        assert np.array_equal(second, want_second)
        scores = points @ rows.T
        assert np.array_equal(top, scores[np.arange(num_points), idx])
        best_idx, best_val = _best_rows(points, rows)
        assert np.array_equal(best_idx, np.argmax(scores, axis=1))
        assert np.array_equal(idx, best_idx)
        assert np.array_equal(best_val, top)
        if num_rows == 1:
            assert (second == -np.inf).all() and (idx == 0).all()
        if num_rows == 2000:
            tied = second == top
            assert tied.any() and not tied.all()

    # Every row twice: the runner-up equals the top, so no gap exceeds eps
    # and no index is trusted.
    rows = rng.integers(-1000, 1000, (6, 3)).astype(float)
    idx, top, second = _streaming_top2(np.vstack([rows, rows]), points)
    assert np.array_equal(second, top)
    assert not (top - second > eps).any()
    assert np.array_equal(top, top2_sort_oracle(rows, points)[0])


def test_envelope_products_stay_within_the_gemm_budget(monkeypatch):
    # OpenBLAS runs a product of 2**19 multiply-adds or more on two
    # threads; every envelope product must stay below _GEMM_BUDGET unless
    # its block is already a single point.
    class Products:
        """Stands in for NumPy in the solver and records the operand shapes
        of every matmul."""

        def __init__(self):
            self.shapes = []

        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, a, b, **kwargs):
            self.shapes.append((a.shape, b.shape))
            return np.matmul(a, b, **kwargs)

    rng = np.random.default_rng(35)
    spy = Products()
    monkeypatch.setattr(solver, "np", spy)
    for num_states, resolution in ((3, 20), (5, 6)):
        m = random_model(rng, num_states, 2, 2)
        points = belief_grid(num_states, resolution)
        for num_rows in (50, 700, 5000):
            rows = rng.uniform(-1.0, 1.0, (num_rows, num_states))
            _best_rows(points, rows)
            _streaming_top2(rows, points)
            _q_batch(m, rows, points)
            _grid_backup(m, rows, points)
        solve_grid(random_model(rng, num_states, 3, 3),
                   resolution=resolution, horizon=3)
    monkeypatch.undo()

    assert spy.shapes
    for (m_, k), (k2, n) in spy.shapes:
        assert k == k2
        assert m_ * k * n <= _GEMM_BUDGET or m_ == 1, (m_, k, n)
    # 5000 rows at five states leave ten points per block
    assert ((10, 5), (5, 5000)) in spy.shapes


def test_unique_rows_is_numpy_unique():
    # np.unique treats -0.0 and 0.0 as equal and keeps each distinct row's
    # first occurrence, sign of zero included.
    rng = np.random.default_rng(36)
    cases = [rng.uniform(size=(1, 3))]
    for num_states in (1, 3, 5):
        rows = rng.integers(-2, 3, (400, num_states)).astype(float)
        rows[rng.random(rows.shape) < 0.3] *= -1.0
        cases.append(rows)
    assert (np.signbit(rows) & (rows == 0.0)).any()
    for rows in cases:
        want = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        for got, expected in zip(_unique_rows(rows), want):
            expected = expected.reshape(got.shape)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert want[0].shape[0] < rows.shape[0]


def test_prune_drops_strictly_dominated_and_duplicate_pieces():
    base = np.array([[1.0, 0.0], [0.0, 1.0]])
    dominated = np.array([[-1.0, -1.0]])
    dupe = base[:1].copy()
    vectors = np.vstack([base, dominated, dupe])
    pruned, kept = prune(vectors)
    assert pruned.shape[0] == 2
    assert set(map(tuple, pruned)) == set(map(tuple, base))


def test_prune_keeps_needed_interior_piece():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]])
    pruned, _ = prune(vectors)
    assert pruned.shape[0] == 3


# ---------------------------------------------------------------------------
# Grid solver
# ---------------------------------------------------------------------------

def test_grid_vertices_only_undiscounted():
    m = gen_example("ex1")
    m0 = PomdpModel(name="flat", discount=0.0, transition=m.transition,
                    observation=m.observation, reward=m.reward)
    vf = solve_grid(m0, resolution=1, residual=1e-12)
    # the three vertices, in grid order, valued at the best immediate reward
    best = np.asarray(m.reward).max(axis=0)
    for point, value in zip(vf.beliefs, vf.values):
        state = int(np.argmax(point))
        assert value == pytest.approx(best[state], abs=1e-12)


def test_grid_backup_matches_pointwise_oracle():
    """Grid 45 (1081 points) spans several score blocks, 81 or more
    vectors leaving fewer than 1081 points per block; grid 5 (21 points) is
    smaller than one block and carries more vectors than points.  Two
    calls with a growing carried set check that the second call's score
    buffer leaves the first call's results untouched."""
    rng = np.random.default_rng(42)

    def check(m, vectors, beliefs, resolution):
        """Both backups, every pair and the bounded one (the carried
        envelope's grid values, seeded random last actions), against the
        oracle; then a mask with one needed belief in an action's column,
        which pads it to two rows.  Returns the all-pairs backup."""
        q = np.array([point_backup_q(m, vectors, pi) for pi in beliefs])
        lanes = np.arange(q.shape[0])
        cells = solver._posterior_cells(m, beliefs, resolution)
        bounded = {"cells": cells, "values": _best_rows(beliefs, vectors)[1],
                   "acts": rng.integers(0, m.num_actions, q.shape[0])}
        backups = [_grid_backup(m, vectors, beliefs, **kwargs)
                   for kwargs in ({}, bounded)]
        for values, alphas, acts in backups:
            assert np.abs(values - q.max(axis=1)).max() <= 1e-12
            assert np.abs(np.einsum("px,px->p", alphas, beliefs)
                          - values).max() <= 1e-12
            assert (q[lanes, acts] >= q.max(axis=1) - 1e-12).all()

        need = rng.random(q.shape) < 0.5
        lone = int(rng.integers(m.num_actions))
        need[:, lone] = False
        need[int(rng.integers(q.shape[0])), lone] = True
        projections = solver._projections(m, vectors)
        masked = beliefs @ m.reward.T
        best_idx = np.full(q.shape + (m.num_obs,), -1)
        solver._add_future(m, projections, beliefs, masked, best_idx, need)
        assert np.abs(masked - q)[need].max() <= 1e-12
        assert (best_idx[~need] == -1).all()
        points, actions = np.nonzero(need)
        alphas = m.reward[actions] + sum(
            projections[actions, y, best_idx[points, actions, y]]
            for y in range(m.num_obs))
        assert np.abs(np.einsum("px,px->p", alphas, beliefs[points])
                      - q[points, actions]).max() <= 1e-12
        return backups[0]

    beliefs = belief_grid(3, 45)
    for num_obs, num_actions in ((2, 2), (3, 2), (2, 3)):
        m = random_model(rng, 3, num_obs, num_actions)
        vectors = rng.uniform(-1.0, 2.0, (int(rng.integers(81, 90)), 3))
        assert _GEMM_BUDGET // vectors.size < beliefs.shape[0]
        check(m, vectors, beliefs, 45)

    small = belief_grid(3, 5)
    m = random_model(rng, 3, 3, 2)
    vectors = rng.uniform(-1.0, 2.0, (40, 3))
    assert small.shape[0] == 21 < _GEMM_BUDGET // (65 * 3)
    first = check(m, vectors, small, 5)
    kept = [arr.copy() for arr in first]
    check(m, np.vstack([vectors, rng.uniform(-1.0, 2.0, (25, 3))]), small, 5)
    check(m, vectors[:3], small, 5)
    for arr, copy in zip(first, kept):
        assert np.array_equal(arr, copy)


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


def test_grid_residual_runs_a_priori_sweeps():
    m = gen_example("ex1")
    vf = solve_grid(m, resolution=6, residual=1e-5)
    assert vf.iterations == _residual_sweeps(m, 1e-5) == len(vf.residuals)
    # the change reached is reported, not the target
    assert vf.residual == vf.residuals[-1] > 1e-5


@pytest.mark.parametrize("solve", [solve_grid, solve_exact])
def test_non_finite_residual_is_rejected(solve):
    """An infinite residual target used to stop either solver after one
    backup."""
    with pytest.raises(ValueError, match="positive and finite"):
        solve(gen_example("ex1"), residual=float("inf"), resolution=5)


@pytest.mark.parametrize("horizon", [True, float("inf"), 2.5])
@pytest.mark.parametrize("solve", [solve_grid, solve_exact])
def test_horizon_must_be_a_nonnegative_integer(solve, horizon):
    """True used to run one backup, and inf to raise OverflowError."""
    with pytest.raises(ValueError, match="nonnegative integer"):
        solve(gen_example("ex1"), horizon=horizon, resolution=5)


def test_grid_refinement_stays_within_residual_budget():
    m = gen_example("ex1")
    coarse = solve_grid(m, resolution=50, residual=1e-6)
    fine = solve_grid(m, resolution=100, residual=1e-6)
    shared = belief_grid(3, 50)
    drift = np.abs(fine.values_at(shared) - coarse.values_at(shared)).max()
    assert drift <= 1e-6 / (1.0 - m.discount)


def _grid_case(label):
    """(model, resolution, sweeps) for the bounded-backup tests: the bundled
    models; ex2 with a discount outside [0, 1), which a horizon solve
    accepts; and seeded random models with 2-4 states, 2-3 actions, rewards
    of both signs and, in the "zero-obs" cases, an observation of
    probability zero under every action."""
    if label.startswith("ex2-discount="):
        m = gen_example("ex2")
        return PomdpModel(name=label, discount=float(label.split("=")[1]),
                          transition=m.transition, observation=m.observation,
                          reward=m.reward), 12, 25
    if not label.startswith("random"):
        params = {"num_states": 3} if label == "tridiagonal" else {}
        return gen_example(label, **params), 15, 60
    seed = int(label.split("-")[1])
    rng = np.random.default_rng(900 + seed)
    num_states = 2 + seed % 3
    m = random_model(rng, num_states, 2 + seed % 2, 2 + (seed // 3) % 2,
                     discount=float(rng.uniform(0.8, 0.97)))
    if "zero-obs" in label:
        observation = np.concatenate(
            [np.zeros(m.observation.shape[:2] + (1,)), m.observation], axis=2)
        m = PomdpModel(name="zero-obs", discount=m.discount,
                       transition=m.transition, observation=observation,
                       reward=m.reward)
    assert (m.reward < 0.0).any()
    return m, {2: 40, 3: 15, 4: 7}[num_states], 50


BOUND_CASES = (["ex1", "ex2", "hierarchical", "reversed_factor", "tridiagonal",
                "ex2-discount=1.2"]
               + [f"random-{seed}" for seed in range(8)]
               + [f"random-{seed}-zero-obs" for seed in (1, 5)])


@pytest.mark.parametrize("label", BOUND_CASES + ["ex2-discount=-0.5"])
def test_grid_solve_is_the_all_pairs_sweep(label):
    """Scoring only the pairs the interpolation bound cannot exclude leaves
    every output of the grid solver bit for bit as scoring every pair.  A
    negative discount voids the bound, and every pair is scored."""
    m, resolution, sweeps = _grid_case(label)
    vf = solve_grid(m, resolution=resolution, horizon=sweeps)
    trail = grid_sweeps_oracle(m, belief_grid(m.num_states, resolution),
                               sweeps, _grid_backup)
    last = trail[-1]
    assert np.array_equal(vf.values, last["new_values"])
    assert np.array_equal(vf.vectors, last["vectors_out"])
    assert np.array_equal(vf.actions, last["actions"])
    assert np.array_equal(vf.point_vector, last["point_vector"])
    assert vf.residuals == tuple(sweep["residual"] for sweep in trail)


@pytest.mark.parametrize("label", BOUND_CASES)
def test_interpolation_bound_holds_at_every_sweep(label):
    """At every sweep after the first, Q_up from the last sweep's grid values
    bounds the all-pairs Q, and each pair it lets the backup skip loses
    strictly at its point."""
    m, resolution, sweeps = _grid_case(label)
    beliefs = belief_grid(m.num_states, resolution)
    trail = grid_sweeps_oracle(m, beliefs, sweeps, _grid_backup)
    cells = solver._posterior_cells(m, beliefs, resolution)
    lanes = np.arange(beliefs.shape[0])
    skipped_pairs = 0
    for before, sweep in zip(trail, trail[1:]):
        q = _q_batch(m, sweep["vectors"], beliefs)
        assert np.array_equal(q.max(axis=1), sweep["new_values"])
        upper = solver._q_upper(m, beliefs, cells, sweep["values"])
        scale = max(np.abs(sweep["values"]).max(),
                    np.abs(sweep["vectors"]).max(), np.abs(m.reward).max())
        assert (upper >= q - 1e-12 * scale).all()
        last_q = q[lanes, before["acts"]]
        skipped = upper < (last_q - solver._BOUND_RTOL * scale)[:, None]
        assert (q < q.max(axis=1, keepdims=True))[skipped].all()
        skipped_pairs += int(skipped.sum())
    assert skipped_pairs > 0


# ---------------------------------------------------------------------------
# Q-values and policies
# ---------------------------------------------------------------------------

def test_q_values_zero_function_reduces_to_rewards():
    rng = np.random.default_rng(51)
    m = random_model(rng, 3, 3, 3)
    for _ in range(10):
        pi = random_belief(rng, 3)
        q = _q_batch(m, zero_vf(3).vectors, pi[None, :])[0]
        assert q == pytest.approx(m.reward @ pi, abs=1e-12)
        assert _lowest_argmax(q) == _lowest_argmax(m.reward @ pi)


def test_q_values_match_depth_two_expectimax():
    rng = np.random.default_rng(52)
    for _ in range(20):
        m = random_model(rng, 2, 2, 2)
        vf = solve_exact(m, horizon=1)
        beliefs = np.array([random_belief(rng, 2) for _ in range(10)])
        q = _q_batch(m, vf.vectors, beliefs)
        assert q.max(axis=1) == pytest.approx(
            expectimax_values(m, beliefs, 2), abs=1e-10)


@pytest.mark.parametrize("name", ["ex1", "ex2", "hierarchical"])
def test_q_batch_is_the_q_the_grid_backup_maximizes(name):
    """verify measures Q through _q_batch; it must be bit for bit the Q
    the grid solver maximized, or a verdict could hinge on rounding."""
    m = gen_example(name)
    vectors = solve_grid(m, resolution=35, horizon=40).vectors
    beliefs = belief_grid(3, 35)
    q = _q_batch(m, vectors, beliefs)
    assert np.array_equal(q.max(axis=1), _grid_backup(m, vectors, beliefs)[0])


def test_envelope_evaluations_stay_small():
    """5151 beliefs x 4000 vectors is a 157 MiB score matrix; the blocked
    kernel keeps every evaluation's traced peak far below that."""
    beliefs = belief_grid(3, 100)
    vectors = np.random.default_rng(7).uniform(-1.0, 1.0, (4000, 3))
    vf = ExactVF(vectors=vectors, actions=np.zeros(4000, dtype=int), horizon=1)
    m = gen_example("ex2")
    evaluations = (lambda: vf.values_at(beliefs),
                   lambda: _q_batch(m, vectors, beliefs),
                   lambda: _streaming_top2(vectors, beliefs))
    for evaluate in evaluations:
        tracemalloc.start()
        try:
            evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_policy_tie_breaks_to_lowest_action(tmp_path):
    m = PomdpModel(name="ties", discount=0.0,
                   transition=np.eye(2),
                   observation=[np.eye(2)] * 3,
                   reward=[[1.0, 1.0]] * 3)
    pi = np.array([0.5, 0.5])
    assert _lowest_argmax(m.reward @ pi) == 0
    assert _lowest_argmax(_q_batch(m, zero_vf(2).vectors, pi[None, :])[0]) == 0
    path, table = tmp_path / "ties.json", tmp_path / "policy.csv"
    save_model(m, path)
    assert main(["solve", str(path), "--horizon", "1", "--csv", str(table),
                 "--out", str(tmp_path / "vf.json")]) == 0
    rows = list(csv.DictReader(table.open()))
    assert len(rows) == 101                      # grid 100 on two states
    assert all(r["optimal_action"] == "1" and r["myopic_action"] == "1"
               for r in rows)


def test_myopic_crossing_on_ex1():
    m = gen_example("ex1")
    assert _lowest_argmax(m.reward @ [1.0, 0.0, 0.0]) == 0   # r1 wins low
    assert _lowest_argmax(m.reward @ [0.0, 0.0, 1.0]) == 1   # r2 wins high


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_gamma_monotone_report_on_exact_solve():
    vf = solve_exact(gen_example("ex1"), horizon=5)
    report = gamma_monotone_report(vf)
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
