"""Exact and grid-based value iteration for belief-state planning.

The exact solver represents each value function as the upper envelope of a
set of alpha vectors, backed up per (action, observation) with cross-sums
and incremental pruning.  The grid solver keeps one backed-up vector per
barycentric grid point; it is both a standalone lower-bound solver and,
on a coarse grid, the warm start for the exact solver's residual mode.

Every envelope evaluation (grid backup, Q-values, values at points, the
pruner's top-two test) scores beliefs against all vectors through
:func:`_score_blocks`, in blocks of as many beliefs as keep each product
within _GEMM_BUDGET multiply-adds, so each block stays cache-sized.  No
beliefs x vectors matrix is built.  Each grid sweep computes Q only for the
(point, action) pairs that an upper bound cannot exclude: the interpolation
of the last sweep's grid values over the Freudenthal cells of the
posteriors (Lovejoy, Oper. Res. 1991); a negative discount voids the bound.
The pairs it computes are bit for bit :func:`_q_batch`'s, so the Q that
verification measures is the one the grid backup maximized.

Pruning relies on a batched game-value LP: the margin of a candidate vector
against a reference set is the value of a matrix game whose rows are states
and whose columns are reference vectors, solved in shifted dual form so no
phase-1 start is ever needed.  Before any LP, a closed-form screen drops the
candidates lying within eps below a chord of two admitted vectors.  The
pruner holds its candidate sets as boolean masks and ascending index arrays
over the distinct input vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .model import (PomdpModel, _belief_rows, _freudenthal, _readonly,
                    belief_grid, capped_resolution)

PRUNE_EPS = 1e-10
TIE_TOL = 1e-10
GAMMA_TOL = 1e-10
CROSS_SUM_CAP = 100_000
EXACT_MAX_ITER = 100_000  # margin LPs resolve a residual only to about 1e-9
_WARM_START_RESOLUTION = 20  # grid of the exact residual mode's warm start
_EXACT_GRID_POINTS = 20_000  # most points of that grid and the history grid

# Rounding margin of the grid backup's upper bound, relative to the largest
# magnitude among grid values, carried vectors and rewards.
_BOUND_RTOL = 1e-10
_RC_TOL = 1e-9
_PIVOT_TOL = 1e-11
_NO_ROW = np.iinfo(np.int64).max  # tie-break filler: never the smallest basis index
# Multiply-adds per score block.  Blocks stay cache-sized: with one BLAS
# thread (the package default) `solve_grid` on ex2 at resolution 35 took a
# median 0.283 s at 2**18 against 0.327, 0.332 and 0.329 s at 2**16, 2**20
# and 2**22 (2-core box, 5 runs each).  It is also half the size at which
# OpenBLAS 0.3.31 splits a GEMM over two threads when more are allowed
# (measured: 524 160 multiply-adds ran on one thread, 524 544 on two); for
# products this small the second thread mostly waits.
_GEMM_BUDGET = 2**18
# Tableau bytes per margin-LP batch.  Smaller batches fault in fewer fresh
# temporaries but ran slower: 120 KB batches took `solve ex1 --method exact
# --horizon 11` 0.90-0.94 s against 0.85 s (2-core box, three runs each).
_LP_BATCH_BYTES = 2_000_000


class CapacityError(RuntimeError):
    """Raised when an exact cross-sum would exceed the vector-count cap."""


# ---------------------------------------------------------------------------
# Blocked envelope scoring
# ---------------------------------------------------------------------------

def _score_blocks(points: np.ndarray, rows: np.ndarray):
    """Yield (start, points[start:start + b] @ rows.T) for blocks of b
    points, as many as keep each product within _GEMM_BUDGET multiply-adds
    (at least one), so that it stays cache-sized.  Each block is
    written over the last in one buffer allocated per call: fresh blocks
    past the mmap threshold are mapped and faulted in anew, which can cost
    as much as the products."""
    num_points, num_rows = points.shape[0], rows.shape[0]
    block = max(1, _GEMM_BUDGET // max(1, rows.size))
    work = np.empty(min(block, num_points) * num_rows)
    for start in range(0, num_points, block):
        stop = min(start + block, num_points)
        scores = work[:(stop - start) * num_rows].reshape(stop - start, num_rows)
        np.matmul(points[start:stop], rows.T, out=scores)
        yield start, scores


def _best_rows(points: np.ndarray, rows: np.ndarray):
    """Per point: the index of the best-scoring row (lowest among ties) and
    its score."""
    best_idx = np.empty(points.shape[0], dtype=np.int64)
    best_val = np.empty(points.shape[0])
    for start, scores in _score_blocks(points, rows):
        idx = np.argmax(scores, axis=1)
        best_idx[start:start + idx.size] = idx
        best_val[start:start + idx.size] = scores[np.arange(idx.size), idx]
    return best_idx, best_val


@dataclass(frozen=True, eq=False)
class _Envelope:
    """Upper envelope of alpha vectors, each tagged with the action that
    produced it.  Subclasses record per-iteration changes in ``residuals``."""

    vectors: np.ndarray          # (N, X)
    actions: np.ndarray          # (N,)

    def __post_init__(self):
        object.__setattr__(self, "vectors", _readonly(np.atleast_2d(self.vectors)))
        object.__setattr__(self, "actions", _readonly(self.actions, dtype=int))

    @property
    def num_vectors(self) -> int:
        return self.vectors.shape[0]

    @property
    def residual(self) -> float | None:
        """The last iteration's change, or None before the first iteration."""
        return self.residuals[-1] if self.residuals else None

    def values_at(self, points) -> np.ndarray:
        return _best_rows(_belief_rows(points, self.vectors.shape[1]),
                          self.vectors)[1]


@dataclass(frozen=True, eq=False)
class ExactVF(_Envelope):
    """Pruned alpha-vector value function.

    ``horizon`` counts the exact backups performed.  ``residuals`` holds the
    per-iteration sup-norm change certified by LP over the whole simplex and
    ``grid_residuals`` the change measured on the reference grid.
    """

    horizon: int
    residuals: tuple[float, ...] = ()
    grid_residuals: tuple[float, ...] = ()


@dataclass(frozen=True, eq=False)
class GridVF(_Envelope):
    """Point-based value function: one backed-up alpha vector per grid point.

    ``vectors`` holds the distinct backed-up vectors, at most one per grid
    point; ``point_vector`` maps each point to its row.  Their envelope is a
    convex lower bound on the exact value function everywhere and matches
    ``values`` at the grid points.
    """

    beliefs: np.ndarray          # (P, X)
    values: np.ndarray           # (P,)
    point_vector: np.ndarray     # (P,) row of `vectors` backing each point
    iterations: int
    residuals: tuple[float, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "beliefs", _readonly(self.beliefs))
        object.__setattr__(self, "values", _readonly(self.values))
        object.__setattr__(self, "point_vector",
                           _readonly(self.point_vector, dtype=int))


# ---------------------------------------------------------------------------
# Batched margin LP
# ---------------------------------------------------------------------------

def _batch_margins(cands, refs):
    """Margin of every candidate vector against a reference set: one shared
    (R, X) set, or an (R, B, X) stack giving candidate b the set refs[:, b].

    The margin of v is max over beliefs pi of (v'pi - max_w w'pi): positive
    means some belief strictly prefers v to every reference vector, negative
    means v lies below the reference envelope everywhere.  Each margin is the
    value of a matrix game; shifting payoffs positive and solving the dual
    bounding LP max{1'q : Jq <= 1, q >= 0} keeps the tableau at X+1 rows and
    starts from the all-slack basis, so no phase 1 is needed.  For the first
    200 sweeps each LP enters the column of greatest improvement, the one
    whose reduced cost times ratio-test step raises the objective most;
    after that it falls back to Bland's rule, which guarantees termination.
    An LP with no improvable column is finished: its objective row is saved
    and it leaves the working set, so later sweeps pivot only the LPs still
    running.  Returns (margins, witnesses); each witness row is a belief
    attaining its candidate's margin.
    """
    cands = np.atleast_2d(np.asarray(cands, dtype=float))
    refs = np.atleast_2d(np.asarray(refs, dtype=float))
    n_cand, n_states = cands.shape
    n_refs = refs.shape[0]
    if n_cand == 0:
        return np.empty(0), np.empty((0, n_states))
    if n_refs == 0:
        raise ValueError("reference set must be non-empty")

    n_cols = n_refs + n_states + 1
    tableau = np.zeros((n_cand, n_states + 1, n_cols))
    payoff = tableau[:, :n_states, :n_refs]                  # (B, X, R) view
    np.subtract(cands[:, :, None], np.moveaxis(refs, 0, -1), out=payoff)
    shift = 1.0 - payoff.min(axis=(1, 2))                    # makes payoffs >= 1
    payoff += shift[:, None, None]
    tableau[:, :n_states, n_refs:n_refs + n_states] = np.eye(n_states)
    tableau[:, :n_states, -1] = 1.0
    tableau[:, -1, :n_refs] = -1.0
    basis = np.tile(np.arange(n_refs, n_refs + n_states), (n_cand, 1))

    ids = np.arange(n_cand)
    final = np.empty((n_cand, n_cols))
    bland_after = 200
    max_iter = bland_after + 1000 + 20 * (n_refs + n_states)
    for sweep in range(max_iter):
        rc = tableau[:, -1, :-1]
        improvable = rc < -_RC_TOL
        has_move = improvable.any(axis=1)
        if not has_move.all():
            done = ~has_move
            final[ids[done]] = tableau[done, -1]
            tableau, basis, ids = tableau[has_move], basis[has_move], ids[has_move]
            if ids.size == 0:
                break
            rc, improvable = rc[has_move], improvable[has_move]
        body = tableau[:, :n_states, :-1]                    # (A, X, C)
        rhs = tableau[:, :n_states, -1:]
        ratios = np.divide(rhs, body, out=np.full(body.shape, np.inf),
                           where=body > _PIVOT_TOL)
        if sweep < bland_after:
            # Greatest improvement: rc * step is minus the objective's rise
            # if that column enters; +inf masks columns that cannot improve.
            delta = np.multiply(rc, ratios.min(axis=1), where=improvable,
                                out=np.full(rc.shape, np.inf))
            entering = np.argmin(delta, axis=1)
        else:
            entering = np.argmax(improvable, axis=1)         # Bland

        lanes = np.arange(ids.size)
        ratios = ratios[lanes, :, entering]                  # (A, X)
        best = ratios.min(axis=1, keepdims=True)
        if not np.isfinite(best).all():
            raise ArithmeticError("margin game LP became unbounded")
        tie_break = np.where(ratios <= best, basis, _NO_ROW)
        leaving = np.argmin(tie_break, axis=1)

        col = tableau[lanes, :, entering]                    # (A, X+1)
        pivot_row = tableau[lanes, leaving, :]
        pivot_row /= col[lanes, leaving][:, None]
        tableau -= col[:, :, None] * pivot_row[:, None, :]
        tableau[lanes, leaving, :] = pivot_row
        basis[lanes, leaving] = entering
    else:
        raise ArithmeticError("margin game LP failed to converge")

    objective = final[:, -1]
    if (objective <= 0.0).any():
        raise ArithmeticError("margin game LP returned a non-positive objective")
    margins = 1.0 / objective - shift
    witness_raw = np.clip(final[:, n_refs:n_refs + n_states], 0.0, None)
    totals = witness_raw.sum(axis=1, keepdims=True)
    if (totals <= 0.0).any():
        raise ArithmeticError("margin game LP returned a degenerate witness")
    return margins, witness_raw / totals


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def _streaming_top2(rows: np.ndarray, points: np.ndarray):
    """Per evaluation point: index and value of the best row and the value of
    the runner-up, scored in point blocks so memory stays bounded.  The
    runner-up is the block's row maximum once the top entry is overwritten
    with -inf.  Among tied tops the index is the lowest, and then runner-up
    equals top."""
    top_idx = np.empty(points.shape[0], dtype=np.int64)
    top_val = np.empty(points.shape[0])
    second = np.empty(points.shape[0])
    for start, scores in _score_blocks(points, rows):
        lanes = np.arange(scores.shape[0])
        idx = np.argmax(scores, axis=1)
        top_idx[start:start + idx.size] = idx
        top_val[start:start + idx.size] = scores[lanes, idx]
        scores[lanes, idx] = -np.inf
        second[start:start + idx.size] = scores.max(axis=1)
    return top_idx, top_val, second


def _lp_chunk(num_refs: int, num_states: int) -> int:
    """Candidates per margin-LP batch: tableaus of at most _LP_BATCH_BYTES."""
    return max(1, min(4096, _LP_BATCH_BYTES // (
        8 * (num_states + 1) * (num_refs + num_states + 1))))


def _margins(cands: np.ndarray, refs: np.ndarray):
    """:func:`_batch_margins` of each candidate against the shared (R, X)
    set ``refs``, in batches of :func:`_lp_chunk` candidates."""
    margins = np.empty(cands.shape[0])
    witnesses = np.empty(cands.shape)
    chunk = _lp_chunk(refs.shape[0], cands.shape[1])
    for start in range(0, cands.shape[0], chunk):
        stop = start + chunk
        margins[start:stop], witnesses[start:stop] = \
            _batch_margins(cands[start:stop], refs)
    return margins, witnesses


def _nearest_refs(cands: np.ndarray, refs: np.ndarray):
    """Per candidate v: the index of the reference w of least
    max_x (v - w)_x (lowest among ties) and that least value, which bounds
    v's margin against refs from above, since the margin against a set is
    at most the margin against any member.  The max over coordinates is a
    running maximum of (n, R) slices, in blocks whose two buffers, allocated
    once per call, hold at most _LP_BATCH_BYTES."""
    nearest = np.empty(cands.shape[0], dtype=np.int64)
    bound = np.empty(cands.shape[0])
    refs_t = refs.T                                          # (X, R)
    block = max(1, min(cands.shape[0], _LP_BATCH_BYTES // (16 * refs.shape[0])))
    work = np.empty((2, block, refs.shape[0]))
    for start in range(0, cands.shape[0], block):
        part_t = cands[start:start + block].T                # (X, n)
        gaps, diff = work[:, :part_t.shape[1]]
        np.subtract.outer(part_t[0], refs_t[0], out=gaps)
        for i in range(1, refs.shape[1]):
            np.subtract.outer(part_t[i], refs_t[i], out=diff)
            np.maximum(gaps, diff, out=gaps)
        idx = np.argmin(gaps, axis=1)
        nearest[start:start + idx.size] = idx
        bound[start:start + idx.size] = gaps[np.arange(idx.size), idx]
    return nearest, bound


def _chord_covered(cands: np.ndarray, refs: np.ndarray, eps: float) -> np.ndarray:
    """Mask of the candidates v that lie within eps below a chord of two
    reference vectors: v <= (1 - mu) w1 + mu w2 + eps at every coordinate
    for some mu in [0, 1], where w1 is v's nearest reference
    (:func:`_nearest_refs`) and w2 is any reference.

    Such a v has margin at most eps against refs, with no LP: at every
    belief pi, min_w (v - w)'pi is at most (1 - mu) (v - w1)'pi
    + mu (v - w2)'pi.  mu = 0, or w2 = w1, is the single-reference test
    max_x (v - w1)_x <= eps.  Otherwise, with a = v - w1 - eps,
    d = w2 - w1 and nu = 1 / mu >= 1, each coordinate asks
    nu <= d_x / a_x where a_x > 0 and nu >= d_x / a_x where a_x < 0; a
    coordinate with a_x = 0 is priced as a_x = 1, which asks more and so
    stays sound.  Candidates go in blocks whose three float (n, R) buffers,
    allocated once per call, and one boolean hold at most _LP_BATCH_BYTES.
    """
    nearest, bound = _nearest_refs(cands, refs)
    covered = bound <= eps
    rest = np.flatnonzero(~covered)
    refs_t = refs.T                                          # (X, R)
    block = max(1, min(rest.size, _LP_BATCH_BYTES // (25 * refs.shape[0])))
    work = np.empty((3, block, refs.shape[0]))
    for start in range(0, rest.size, block):
        rows = rest[start:start + block]
        near = refs[nearest[rows]]                           # w1, (n, X)
        slack = cands[rows] - near - eps                     # a
        inv = np.divide(1.0, slack, out=np.ones_like(slack),
                        where=slack != 0.0)
        ceiling, floor, ratio = work[:, :rows.size]          # nu's bounds
        ceiling.fill(np.inf)
        floor.fill(1.0)
        for i in range(refs.shape[1]):
            np.subtract(refs_t[i], near[:, i, None], out=ratio)
            ratio *= inv[:, i, None]
            over = (slack[:, i] >= 0.0)[:, None]
            np.minimum(ceiling, ratio, out=ceiling, where=over)
            np.maximum(floor, ratio, out=floor, where=~over)
        covered[rows] = (floor <= ceiling).any(axis=1)
    return covered


def _prune_arrays(cands: np.ndarray, eps: float) -> np.ndarray:
    """Ascending indices of the vectors forming the upper envelope.

    A vector is kept iff some belief strictly prefers it to all the others
    by more than eps.  Stages: exact dedupe; grid-argmax certification of
    clear winners (a vector beating every rival by > eps at a grid point
    stays regardless of what else is removed); then rounds over the
    remaining pool.  Each round drops, without an LP, the candidates that
    lie within eps below a chord of two vectors of the admitted set R
    (:func:`_chord_covered`; the chord of a vector with itself is pointwise
    dominance), then runs batched margin LPs against R on the rest and
    drops candidates whose margin is already <= eps.  At each survivor's witness
    belief it then admits the winner, the alive vector scoring highest
    there (lowest index among ties), whether or not that is the survivor
    (the filter of Lark and White; White, Ann. Oper. Res. 1991).  A winner
    beating every other alive vector there by more than eps is certified,
    as on the grid; a near-tied winner is admitted as forced.  R only
    grows, so every drop against it stays sound.  If a round drops nothing
    and every winner is already in R, which happens when a survivor's LP
    margin is above eps while an admitted vector wins at its witness (the
    LP resolves margins only to about 1e-9), the survivor of largest
    margin is forced in.  Every forced vector is re-tested against the
    final set (:func:`_retest_forced`).
    """
    n_input = cands.shape[0]
    if n_input <= 1:
        return np.arange(n_input)

    dedup = np.sort(_unique_rows(cands)[1])
    cands_u = cands[dedup]
    if dedup.size == 1:
        return dedup

    n = cands_u.shape[0]

    grid = belief_grid(cands.shape[1],
                       capped_resolution(cands.shape[1], 40, 15_000))
    top, top_vals, second = _streaming_top2(cands_u, grid)
    in_r = np.zeros(n, dtype=bool)
    in_r[top[top_vals - second > eps]] = True
    forced = np.zeros(n, dtype=bool)
    if not in_r.any():
        seed = np.argmax(cands_u.sum(axis=1))
        in_r[seed] = forced[seed] = True
    removed = np.zeros(n, dtype=bool)
    pool = np.flatnonzero(~in_r)     # always the vectors in neither mask

    while pool.size:
        refs = cands_u[in_r]
        pool_size = pool.size

        covered = _chord_covered(cands_u[pool], refs, eps)
        removed[pool[covered]] = True
        pool = pool[~covered]

        margins, witnesses = _margins(cands_u[pool], refs)
        live = margins > eps
        removed[pool[~live]] = True
        survivors = pool[live]

        if survivors.size:
            alive = np.flatnonzero(~removed)
            w_idx, w_val, w_sec = _streaming_top2(cands_u[alive],
                                                  witnesses[live])
            winners = alive[w_idx]
            in_r[winners[w_val - w_sec > eps]] = True
            tied = winners[~in_r[winners]]
            in_r[tied] = forced[tied] = True

        pool = survivors[~in_r[survivors]]
        if pool.size == pool_size:       # nothing dropped, nothing admitted
            forced_id = survivors[np.argmax(margins[live])]
            in_r[forced_id] = forced[forced_id] = True
            pool = pool[pool != forced_id]

    _retest_forced(cands_u, in_r, np.flatnonzero(forced), eps)
    return dedup[np.flatnonzero(in_r)]


def _retest_forced(cands: np.ndarray, in_r: np.ndarray, pending: np.ndarray,
                   eps: float) -> None:
    """Drop each ascending ``pending`` vector whose margin against the rest
    of ``in_r`` is at most eps, as a one-at-a-time loop would, testing a
    group per LP batch: after a drop only the later vectors also at or below
    eps are re-tested, since a drop cannot lower the others' margins."""
    chunk = _lp_chunk(int(in_r.sum()) - 1, cands.shape[1])
    for start in range(0, pending.size, chunk):
        group = pending[start:start + chunk]
        while group.size and in_r.sum() > 1:
            members = np.flatnonzero(in_r)
            others = np.stack([members[members != i] for i in group], axis=1)
            margins, _ = _batch_margins(cands[group], cands[others])
            low = np.flatnonzero(margins <= eps)
            in_r[group[low[:1]]] = False
            group = group[low[1:]]


def prune(vectors):
    """Remove pointwise- and LP-dominated vectors from a set.

    A vector survives iff some belief strictly prefers it to all the others
    by more than PRUNE_EPS, so the pruned set's max matches the input set's
    at every belief within PRUNE_EPS.  Returns (pruned, kept_indices).
    """
    arr = np.atleast_2d(np.asarray(vectors, dtype=float))
    if arr.size == 0:
        return np.empty((0, arr.shape[1])), np.empty(0, dtype=int)
    kept = _prune_arrays(arr, PRUNE_EPS)
    return arr[kept].copy(), kept


# ---------------------------------------------------------------------------
# Exact value iteration
# ---------------------------------------------------------------------------

def _backup_arrays(m: PomdpModel, vectors: np.ndarray):
    """One exact Bellman backup of an alpha-vector set.

    Per action: back-project the vectors through each observation, prune,
    and cross-sum over observations with incremental pruning; the immediate
    reward starts the cross-sum.  Returns the pruned union over actions.
    Raises CapacityError when a cross-sum would pass CROSS_SUM_CAP vectors.
    """
    num_states = m.num_states
    projections = _projections(m, vectors)
    per_action: list[np.ndarray] = []
    for u in range(m.num_actions):
        current = m.reward[u][None, :]
        for y in range(m.num_obs):
            proj = projections[u, y]
            proj = proj[_prune_arrays(proj, PRUNE_EPS)]
            size = current.shape[0] * proj.shape[0]
            if size > CROSS_SUM_CAP:
                raise CapacityError(
                    f"cross-sum for action {u} would create {size} vectors "
                    f"(cap {CROSS_SUM_CAP}); use the grid solver for this model")
            current = (current[:, None, :] + proj[None, :, :]).reshape(-1, num_states)
            if y > 0:
                # At y = 0 the sum is the reward row plus each pruned
                # projection; a common shift changes no margin, so it is
                # already pruned.
                current = current[_prune_arrays(current, PRUNE_EPS)]
        per_action.append(current)
    all_vectors = np.vstack(per_action)
    all_actions = np.concatenate(
        [np.full(s.shape[0], u, dtype=int) for u, s in enumerate(per_action)])
    kept = _prune_arrays(all_vectors, PRUNE_EPS)
    return all_vectors[kept], all_actions[kept]


def _sup_residual(new_vectors: np.ndarray, old_vectors: np.ndarray,
                  floor: float) -> float:
    """Exact sup-norm distance between two alpha-vector envelopes.

    sup(V_new - V_old) is the largest margin of a new vector against the old
    set and vice versa, so batched margin LPs certify the sup norm over the
    whole simplex.  ``floor`` must be a lower bound on that sup, such as
    the largest |V_new - V_old| on a grid, and at least 0.  A vector whose
    single-reference bound (:func:`_nearest_refs`) is at most the running
    maximum of the floor and the margins so far cannot raise it, so only
    the others are priced; the result is the largest of the floor and the
    margins priced.
    """
    sup = floor
    for cands, refs in ((new_vectors, old_vectors), (old_vectors, new_vectors)):
        priced = cands[_nearest_refs(cands, refs)[1] > sup]
        if priced.size:
            sup = max(sup, float(_margins(priced, refs)[0].max()))
    return float(sup)


def _mode_or_error(horizon, residual) -> None:
    """Reject a stop rule unless it is exactly one of a nonnegative integer
    horizon (not a bool; an integral float counts) and a positive finite
    residual."""
    if (horizon is None) == (residual is None):
        raise ValueError("exactly one of horizon and residual must be given")
    if horizon is not None and (isinstance(horizon, (bool, np.bool_))
                                or not 0 <= horizon < np.inf
                                or horizon != int(horizon)):
        raise ValueError("horizon must be a nonnegative integer")
    if residual is not None and not 0.0 < residual < np.inf:
        raise ValueError("residual must be positive and finite")


def solve_exact(m: PomdpModel, *, horizon: int | None = None,
                residual: float | None = None,
                resolution: int = 100) -> ExactVF:
    """Exact value iteration, either for a fixed horizon or to a residual.

    Horizon mode starts from the zero value function and performs exactly
    ``horizon`` backups.  Residual mode warm-starts from a grid solve of
    the same stop rule on a coarse grid (resolution 20, capped at 20 000
    points), which runs a fixed sweep count and so cannot fail (sound: the
    stopping rule depends only on the distance between consecutive exact
    iterates, not on the starting point), and stops when both the
    LP-certified sup-norm change and the change measured on the
    ``resolution`` grid drop to ``residual`` or below, raising
    ArithmeticError after EXACT_MAX_ITER backups.  Raises CapacityError
    when a cross-sum would exceed CROSS_SUM_CAP vectors, in which case the
    grid solver is the practical alternative.
    """
    _mode_or_error(horizon, residual)
    if horizon is not None:
        vectors, actions = np.zeros((1, m.num_states)), np.zeros(1, dtype=int)
        steps = int(horizon)
    else:
        seed = solve_grid(m, residual=residual, resolution=capped_resolution(
            m.num_states, _WARM_START_RESOLUTION, _EXACT_GRID_POINTS))
        kept = _prune_arrays(seed.vectors, PRUNE_EPS)
        vectors, actions = seed.vectors[kept], seed.actions[kept]
        steps = EXACT_MAX_ITER
    history_grid = belief_grid(m.num_states, capped_resolution(
        m.num_states, resolution, _EXACT_GRID_POINTS))
    grid_values = _best_rows(history_grid, vectors)[1]
    residuals: list[float] = []
    grid_residuals: list[float] = []
    while len(residuals) < steps:
        new_vectors, actions = _backup_arrays(m, vectors)
        new_values = _best_rows(history_grid, new_vectors)[1]
        grid_residuals.append(float(np.abs(new_values - grid_values).max()))
        residuals.append(_sup_residual(new_vectors, vectors,
                                       grid_residuals[-1]))
        vectors, grid_values = new_vectors, new_values
        if residual is not None and \
                max(residuals[-1], grid_residuals[-1]) <= residual:
            break
    else:
        if residual is not None:
            raise ArithmeticError("exact value iteration failed to converge")
    return ExactVF(vectors=vectors, actions=actions, horizon=len(residuals),
                   residuals=tuple(residuals),
                   grid_residuals=tuple(grid_residuals))


# ---------------------------------------------------------------------------
# Grid value iteration
# ---------------------------------------------------------------------------

def _projections(m: PomdpModel, vectors: np.ndarray) -> np.ndarray:
    """Back-projections rho * P_u (B_u[:, y] * alpha) of every vector
    through every (action, observation), stacked (U, Y, N, X)."""
    out = np.empty((m.num_actions, m.num_obs) + vectors.shape)
    for u in range(m.num_actions):
        for y in range(m.num_obs):
            np.matmul(vectors * m.observation[u][:, y][None, :],
                      m.transition[u].T, out=out[u, y])
    out *= m.discount
    return out


def _add_future(m: PomdpModel, projections: np.ndarray, beliefs: np.ndarray,
                q: np.ndarray, best_idx: np.ndarray, need: np.ndarray) -> None:
    """Add to q[p, u], per observation in order, the best back-projection's
    score at belief p (exactly zero for a zero-probability observation),
    and record its row in best_idx[p, u, y], for the pairs with need[p, u].
    A lone needed belief among several is scored as two equal rows: its
    product is then a matrix product, as among the whole grid, and not a
    matrix-vector product, which BLAS rounds differently.  Scoring a subset
    of the beliefs reproduces their scores among all of them only as far as
    BLAS rounds an entry the same whatever the row count of its product;
    OpenBLAS can round the last few columns of some products differently."""
    for u in range(m.num_actions):
        sel = np.flatnonzero(need[:, u])
        if sel.size == 0:
            continue
        points = beliefs if sel.size == beliefs.shape[0] else \
            beliefs[np.repeat(sel, 2) if sel.size == 1 else sel]
        for y in range(m.num_obs):
            idx, val = _best_rows(points, projections[u, y])
            best_idx[sel, u, y] = idx[:sel.size]
            q[sel, u] += val[:sel.size]


def _posterior_cells(m: PomdpModel, beliefs: np.ndarray, resolution: int):
    """Gather arrays that interpolate grid values at every posterior: rows
    and weights, each (U, P, Y * X), with sum_k weights[u, p, k] *
    V[rows[u, p, k]] = rho * sum_y sigma * V_int(tau).  Here sigma is the
    probability of observation y after action u at belief p, tau the
    posterior, and V_int the interpolation of the values V at the points of
    ``beliefs``, the resolution grid, over tau's Freudenthal cell."""
    num_points = beliefs.shape[0]
    rows = np.empty((m.num_actions, num_points, m.num_obs * m.num_states),
                    dtype=np.int64)
    weights = np.empty(rows.shape)
    for u in range(m.num_actions):
        predicted = beliefs @ m.transition[u]                # rows P_u' pi
        joint = predicted[:, None, :] * m.observation[u].T[None, :, :]
        sigma = joint.sum(axis=2)                            # (P, Y)
        live = sigma > 0.0
        # An observation of probability zero weighs nothing; the predicted
        # belief stands in for its undefined posterior.
        post = np.where(live[:, :, None], joint, predicted[:, None, :])
        post /= np.where(live, sigma, 1.0)[:, :, None]
        cell_rows, cell_weights = _freudenthal(
            post.reshape(-1, m.num_states), resolution)
        rows[u] = cell_rows.reshape(num_points, -1)
        weights[u] = (m.discount * np.where(live, sigma, 0.0)[:, :, None]
                      * cell_weights.reshape(num_points, m.num_obs, -1)
                      ).reshape(num_points, -1)
    return rows, weights


def _q_upper(m: PomdpModel, beliefs: np.ndarray, cells, values: np.ndarray):
    """Q_up(p, u) = r_u'p + rho * sum_y sigma * V_int(tau) at every grid
    point, from the grid values and the :func:`_posterior_cells` of the
    grid.  It bounds Q(p, u) from above when the value function is convex
    and at most ``values`` at the grid points, for the interpolation of
    those values then bounds it at every posterior."""
    rows, weights = cells
    return beliefs @ m.reward.T + np.einsum("upk,upk->pu", weights,
                                            values.take(rows))


def _grid_backup(m: PomdpModel, vectors: np.ndarray, beliefs: np.ndarray, *,
                 cells=None, values=None, acts=None):
    """One point-based backup: per grid point, the exact Bellman backup of
    the current envelope, keeping the maximizing action's alpha vector.

    Without ``cells`` every (point, action) pair is scored.  With the grid's
    ``cells`` (:func:`_posterior_cells`) and the last sweep's grid
    ``values`` and actions ``acts``, each point's last action is scored
    first.  The carried envelope is convex and equals ``values`` at the grid
    points, so :func:`_q_upper` bounds every Q.  A pair is scored too only
    when its bound comes within a rounding margin, scaled by the largest
    value, vector entry or reward, of that first Q.  Every other pair loses
    strictly, so the maximizing action, its Q and its vector are bit for bit
    those of scoring every pair.
    """
    num_points = beliefs.shape[0]
    lanes = np.arange(num_points)
    projections = _projections(m, vectors)
    q = beliefs @ m.reward.T                                 # (P, U)
    best_idx = np.empty(q.shape + (m.num_obs,), dtype=np.int64)
    need = np.full(q.shape, cells is None)
    if cells is not None:
        need[lanes, acts] = True
    _add_future(m, projections, beliefs, q, best_idx, need)
    if cells is not None:
        margin = _BOUND_RTOL * max(np.abs(values).max(), np.abs(vectors).max(),
                                   np.abs(m.reward).max())
        # Skip only what the bound proves: a NaN comparison scores the pair.
        extra = ~(_q_upper(m, beliefs, cells, values)
                  < (q[lanes, acts] - margin)[:, None])
        extra &= ~need
        _add_future(m, projections, beliefs, q, best_idx, extra)
        q[~(need | extra)] = -np.inf
    acts = np.argmax(q, axis=1)
    alphas = m.reward[acts]
    for y in range(m.num_obs):
        alphas += projections[acts, y, best_idx[lanes, acts, y]]
    return q[lanes, acts], alphas, acts


def _residual_sweeps(m: PomdpModel, residual: float) -> int:
    """Sweep count whose tail bound rho^k * Rmax matches the residual target.

    After k backups from the zero function the distance to the fixed point
    is at most rho^k * Rmax / (1 - rho); the smallest k with
    rho^k * Rmax <= residual is ceil(log(residual / Rmax) / log rho).
    Outside 0 <= rho < 1 the bound is void and no residual is ever reached.
    """
    if not 0.0 <= m.discount < 1.0:
        raise ValueError(f"a residual target needs a discount in [0, 1), "
                         f"got {m.discount}")
    rmax = float(np.abs(m.reward).max())
    if m.discount <= 0.0 or rmax <= 0.0 or residual >= rmax:
        return 1
    return max(1, ceil(log(residual / rmax) / log(m.discount)))


def _unique_rows(rows: np.ndarray):
    """``np.unique(rows, axis=0, return_index=True, return_inverse=True)``
    with a flat inverse: the distinct rows in lexicographic order, the first
    index of each, and each row's position among them.  A stable lexsort
    and a row-difference mask do the work, so -0.0 and 0.0 compare equal
    and each distinct row is its first occurrence, as in ``np.unique``."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.empty(rows.shape[0], dtype=bool)
    first[:1] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    inverse = np.empty(rows.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], order[first], inverse


def solve_grid(m: PomdpModel, *, resolution: int = 100,
               horizon: int | None = None,
               residual: float | None = None) -> GridVF:
    """Point-based value iteration on the barycentric belief grid.

    Each sweep backs up every grid point against the carried set, which is
    the distinct backed-up vectors of the previous sweep, at most one per
    grid point.  The resulting envelope is a convex lower bound on the exact
    value function (each backup is an exact Bellman backup of a lower
    approximation), exact at grid points for the horizon solved.  With
    nonnegative probabilities and discount, a solve of two or more sweeps
    skips the pairs that :func:`_grid_backup`'s bound excludes (at the zero
    start, the actions whose reward loses strictly); others score every pair.

    A ``residual`` target runs the a-priori sweep count of
    :func:`_residual_sweeps`, since the point-based change can floor above a
    small target; ``residual`` on the result is the change actually reached.
    """
    _mode_or_error(horizon, residual)
    sweeps = int(horizon) if horizon is not None \
        else _residual_sweeps(m, float(residual))
    beliefs = belief_grid(m.num_states, resolution)
    num_points = beliefs.shape[0]
    vectors = np.zeros((1, m.num_states))
    actions = np.zeros(1, dtype=int)
    point_vector = np.zeros(num_points, dtype=int)
    values = np.zeros(num_points)
    acts = np.zeros(num_points, dtype=int)
    history: list[float] = []
    cells = None
    if sweeps > 1 and min(m.discount, m.transition.min(),
                          m.observation.min()) >= 0.0:
        cells = _posterior_cells(m, beliefs, resolution)
    for _ in range(sweeps):
        new_values, alphas, acts = _grid_backup(m, vectors, beliefs, cells=cells,
                                                values=values, acts=acts)
        history.append(float(np.abs(new_values - values).max()))
        vectors, first_idx, point_vector = _unique_rows(alphas)
        actions = acts[first_idx]
        values = new_values
    return GridVF(beliefs=beliefs, values=values, vectors=vectors,
                  actions=actions, point_vector=point_vector,
                  iterations=sweeps, residuals=tuple(history))


# ---------------------------------------------------------------------------
# Policies and Q-values
# ---------------------------------------------------------------------------

def _q_batch(m: PomdpModel, vectors: np.ndarray, beliefs: np.ndarray) -> np.ndarray:
    """Q(pi, u) for every belief row and action: the immediate reward plus
    :func:`_add_future`'s scores.  The grid backup computes Q only for the
    pairs its bound cannot exclude, and each of those bit for bit as here."""
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    q = beliefs @ m.reward.T                                 # (P, U)
    best_idx = np.empty(q.shape + (m.num_obs,), dtype=np.int64)
    _add_future(m, _projections(m, vectors), beliefs, q, best_idx,
                np.ones(q.shape, dtype=bool))
    return q


def _lowest_argmax(scores: np.ndarray) -> np.ndarray:
    """Per row of ``scores``, the lowest index whose score is within TIE_TOL
    of the row's best (ties broken down)."""
    best = scores.max(axis=-1, keepdims=True)
    return np.argmax(scores >= best - TIE_TOL, axis=-1)


def gamma_monotone_report(vf: ExactVF) -> dict:
    """Entry-monotonicity report over all alpha vectors.

    Checks gamma(first) <= gamma(middle) <= gamma(last) per vector, plus full
    consecutive monotonicity (which the structural theory predicts for
    3-state models under its hypotheses), each within GAMMA_TOL.  Margins
    are minima over vectors; None where the state count leaves a check
    vacuous.
    """
    v = vf.vectors
    num_states = v.shape[1]
    first_mid = mid_last = None
    if num_states >= 3:
        first_mid = float((v[:, 1:num_states - 1] - v[:, :1]).min())
        mid_last = float((v[:, -1:] - v[:, 1:num_states - 1]).min())
    consecutive = float(np.diff(v, axis=1).min()) if num_states >= 2 else None
    return {
        "first_vs_middle_ok": first_mid is None or first_mid >= -GAMMA_TOL,
        "middle_vs_last_ok": mid_last is None or mid_last >= -GAMMA_TOL,
        "fully_increasing": consecutive is None or consecutive >= -GAMMA_TOL,
        "min_first_vs_middle": first_mid,
        "min_middle_vs_last": mid_last,
        "min_consecutive_diff": consecutive,
        "num_vectors": int(v.shape[0]),
    }


def vf_to_dict(vf) -> dict:
    """JSON-ready dict for a value function, actions reported 1-based as in
    every command-line output."""
    if not isinstance(vf, (ExactVF, GridVF)):
        raise TypeError(f"not a value function: {type(vf).__name__}")
    vectors = [{"values": [float(x) for x in vec], "action": int(a) + 1}
               for vec, a in zip(vf.vectors, vf.actions)]
    if isinstance(vf, ExactVF):
        return {
            "kind": "exact",
            "horizon": vf.horizon,
            "residuals": list(vf.residuals),
            "grid_residuals": list(vf.grid_residuals),
            "vectors": vectors,
        }
    return {
        "kind": "grid",
        "iterations": vf.iterations,
        "residual": vf.residual,
        "residuals": list(vf.residuals),
        "vectors": vectors,
        "points": [
            {"belief": [float(x) for x in b],
             "value": float(v),
             "vector": int(k)}
            for b, v, k in zip(vf.beliefs, vf.values, vf.point_vector)],
    }
