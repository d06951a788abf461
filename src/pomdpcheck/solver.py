"""Exact and grid-based value iteration for belief-state planning.

The exact solver represents each value function as the upper envelope of a
set of alpha vectors, backed up per (action, observation) with cross-sums
and incremental pruning.  The grid solver keeps one backed-up vector per
barycentric grid point; it is both a standalone lower-bound solver and the
warm start for the exact solver's residual mode.

Pruning relies on a batched game-value LP: the margin of a candidate vector
against a reference set is the value of a matrix game whose rows are states
and whose columns are reference vectors, solved in shifted dual form so no
phase-1 start is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .model import Belief, PomdpModel, as_belief, belief_grid

PRUNE_EPS = 1e-10
TIE_TOL = 1e-10
CROSS_SUM_CAP = 100_000

_RC_TOL = 1e-9
_PIVOT_TOL = 1e-11
_NO_ROW = np.iinfo(np.int64).max  # tie-break filler: never the smallest basis index
_POINT_BLOCK = 128  # score rows per grid-backup block, cache-sized


class CapacityError(RuntimeError):
    """Raised when an exact cross-sum would exceed the vector-count cap."""


def _frozen(arr, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class AlphaVector:
    """One linear piece of a value function and the action that produced it."""

    values: np.ndarray  # (X,)
    action: int

    def value(self, belief) -> float:
        return float(np.asarray(self.values, dtype=float)
                     @ as_belief(belief).probs)


@dataclass(frozen=True, eq=False)
class ExactVF:
    """Pruned alpha-vector value function.

    ``horizon`` counts the exact backups performed.  ``residuals`` holds the
    per-iteration sup-norm change certified by LP over the whole simplex and
    ``grid_residuals`` the change measured on the reference grid.
    """

    vectors: np.ndarray          # (N, X)
    actions: np.ndarray          # (N,)
    horizon: int
    residuals: tuple[float, ...] = ()
    grid_residuals: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vectors", _frozen(np.atleast_2d(self.vectors)))
        object.__setattr__(self, "actions", _frozen(self.actions, dtype=int))

    @property
    def num_vectors(self) -> int:
        return self.vectors.shape[0]

    @property
    def alpha_vectors(self) -> list[AlphaVector]:
        return [AlphaVector(values=v, action=int(a))
                for v, a in zip(self.vectors, self.actions)]

    def value(self, belief) -> float:
        return float((self.vectors @ as_belief(belief).probs).max())

    def values_at(self, points) -> np.ndarray:
        return (np.asarray(points, dtype=float) @ self.vectors.T).max(axis=1)


@dataclass(frozen=True, eq=False)
class GridVF:
    """Point-based value function: one backed-up alpha vector per grid point.

    ``vectors`` holds the distinct backed-up vectors, at most one per grid
    point; ``point_vector`` maps each point to its row.  Their envelope is a
    convex lower bound on the exact value function everywhere and matches
    ``values`` at the grid points.
    """

    beliefs: np.ndarray          # (P, X)
    values: np.ndarray           # (P,)
    vectors: np.ndarray          # (M, X)
    actions: np.ndarray          # (M,)
    point_vector: np.ndarray     # (P,) row of `vectors` backing each point
    iterations: int
    residual: float
    residuals: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "beliefs", _frozen(self.beliefs))
        object.__setattr__(self, "values", _frozen(self.values))
        object.__setattr__(self, "vectors", _frozen(np.atleast_2d(self.vectors)))
        object.__setattr__(self, "actions", _frozen(self.actions, dtype=int))
        object.__setattr__(self, "point_vector",
                           _frozen(self.point_vector, dtype=int))

    @property
    def num_vectors(self) -> int:
        return self.vectors.shape[0]

    def value(self, belief) -> float:
        return float((self.vectors @ as_belief(belief).probs).max())

    def values_at(self, points) -> np.ndarray:
        return (np.asarray(points, dtype=float) @ self.vectors.T).max(axis=1)


@dataclass(frozen=True, eq=False)
class PolicyQuery:
    """Per-action Q-values at one belief with the tie-tolerant argmax set."""

    belief: Belief
    q: np.ndarray                    # (U,)
    argmax_actions: tuple[int, ...]  # actions within TIE_TOL of the best Q

    def __post_init__(self):
        object.__setattr__(self, "q", _frozen(self.q))


# ---------------------------------------------------------------------------
# Batched margin LP
# ---------------------------------------------------------------------------

def _batch_margins(cands, refs):
    """Margin of every candidate vector against a shared reference set.

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

    payoff = cands[:, :, None] - refs.T[None, :, :]          # (B, X, R)
    shift = 1.0 - payoff.min(axis=(1, 2))                    # makes payoffs >= 1
    n_cols = n_refs + n_states + 1
    tableau = np.zeros((n_cand, n_states + 1, n_cols))
    tableau[:, :n_states, :n_refs] = payoff + shift[:, None, None]
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
        positive = body > _PIVOT_TOL
        ratios = np.where(positive, rhs / np.where(positive, body, 1.0), np.inf)
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

@lru_cache(maxsize=32)
def _certification_resolution(num_states: int) -> int:
    res = 40
    while res > 1 and comb(res + num_states - 1, num_states - 1) > 15_000:
        res -= 1
    return res


def _streaming_top2(rows: np.ndarray, points: np.ndarray, block: int = 8192):
    """Per evaluation point: index and value of the best row and the value of
    the runner-up, computed in row blocks so memory stays bounded.  Each
    block's values are laid out (P, b), points by rows, so the top-2
    selection runs along contiguous rows."""
    num_points = points.shape[0]
    top_val = np.full(num_points, -np.inf)
    second = np.full(num_points, -np.inf)
    top_idx = np.zeros(num_points, dtype=np.int64)
    points_idx = np.arange(num_points)
    for start in range(0, rows.shape[0], block):
        vals = points @ rows[start:start + block].T          # (P, b)
        if vals.shape[1] == 1:
            blk_top, blk_sec = vals[:, 0], np.full(num_points, -np.inf)
            blk_idx = np.full(num_points, start, dtype=np.int64)
        else:
            pick = np.argpartition(vals, -2, axis=1)[:, -2:]    # (P, 2)
            pair = np.take_along_axis(vals, pick, axis=1)
            hi = np.argmax(pair, axis=1)
            blk_top = pair[points_idx, hi]
            blk_sec = pair[points_idx, 1 - hi]
            blk_idx = pick[points_idx, hi] + start
        better = blk_top > top_val
        second = np.where(better, np.maximum(top_val, blk_sec),
                          np.maximum(second, blk_top))
        top_idx = np.where(better, blk_idx, top_idx)
        top_val = np.where(better, blk_top, top_val)
    return top_idx, top_val, second


def _pointwise_filter(cands: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Indices of rows not pointwise-dominated (within eps) by a kept row.

    Scans in coordinate-sum-descending order and compares each row against
    already-kept rows only, so every removed row has a *kept* witness within
    eps of it coordinatewise — the envelope drops by at most eps in total
    regardless of how many rows go, with no chained slack.  With eps > 0
    this also collapses clusters of near-parallel rows to a single
    representative.
    """
    order = np.argsort(-cands.sum(axis=1), kind="stable")
    kept_rows = np.empty_like(cands)
    kept_idx = np.empty(cands.shape[0], dtype=np.int64)
    count = 0
    for idx in order:
        row = cands[idx]
        if count and bool(
                np.any(np.all(kept_rows[:count] >= row - eps, axis=1))):
            continue
        kept_rows[count] = row
        kept_idx[count] = idx
        count += 1
    return np.sort(kept_idx[:count])


def _prune_arrays(cands: np.ndarray, eps: float) -> np.ndarray:
    """Ascending indices of the vectors forming the upper envelope.

    A vector is kept iff some belief strictly prefers it to all the others
    by more than eps.  Stages: exact dedupe; pointwise filter; grid-argmax
    certification of clear winners (a vector beating every rival by > eps at
    a grid point stays regardless of what else is removed); batched margin
    LPs of the remaining pool against the certified set, removing candidates
    whose margin is already <= eps and certifying winners whose witness
    belief separates them from every live rival.  Vectors admitted only by
    the forced-progress fallback are re-tested against the final set.
    """
    n_input = cands.shape[0]
    if n_input <= 1:
        return np.arange(n_input)

    _, first_idx = np.unique(cands, axis=0, return_index=True)
    dedup = np.sort(first_idx)
    cands_u = cands[dedup]
    if dedup.size == 1:
        return dedup

    # The sequential pointwise scan only pays for itself on small sets; the
    # margin LP subsumes it otherwise.
    if cands_u.shape[0] <= 2048:
        pw = _pointwise_filter(cands_u, eps)
    else:
        pw = np.arange(cands_u.shape[0])
    cands_p = cands_u[pw]
    n = cands_p.shape[0]
    if n == 1:
        return dedup[pw]

    grid = belief_grid(cands.shape[1], _certification_resolution(cands.shape[1]))
    top, top_vals, second = _streaming_top2(cands_p, grid)
    certified = np.unique(top[top_vals - second > eps])

    in_r = np.zeros(n, dtype=bool)
    in_r[certified] = True
    forced: list[int] = []
    if not in_r.any():
        seed = int(np.argmax(cands_p.sum(axis=1)))
        in_r[seed] = True
        forced.append(seed)
    removed = np.zeros(n, dtype=bool)
    pool = [i for i in range(n) if not in_r[i]]

    num_states = cands.shape[1]
    while pool:
        refs = cands_p[in_r]
        progress = False

        # Cheap sound pre-drop: the margin against the set is at most the
        # margin against any single member, min_w max_i (v_i - w_i), so
        # anything that bound already kills never needs an LP.
        pool_arr = np.asarray(pool)
        upper = np.empty(pool_arr.size)
        for start in range(0, pool_arr.size, 8192):
            part = cands_p[pool_arr[start:start + 8192]]
            gaps = (part[:, None, :] - refs[None, :, :]).max(axis=2)
            upper[start:start + part.shape[0]] = gaps.min(axis=1)
        cheap_drop = upper <= eps
        if cheap_drop.any():
            removed[pool_arr[cheap_drop]] = True
            progress = True
            pool = [int(i) for i in pool_arr[~cheap_drop]]
            if not pool:
                break

        chunk = max(256, min(4096,
                             33_000_000 // (8 * (num_states + 1)
                                            * (refs.shape[0] + num_states + 1))))
        margins = np.empty(len(pool))
        witnesses = np.empty((len(pool), num_states))
        for start in range(0, len(pool), chunk):
            part = pool[start:start + chunk]
            margins[start:start + len(part)], witnesses[start:start + len(part)] = \
                _batch_margins(cands_p[part], refs)

        survivors: list[int] = []
        surv_pos: list[int] = []
        for pos, idx in enumerate(pool):
            if margins[pos] <= eps:
                removed[idx] = True
                progress = True
            else:
                survivors.append(idx)
                surv_pos.append(pos)

        certified_now: set[int] = set()
        if survivors:
            alive = np.flatnonzero(~removed)
            w_idx, w_val, w_sec = _streaming_top2(
                cands_p[alive], witnesses[surv_pos])
            for t, cand_id in enumerate(survivors):
                if int(alive[w_idx[t]]) == cand_id and w_val[t] - w_sec[t] > eps:
                    in_r[cand_id] = True
                    certified_now.add(cand_id)
                    progress = True

        pool = [idx for idx in survivors if idx not in certified_now]

        if pool and not progress:
            t_best = int(np.argmax(margins[surv_pos]))
            forced_id = survivors[t_best]
            in_r[forced_id] = True
            forced.append(forced_id)
            pool.remove(forced_id)

    for idx in sorted(forced):
        if not in_r[idx]:
            continue
        others = np.flatnonzero(in_r)
        others = others[others != idx]
        if others.size == 0:
            continue
        margin, _ = _batch_margins(cands_p[idx:idx + 1], cands_p[others])
        if margin[0] <= eps:
            in_r[idx] = False

    return dedup[pw[np.flatnonzero(in_r)]]


def prune(vectors, eps: float = PRUNE_EPS):
    """Remove pointwise- and LP-dominated vectors from a set.

    A vector survives iff some belief strictly prefers it to all the others
    by more than eps, so the max over the pruned set equals the max over the
    input set at every belief (within eps).  Returns (pruned, kept_indices);
    ``pruned`` mirrors the input kind — a list of AlphaVector in gives a list
    of AlphaVector out, an array in gives an array out.
    """
    if not isinstance(vectors, np.ndarray):
        seq = list(vectors)
        if not seq:
            return [], np.empty(0, dtype=int)
        if isinstance(seq[0], AlphaVector):
            arr = np.array([np.asarray(a.values, dtype=float) for a in seq])
            kept = _prune_arrays(arr, eps)
            return [seq[int(i)] for i in kept], kept
        vectors = np.asarray(seq, dtype=float)
    arr = np.atleast_2d(np.asarray(vectors, dtype=float))
    if arr.shape[0] == 0:
        return arr.copy(), np.empty(0, dtype=int)
    kept = _prune_arrays(arr, eps)
    return arr[kept].copy(), kept


# ---------------------------------------------------------------------------
# Exact value iteration
# ---------------------------------------------------------------------------

def _backup_arrays(m: PomdpModel, vectors: np.ndarray, *, cap: int, eps: float):
    """One exact Bellman backup of an alpha-vector set.

    Per action: back-project the vectors through each observation, prune,
    and cross-sum over observations with incremental pruning; the immediate
    reward starts the cross-sum.  Returns the pruned union over actions.
    """
    num_states = m.num_states
    per_action: list[np.ndarray] = []
    for u in range(m.num_actions):
        current = m.reward[u][None, :]
        for y in range(m.num_obs):
            proj = m.discount * (
                (vectors * m.observation[u][:, y][None, :]) @ m.transition[u].T)
            proj = proj[_prune_arrays(proj, eps)]
            size = current.shape[0] * proj.shape[0]
            if size > cap:
                raise CapacityError(
                    f"cross-sum for action {u} would create {size} vectors "
                    f"(cap {cap}); use the grid solver for this model")
            current = (current[:, None, :] + proj[None, :, :]).reshape(-1, num_states)
            current = current[_prune_arrays(current, eps)]
        per_action.append(current)
    all_vectors = np.vstack(per_action)
    all_actions = np.concatenate(
        [np.full(s.shape[0], u, dtype=int) for u, s in enumerate(per_action)])
    kept = _prune_arrays(all_vectors, eps)
    return all_vectors[kept], all_actions[kept]


def vi_exact_step(m: PomdpModel, vf: ExactVF, *,
                  cap: int = CROSS_SUM_CAP, eps: float = PRUNE_EPS) -> ExactVF:
    """One exact value-iteration backup: V_{k+1} from V_k.

    Raises CapacityError when an intermediate cross-sum would exceed ``cap``
    vectors, in which case the grid solver is the practical alternative.
    """
    new_vectors, new_actions = _backup_arrays(m, vf.vectors, cap=cap, eps=eps)
    return ExactVF(vectors=new_vectors, actions=new_actions,
                   horizon=vf.horizon + 1)


def _sup_residual(new_vectors: np.ndarray, old_vectors: np.ndarray) -> float:
    """Exact sup-norm distance between two alpha-vector envelopes.

    sup(V_new - V_old) is the largest margin of a new vector against the old
    set and vice versa, so two batched margin calls certify the sup norm
    over the whole simplex.
    """
    up, _ = _batch_margins(new_vectors, old_vectors)
    down, _ = _batch_margins(old_vectors, new_vectors)
    return float(max(up.max(), down.max(), 0.0))


def _mode_or_error(horizon, residual) -> None:
    if (horizon is None) == (residual is None):
        raise ValueError("exactly one of horizon and residual must be given")
    if horizon is not None and (int(horizon) != horizon or horizon < 0):
        raise ValueError("horizon must be a nonnegative integer")
    if residual is not None and not residual > 0.0:
        raise ValueError("residual must be positive")


def _capped_resolution(num_states: int, resolution: int, limit: int) -> int:
    res = resolution
    while res > 1 and comb(res + num_states - 1, num_states - 1) > limit:
        res -= 1
    return res


def solve_exact(m: PomdpModel, *, horizon: int | None = None,
                residual: float | None = None, resolution: int = 100,
                cap: int = CROSS_SUM_CAP, eps: float = PRUNE_EPS,
                max_iter: int = 100_000) -> ExactVF:
    """Exact value iteration, either for a fixed horizon or to a residual.

    Horizon mode starts from the zero value function and performs exactly
    ``horizon`` backups.  Residual mode warm-starts from a converged grid
    solve (sound: the stopping rule depends only on the distance between
    consecutive exact iterates, not on the starting point) and stops when
    both the LP-certified sup-norm change and the grid-measured change drop
    to ``residual`` or below.
    """
    _mode_or_error(horizon, residual)
    num_states = m.num_states
    if horizon is not None:
        vf = ExactVF(vectors=np.zeros((1, num_states)),
                     actions=np.zeros(1, dtype=int), horizon=0)
        history_grid = belief_grid(
            num_states, _capped_resolution(num_states, resolution, 20_000))
        residuals: list[float] = []
        grid_residuals: list[float] = []
        for _ in range(int(horizon)):
            new = vi_exact_step(m, vf, cap=cap, eps=eps)
            residuals.append(_sup_residual(new.vectors, vf.vectors))
            old_env = (history_grid @ vf.vectors.T).max(axis=1)
            new_env = (history_grid @ new.vectors.T).max(axis=1)
            grid_residuals.append(float(np.abs(new_env - old_env).max()))
            vf = new
        return ExactVF(vectors=vf.vectors, actions=vf.actions,
                       horizon=vf.horizon, residuals=tuple(residuals),
                       grid_residuals=tuple(grid_residuals))

    seed_res = _capped_resolution(num_states, resolution, 20_000)
    seed = solve_grid(m, resolution=seed_res, residual=residual,
                      max_iter=max_iter)
    kept = _prune_arrays(seed.vectors, eps)
    vectors, actions = seed.vectors[kept], seed.actions[kept]
    history_grid = belief_grid(num_states, seed_res)
    residuals: list[float] = []
    grid_residuals: list[float] = []
    steps = 0
    while True:
        if steps >= max_iter:
            raise ArithmeticError("exact value iteration failed to converge")
        new_vectors, new_actions = _backup_arrays(m, vectors, cap=cap, eps=eps)
        exact_res = _sup_residual(new_vectors, vectors)
        old_env = (history_grid @ vectors.T).max(axis=1)
        new_env = (history_grid @ new_vectors.T).max(axis=1)
        grid_res = float(np.abs(new_env - old_env).max())
        residuals.append(exact_res)
        grid_residuals.append(grid_res)
        vectors, actions = new_vectors, new_actions
        steps += 1
        if max(exact_res, grid_res) <= residual:
            break
    return ExactVF(vectors=vectors, actions=actions, horizon=steps,
                   residuals=tuple(residuals),
                   grid_residuals=tuple(grid_residuals))


# ---------------------------------------------------------------------------
# Grid value iteration
# ---------------------------------------------------------------------------

def _grid_backup(m: PomdpModel, vectors: np.ndarray, beliefs: np.ndarray):
    """One point-based backup: per grid point, the exact Bellman backup of
    the current envelope, keeping the maximizing action's alpha vector."""
    num_points = beliefs.shape[0]
    num_obs, num_actions = m.num_obs, m.num_actions
    q_all = beliefs @ m.reward.T                             # (P, U)
    best_idx = np.empty((num_points, num_actions, num_obs), dtype=np.int64)
    projections: dict[tuple[int, int], np.ndarray] = {}
    for u in range(num_actions):
        for y in range(num_obs):
            proj = m.discount * (
                (vectors * m.observation[u][:, y][None, :]) @ m.transition[u].T)
            projections[u, y] = proj
            for start in range(0, num_points, _POINT_BLOCK):
                stop = min(start + _POINT_BLOCK, num_points)
                scores = beliefs[start:stop] @ proj.T        # (b, M)
                idx = np.argmax(scores, axis=1)
                best_idx[start:stop, u, y] = idx
                q_all[start:stop, u] += scores[np.arange(idx.size), idx]
    acts = np.argmax(q_all, axis=1)
    values = q_all[np.arange(num_points), acts]
    alphas = np.empty((num_points, m.num_states))
    for u in range(num_actions):
        sel = np.flatnonzero(acts == u)
        if sel.size == 0:
            continue
        alpha_u = np.tile(m.reward[u], (sel.size, 1))
        for y in range(num_obs):
            alpha_u += projections[u, y][best_idx[sel, u, y]]
        alphas[sel] = alpha_u
    return values, alphas, acts


def solve_grid(m: PomdpModel, *, resolution: int = 100,
               horizon: int | None = None, residual: float | None = None,
               max_iter: int = 100_000) -> GridVF:
    """Point-based value iteration on the barycentric belief grid.

    Each sweep backs up every grid point against the carried set, which is
    the distinct backed-up vectors of the previous sweep, at most one per
    grid point.  The resulting envelope is a convex lower bound on the exact
    value function (each backup is an exact Bellman backup of a lower
    approximation), exact at grid points for the horizon solved.
    """
    _mode_or_error(horizon, residual)
    beliefs = belief_grid(m.num_states, resolution)
    num_points = beliefs.shape[0]
    vectors = np.zeros((1, m.num_states))
    actions = np.zeros(1, dtype=int)
    point_vector = np.zeros(num_points, dtype=int)
    values = np.zeros(num_points)
    history: list[float] = []
    last_res = float("inf")
    best_res = float("inf")
    sweeps_since_gain = 0
    iterations = 0
    while True:
        if horizon is not None and iterations >= int(horizon):
            break
        if horizon is None and iterations >= max_iter:
            raise ArithmeticError("grid value iteration failed to converge")
        new_values, alphas, acts = _grid_backup(m, vectors, beliefs)
        last_res = float(np.abs(new_values - values).max())
        history.append(last_res)
        # The point-based iteration is an exact Bellman update only at the
        # grid points, so its residual can bottom out at a resolution-
        # dependent floor instead of contracting all the way to zero.  Detect
        # that early rather than spinning until max_iter.
        if residual is not None and last_res > residual:
            if last_res < best_res * 0.99:
                best_res = last_res
                sweeps_since_gain = 0
            else:
                sweeps_since_gain += 1
                if sweeps_since_gain >= 120:
                    raise ArithmeticError(
                        f"grid value iteration stalled near residual "
                        f"{best_res:.3e}, above the target {residual:.3e}; "
                        f"the point-based fixed point at resolution "
                        f"{resolution} has a floor — increase the resolution "
                        f"or relax the residual")
        vectors, first_idx, point_vector = np.unique(
            alphas, axis=0, return_index=True, return_inverse=True)
        point_vector = point_vector.reshape(-1)
        actions = acts[first_idx]
        values = new_values
        iterations += 1
        if residual is not None and last_res <= residual:
            break
    return GridVF(beliefs=beliefs, values=values, vectors=vectors,
                  actions=actions, point_vector=point_vector,
                  iterations=iterations, residual=last_res,
                  residuals=tuple(history))


# ---------------------------------------------------------------------------
# Policies and Q-values
# ---------------------------------------------------------------------------

def _q_batch(m: PomdpModel, vectors: np.ndarray, beliefs: np.ndarray) -> np.ndarray:
    """Q(pi, u) for every belief row: immediate reward plus the discounted
    envelope value of each unnormalized posterior (zero-probability
    observations contribute exactly zero, so no case split is needed)."""
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    q = np.empty((beliefs.shape[0], m.num_actions))
    for u in range(m.num_actions):
        predicted = beliefs @ m.transition[u]                # (N, X)
        total = beliefs @ m.reward[u]
        for y in range(m.num_obs):
            posterior = predicted * m.observation[u][:, y]   # unnormalized
            total = total + m.discount * (posterior @ vectors.T).max(axis=1)
        q[:, u] = total
    return q


def q_values(m: PomdpModel, vf, belief, tie_tol: float = TIE_TOL) -> PolicyQuery:
    """Per-action Q-values at one belief under the given value function."""
    b = as_belief(belief)
    if b.num_states != m.num_states:
        raise ValueError("belief dimension does not match the model")
    q = _q_batch(m, vf.vectors, b.probs[None, :])[0]
    ties = np.flatnonzero(q >= q.max() - tie_tol)
    return PolicyQuery(belief=b, q=q,
                       argmax_actions=tuple(int(u) for u in ties))


def optimal_policy_at(m: PomdpModel, vf, belief,
                      tie_tol: float = TIE_TOL) -> int:
    """Lowest-index action maximizing Q at the belief (ties broken down)."""
    return q_values(m, vf, belief, tie_tol=tie_tol).argmax_actions[0]


def myopic_policy_at(m: PomdpModel, belief, tie_tol: float = TIE_TOL) -> int:
    """Lowest-index action maximizing the immediate reward r_u' pi."""
    b = as_belief(belief)
    if b.num_states != m.num_states:
        raise ValueError("belief dimension does not match the model")
    gains = m.reward @ b.probs
    return int(np.argmax(gains >= gains.max() - tie_tol))


def value_at(vf, belief) -> float:
    """Envelope value of an exact or grid value function at one belief."""
    return vf.value(belief)


def gamma_monotone_report(vf: ExactVF, tol: float = 1e-10) -> dict:
    """Entry-monotonicity report over all alpha vectors.

    Checks gamma(first) <= gamma(middle) <= gamma(last) per vector, plus full
    consecutive monotonicity (which the structural theory predicts for
    3-state models under its hypotheses).  Margins are minima over vectors;
    None where the state count leaves a check vacuous.
    """
    v = vf.vectors
    num_states = v.shape[1]
    first_mid = mid_last = None
    if num_states >= 3:
        first_mid = float((v[:, 1:num_states - 1] - v[:, :1]).min())
        mid_last = float((v[:, -1:] - v[:, 1:num_states - 1]).min())
    consecutive = float(np.diff(v, axis=1).min()) if num_states >= 2 else None
    return {
        "first_vs_middle_ok": first_mid is None or first_mid >= -tol,
        "middle_vs_last_ok": mid_last is None or mid_last >= -tol,
        "fully_increasing": consecutive is None or consecutive >= -tol,
        "min_first_vs_middle": first_mid,
        "min_middle_vs_last": mid_last,
        "min_consecutive_diff": consecutive,
        "num_vectors": int(v.shape[0]),
    }


def vf_to_dict(vf, *, action_base: int = 1) -> dict:
    """JSON-ready dict for a value function (actions reported 1-based by
    default, matching the command-line output convention)."""
    if isinstance(vf, ExactVF):
        return {
            "kind": "exact",
            "horizon": vf.horizon,
            "residuals": list(vf.residuals),
            "grid_residuals": list(vf.grid_residuals),
            "vectors": [
                {"values": [float(x) for x in vec],
                 "action": int(a) + action_base}
                for vec, a in zip(vf.vectors, vf.actions)],
        }
    if isinstance(vf, GridVF):
        return {
            "kind": "grid",
            "iterations": vf.iterations,
            "residual": float(vf.residual) if np.isfinite(vf.residual) else None,
            "residuals": list(vf.residuals),
            "vectors": [
                {"values": [float(x) for x in vec],
                 "action": int(a) + action_base}
                for vec, a in zip(vf.vectors, vf.actions)],
            "points": [
                {"belief": [float(x) for x in b],
                 "value": float(v),
                 "vector": int(k)}
                for b, v, k in zip(vf.beliefs, vf.values, vf.point_vector)],
        }
    raise TypeError(f"not a value function: {type(vf).__name__}")
