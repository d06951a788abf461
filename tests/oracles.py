"""Independent oracles for the test suite.

Everything in this module is deliberately naive: enumeration of every
branch instead of dynamic programming, dense grids instead of LPs, direct
definitions instead of the library's vectorized predicates.  Tests compare
the production code against these implementations, so nothing here may
import from the solver or orders internals beyond the model container and
belief grid.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from pomdpcheck.model import PomdpModel, belief_grid


# ---------------------------------------------------------------------------
# Brute-force finite-horizon value (expectimax over actions and observations)
# ---------------------------------------------------------------------------

def expectimax_values(m: PomdpModel, beliefs: np.ndarray, depth: int) -> np.ndarray:
    """Optimal depth-step value at every belief row, by explicit enumeration.

    V_0 = 0; V_k(pi) = max_u [ r_u'pi + rho * sum_y sigma(pi,y,u) *
    V_{k-1}(T(pi,y,u)) ], expanding every observation branch: the
    posteriors of all beliefs, actions and live observations form the rows
    of one recursive call, so the recursion is one call per depth, not one
    per belief.  Exponential in depth; intended for depth <= 3 on tiny
    models.
    """
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    if depth <= 0:
        return np.zeros(beliefs.shape[0])
    totals = beliefs @ m.reward.T                    # (N, U)
    branches = []                                    # (u, belief rows, sigmas)
    posteriors = []
    for u in range(m.num_actions):
        predicted = beliefs @ m.transition[u]        # rows: P_u' pi
        z = predicted[:, :, None] * m.observation[u][None, :, :]
        sigmas = z.sum(axis=1)                       # (N, Y)
        for y in range(m.num_obs):
            live = np.flatnonzero(sigmas[:, y] > 0.0)
            branches.append((u, live, sigmas[live, y]))
            posteriors.append(z[live, :, y] / sigmas[live, y][:, None])
    values = expectimax_values(m, np.concatenate(posteriors), depth - 1)
    start = 0
    for u, live, sigmas in branches:
        totals[live, u] += m.discount * sigmas * values[start:start + live.size]
        start += live.size
    return totals.max(axis=1)


# ---------------------------------------------------------------------------
# Belief grid and top-2 selection
# ---------------------------------------------------------------------------

def compositions_oracle(parts: int, total: int) -> list[tuple[int, ...]]:
    """Every way to write ``total`` as an ordered sum of ``parts``
    nonnegative integers, first part ascending, then the rest recursively."""
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in compositions_oracle(parts - 1, total - first)]


def top2_sort_oracle(rows: np.ndarray, points: np.ndarray):
    """Per point: the best and second-best row value, by a full sort."""
    ranked = np.sort(points @ rows.T, axis=1)
    second = ranked[:, -2] if rows.shape[0] > 1 else np.full(points.shape[0], -np.inf)
    return ranked[:, -1], second


# ---------------------------------------------------------------------------
# Dense-grid envelope helpers (prune and dominance baselines)
# ---------------------------------------------------------------------------

def envelope_on_grid(vectors: np.ndarray, resolution: int) -> np.ndarray:
    """Pointwise max of linear pieces over the belief grid."""
    pts = belief_grid(vectors.shape[1], resolution)
    return (pts @ vectors.T).max(axis=1)


def grid_dominated(vectors: np.ndarray, index: int, resolution: int,
                   slack: float = 0.0) -> bool:
    """True when piece ``index`` never rises above the others' max plus
    slack anywhere on the grid (a sound but grid-coarse dominance check)."""
    pts = belief_grid(vectors.shape[1], resolution)
    values = pts @ vectors.T
    others = np.delete(values, index, axis=1)
    return bool((values[:, index] <= others.max(axis=1) + slack).all())


def game_margin_oracle(v: np.ndarray, refs: np.ndarray) -> float:
    """max over beliefs pi of min_w (v - w)'pi, by vertex enumeration.

    The program max{t : (v - w)'pi >= t for every w, pi >= 0, 1'pi = 1}
    over (pi, t) is a pointed polyhedron, so its optimum sits at a vertex:
    the simplex equality plus X active constraints chosen from the R cuts
    and the X bounds.  Every choice is solved as a square linear system;
    feasible solutions are scored by min_w (v - w)'pi directly, so a badly
    conditioned system can only lower the result, never raise it.  A
    reference lying pointwise below another never attains the minimum on a
    belief, so such references (and repeated copies) are dropped first.
    """
    refs = np.atleast_2d(np.asarray(refs, dtype=float))
    order = np.arange(refs.shape[0])
    geq = (refs[:, None, :] >= refs[None, :, :]).all(axis=2)   # w_k >= w_j
    covers = geq & (~geq.T | (order[:, None] < order[None, :]))
    diffs = np.asarray(v, dtype=float)[None, :] - refs[~covers.any(axis=0)]
    num_refs, num_states = diffs.shape
    rows = np.vstack([np.hstack([diffs, -np.ones((num_refs, 1))]),
                      np.hstack([np.eye(num_states), np.zeros((num_states, 1))])])
    simplex = np.append(np.ones(num_states), 0.0)
    active = np.array(list(combinations(range(rows.shape[0]), num_states)))
    systems = np.concatenate(
        [np.broadcast_to(simplex, (active.shape[0], 1, num_states + 1)),
         rows[active]], axis=1)                                # (K, X+1, X+1)
    systems = systems[np.abs(np.linalg.det(systems)) > 1e-12]
    rhs = np.zeros((systems.shape[0], num_states + 1, 1))
    rhs[:, 0] = 1.0
    pis = np.linalg.solve(systems, rhs)[:, :num_states, 0]
    pis = pis[(pis >= -1e-12).all(axis=1)]
    pis = np.clip(pis, 0.0, None)
    pis /= pis.sum(axis=1, keepdims=True)
    return float((pis @ diffs.T).min(axis=1).max())


# ---------------------------------------------------------------------------
# Direct order-theory definitions
# ---------------------------------------------------------------------------

def mlr_oracle(p1: np.ndarray, p2: np.ndarray, tol: float = 0.0) -> bool:
    """p1 dominates p2 in likelihood ratio: p1[i]p2[j] <= p2[i]p1[j], i < j."""
    n = len(p1)
    for i in range(n):
        for j in range(i + 1, n):
            if p1[i] * p2[j] > p2[i] * p1[j] + tol:
                return False
    return True


def fosd_oracle(p1: np.ndarray, p2: np.ndarray, tol: float = 0.0) -> bool:
    """p1 first-order dominates p2: every upper tail of p1 is at least p2's."""
    t1 = np.cumsum(p1[::-1])[::-1]
    t2 = np.cumsum(p2[::-1])[::-1]
    return bool((t1 >= t2 - tol).all())


def tp2_oracle(matrix: np.ndarray, tol: float = 0.0) -> bool:
    """All 2x2 minors of the nonnegative matrix are nonnegative, checked on
    every (not just adjacent) row and column pair."""
    a = np.asarray(matrix, dtype=float)
    rows, cols = a.shape
    for r1 in range(rows):
        for r2 in range(r1 + 1, rows):
            for c1 in range(cols):
                for c2 in range(c1 + 1, cols):
                    if a[r1, c1] * a[r2, c2] - a[r1, c2] * a[r2, c1] < -tol:
                        return False
    return True


def copositive_grid_oracle(q: np.ndarray, resolution: int = 100) -> float:
    """Minimum of x'Qx over the dense simplex grid — a one-sided certificate
    (negative minimum disproves copositivity; a nonnegative minimum supports
    it up to grid resolution)."""
    pts = belief_grid(q.shape[0], resolution)
    return float(np.einsum("bi,ij,bj->b", pts, q, pts).min())


def copositive2_closed_form(q: np.ndarray) -> bool:
    """2x2 symmetric copositivity: both diagonal entries nonnegative and
    either the off-diagonal is nonnegative or the determinant is."""
    a, b, c = q[0, 0], q[0, 1], q[1, 1]
    if a < 0.0 or c < 0.0:
        return False
    return b >= 0.0 or a * c - b * b >= 0.0


def copositive3_closed_form(q: np.ndarray) -> bool:
    """3x3 symmetric copositivity via the classical radical criterion:
    nonnegative diagonal, each off-diagonal entry no smaller than minus the
    geometric mean of its diagonal pair, and one extra scalar inequality
    combining all three corrected off-diagonals."""
    a, b, c = q[0, 0], q[1, 1], q[2, 2]
    d, e, f = q[0, 1], q[0, 2], q[1, 2]
    if a < 0.0 or b < 0.0 or c < 0.0:
        return False
    alpha = d + np.sqrt(a * b)
    beta = e + np.sqrt(a * c)
    gamma = f + np.sqrt(b * c)
    if alpha < 0.0 or beta < 0.0 or gamma < 0.0:
        return False
    return (np.sqrt(a * b * c) + d * np.sqrt(c) + e * np.sqrt(b)
            + f * np.sqrt(a) + np.sqrt(2.0 * alpha * beta * gamma)) >= 0.0


def copositive_kaplan_oracle(q: np.ndarray) -> bool:
    """Kaplan's test (Linear Algebra Appl. 313, 2000): a symmetric matrix is
    copositive iff no principal submatrix has an eigenvector with all
    entries positive whose eigenvalue is negative.  Every one of the
    2^n - 1 principal submatrices is diagonalized; exact up to the
    eigensolver for matrices with distinct eigenvalues."""
    n = q.shape[0]
    for size in range(1, n + 1):
        for face in combinations(range(n), size):
            idx = np.array(face)
            eigvals, eigvecs = np.linalg.eigh(q[np.ix_(idx, idx)])
            for k in np.flatnonzero(eigvals < 0.0):
                vec = eigvecs[:, k]
                if (vec > 0.0).all() or (vec < 0.0).all():
                    return False
    return True


# ---------------------------------------------------------------------------
# Reference implementations of the TP2 and copositivity predicates, as they
# stood before their minors and face solves were batched: the same verdict
# and witness dicts, built from 4-D einsum minors and one solve per face.
# ---------------------------------------------------------------------------

def tp2_reference(matrix) -> dict:
    """``orders.is_tp2`` through the full (i, k, j, l) minor tensor."""
    m = np.asarray(matrix, dtype=float)
    n, cols = m.shape
    minors = (np.einsum("ij,kl->ikjl", m, m)
              - np.einsum("il,kj->ikjl", m, m))
    ii, kk = np.triu_indices(n, k=1)
    jj, ll = np.triu_indices(cols, k=1)
    if ii.size == 0 or jj.size == 0:
        return {"holds": True}
    sub = minors[ii[:, None], kk[:, None], jj[None, :], ll[None, :]]
    r, c = np.unravel_index(int(np.argmin(sub)), sub.shape)
    if sub[r, c] >= -1e-12:
        return {"holds": True}
    return {"holds": False, "witness": {
        "kind": "tp2_minor", "rows": [int(ii[r]), int(kk[r])],
        "cols": [int(jj[c]), int(ll[c])], "minor": float(sub[r, c])}}


def copositive_reference(matrix) -> dict:
    """``orders.is_copositive`` with one KKT solve per simplex face, faces
    in ``combinations`` order, smallest first."""
    a = np.asarray(matrix, dtype=float)
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    best_val, best_pt = np.inf, None
    for size in range(1, n + 1):
        for face in combinations(range(n), size):
            idx = np.array(face)
            system = np.zeros((size + 1, size + 1))
            system[:size, :size] = 2.0 * a[np.ix_(idx, idx)]
            system[:size, size] = 1.0
            system[size, :size] = 1.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            try:
                sol = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                continue
            if sol[:size].min() < -1e-12:
                continue
            point = np.zeros(n)
            point[idx] = np.clip(sol[:size], 0.0, None)
            if point.sum() <= 0:
                continue
            point /= point.sum()
            value = float(point @ a @ point)
            if value < best_val:
                best_val, best_pt = value, point
    if best_val >= -1e-9:
        return {"holds": True}
    return {"holds": False, "witness": {
        "kind": "copositivity", "point": best_pt.tolist(), "value": best_val}}


# ---------------------------------------------------------------------------
# Random instance builders (seeded numpy, shared by property suites)
# ---------------------------------------------------------------------------

def random_stochastic(rng: np.random.Generator, rows: int, cols: int,
                      zero_prob: float = 0.0) -> np.ndarray:
    """Random row-stochastic matrix, optionally sprinkling structural zeros
    while keeping every row's mass positive."""
    raw = rng.gamma(1.0, 1.0, size=(rows, cols))
    if zero_prob > 0.0:
        mask = rng.random((rows, cols)) < zero_prob
        mask[np.arange(rows), rng.integers(0, cols, rows)] = False
        raw = np.where(mask, 0.0, raw)
    return raw / raw.sum(axis=1, keepdims=True)


def random_model(rng: np.random.Generator, num_states: int, num_obs: int,
                 num_actions: int, shared: bool = False,
                 discount: float | None = None) -> PomdpModel:
    """Random dense model with rewards in [-1, 2]; shared=True ties the
    transition kernel across actions."""
    if shared:
        transition = random_stochastic(rng, num_states, num_states)
    else:
        transition = np.stack([random_stochastic(rng, num_states, num_states)
                               for _ in range(num_actions)])
    observation = np.stack([random_stochastic(rng, num_states, num_obs)
                            for _ in range(num_actions)])
    reward = rng.uniform(-1.0, 2.0, size=(num_actions, num_states))
    if discount is None:
        discount = float(rng.uniform(0.3, 0.95))
    return PomdpModel("random", discount, transition, observation, reward)


def random_belief(rng: np.random.Generator, num_states: int) -> np.ndarray:
    return rng.dirichlet(np.ones(num_states))


# ---------------------------------------------------------------------------
# Point-based Bellman backup, one belief at a time
# ---------------------------------------------------------------------------

def point_backup_q(m: PomdpModel, vectors: np.ndarray,
                   probs: np.ndarray) -> np.ndarray:
    """Per-action Q of one belief against a fixed set of alpha vectors.

    Q_u(pi) = r_u'pi + sum_y max_alpha rho * alpha'(B_u[:, y] * P_u'pi),
    evaluated with explicit loops over actions and observations, one
    belief at a time: the belief is pushed forward and weighted before it
    meets the vectors, where the solver back-projects the vectors instead.
    """
    q = np.empty(m.num_actions)
    for u in range(m.num_actions):
        predicted = m.transition[u].T @ probs
        total = float(m.reward[u] @ probs)
        for y in range(m.num_obs):
            weighted = m.observation[u][:, y] * predicted
            total += float((m.discount * (vectors @ weighted)).max())
        q[u] = total
    return q


# ---------------------------------------------------------------------------
# Grid value iteration, every (point, action) pair scored
# ---------------------------------------------------------------------------

def grid_sweeps_oracle(m: PomdpModel, beliefs: np.ndarray, sweeps: int,
                       backup) -> list[dict]:
    """Point-based value iteration that scores every (point, action) pair.

    ``backup(m, vectors, beliefs)`` is one all-pairs point backup returning
    (values, alphas, actions).  From the zero vector, each of ``sweeps``
    sweeps backs up every point against the carried set, which is the
    distinct alphas of the sweep before in ``np.unique`` order.  Returns one
    dict per sweep: the carried ``vectors`` and grid ``values`` it started
    from, then what it produced: ``new_values``, ``acts``, the distinct
    ``vectors_out`` with their ``actions`` and ``point_vector``, and the
    ``residual`` (largest change of a grid value).
    """
    vectors = np.zeros((1, m.num_states))
    values = np.zeros(beliefs.shape[0])
    trail = []
    for _ in range(sweeps):
        new_values, alphas, acts = backup(m, vectors, beliefs)
        distinct, first, inverse = np.unique(
            alphas, axis=0, return_index=True, return_inverse=True)
        trail.append({"vectors": vectors, "values": values,
                      "new_values": new_values, "acts": acts,
                      "vectors_out": distinct, "actions": acts[first],
                      "point_vector": inverse.reshape(-1),
                      "residual": float(np.abs(new_values - values).max())})
        vectors, values = distinct, new_values
    return trail


# ---------------------------------------------------------------------------
# Posterior-tail sweeps, one belief at a time
# ---------------------------------------------------------------------------

def _tails_oracle(m: PomdpModel, probs: np.ndarray, u: int):
    """Last coordinate and mass of each unnormalized posterior at one belief:
    tail_y = z_y[-1], sigma_y = 1'z_y for z_y = B(u)[:, y] * (P' pi)."""
    predicted = m.transition[u].T @ probs
    z = m.observation[u] * predicted[:, None]    # (X, Y) columns are z_y
    return z[-1, :].copy(), z.sum(axis=0)


def psi_sweep_oracle(m: PomdpModel, beliefs: np.ndarray, num_lambda: int):
    """Per belief and consecutive action pair: the minimum of psi over the
    sorted union of the uniform lambda grid and the live breakpoints, and
    psi at lambda = 0 and 1.  Returns three (N, U-1) arrays."""
    num_pairs = m.num_actions - 1
    base = np.linspace(0.0, 1.0, num_lambda)
    minima = np.empty((beliefs.shape[0], num_pairs))
    end_low = np.empty_like(minima)
    end_high = np.empty_like(minima)
    for b, probs in enumerate(beliefs):
        tails_all, sigmas_all = zip(*(_tails_oracle(m, probs, u)
                                      for u in range(m.num_actions)))
        for p in range(num_pairs):
            extra = []
            for u in (p, p + 1):
                live = sigmas_all[u] > 0.0
                extra.append(tails_all[u][live] / sigmas_all[u][live])
            lams = np.unique(np.concatenate([base, *extra]))

            def piece(u):
                clipped = np.maximum(
                    tails_all[u][None, :] - lams[:, None] * sigmas_all[u][None, :],
                    0.0)
                return clipped.sum(axis=1)
            values = piece(p + 1) - piece(p)
            minima[b, p] = values.min()
            end_low[b, p] = values[0]       # lam = 0 is always first
            end_high[b, p] = values[lams.searchsorted(1.0)]
    return minima, end_low, end_high


def range_failures_oracle(m: PomdpModel, beliefs: np.ndarray, u_low: int,
                          u_high: int, tol: float) -> list[dict]:
    """Beliefs where the live normalized tails of u_high fail to span those
    of u_low by more than tol, skipping beliefs where an action has no live
    observation; same record layout as the ``failures`` of a
    ``verify_range_containment`` report."""
    failures = []
    for probs in beliefs:
        spans = {}
        for u in (u_low, u_high):
            tails, sigmas = _tails_oracle(m, probs, u)
            live = sigmas > 0.0
            if not live.any():
                spans = None
                break
            normalized = tails[live] / sigmas[live]
            spans[u] = (float(normalized.min()), float(normalized.max()))
        if spans is None:
            continue
        low_span, high_span = spans[u_low], spans[u_high]
        if high_span[0] > low_span[0] + tol or high_span[1] < low_span[1] - tol:
            failures.append({
                "belief": [float(x) for x in probs],
                "low_range": list(low_span),
                "high_range": list(high_span),
            })
    return failures
