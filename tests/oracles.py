"""Independent oracles for the test suite.

Everything in this module is deliberately naive: recursion instead of
dynamic programming, dense grids instead of LPs, direct definitions instead
of the library's vectorized predicates.  Tests compare the production code
against these implementations, so nothing here may import from the solver
or orders internals beyond the model container and belief update.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from pomdpcheck.model import PomdpModel, belief_grid


# ---------------------------------------------------------------------------
# Brute-force finite-horizon value (expectimax over actions and observations)
# ---------------------------------------------------------------------------

def expectimax_value(m: PomdpModel, probs: np.ndarray, depth: int) -> float:
    """Optimal depth-step value by explicit enumeration.

    V_0 = 0; V_k(pi) = max_u [ r_u'pi + rho * sum_y sigma(pi,y,u) *
    V_{k-1}(T(pi,y,u)) ], expanding every observation branch recursively.
    Exponential in depth; intended for depth <= 3 on tiny models.
    """
    if depth <= 0:
        return 0.0
    best = -np.inf
    for u in range(m.num_actions):
        total = float(m.reward[u] @ probs)
        predicted = m.transition[u].T @ probs
        z = m.observation[u] * predicted[:, None]    # columns: unnormalized posteriors
        sigmas = z.sum(axis=0)
        for y in range(m.num_obs):
            if sigmas[y] <= 0.0:
                continue
            posterior = z[:, y] / sigmas[y]
            total += m.discount * sigmas[y] * expectimax_value(m, posterior, depth - 1)
        best = max(best, total)
    return best


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
    from pomdpcheck.model import make_model
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
    return make_model(name="random", transition=transition,
                      observation=observation, reward=reward,
                      discount=discount)


def random_belief(rng: np.random.Generator, num_states: int) -> np.ndarray:
    return rng.dirichlet(np.ones(num_states))


# ---------------------------------------------------------------------------
# Point-based Bellman backup, one belief at a time
# ---------------------------------------------------------------------------

def point_backup_q(m: PomdpModel, vectors: np.ndarray,
                   probs: np.ndarray) -> np.ndarray:
    """Per-action Q of one belief against a fixed set of alpha vectors.

    Q_u(pi) = r_u'pi + sum_y max_alpha rho * alpha'(B_u[:, y] * P_u'pi),
    evaluated with explicit loops over actions, observations and vectors.
    """
    q = np.empty(m.num_actions)
    for u in range(m.num_actions):
        predicted = m.transition[u].T @ probs
        total = float(m.reward[u] @ probs)
        for y in range(m.num_obs):
            weighted = m.observation[u][:, y] * predicted
            total += max(m.discount * float(alpha @ weighted)
                         for alpha in vectors)
        q[u] = total
    return q
