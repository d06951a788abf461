"""POMDP data types, validation, the belief grid and its Freudenthal cells,
reward shifts and JSON I/O.

Conventions used throughout the package:

* actions and observations are zero-based in the Python API; file formats and
  CSV/JSON reports use one-based labels,
* ``PomdpModel`` is the only constructor: it reads U, X and Y off the
  observation stack, and ``transition`` is stored per action as a (U, X, X)
  stack even when one shared matrix is given (the stack then repeats it),
* all arrays handed out by this module are read-only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from . import lp

ROW_SUM_TOL = 1e-9
SHIFT_MARGIN = 1e-6


class ModelFormatError(ValueError):
    """Malformed model data: bad JSON, wrong shapes, inconsistent dimensions."""


def _readonly(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _belief_rows(points, num_states: int) -> np.ndarray:
    """Validate belief rows over ``num_states`` states (one belief may be
    given as a vector): finite entries, none below -ROW_SUM_TOL, each row
    summing to 1 within ROW_SUM_TOL.  Returns the (N, num_states) array with
    the rows as given."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != num_states:
        raise ValueError(f"belief rows have shape {pts.shape}, "
                         f"need (N, {num_states})")
    if not np.isfinite(pts).all():
        raise ValueError("belief entries must be finite")
    if pts.size and pts.min() < -ROW_SUM_TOL:
        raise ValueError(f"belief entry {pts.min()} is negative beyond tolerance")
    totals = pts.sum(axis=1)
    off = np.abs(totals - 1.0) > ROW_SUM_TOL
    if off.any():
        raise ValueError(f"belief sums to {totals[off][0]}, too far from 1")
    return pts


@dataclass(frozen=True, eq=False)
class PomdpModel:
    """Finite POMDP: per-action transition/observation matrices and reward
    vectors.

    The counts come from ``observation``, a (U, X, Y) stack.  ``transition``
    may be one (X, X) matrix, shared by every action, or a (U, X, X) stack;
    ``shared_transition`` records whether all U matrices are equal.  Shape
    and finiteness problems raise ModelFormatError; probability bookkeeping
    problems are left for validate_model to report.
    """

    name: str
    discount: float
    transition: np.ndarray  # (U, X, X)
    observation: np.ndarray  # (U, X, Y)
    reward: np.ndarray  # (U, X)
    num_states: int = field(init=False)
    num_obs: int = field(init=False)
    num_actions: int = field(init=False)
    shared_transition: bool = field(init=False)

    def __post_init__(self):
        o = np.asarray(self.observation, dtype=float)
        if o.ndim != 3:
            raise ModelFormatError("observation must be a (U, X, Y) array")
        u, x, y = o.shape
        if min(x, y, u) < 1:
            raise ModelFormatError("X, Y, U must all be positive")
        t = np.asarray(self.transition, dtype=float)
        if t.shape == (x, x):
            t = np.tile(t, (u, 1, 1))
        r = np.asarray(self.reward, dtype=float)
        if t.shape != (u, x, x):
            raise ModelFormatError(f"transition shape {t.shape} != {(u, x, x)}")
        if r.shape != (u, x):
            raise ModelFormatError(f"reward shape {r.shape} != {(u, x)}")
        discount = float(self.discount)
        if not np.isfinite(discount):
            raise ModelFormatError(f"discount {discount} is not finite")
        for arr, label in ((t, "transition"), (o, "observation"), (r, "reward")):
            if not np.isfinite(arr).all():
                raise ModelFormatError(f"{label} contains non-finite entries")
        for attr, value in (("discount", discount),
                            ("transition", _readonly(t)),
                            ("observation", _readonly(o)),
                            ("reward", _readonly(r)),
                            ("num_states", x), ("num_obs", y),
                            ("num_actions", u),
                            ("shared_transition", bool((t == t[0]).all()))):
            object.__setattr__(self, attr, value)


def validate_model(m: PomdpModel) -> list[str]:
    """Return all violated probability/discount invariants; empty means valid."""
    violations = []
    if not (0.0 <= m.discount):
        violations.append(f"discount {m.discount} is negative")
    if not (m.discount < 1.0):
        violations.append("discount not < 1")
    return violations + _row_violations(m)


def _row_violations(m: PomdpModel) -> list[str]:
    """Every transition or observation row with an entry outside [0, 1] or a
    sum more than ROW_SUM_TOL away from 1."""
    violations = []
    for label, stack in (("transition", m.transition), ("observation", m.observation)):
        for u in range(m.num_actions):
            mat = stack[u]
            for i in range(m.num_states):
                row = mat[i]
                low, high = row.min(), row.max()
                if low < 0.0 or high > 1.0:
                    j = int(np.argmin(row) if low < 0.0 else np.argmax(row))
                    violations.append(
                        f"{label}[{u}] row {i} entry {j} = {row[j]:.12g} outside [0, 1]")
                total = row.sum()
                if abs(total - 1.0) > ROW_SUM_TOL:
                    violations.append(
                        f"{label}[{u}] row {i}: row sum {total:.12g} != 1")
    return violations


@lru_cache(maxsize=32)
def belief_grid(num_states: int, resolution: int) -> np.ndarray:
    """All barycentric grid points of the belief simplex at step 1/resolution.

    Returns a read-only (N, X) array; for X = 3, resolution = 100 this is the
    5151-point grid used by the verification harness.
    """
    if num_states < 1 or resolution < 1:
        raise ValueError("num_states and resolution must be positive")

    # Stars and bars: each point places num_states - 1 bars among
    # resolution + num_states - 1 slots, and a part is the gap between
    # neighbouring bars.  Lexicographic bar order lists the points in
    # lexicographic order of their coordinates.
    slots, num_bars = resolution + num_states - 1, num_states - 1
    num_points = comb(slots, num_bars)
    bounds = np.full((num_points, num_states + 1), slots, dtype=np.int64)
    bounds[:, 0] = -1
    bounds[:, 1:-1] = np.fromiter(
        chain.from_iterable(combinations(range(slots), num_bars)),
        dtype=np.int64, count=num_points * num_bars).reshape(num_points, num_bars)
    pts = (np.diff(bounds, axis=1) - 1).astype(float) / float(resolution)
    return _readonly(pts)


def _freudenthal(points, resolution: int):
    """Freudenthal (Kuhn) cell of each belief row on the resolution-n grid
    (Lovejoy, Oper. Res. 1991).

    Returns (rows, weights), each (N, X): the cell's vertices as row indices
    of ``belief_grid(X, n)`` and barycentric weights, nonnegative and
    summing to 1, with sum_j weights[:, j] * grid[rows[:, j]] = point.  In
    the coordinates y_i = n * sum_{k >= i} pi_k (so y_0 = n) the base vertex
    is floor(y), and each next vertex adds a unit step along the coordinate
    of the next-largest fractional part; the weights are the differences of
    consecutive sorted parts.  y is clamped to be nonincreasing and <= n
    first, and a zero-weight vertex, which may lie off the grid, is mapped
    onto the base vertex.  A vertex's grid row is its lexicographic rank,
    from the combinatorial number system.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    num_points, num_states = pts.shape
    y = resolution * np.cumsum(pts[:, ::-1], axis=1)[:, ::-1]
    y[:, 0] = resolution
    y = np.minimum.accumulate(np.clip(y, 0.0, resolution), axis=1)
    base = np.floor(y)
    frac = y - base
    order = np.argsort(-frac[:, 1:], axis=1, kind="stable") + 1
    parts = np.take_along_axis(frac, order, axis=1)          # descending
    bounds = np.hstack([np.ones((num_points, 1)), parts,
                        np.zeros((num_points, 1))])
    weights = bounds[:, :-1] - bounds[:, 1:]
    # vertex j is the base plus unit steps along order[:, :j]
    steps = np.zeros((num_points, num_states, num_states), dtype=np.int64)
    lanes = np.arange(num_points)
    for j in range(1, num_states):
        steps[lanes, j:, order[:, j - 1]] = 1
    vertices = base.astype(np.int64)[:, None, :] + steps
    unused = weights == 0.0
    vertices[unused] = np.broadcast_to(vertices[:, :1], vertices.shape)[unused]
    # The bars of vertex y sit at slots n - y_{j+1} + j among n + X - 1, and
    # the lexicographic rank of a bar combination c_0 < ... < c_{k-1} of N
    # slots is C(N, k) - 1 - sum_j C(N - 1 - c_j, k - j).
    k = num_states - 1
    table = _binomials(resolution + k, k)
    terms = vertices[:, :, 1:] + (k - 1 - np.arange(k))     # N - 1 - c_j
    ranks = table[-1, k] - 1 - table[terms, k - np.arange(k)].sum(axis=-1)
    return ranks, weights


@lru_cache(maxsize=8)
def _binomials(size: int, k: int) -> np.ndarray:
    """Read-only table C(a, b) for 0 <= a <= size, 0 <= b <= k."""
    table = np.array([[comb(a, b) for b in range(k + 1)]
                      for a in range(size + 1)], dtype=np.int64)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def capped_resolution(num_states: int, resolution: int, limit: int) -> int:
    """Largest resolution up to ``resolution`` whose belief grid has at most
    ``limit`` points (never below 1)."""
    res = resolution
    while res > 1 and comb(res + num_states - 1, num_states - 1) > limit:
        res -= 1
    return res


def _shift_rows(m: PomdpModel):
    """Constraint rows: for each action and state i, row v with
    v'f = [(I - rho P(u)) f](i+1) - [(I - rho P(u)) f](i)."""
    eye = np.eye(m.num_states)
    rows = []
    for u in range(m.num_actions):
        d = eye - m.discount * m.transition[u]
        rows.extend(d[i + 1] - d[i] for i in range(m.num_states - 1))
    return np.array(rows)


def reward_shift_general(m: PomdpModel) -> dict:
    """Search for a state potential f making (I - discount P(u)) f strictly
    increasing for every action, via LP feasibility with margin SHIFT_MARGIN.

    The LP is rows f - s = SHIFT_MARGIN in standard form: the free f splits
    into f+ - f- and the surplus s >= 0 takes up the inequality.  Returns
    the dict ``check`` prints: ``"status"`` (feasible, infeasible or
    numerical_failure, kept distinct) and the potential ``"f"`` as a list.
    """
    rows = _shift_rows(m)
    if rows.size == 0:
        return {"status": "feasible", "f": [0.0] * m.num_states}
    outcome = lp.lp_solve(np.hstack([rows, -rows, -np.eye(len(rows))]),
                          np.full(len(rows), SHIFT_MARGIN))
    if outcome.status == lp.FEASIBLE:
        f_pos, f_neg = np.split(outcome.x[:2 * m.num_states], 2)
        return {"status": "feasible", "f": (f_pos - f_neg).tolist()}
    if outcome.status == lp.INFEASIBLE:
        return {"status": "infeasible", "f": None}
    return {"status": "numerical_failure", "f": None}


# ---------------------------------------------------------------------------
# JSON model files


def loads_model(text: str) -> PomdpModel:
    """Parse a model from its JSON document.  X, Y and U must be JSON
    integers; every other number becomes a 64-bit float."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    try:
        name = str(doc["name"])
        x, y, u = doc["X"], doc["Y"], doc["U"]
        discount = float(doc["discount"])
        transition = doc["transition"]
        observation = doc["observation"]
        reward = doc["reward"]
    except KeyError as exc:
        raise ModelFormatError(f"missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad scalar field: {exc}") from exc
    if not all(type(n) is int for n in (x, y, u)):
        raise ModelFormatError("X, Y and U must be JSON integers")
    if not isinstance(transition, dict) or \
            set(transition) not in ({"shared"}, {"per_action"}):
        raise ModelFormatError('transition must be {"shared": ...} or {"per_action": ...}')
    try:
        tr = np.asarray(transition.get("shared", transition.get("per_action")),
                        dtype=float)
        obs = np.asarray(observation, dtype=float)
        rew = np.asarray(reward, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad array field: {exc}") from exc
    if obs.shape != (u, x, y):
        raise ModelFormatError(f"observation shape {obs.shape} != {(u, x, y)}")
    expected = (x, x) if "shared" in transition else (u, x, x)
    if tr.shape != expected:
        raise ModelFormatError(f"transition shape {tr.shape} != {expected}")
    return PomdpModel(name, discount, tr, obs, rew)


def load_model(path) -> PomdpModel:
    """Read a model JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    return loads_model(text)


def model_to_json(m: PomdpModel) -> str:
    """Canonical JSON document for a model (stable key order, one trailing newline)."""
    if m.shared_transition:
        transition = {"shared": m.transition[0].tolist()}
    else:
        transition = {"per_action": m.transition.tolist()}
    doc = {
        "name": m.name,
        "X": m.num_states,
        "Y": m.num_obs,
        "U": m.num_actions,
        "discount": m.discount,
        "transition": transition,
        "observation": m.observation.tolist(),
        "reward": m.reward.tolist(),
    }
    return json.dumps(doc, indent=2) + "\n"


def save_model(m: PomdpModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(m))
