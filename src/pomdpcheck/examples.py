"""Bundled example models for the sensing-effort verification pipeline.

Five generators, all two- or three-action sensing problems over a line of
states with a common drift kernel:

* ``ex1`` — banded three-state sensors where the second action sharpens the
  low-state rows; the classic case where the precision and boundary
  hypotheses hold but row-wise first-order dominance fails.
* ``ex2`` — dense three-state sensors with the same reward/drift data where
  row-wise dominance holds as well.
* ``reversed_factor`` — a pair ordered by single-crossing precision yet not
  by garbling in the usual direction; the reverse factorization exists.
* ``hierarchical`` — a ladder of progressively blurred copies of one base
  sensor (optionally garbled once more per rung) with three effort levels.
* ``tridiagonal`` — a parametric banded family on any number of states with
  a boundary-corrected high-effort sensor.

Every generator returns a validated model; ``gen_example`` dispatches by
name and forwards keyword parameters.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from .model import PomdpModel

DRIFT_3 = [[0.8, 0.2, 0.0],
           [0.1, 0.8, 0.1],
           [0.0, 0.2, 0.8]]
REWARDS_3 = [[1.0, 2.0, 3.0],
             [0.8, 2.2, 3.4]]
DISCOUNT = 0.9


def _rows(matrix, normalize: bool = False) -> np.ndarray:
    out = np.asarray(matrix, dtype=float)
    if normalize:
        out = out / out.sum(axis=1, keepdims=True)
    return out


def ex1() -> PomdpModel:
    """Three states, two banded sensors; effort sharpens the first two rows."""
    b1 = [[0.8, 0.2, 0.0],
          [0.1, 0.8, 0.1],
          [0.0, 0.2, 0.8]]
    b2 = [[0.9, 0.1, 0.0],
          [0.2, 0.7, 0.1],
          [0.0, 0.2, 0.8]]
    return PomdpModel("ex1", DISCOUNT, DRIFT_3, [b1, b2], REWARDS_3)


def ex2() -> PomdpModel:
    """Three states, two dense sensors; row-wise dominance holds as well.

    The matrices are quoted to five or six decimals, so each row is
    renormalized to sum exactly to one.
    """
    b1 = _rows([[0.44847, 0.30706, 0.24447],
                [0.33443, 0.28762, 0.37795],
                [0.32463, 0.28971, 0.38565]], normalize=True)
    b2 = _rows([[0.170021, 0.410485, 0.419494],
                [0.106500, 0.433559, 0.459941],
                [0.020739, 0.263223, 0.716038]], normalize=True)
    return PomdpModel("ex2", DISCOUNT, DRIFT_3, [b1, b2], REWARDS_3)


def reversed_factor() -> PomdpModel:
    """A sensor pair ordered by precision but garbled in the reverse
    direction: a stochastic factor maps the high-effort sensor onto the
    low-effort one, while the forward factorization is infeasible."""
    b1 = [[0.3229, 0.4703, 0.2068],
          [0.2237, 0.4902, 0.2861],
          [0.1587, 0.4620, 0.3793]]
    b2 = [[0.4387, 0.5190, 0.0423],
          [0.2455, 0.6625, 0.0920],
          [0.0615, 0.2829, 0.6556]]
    return PomdpModel("reversed_factor", DISCOUNT, DRIFT_3, [b1, b2],
                      REWARDS_3)


HIER_BLUR = [[0.9, 0.1, 0.0],
             [0.05, 0.9, 0.05],
             [0.0, 0.1, 0.9]]
HIER_EXTRA_BLUR = [[0.85, 0.15, 0.0],
                   [0.1, 0.8, 0.1],
                   [0.0, 0.15, 0.85]]


def hierarchical(levels: int = 3, garbled: bool = False) -> PomdpModel:
    """A ladder of sensors: the top effort level sees the base sensor, and
    each step down prepends one more blur stage.

    Action u (0-based) observes blur^(levels-1-u) @ base, so higher actions
    are more informative by construction (each lower level is a garbling of
    the one above).  With ``garbled=True`` every blur stage is composed with
    an extra smoothing factor, yielding a uniformly weaker ladder for
    cross-model comparisons.  Rewards extend the three-state schedule by the
    arithmetic step (-0.2, +0.2, +0.4) per level.
    """
    if type(levels) is not int or levels < 1:
        raise ValueError("levels must be an integer of at least 1")
    if type(garbled) is not bool:
        raise ValueError("garbled must be true or false")
    blur = np.asarray(HIER_BLUR, dtype=float)
    if garbled:
        blur = blur @ np.asarray(HIER_EXTRA_BLUR, dtype=float)
    base = np.asarray([[0.8, 0.2, 0.0],
                       [0.1, 0.8, 0.1],
                       [0.0, 0.2, 0.8]], dtype=float)
    observation = []
    for u in range(levels):
        stack = base.copy()
        for _ in range(levels - 1 - u):
            stack = blur @ stack
        observation.append(stack)
    step = np.array([-0.2, 0.2, 0.4])
    reward = [np.array([1.0, 2.0, 3.0]) + u * step for u in range(levels)]
    name = "hierarchical-garbled" if garbled else "hierarchical"
    return PomdpModel(name, DISCOUNT, DRIFT_3, observation, reward)


def tridiagonal(num_states: int = 4, p: float = 0.6, q: float = 0.7,
                q_boundary: float = 0.8) -> PomdpModel:
    """A banded family on a line of ``num_states`` states.

    The low-effort sensor reports the true state with probability ``p``
    (split evenly to the two neighbours inside, folded onto the single
    neighbour at the ends).  The high-effort sensor keeps the same upward
    leak (1-p)/2 but raises the diagonal to ``q`` inside and to
    ``q_boundary`` at the ends, shifting the remaining mass downward; row
    sums stay one, which requires q <= (1+p)/2, and the boundary rows need
    p < q_boundary <= 1.  The drift kernel is the standard lazy random walk
    with 0.8 holding probability.
    """
    if type(num_states) is not int or num_states < 2:
        raise ValueError("num_states must be an integer of at least 2")
    for name, value in (("p", p), ("q", q), ("q_boundary", q_boundary)):
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{name} must be a number")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 0.0 <= q <= (1.0 + p) / 2.0:
        raise ValueError("q must lie in [0, (1+p)/2]")
    if not p < q_boundary <= 1.0:
        raise ValueError("q_boundary must lie in (p, 1]")
    n = num_states
    b1 = np.zeros((n, n))
    b1[0, 0], b1[0, 1] = p, 1.0 - p
    b1[n - 1, n - 1], b1[n - 1, n - 2] = p, 1.0 - p
    for i in range(1, n - 1):
        b1[i, i] = p
        b1[i, i - 1] = b1[i, i + 1] = (1.0 - p) / 2.0
    b2 = np.zeros((n, n))
    b2[0, 0], b2[0, 1] = q_boundary, 1.0 - q_boundary
    b2[n - 1, n - 1], b2[n - 1, n - 2] = q_boundary, 1.0 - q_boundary
    for i in range(1, n - 1):
        b2[i, i] = q
        b2[i, i + 1] = (1.0 - p) / 2.0
        b2[i, i - 1] = (1.0 + p) / 2.0 - q
    drift = np.zeros((n, n))
    drift[0, 0], drift[0, 1] = 0.8, 0.2
    drift[n - 1, n - 1], drift[n - 1, n - 2] = 0.8, 0.2
    for i in range(1, n - 1):
        drift[i, i] = 0.8
        drift[i, i - 1] = drift[i, i + 1] = 0.1
    r1 = np.arange(1.0, n + 1.0)
    r2 = 0.6 + 1.2 * np.arange(n)
    return PomdpModel(f"tridiagonal-{n}", DISCOUNT, drift, [b1, b2], [r1, r2])


_GENERATORS = {
    "ex1": ex1,
    "ex2": ex2,
    "reversed_factor": reversed_factor,
    "hierarchical": hierarchical,
    "tridiagonal": tridiagonal,
}


def list_examples() -> list[str]:
    """Names accepted by gen_example, in a stable order."""
    return sorted(_GENERATORS)


def gen_example(name: str, **params) -> PomdpModel:
    """Build a bundled example by name, forwarding generator parameters.

    Unknown names raise KeyError with the available choices; parameter
    validation is the generator's job and surfaces as ValueError/TypeError.
    """
    try:
        gen = _GENERATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown example {name!r}; choose from {', '.join(list_examples())}"
        ) from None
    return gen(**params)
