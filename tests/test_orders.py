"""Stochastic-order predicates against their textbook definitions, with
matrix factorizations cross-checked by explicit reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomdpcheck import lp, orders
from pomdpcheck import (blackwell_dominates, check_a5, check_a7,
                        copositive_dominates, fosd_dominates, gamma_matrices,
                        gen_example, is_copositive, is_tp2, lehmann_precision,
                        mlr_dominates, reverse_factorization)

from oracles import (copositive2_closed_form, copositive3_closed_form,
                     copositive_grid_oracle, copositive_kaplan_oracle,
                     copositive_reference, fosd_oracle, mlr_oracle,
                     random_stochastic, tp2_oracle, tp2_reference)


def positive_vectors(n):
    return st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n).map(
        lambda w: np.array(w) / np.sum(w))


# ---------------------------------------------------------------------------
# MLR and FOSD
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(positive_vectors(4), positive_vectors(4))
def test_mlr_and_fosd_match_their_definitions(p1, p2):
    assert mlr_dominates(p1, p2)["holds"] == mlr_oracle(p1, p2, tol=1e-12)
    assert fosd_dominates(p1, p2)["holds"] == fosd_oracle(p1, p2, tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(positive_vectors(5), st.floats(0.1, 2.0))
def test_mlr_implies_fosd(base, slope):
    # tilting by an increasing positive factor produces an MLR-larger vector
    tilt = base * np.exp(slope * np.arange(5))
    tilted = tilt / tilt.sum()
    assert mlr_dominates(tilted, base)["holds"]
    assert fosd_dominates(tilted, base)["holds"]


def test_mlr_witness_identifies_violating_pair():
    v = mlr_dominates([0.5, 0.5, 0.0], [0.0, 0.5, 0.5])
    assert not v["holds"]
    v = mlr_dominates([0.0, 0.5, 0.5], [0.5, 0.5, 0.0])
    assert v["holds"]
    # a genuine violation carries a witness index pair
    bad = mlr_dominates([0.6, 0.1, 0.3], [0.1, 0.6, 0.3])
    assert not bad["holds"] and bad["witness"] is not None


def test_fosd_not_sufficient_for_mlr():
    p_high = np.array([0.30, 0.05, 0.65])
    p_low = np.array([0.40, 0.10, 0.50])
    assert fosd_oracle(p_high, p_low)
    assert fosd_dominates(p_high, p_low)["holds"]
    assert not mlr_oracle(p_high, p_low)
    assert not mlr_dominates(p_high, p_low)["holds"]


# ---------------------------------------------------------------------------
# TP2
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 4),
       st.booleans())
def test_is_tp2_matches_all_minor_enumeration(seed, rows, cols, sparse):
    rng = np.random.default_rng(seed)
    mat = random_stochastic(rng, rows, cols, zero_prob=0.4 if sparse else 0.0)
    assert is_tp2(mat)["holds"] == tp2_oracle(mat, tol=1e-12)


def test_tp2_equals_rowwise_mlr_ordering():
    rng = np.random.default_rng(99)
    agree = 0
    for _ in range(500):
        mat = random_stochastic(rng, 3, 4, zero_prob=0.3)
        by_minors = is_tp2(mat)["holds"]
        by_rows = all(mlr_oracle(mat[j], mat[i], tol=1e-12)
                      for i in range(3) for j in range(i + 1, 3))
        assert by_minors == by_rows
        agree += 1
    assert agree == 500


def test_tp2_rejects_negative_entries():
    with pytest.raises(ValueError):
        is_tp2(np.array([[0.5, -0.1], [0.2, 0.8]]))


def test_bundled_kernels_are_tp2():
    for name in ("ex1", "ex2", "hierarchical", "tridiagonal"):
        m = gen_example(name)
        for u in range(m.num_actions):
            assert is_tp2(m.transition[u])["holds"]
            assert is_tp2(m.observation[u])["holds"]


_ROW = np.array([0.2, 0.3, 0.5])
_PREDICATES = {
    "mlr": lambda bad: mlr_dominates(_ROW, [0.5, bad, 0.5]),
    "fosd": lambda bad: fosd_dominates([0.5, bad, 0.5], _ROW),
    "tp2": lambda bad: is_tp2([[bad, 0.0], [0.0, 1.0]]),
    "copositive": lambda bad: is_copositive([[bad, 0.0], [0.0, 1.0]]),
    "copositive_dominates": lambda bad: copositive_dominates(
        [[bad, 0.0], [0.0, 1.0]], np.eye(2)),
    "gamma": lambda bad: gamma_matrices(np.eye(2), [[1.0, 0.0], [0.0, bad]]),
    "a5": lambda bad: check_a5([[bad, 0.0], [0.0, 1.0]], np.eye(2)),
    "lehmann": lambda bad: lehmann_precision([[bad, 0.0], [0.0, 1.0]],
                                             np.eye(2)),
    "a7": lambda bad: check_a7(np.eye(2), [[1.0, 0.0], [0.0, bad]]),
    "blackwell": lambda bad: blackwell_dominates([[bad, 0.0], [0.0, 1.0]],
                                                 np.eye(2)),
    "reverse": lambda bad: reverse_factorization(np.eye(2),
                                                 [[1.0, 0.0], [bad, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(_PREDICATES))
def test_predicates_reject_non_finite_entries(name):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            _PREDICATES[name](bad)


# ---------------------------------------------------------------------------
# Copositivity and transition dominance
# ---------------------------------------------------------------------------

def test_copositive_small_closed_forms():
    assert is_copositive(np.array([[1.0]]))["holds"]
    assert not is_copositive(np.array([[-1e-6]]))["holds"]
    # classic: positive diagonal, off-diagonal below -sqrt(ac)
    q = np.array([[1.0, -1.1], [-1.1, 1.0]])
    assert not is_copositive(q)["holds"]
    q = np.array([[1.0, -0.9], [-0.9, 1.0]])
    assert is_copositive(q)["holds"]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3))
def test_copositive_agrees_with_closed_forms(seed, n):
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1.0, 1.0, (n, n))
    q = (q + q.T) / 2.0
    expected = (copositive2_closed_form(q) if n == 2
                else copositive3_closed_form(q))
    assert is_copositive(q)["holds"] == expected


def test_copositive_verdict_consistent_with_grid_certificate():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        q = rng.uniform(-1.0, 1.0, (n, n))
        q = (q + q.T) / 2.0
        gmin = copositive_grid_oracle(q, 150)
        verdict = is_copositive(q)["holds"]
        if verdict:
            assert gmin >= -1e-9     # grid min can never undershoot a
        else:                        # nonnegative true minimum
            assert gmin <= 10.0 * np.abs(q).max() / 150 ** 2


def _kaplan_boundary_shift(q):
    """The diagonal shift s at which q + s*I turns copositive, bisected with
    the Kaplan oracle alone: copositive at +bound (positive definite), not
    at -bound (negative diagonal)."""
    n = q.shape[0]
    lo, hi = -(n * np.abs(q).max() + 1.0), n * np.abs(q).max() + 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if copositive_kaplan_oracle(q + mid * np.eye(n)):
            hi = mid
        else:
            lo = mid
    return hi


def test_copositive_matches_kaplan_oracle():
    """Face enumeration against Kaplan's eigenvector test on random symmetric
    matrices, n = 2..5: raw, with a random nonnegative offset (often
    copositive without being positive semidefinite), and diagonally shifted
    to 1e-6 on either side of the copositivity boundary, where the form's
    minimum is at least 1e-6 / n away from zero."""
    rng = np.random.default_rng(2000)
    delta = 1e-6
    cases = []
    for n in range(2, 6):
        for _ in range(40):
            q = rng.uniform(-1.0, 1.0, (n, n))
            q = (q + q.T) / 2.0
            cases.append(q)
            cases.append(q + rng.uniform(0.0, 1.0) * np.ones((n, n)))
        for _ in range(15):
            q = rng.uniform(-1.0, 1.0, (n, n))
            q = (q + q.T) / 2.0
            s = _kaplan_boundary_shift(q)
            cases.append(q + (s - delta) * np.eye(n))
            cases.append(q + (s + delta) * np.eye(n))
    verdicts = []
    for q in cases:
        expected = copositive_kaplan_oracle(q)
        verdict = is_copositive(q)
        assert verdict["holds"] == expected
        if not expected:
            point = np.array(verdict["witness"]["point"])
            assert point.min() >= 0.0 and abs(point.sum() - 1.0) <= 1e-12
            assert point @ q @ point == pytest.approx(
                verdict["witness"]["value"], abs=1e-12)
            assert verdict["witness"]["value"] < -1e-9
        verdicts.append(expected)
    assert 0.25 * len(cases) < sum(verdicts) < 0.75 * len(cases)


def test_shared_transition_gives_trivial_copositive_dominance():
    m = gen_example("ex1")
    verdict = copositive_dominates(m.transition[0], m.transition[1])
    assert verdict["holds"]
    gammas = gamma_matrices(m.transition[0], m.transition[1])
    for g in gammas:
        assert np.allclose(g, 0.0)   # symmetrized differences cancel exactly


# ---------------------------------------------------------------------------
# Row-wise dominance (A5), precision (A6), boundary (A7)
# ---------------------------------------------------------------------------

def test_a5_direction_on_fixtures():
    ex1, ex2 = gen_example("ex1"), gen_example("ex2")
    assert not check_a5(ex1.observation[0], ex1.observation[1])["holds"]
    assert check_a5(ex2.observation[0], ex2.observation[1])["holds"]


def test_a5_matches_rowwise_fosd():
    rng = np.random.default_rng(11)
    for _ in range(300):
        b1 = random_stochastic(rng, 3, 3)
        b2 = random_stochastic(rng, 3, 3)
        expected = all(fosd_oracle(b2[i], b1[i], tol=1e-12) for i in range(3))
        assert check_a5(b1, b2)["holds"] == expected


def test_lehmann_precision_on_fixtures():
    for name in ("ex1", "ex2", "tridiagonal"):
        m = gen_example(name)
        assert lehmann_precision(m.observation[0], m.observation[1])["holds"]
    # an identity sensor is more precise than an uninformative one, and the
    # reversed roles produce a sign crossing
    identity = np.eye(3)
    uniform = np.full((3, 3), 1.0 / 3.0)
    assert lehmann_precision(uniform, identity)["holds"]
    reversed_roles = lehmann_precision(identity, uniform)
    assert reversed_roles["holds"] is False
    assert reversed_roles["witness"]["kind"] == "sign_change"


def test_lehmann_precision_reflexive():
    m = gen_example("ex1")
    assert lehmann_precision(m.observation[0], m.observation[0])["holds"]


def test_a7_on_fixtures():
    for name in ("ex1", "ex2", "tridiagonal"):
        m = gen_example(name)
        assert check_a7(m.observation[0], m.observation[1])["holds"]


# ---------------------------------------------------------------------------
# Factorization orders
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 4))
def test_blackwell_detects_constructed_garbling(seed, states, obs):
    rng = np.random.default_rng(seed)
    b_high = random_stochastic(rng, states, obs)
    garble = random_stochastic(rng, obs, obs)
    b_low = b_high @ garble
    verdict = blackwell_dominates(b_high, b_low)
    assert verdict["holds"]
    factor = np.asarray(verdict["factor"])
    assert factor.min() >= -1e-9
    assert np.allclose(factor.sum(axis=1), 1.0, atol=1e-8)
    assert np.abs(b_high @ factor - b_low).max() <= 1e-8


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_reverse_factorization_detects_state_mixing(seed, states):
    rng = np.random.default_rng(seed)
    b_high = random_stochastic(rng, states, 3)
    mix = random_stochastic(rng, states, states)
    b_low = mix @ b_high
    verdict = reverse_factorization(b_low, b_high)
    assert verdict["holds"]
    factor = np.asarray(verdict["factor"])
    assert np.abs(factor @ b_high - b_low).max() <= 1e-8


def test_blackwell_fails_on_bundled_pairs():
    for name in ("ex1", "ex2", "reversed_factor"):
        m = gen_example(name)
        verdict = blackwell_dominates(m.observation[1], m.observation[0])
        assert verdict["holds"] is False


def test_reversed_factor_fixture_has_reverse_but_not_forward():
    m = gen_example("reversed_factor")
    forward = blackwell_dominates(m.observation[1], m.observation[0])
    reverse = reverse_factorization(m.observation[0], m.observation[1])
    assert forward["holds"] is False
    assert reverse["holds"] is True


def _lp_counter(monkeypatch):
    calls = []
    real = lp.lp_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(lp, "lp_solve", counted)
    return calls


def _square_pairs(seed, count):
    """Seeded (b_high, b_low) pairs with 2-4 states: structural zeros in a
    third of them, and b_low a constructed garbling of b_high (for
    Blackwell), a constructed state mixing (for reverse), or independent."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 5))
        zeros = 0.3 if k % 3 == 0 else 0.0
        hi = random_stochastic(rng, n, n, zero_prob=zeros)
        mix = random_stochastic(rng, n, n, zero_prob=zeros)
        kind = k % 4
        lo = (hi @ mix if kind == 0 else mix @ hi if kind == 1
              else random_stochastic(rng, n, n, zero_prob=zeros))
        yield hi, lo


def test_unique_factor_matches_the_lp():
    """The closed-form verdict equals the LP-only verdict on 1500 seeded
    square pairs, for both factorization tests.  A factor both find agrees
    within 1e-12, or within the distance the LP factor's own product
    residual R explains: F_lp - F is R pushed through the inverse."""
    held = {"blackwell": 0, "reverse": 0}
    for hi, lo in _square_pairs(27, 1500):
        for name, fast, slow, residual, axis in (
                ("blackwell", blackwell_dominates(hi, lo),
                 orders._factor_lp(hi, lo, False), lambda f: hi @ f - lo, 1),
                ("reverse", reverse_factorization(lo, hi),
                 orders._factor_lp(hi, lo, True), lambda f: f @ hi - lo, 0)):
            assert fast["holds"] is slow["holds"], (name, hi, lo, fast, slow)
            if fast["holds"] is not True:
                assert fast == slow
                continue
            held[name] += 1
            lp_factor = np.asarray(slow["factor"])
            gap = np.abs(np.asarray(fast["factor"]) - lp_factor).max()
            if gap > 1e-12:
                reach = np.abs(np.linalg.inv(hi)).sum(axis=axis).max()
                assert gap <= reach * np.abs(residual(lp_factor)).max(), (
                    name, hi, lo, gap)
    assert min(held.values()) >= 300, held


def _pair_with_factor_entry(entry, left=False):
    """An invertible b_high and b_low = b_high @ F (F @ b_high when
    ``left``), where F is row-stochastic apart from F[0, 1] = entry (its row
    still sums to 1)."""
    hi = np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]])
    factor = np.array([[0.6 - entry, entry, 0.4], [0.1, 0.8, 0.1],
                       [0.2, 0.3, 0.5]])
    return hi, factor @ hi if left else hi @ factor


def _factorization_test(hi, lo, left):
    return reverse_factorization(lo, hi) if left else blackwell_dominates(hi, lo)


def _reach(hi, left):
    """The closed form's reach for a stochastic ``hi``, without its
    rounding term: the 1-norm of the inverse for a factor left of ``hi``,
    the ∞-norm for one right of it."""
    inverse_norm = np.abs(np.linalg.inv(hi)).sum(axis=0 if left else 1).max()
    return orders._REACH_SAFETY * (inverse_norm * orders.FACTOR_RESIDUAL_TOL
                                   + lp._BOUND_SLACK)


@pytest.mark.parametrize("left", [False, True], ids=["blackwell", "reverse"])
def test_unique_factor_band_goes_to_the_lp(monkeypatch, left):
    """A slightly negative factor entry within the bound slack is a checked
    certificate; one past the slack but within reach of a factor the LP
    could still accept is left to the LP; one beyond reach is infeasible
    without an LP."""
    calls = _lp_counter(monkeypatch)
    hi, lo = _pair_with_factor_entry(-1e-10, left)
    verdict = _factorization_test(hi, lo, left)
    assert verdict["holds"] is True and calls == []
    assert min(min(row) for row in verdict["factor"]) < 0.0
    assert orders._factor_lp(hi, lo, left)["holds"] is True

    reach = _reach(hi, left)
    for entry in (-lp._BOUND_SLACK - 1e-10, -0.9 * reach):
        hi, lo = _pair_with_factor_entry(entry, left)
        calls.clear()
        verdict = _factorization_test(hi, lo, left)
        assert len(calls) == 1, entry
        assert verdict == orders._factor_lp(hi, lo, left)

    hi, lo = _pair_with_factor_entry(-1.1 * reach, left)
    calls.clear()
    verdict = _factorization_test(hi, lo, left)
    assert calls == []
    assert verdict == orders._factor_lp(hi, lo, left)
    assert verdict["witness"]["kind"] == "factorization_infeasible"


@pytest.mark.parametrize("left", [False, True], ids=["blackwell", "reverse"])
@pytest.mark.parametrize("entry", [-3e-10, -5e-10])
def test_factor_lp_accepts_a_checked_point_above_the_phase1_tolerance(
        left, entry):
    """Phase 1's optimum sums all the artificials, so on these pairs it
    exceeds FEAS_TOL (about 36 |entry| on the garbling side) while its point
    meets every row within FEAS_TOL; the LP must not call them infeasible."""
    hi, lo = _pair_with_factor_entry(entry, left)
    verdict = orders._factor_lp(hi, lo, left)
    assert verdict["holds"] is True
    factor = np.asarray(verdict["factor"])
    product = factor @ hi if left else hi @ factor
    assert np.abs(product - lo).max() <= orders.FACTOR_RESIDUAL_TOL
    assert factor.min() >= -lp._BOUND_SLACK


def test_singular_and_non_square_sensors_go_to_the_lp(monkeypatch):
    calls = _lp_counter(monkeypatch)
    singular = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert blackwell_dominates(singular, singular)["holds"] is True
    assert reverse_factorization(singular, singular)["holds"] is True
    assert len(calls) == 2
    wide = np.array([[0.5, 0.3, 0.2], [0.1, 0.3, 0.6]])
    assert blackwell_dominates(wide, wide)["holds"] is True
    assert reverse_factorization(wide, wide)["holds"] is True
    assert len(calls) == 4


def test_tp2_and_copositivity_witnesses_match_the_references():
    """The batched minors and face solves give the same verdict and witness
    dicts as one-at-a-time references, on criterion 10's distributions."""
    rng = np.random.default_rng(1010)
    for k in range(3000):
        rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        mat = random_stochastic(rng, rows, cols,
                                zero_prob=0.3 if k % 3 == 0 else 0.0)
        assert is_tp2(mat) == tp2_reference(mat), mat
    for k in range(3000):
        n = int(rng.integers(2, 5))
        q = rng.uniform(-1.0, 1.0, (n, n))
        q = (q + q.T) / 2.0
        assert is_copositive(q) == copositive_reference(q), q


# ---------------------------------------------------------------------------
# What each sensor order pays for, on the sensor pair alone
# ---------------------------------------------------------------------------

def _sensor_gains(low, high, alphas, priors):
    """(F, N) gains sum_y f(high[:, y] * p) - sum_y f(low[:, y] * p) of each
    f(z) = max_k alphas[f, k]'z at each prior p."""
    def value(b):
        z = b.T[None] * priors[:, None, :]                 # (N, Y, X)
        scores = z @ alphas.reshape(-1, alphas.shape[2]).T  # (N, Y, F*K)
        return scores.reshape(*z.shape[:2], *alphas.shape[:2]).max(
            axis=3).sum(axis=1).T
    return value(high) - value(low)


def test_sensor_orders_pay_for_their_value_classes():
    """Blackwell's theorem: a garbled sensor never gains on a convex,
    positively homogeneous f.  Lehmann's: a less precise TP2 sensor never
    gains on an f with increasing differences (max of alpha_1..alpha_K with
    each alpha_{k+1} - alpha_k nondecreasing in the state), but may on other
    convex f.  Over 200 seeded f of each class (4 pieces) and 500 priors
    pi P on each bundled drift P: hierarchical's two Blackwell pairs lose
    nothing on either class (worst -1.8e-15); reversed_factor, precise but
    not Blackwell-ordered, loses nothing on increasing-difference f but
    about 2e-3 on some convex f; ex1 and ex2 lose about 0.11 and 8e-2 on
    some increasing-difference f."""
    rng = np.random.default_rng(0)
    num_f, num_priors, pieces = 200, 500, 4
    convex = rng.normal(size=(num_f, pieces, 3))
    steps = np.sort(rng.normal(size=(num_f, pieces - 1, 3)), axis=2)
    increasing = np.concatenate(
        [rng.normal(size=(num_f, 1, 3)), steps], axis=1).cumsum(axis=1)
    worst = {}
    for name in ("hierarchical", "reversed_factor", "ex1", "ex2"):
        m = gen_example(name)
        priors = rng.dirichlet(np.ones(3), size=num_priors) @ m.transition[0]
        for u in range(m.num_actions - 1):
            low, high = m.observation[u], m.observation[u + 1]
            worst[name, u] = (
                _sensor_gains(low, high, convex, priors).min(),
                _sensor_gains(low, high, increasing, priors).min())
    for u in (0, 1):
        assert min(worst["hierarchical", u]) >= -1e-12, worst
    convex_gain, increasing_gain = worst["reversed_factor", 0]
    assert increasing_gain >= -1e-12 and convex_gain <= -1e-4, worst
    for name in ("ex1", "ex2"):
        assert worst[name, 0][1] <= -1e-2, worst
