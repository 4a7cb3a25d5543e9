"""Value types, fairness metrics, and the plain-text market format."""

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairprice import (
    AcceptanceModel,
    MarketConfig,
    PolicyPair,
    PriceGrid,
    accepted_mean,
    best_fixed_price,
    example1_market,
    expected_revenue,
    fixed_price_policy,
    market_from_text,
    market_to_text,
    procedural_gap,
    proposed_mean,
    substantive_gap,
)
from fairprice.core import (
    GroupDistribution,
    ZeroAcceptanceError,
    cumulative_weights,
    draw_prices,
    group_expected_revenue,
    stream_seed,
)


# ---------------------------------------------------------------------------
# random-instance strategy
# ---------------------------------------------------------------------------

@st.composite
def markets_and_policies(draw):
    """A valid market plus two policy pairs on its grid, d in 2..5."""
    d = draw(st.integers(min_value=2, max_value=5))
    top = draw(st.floats(0.7, 1.0))
    gaps = draw(st.lists(st.floats(0.02, 0.15), min_size=d - 1, max_size=d - 1))
    prices = np.r_[top - np.cumsum(gaps[::-1])[::-1], top]
    if prices[0] <= 0.05:
        prices = np.linspace(0.3, top, d)

    def some_curve():
        start = draw(st.floats(0.5, 1.0))
        drops = draw(st.lists(st.floats(0.0, 0.15), min_size=d - 1, max_size=d - 1))
        return np.maximum(start - np.cumsum(np.r_[0.0, drops]), 0.1)

    def some_weights():
        raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)))
        return raw / raw.sum()

    q = draw(st.floats(0.1, 0.9))
    market = MarketConfig(PriceGrid(prices),
                          AcceptanceModel(some_curve(), some_curve()), q=q)
    pol_a = PolicyPair.from_weights(some_weights(), some_weights())
    pol_b = PolicyPair.from_weights(some_weights(), some_weights())
    return market, pol_a, pol_b


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_price_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        PriceGrid(np.array([0.5, 0.5, 0.9]))       # not strictly increasing
    with pytest.raises(ValueError):
        PriceGrid(np.array([0.3, 0.9, 1.2]))        # above 1
    with pytest.raises(ValueError):
        PriceGrid(np.array([0.0, 0.5]))             # zero price
    with pytest.raises(ValueError):
        PriceGrid(np.array([[0.3, 0.9]]))           # wrong rank
    with pytest.raises(ValueError):
        PriceGrid(np.array([0.3, np.nan]))


def test_grid_is_immutable():
    grid = PriceGrid(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        grid.prices[0] = 0.1


def test_group_distribution_simplex_checks():
    with pytest.raises(ValueError):
        GroupDistribution(np.array([0.5, 0.4]))     # sums below 1
    with pytest.raises(ValueError):
        GroupDistribution(np.array([1.2, -0.2]))    # out of [0, 1]
    ok = GroupDistribution(np.array([0.25, 0.75]))
    assert ok.d == 2


def test_renormalized_clips_tiny_negatives_only():
    w = GroupDistribution.renormalized(np.array([0.5, -1e-12, 0.5]))
    assert w.weights[1] == 0.0
    assert math.isclose(float(w.weights.sum()), 1.0)
    with pytest.raises(ValueError):
        GroupDistribution.renormalized(np.array([0.5, -1e-3, 0.5]))
    with pytest.raises(ValueError):
        GroupDistribution.renormalized(np.zeros(3))


def test_policy_pair_shape_check():
    with pytest.raises(ValueError):
        PolicyPair.from_weights(np.array([1.0]), np.array([0.5, 0.5]))
    pair = fixed_price_policy(3, 1)
    assert pair.weights(1)[1] == 1.0
    assert pair.weights(2)[1] == 1.0
    with pytest.raises(ValueError):
        pair.weights(3)
    with pytest.raises(ValueError):
        fixed_price_policy(3, 3)


def test_acceptance_model_monotonicity_and_floor():
    with pytest.raises(ValueError):
        AcceptanceModel(np.array([0.5, 0.6]), np.array([0.8, 0.7]))  # increasing
    with pytest.raises(ValueError):
        AcceptanceModel(np.array([0.5, 0.01]), np.array([0.8, 0.7]))  # below floor
    with pytest.raises(ValueError):
        AcceptanceModel(np.array([0.5, 0.4]), np.array([0.8, 0.7]), f_min=0.0)
    # a rise, or a dip under the floor, by rounding alone (5.6e-17) is none
    AcceptanceModel(np.array([0.3, 0.1 + 0.2]), np.array([0.8, 0.7]))
    AcceptanceModel(np.array([0.7, 0.3]), np.array([0.8, 0.7]), f_min=0.1 + 0.2)
    # estimates from counts may be non-monotone, but stay above the floor
    est = AcceptanceModel.from_estimates(np.array([0.5, 0.6]),
                                         np.array([0.8, 0.7]), f_min=0.05)
    assert est.estimated
    np.testing.assert_array_equal(est.curve(1), [0.5, 0.6])


def test_market_config_q_range():
    grid = PriceGrid(np.array([0.5, 1.0]))
    accept = AcceptanceModel(np.array([0.6, 0.5]), np.array([0.8, 0.4]))
    for q in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            MarketConfig(grid, accept, q=q)
    assert MarketConfig(grid, accept, q=0.5).d == 2


# ---------------------------------------------------------------------------
# metrics: hand-checked values on the worked example
# ---------------------------------------------------------------------------

def test_metrics_on_example_fixed_prices(example_market):
    m = example_market
    # posting the top price to both groups: everything collapses to v_3 = 1
    top = fixed_price_policy(3, 2)
    assert procedural_gap(m.grid, top) == 0.0
    assert substantive_gap(m, top) == 0.0
    assert expected_revenue(m, top) == pytest.approx(0.5, abs=1e-15)
    # groupwise: 1.0 to group 1, 0.7 to group 2
    split = PolicyPair.from_weights([0, 0, 1], [0, 1, 0])
    assert procedural_gap(m.grid, split) == pytest.approx(0.3, abs=1e-15)
    assert substantive_gap(m, split) == pytest.approx(0.3, abs=1e-15)
    assert expected_revenue(m, split) == pytest.approx(0.3 * 0.5 + 0.7 * 0.56, abs=1e-15)
    assert group_expected_revenue(m, split, 1) == pytest.approx(0.5, abs=1e-15)
    assert group_expected_revenue(m, split, 2) == pytest.approx(0.56, abs=1e-15)


def test_accepted_mean_weights_by_acceptance(example_market):
    m = example_market
    half = GroupDistribution(np.array([0.5, 0.0, 0.5]))
    # group 1: (0.625*0.6 + 1.0*0.5) / (0.6 + 0.5)
    want = (0.625 * 0.6 + 1.0 * 0.5) / 1.1
    got = accepted_mean(m.grid, m.accept.group1, half)
    assert got == pytest.approx(want, abs=1e-15)


def test_accepted_mean_zero_mass_raises():
    grid = PriceGrid(np.array([0.5, 1.0]))
    dist = GroupDistribution(np.array([1.0, 0.0]))
    with pytest.raises(ZeroAcceptanceError):
        accepted_mean(grid, np.array([0.0, 0.7]), dist)


def test_best_fixed_price_example(example_market):
    idx, revenue = best_fixed_price(example_market)
    assert idx == 2
    assert revenue == pytest.approx(0.5, abs=1e-15)


def test_best_fixed_price_ties_go_low():
    grid = PriceGrid(np.array([0.5, 1.0]))
    accept = AcceptanceModel(np.array([0.8, 0.4]), np.array([0.8, 0.4]))
    idx, revenue = best_fixed_price(MarketConfig(grid, accept, q=0.5))
    assert idx == 0 and revenue == pytest.approx(0.4, abs=1e-15)


# ---------------------------------------------------------------------------
# metric identities on random instances
# ---------------------------------------------------------------------------

@given(markets_and_policies(), st.floats(0.0, 1.0))
def test_revenue_is_linear_in_policy_mixtures(mp, lam):
    market, pol_a, pol_b = mp
    mix = PolicyPair.from_weights(
        lam * pol_a.weights(1) + (1 - lam) * pol_b.weights(1),
        lam * pol_a.weights(2) + (1 - lam) * pol_b.weights(2))
    want = lam * expected_revenue(market, pol_a) + (1 - lam) * expected_revenue(market, pol_b)
    assert expected_revenue(market, mix) == pytest.approx(want, abs=1e-12)


@given(markets_and_policies(), st.floats(0.05, 1.0))
def test_accepted_mean_is_scale_invariant(mp, scale):
    market, policy, _ = mp
    base = accepted_mean(market.grid, market.accept.group1, policy.group1)
    scaled = accepted_mean(market.grid, scale * market.accept.group1, policy.group1)
    assert scaled == pytest.approx(base, abs=1e-12)


@given(markets_and_policies())
def test_accepted_mean_never_exceeds_proposed_mean(mp):
    """Nonincreasing acceptance tilts the paid-price mix toward cheap prices."""
    market, policy, _ = mp
    for g in (1, 2):
        dist = policy.group1 if g == 1 else policy.group2
        acc = accepted_mean(market.grid, market.accept.curve(g), dist)
        assert acc <= proposed_mean(market.grid, dist) + 1e-12
        assert market.grid.prices[0] - 1e-12 <= acc <= market.grid.prices[-1] + 1e-12


@given(markets_and_policies())
def test_gaps_are_symmetric_and_vanish_on_shared_policies(mp):
    market, policy, _ = mp
    swapped = PolicyPair(policy.group2, policy.group1)
    assert procedural_gap(market.grid, policy) == pytest.approx(
        procedural_gap(market.grid, swapped), abs=1e-15)
    same = PolicyPair(policy.group1, policy.group1)
    assert procedural_gap(market.grid, same) == 0.0
    # substantive symmetry needs the curves swapped too
    swapped_market = MarketConfig(
        market.grid,
        AcceptanceModel.from_estimates(market.accept.group2, market.accept.group1,
                                       market.accept.f_min),
        q=market.q)
    assert substantive_gap(market, policy) == pytest.approx(
        substantive_gap(swapped_market, swapped), abs=1e-12)


# ---------------------------------------------------------------------------
# named random streams
# ---------------------------------------------------------------------------

def test_stream_seed_is_stable_and_label_sensitive():
    assert stream_seed(7, "env-groups") == stream_seed(7, "env-groups")
    assert stream_seed(7, "env-groups") != stream_seed(7, "env-values")
    assert stream_seed(7, "env-groups") != stream_seed(8, "env-groups")
    assert 0 <= stream_seed(0, "x") < 2 ** 63


# ---------------------------------------------------------------------------
# the draw rule
# ---------------------------------------------------------------------------

# Group 1 has zero weights between positive ones.  Group 2 has a zero first
# and a zero top weight, and its running sums round to 1 - 2**-52, below the
# largest draw of random(), 1 - 2**-53.
EDGE_WEIGHTS = ([0.25, 0.0, 0.5, 0.0, 0.0, 0.25, 0.0],
                [0.0, 0.2, 0.48, 0.18, 0.08, 0.06, 0.0])
EDGE_POLICY = PolicyPair.from_weights(*EDGE_WEIGHTS)
TOP_DRAW = 1.0 - 2.0**-53


def test_sampling_tables_are_one_from_the_last_positive_weight():
    cum1, cum2 = cumulative_weights(EDGE_POLICY)
    assert cum1 == [0.25, 0.25, 0.75, 0.75, 0.75, 1.0, 1.0]
    running = list(accumulate(EDGE_WEIGHTS[1]))
    assert running[-1] == 1.0 - 2.0**-52 < TOP_DRAW
    assert cum2 == running[:5] + [1.0, 1.0]
    assert all(type(c) is float for c in cum1 + cum2)


@pytest.mark.parametrize("group,u,want", [
    (2, 0.0, 1),        # a zero first weight takes no draw, not even 0.0
    (1, 0.0, 0),
    (2, 0.2, 2),        # a draw on a sum goes to the next price ...
    (1, 0.25, 2),       # ... past the zero weights after it
    (1, 0.75, 5),
    (2, TOP_DRAW, 5),   # above a last sum rounded below 1: not the zero top
    (1, TOP_DRAW, 5),
])
def test_the_draw_rule_posts_no_zero_weight_price(group, u, want):
    cums = cumulative_weights(EDGE_POLICY)
    assert bisect_right(cums[group - 1], u) == want
    assert draw_prices(cums, np.array([group]), np.array([u])).tolist() == [want]


def test_block_draws_pick_the_single_draws_prices():
    """Every sum, its neighbours, 0.0 and the top draw, in both groups: the
    block count is bisect_right's index and lands on a positive weight."""
    cums = cumulative_weights(EDGE_POLICY)
    sums = [c for w in EDGE_WEIGHTS for c in accumulate(w)]
    draws = sorted({0.0, TOP_DRAW, 0.1, 0.9} | {x for c in sums if c < 1.0 for x in (
        c, np.nextafter(c, 0.0), np.nextafter(c, 1.0))})
    u = np.array(draws * 2)
    groups = np.repeat([1, 2], len(draws))
    idx = draw_prices(cums, groups, u)
    assert idx.dtype == np.intp
    assert idx.tolist() == [bisect_right(cums[g - 1], x) for g, x in zip(groups, u.tolist())]
    assert all(EDGE_WEIGHTS[g - 1][i] > 0.0 for g, i in zip(groups, idx))
    assert set(idx[groups == 1]) == {0, 2, 5} and set(idx[groups == 2]) == {1, 2, 3, 4, 5}


@given(st.lists(st.sampled_from([0.0, 0.0, 1e-300, 0.1, 0.3, 1.0, 7.0]), min_size=1,
                max_size=8).filter(any),
       st.lists(st.floats(0.0, TOP_DRAW), min_size=1, max_size=20))
def test_draws_never_post_a_zero_weight_price(raw, draws):
    weights = np.array(raw) / sum(raw)
    cums = cumulative_weights(PolicyPair.from_weights(weights, weights))
    u = np.array(draws + [0.0, TOP_DRAW])
    idx = draw_prices(cums, np.ones(u.size, dtype=int), u)
    assert idx.tolist() == [bisect_right(cums[0], x) for x in u.tolist()]
    assert np.all(weights[idx] > 0.0)


# ---------------------------------------------------------------------------
# market text round-trip
# ---------------------------------------------------------------------------

def test_market_text_round_trip_is_exact(example_market):
    text = market_to_text(example_market)
    back = market_from_text(text)
    np.testing.assert_array_equal(back.grid.prices, example_market.grid.prices)
    np.testing.assert_array_equal(back.accept.group1, example_market.accept.group1)
    np.testing.assert_array_equal(back.accept.group2, example_market.accept.group2)
    assert back.q == example_market.q
    assert back.accept.f_min == example_market.accept.f_min


def test_market_text_tolerates_comments_and_blank_lines():
    text = market_to_text(example1_market())
    noisy = "# saved by hand\n\n" + text + "\n# trailing note\n"
    assert market_from_text(noisy).d == 3


@pytest.mark.parametrize("mangle", [
    lambda t: t.replace("prices", "price"),          # missing field
    lambda t: t.replace("d 3", "d 4"),               # length disagreement
    lambda t: t.replace("\nq ", "\nq zero_"),        # non-numeric
])
def test_market_text_rejects_malformed_input(mangle):
    with pytest.raises(ValueError):
        market_from_text(mangle(market_to_text(example1_market())))


@pytest.mark.parametrize("key", ["q", "prices"])
def test_market_text_rejects_a_repeated_key(key):
    """A second ``q`` or ``prices`` line is an error, not a silent override."""
    text = market_to_text(example1_market())
    line = next(ln for ln in text.splitlines() if ln.startswith(key + " "))
    with pytest.raises(ValueError, match=rf"^<market text>:8: repeated key '{key}'$"):
        market_from_text(text + line + "\n")
    with pytest.raises(ValueError, match=rf"^m\.txt:9: repeated key '{key}'$"):
        market_from_text(text + "\n" + line, "m.txt")


_TEXT_KEYS = ("d", "q", "f_min", "prices", "accept1", "accept2", "#", "x")
_TEXT_TOKENS = st.one_of(
    st.integers(-3, 9).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "0x1", "", "1,0"]),
    st.text(max_size=4),
)


@st.composite
def _mangled_market_text(draw):
    """The example market's text with one token swapped for a random one."""
    words = market_to_text(example1_market()).split(" ")
    words[draw(st.integers(0, len(words) - 1))] = draw(_TEXT_TOKENS)
    return " ".join(words)


@given(st.one_of(
    st.text(),
    st.lists(st.tuples(st.sampled_from(_TEXT_KEYS), st.lists(_TEXT_TOKENS, max_size=9)),
             max_size=8).map(lambda lines: "\n".join(
                 " ".join([key, *tokens]) for key, tokens in lines)),
    _mangled_market_text(),
))
def test_market_text_parses_or_raises_value_error(text):
    """Any text is either a market or a ValueError, never another exception."""
    try:
        market = market_from_text(text)
    except ValueError:
        return
    assert market_from_text(market_to_text(market)).d == market.d
