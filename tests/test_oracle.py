"""Fair-optimal solvers, the worked example's closed forms, and the ledger."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairprice import (
    AcceptanceModel,
    EliminationLedger,
    FpaAgent,
    FpaConfig,
    LedgerEntry,
    MarketConfig,
    OracleConfig,
    PolicyPair,
    PriceGrid,
    alpha_bounds,
    best_fixed_price,
    closed_form_example_optimum,
    empirical_optimizer,
    eps_family_policy,
    example1_market,
    example_eps_market,
    example_revenue_surface,
    expected_revenue,
    fixed_price_policy,
    lowerbound_family_market,
    max_probability_policies,
    max_probability_policy,
    member,
    procedural_gap,
    run_episode,
    solve_fair_optimal,
    solve_relaxed_optimal,
    substantive_gap,
)
from fairprice import oracle
from fairprice.core import GroupDistribution
from fairprice.linsolve import OPTIMAL, LinearProgram, lp_maximize, vertex_enumerate
from fairprice.oracle import ParamPoint
from fairprice.validation import brute_force_fair_optimal

EPS_GRID = (0.0, 0.01, 0.03, 0.05)


# ---------------------------------------------------------------------------
# closed forms of the worked example
# ---------------------------------------------------------------------------

def test_closed_form_base_values(example_closed_form):
    opt = example_closed_form
    assert opt.revenue == pytest.approx(74.0 / 145.0, abs=1e-12)
    assert opt.v_s == pytest.approx(8.0 / 11.0, abs=1e-12)
    assert opt.alpha == pytest.approx(9.0 / 638.0, abs=1e-12)
    np.testing.assert_allclose(opt.policy.weights(1),
                               [20.0 / 29.0, 0.0, 9.0 / 29.0], atol=1e-12)
    np.testing.assert_allclose(opt.policy.weights(2),
                               [0.0, 25.0 / 29.0, 4.0 / 29.0], atol=1e-12)


@pytest.mark.parametrize("eps", EPS_GRID)
def test_closed_form_is_doubly_fair_and_self_consistent(eps):
    market = example_eps_market(eps)
    opt = closed_form_example_optimum(eps)
    assert procedural_gap(market.grid, opt.policy) <= 1e-12
    assert substantive_gap(market, opt.policy) <= 1e-12
    assert expected_revenue(market, opt.policy) == pytest.approx(opt.revenue, abs=1e-12)
    assert example_revenue_surface(eps, opt.v_s, opt.alpha) == pytest.approx(
        opt.revenue, abs=1e-12)


@pytest.mark.parametrize("eps", EPS_GRID)
def test_family_reconstruction_matches_closed_form(eps):
    opt = closed_form_example_optimum(eps)
    rebuilt = eps_family_policy(eps, opt.v_s, opt.alpha)
    np.testing.assert_allclose(rebuilt.weights(1), opt.policy.weights(1), atol=1e-12)
    np.testing.assert_allclose(rebuilt.weights(2), opt.policy.weights(2), atol=1e-12)


@pytest.mark.parametrize("eps", EPS_GRID)
def test_optimal_premium_sits_inside_its_feasible_band(eps):
    opt = closed_form_example_optimum(eps)
    bounds = alpha_bounds(eps, opt.v_s)
    assert bounds.feasible
    assert bounds.lower - 1e-12 <= opt.alpha <= bounds.upper + 1e-12


def test_family_rejects_infeasible_premiums():
    opt = closed_form_example_optimum(0.0)
    bounds = alpha_bounds(0.0, opt.v_s)
    with pytest.raises(ValueError):
        eps_family_policy(0.0, opt.v_s, bounds.upper + 0.05)


def test_closed_form_domain_checks():
    for eps in (-0.01, 0.051, 0.5):
        with pytest.raises(ValueError):
            closed_form_example_optimum(eps)
    with pytest.raises(ValueError):
        example_revenue_surface(0.0, 0.5, 0.01)       # v_s below the pole
    with pytest.raises(ValueError):
        example_revenue_surface(0.0, 1.0, 0.01)       # at the pole
    with pytest.raises(ValueError):
        example_revenue_surface(0.0, 0.8, -0.01)      # negative premium
    with pytest.raises(ValueError):
        alpha_bounds(0.0, 0.625)


def test_param_point_exposes_proposed_mean():
    pt = ParamPoint(0.7, 0.02)
    assert pt.v_r == pytest.approx(0.72, abs=1e-15)


# ---------------------------------------------------------------------------
# the exact solver
# ---------------------------------------------------------------------------

def test_scan_reproduces_the_example_optimum(example_market, example_solution,
                                             example_closed_form):
    sol, opt = example_solution, example_closed_form
    assert sol.revenue == pytest.approx(74.0 / 145.0, abs=1e-12)
    for g in (1, 2):
        np.testing.assert_allclose(sol.policy.weights(g), opt.policy.weights(g),
                                   atol=1e-10)
    assert procedural_gap(example_market.grid, sol.policy) <= 1e-9
    assert substantive_gap(example_market, sol.policy) <= 1e-9
    assert sol.point.v_s == pytest.approx(8.0 / 11.0, abs=1e-10)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_scan_tracks_the_family_across_eps(eps):
    market = example_eps_market(eps)
    sol = solve_relaxed_optimal(market, 0.0)
    assert sol.revenue == pytest.approx(closed_form_example_optimum(eps).revenue,
                                        abs=1e-10)


def _statement_lp(market, delta, v_s, objective, entries=()):
    """The anchor LP at v_s, built from the problem statement rather than the
    solver's code: both groups sum to one, equal proposed means, group 1's
    accepted mean at v_s, group 2's within delta of it (linearized), and each
    snapshot's revenue floor."""
    v, q = market.grid.prices, market.q
    f1, f2 = market.accept.group1, market.accept.group2
    zero, one = np.zeros(v.size), np.ones(v.size)
    band = (v - v_s) * f2
    floors = [-np.r_[q * v * e.fhat.group1, (1 - q) * v * e.fhat.group2] for e in entries]
    return LinearProgram(
        objective,
        a_ub=[np.r_[zero, band - delta * f2], np.r_[zero, -band - delta * f2]] + floors,
        b_ub=[0.0, 0.0] + [-e.revenue_floor for e in entries],
        a_eq=[np.r_[one, zero], np.r_[zero, one], np.r_[v, -v],
              np.r_[(v - v_s) * f1, zero]],
        b_eq=[1.0, 1.0, 0.0, 0.0])


def _revenue_weights(market):
    v, q = market.grid.prices, market.q
    return np.r_[q * v * market.accept.group1, (1 - q) * v * market.accept.group2]


def _anchor_lp_value(market, delta, v_s):
    """Optimum of the anchor LP at v_s by brute-force vertex enumeration."""
    return vertex_enumerate(_statement_lp(market, delta, v_s, _revenue_weights(market))).value


def test_relaxed_solver_is_monotone_in_the_band(example_market, example_solution):
    revenues = [example_solution.revenue]
    for delta in (0.005, 0.02):
        sol = solve_relaxed_optimal(example_market, delta)
        assert substantive_gap(example_market, sol.policy) <= delta + 1e-9
        revenues.append(sol.revenue)
    assert revenues == sorted(revenues)
    # frozen regression value for the mid band (the last solve), equal to the
    # vertex optimum of the anchor LP at the v_s it reports
    assert revenues[2] == pytest.approx(0.512, abs=1e-9)
    assert revenues[2] == pytest.approx(
        _anchor_lp_value(example_market, 0.02, sol.point.v_s), abs=1e-12)
    with pytest.raises(ValueError):
        solve_relaxed_optimal(example_market, -0.01)


def _random_market(rng, d):
    while True:
        prices = np.sort(rng.uniform(0.2, 1.0, d))
        if np.all(np.diff(prices) >= 0.04):
            break
    curves = [np.sort(rng.uniform(0.15, 0.95, d))[::-1] for _ in (1, 2)]
    return MarketConfig(PriceGrid(prices), AcceptanceModel(*curves),
                        q=float(rng.uniform(0.2, 0.8)))


@pytest.mark.parametrize("d", [5, 8])
def test_general_solver_handles_wide_grids(d):
    """The general-d search's LPs take 2d variables; d <= 8 must fit."""
    market = _random_market(np.random.default_rng(d), d)
    sol = solve_fair_optimal(market)
    assert procedural_gap(market.grid, sol.policy) <= 1e-9
    assert substantive_gap(market, sol.policy) <= 1e-9
    assert sol.revenue >= best_fixed_price(market)[1] - 1e-12
    assert sol.revenue == pytest.approx(expected_revenue(market, sol.policy), abs=1e-12)


@pytest.mark.parametrize("d, seeds", [(3, (74, 108, 0, 1, 2)), (4, (95, 145, 0, 1, 2)),
                                      (5, (5, 93, 0, 1, 2)), (6, (21, 105, 0, 1, 2))],
                         ids=["d3", "d4", "d5", "d6"])
def test_walk_reaches_the_best_of_dense_anchors(d, seeds):
    """The walk in v_s is exact: on random markets its optimum is at least
    the best LP optimum over 1,001 evenly spaced anchors, and at d = 3 it is
    the vertex optimum of the anchor LP at the v_s it reports.  The first two
    seeds of each d give markets whose optimum is a stationary point inside
    one basis, not a breakpoint."""
    for seed in seeds:
        market = _random_market(np.random.default_rng(seed), d)
        v = market.grid.prices
        for delta in (0.0, 0.03):
            sol = solve_relaxed_optimal(market, delta)
            dense = max(res.value for res in (
                lp_maximize(_statement_lp(market, delta, v_s, _revenue_weights(market)))
                for v_s in np.linspace(v[0], v[-1], 1001)) if res.status == OPTIMAL)
            assert sol.revenue >= dense - 1e-12, (seed, delta)
            if d == 3:
                assert sol.revenue == pytest.approx(
                    _anchor_lp_value(market, delta, sol.point.v_s), abs=1e-12)


def test_searches_solve_few_lps(monkeypatch):
    """One LP per basis the walk crosses, not one per anchor of a grid (the
    seed grid took 203 per search).  The count is deterministic."""
    calls = []
    real = oracle.lp_maximize
    monkeypatch.setattr(oracle, "lp_maximize", lambda lp: calls.append(lp) or real(lp))
    solve_fair_optimal(lowerbound_family_market(2, 4, 100_000))
    assert 0 < len(calls) <= 40
    calls.clear()
    solve_relaxed_optimal(_random_market(np.random.default_rng(4), 4), 0.03)
    assert 0 < len(calls) <= 40


@st.composite
def random_markets(draw, d=None):
    """A valid market with d in 1..8: spaced prices in (0, 1], nonincreasing
    curves above the default floor, a non-extreme group mix."""
    d = draw(st.integers(1, 8)) if d is None else d
    low = draw(st.floats(0.05, 0.6))
    steps = draw(st.lists(st.floats(0.01, 0.2), min_size=d - 1, max_size=d - 1))
    prices = low + np.r_[0.0, np.cumsum(steps)]
    prices /= max(1.0, prices[-1])

    def curve():
        start = draw(st.floats(0.1, 1.0))
        ratios = draw(st.lists(st.floats(0.3, 1.0), min_size=d - 1, max_size=d - 1))
        return np.maximum(start * np.cumprod(np.r_[1.0, ratios]), 0.06)

    return MarketConfig(PriceGrid(prices), AcceptanceModel(curve(), curve()),
                        q=draw(st.floats(0.05, 0.95)))


@settings(max_examples=25)
@given(random_markets())
def test_solutions_are_fair_and_bracketed_on_random_markets(market):
    v = market.grid.prices
    fixed = best_fixed_price(market)[1]
    ceiling = (market.q * float(np.max(v * market.accept.group1))
               + (1 - market.q) * float(np.max(v * market.accept.group2)))
    revenues = []
    for delta in (0.0, 0.01, 0.03):
        sol = solve_relaxed_optimal(market, delta)
        assert procedural_gap(market.grid, sol.policy) <= 1e-9
        assert substantive_gap(market, sol.policy) <= delta + 1e-9
        assert sol.revenue == expected_revenue(market, sol.policy)
        assert fixed - 1e-12 <= sol.revenue <= ceiling + 1e-12
        revenues.append(sol.revenue)
    assert revenues == sorted(revenues)  # no slack, as the benchmark checks it


@settings(max_examples=15)
@given(random_markets(d=3))
def test_solutions_beat_the_dense_enumeration_on_random_markets(market):
    dense_revenue, _, _ = brute_force_fair_optimal(market, step=0.02)
    assert solve_fair_optimal(market).revenue >= dense_revenue - 1e-9


# ---------------------------------------------------------------------------
# elimination ledger and membership
# ---------------------------------------------------------------------------

def _ledger_with(market, delta_s, floor):
    ledger = EliminationLedger(market.grid, market.q)
    ledger.append(LedgerEntry(1, market.accept, delta_s, floor))
    return ledger


def test_ledger_entry_validation(example_market):
    acc = example_market.accept
    with pytest.raises(ValueError):
        LedgerEntry(-1, acc, 0.1, 0.4)
    with pytest.raises(ValueError):
        LedgerEntry(1, acc, 0.0, 0.4)        # band must be positive
    with pytest.raises(ValueError):
        LedgerEntry(1, acc, 0.1, 1.5)        # floor outside [-1, 1]
    with pytest.raises(ValueError):
        EliminationLedger(example_market.grid, q=1.0)
    ledger = EliminationLedger(PriceGrid(np.array([0.5, 1.0])), q=0.3)
    with pytest.raises(ValueError):
        ledger.append(LedgerEntry(1, acc, 0.1, 0.4))  # d = 3 entry on a d = 2 grid
    assert ledger.latest is None
    # the same check when the entries come with the ledger or the estimates with a search
    with pytest.raises(ValueError, match="estimates for 3 prices on a ledger of 2"):
        EliminationLedger(ledger.grid, 0.3, [LedgerEntry(1, acc, 0.1, 0.4)])
    fhat2 = AcceptanceModel(np.array([0.6, 0.5]), np.array([0.8, 0.5]))
    ledger3 = _ledger_with(example_market, 0.02, 0.4)
    with pytest.raises(ValueError, match="estimates for 2 prices on a ledger of 3"):
        empirical_optimizer(fhat2, ledger3, 0.02)
    with pytest.raises(ValueError, match="estimates for 2 prices on a ledger of 3"):
        max_probability_policies([(0, 1)], fhat2, ledger3, 0.02)


def test_membership_screens_band_floor_and_parity(example_market, example_closed_form):
    opt = example_closed_form
    # the optimum clears a floor below its revenue (74/145 = 0.5103...) ...
    assert member(opt.policy, _ledger_with(example_market, 0.05, 0.5))
    # ... but not one above it
    assert not member(opt.policy, _ledger_with(example_market, 0.05, 0.52))
    # unequal proposed means fail before any entry is consulted
    split = PolicyPair.from_weights([0, 0, 1], [0, 1, 0])
    assert not member(split, EliminationLedger(example_market.grid, example_market.q))
    # fixed top price: zero gaps, revenue exactly 0.5
    top = fixed_price_policy(3, 2)
    assert member(top, _ledger_with(example_market, 0.01, 0.5))
    assert not member(top, _ledger_with(example_market, 0.01, 0.501))


def test_membership_requires_every_snapshot(example_market, example_closed_form):
    ledger = _ledger_with(example_market, 0.05, 0.4)
    ledger.append(LedgerEntry(2, example_market.accept, 0.05, 0.52))
    assert len(ledger) == 2 and ledger.latest.epoch == 2
    assert not member(example_closed_form.policy, ledger)


# ---------------------------------------------------------------------------
# empirical optimization under estimated curves
# ---------------------------------------------------------------------------

def test_empirical_optimizer_recovers_scan_under_true_curves(example_market,
                                                             example_solution):
    ledger = EliminationLedger(example_market.grid, example_market.q)
    res = empirical_optimizer(example_market.accept, ledger, 0.0)
    assert not res.ledger_infeasible
    assert res.revenue_hat == pytest.approx(example_solution.revenue, abs=1e-9)


def test_empirical_optimizer_falls_back_when_nothing_survives(example_market):
    ledger = _ledger_with(example_market, 0.01, 0.99)  # floor nothing can clear
    res = empirical_optimizer(example_market.accept, ledger, 0.01)
    assert res.ledger_infeasible
    # fallback is the best fixed price by estimated revenue
    np.testing.assert_array_equal(res.policy.weights(1), [0, 0, 1])
    assert res.revenue_hat == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        empirical_optimizer(example_market.accept, ledger, -0.1)


def test_optimizer_handles_non_monotone_estimates(example_market):
    """Count-based snapshots need not be monotone (an unsampled price can sit
    at the floor); the optimizer must still search them, not crash or shrink."""
    fhat = AcceptanceModel.from_estimates([0.6, 0.05, 0.5], [0.8, 0.05, 0.5],
                                          f_min=0.025)
    ledger = _ledger_with(example_market, 0.05, 0.45)
    res = empirical_optimizer(fhat, ledger, 0.03)
    assert not res.ledger_infeasible
    assert member(res.policy, ledger)
    v, q = example_market.grid.prices, example_market.q
    direct = (q * float((v * fhat.group1) @ res.policy.weights(1))
              + (1 - q) * float((v * fhat.group2) @ res.policy.weights(2)))
    assert res.revenue_hat == pytest.approx(direct, abs=1e-9)


def test_optimizer_reaches_negative_premiums_on_estimates():
    """With inverted estimated curves the accepted mean exceeds the proposed
    one, so the parity optimum needs a negative premium.  A search that folds
    the premium range at zero collapses onto fixed prices and forfeits the
    randomization gain; pin the full answer against an independent grid."""
    grid = PriceGrid(np.array([0.625, 0.7, 1.0]))
    fhat = AcceptanceModel.from_estimates([0.23, 0.88, 0.36], [0.68, 0.11, 0.70],
                                          f_min=0.05)
    q = 0.77
    v = grid.prices
    res = empirical_optimizer(fhat, EliminationLedger(grid, q), 0.0)
    assert res.point.alpha < 0.0
    assert res.revenue_hat == pytest.approx(0.5729851333392454, abs=1e-9)
    assert res.revenue_hat == pytest.approx(
        _anchor_lp_value(MarketConfig(grid, fhat, q=q), 0.0, res.point.v_s), abs=1e-12)
    fixed_best = max(
        q * v[i] * fhat.group1[i] + (1 - q) * v[i] * fhat.group2[i]
        for i in range(3))
    assert res.revenue_hat > fixed_best + 0.05
    bf_revenue, _, _ = brute_force_fair_optimal(
        MarketConfig(grid, fhat, q=q), step=1e-3)
    assert res.revenue_hat == pytest.approx(bf_revenue, abs=2e-3)


# ---------------------------------------------------------------------------
# probe policies
# ---------------------------------------------------------------------------

def test_probe_policy_maximizes_weight_within_the_ledger(example_market):
    ledger = _ledger_with(example_market, 0.02, 0.48)
    res = max_probability_policy(0, 1, example_market.accept, ledger, 0.02)
    assert not res.ledger_infeasible
    assert member(res.policy, ledger)
    achieved = res.policy.weights(1)[0]
    assert res.achieved_prob == pytest.approx(achieved, abs=1e-9)
    assert 0.0 < res.achieved_prob <= 1.0


def test_probe_policy_flags_an_empty_surviving_set(example_market):
    ledger = _ledger_with(example_market, 0.02, 0.99)
    res = max_probability_policy(2, 2, example_market.accept, ledger, 0.02)
    assert res.ledger_infeasible
    assert res.achieved_prob == 0.0
    assert res.policy is None


def test_scan_has_no_row_when_the_pin_admits_no_cell(example_market):
    """A premium window wholly above v_d - v_s puts the proposed mean above
    the top price, so group 1's pin admits no cell and no objective has a
    row."""
    v, f, q = example_market.grid.prices, example_market.accept, example_market.q
    vs_vals = np.linspace(v[0], v[-1], 7)
    alpha = (v[-1] - vs_vals)[:, None] + np.linspace(0.01, 0.2, 5)[None, :]
    specs = [oracle._Objective(c) for c in np.eye(6)]
    specs.append(oracle._Objective(np.r_[q * v * f.group1, (1.0 - q) * v * f.group2]))
    entries = [LedgerEntry(1, f, 0.02, 0.4)]
    for delta in (0.0, 0.02):
        assert oracle._scan_d3(v, f.group1, f.group2, q, delta, entries, vs_vals, alpha,
                               specs) == [None] * len(specs)


def test_probe_policy_argument_checks(example_market):
    ledger = _ledger_with(example_market, 0.02, 0.4)
    with pytest.raises(ValueError):
        max_probability_policy(3, 1, example_market.accept, ledger, 0.02)
    with pytest.raises(ValueError):
        max_probability_policy(0, 0, example_market.accept, ledger, 0.02)
    with pytest.raises(ValueError):
        max_probability_policy(0, 1, example_market.accept, ledger, -0.02)


# ---------------------------------------------------------------------------
# batched probes: the same results as one call per probe
# ---------------------------------------------------------------------------

def _assert_batch_matches_single_calls(fhat, ledger, delta_s, cfg=None):
    probes = [(i, g) for g in (1, 2) for i in range(ledger.grid.d)]
    batch = max_probability_policies(probes, fhat, ledger, delta_s, cfg)
    assert len(batch) == len(probes)
    for (i, g), got in zip(probes, batch):
        want = max_probability_policy(i, g, fhat, ledger, delta_s, cfg)
        assert got.ledger_infeasible == want.ledger_infeasible
        assert got.achieved_prob == want.achieved_prob
        assert got.point == want.point
        assert (got.policy is None) == (want.policy is None)
        if want.policy is not None:
            for grp in (1, 2):
                assert np.array_equal(got.policy.weights(grp), want.policy.weights(grp))
    return batch


def _assert_searches_return_members(fhat, ledger, delta_s, cfg=None):
    """Every probe and the revenue search return a member of the ledger they
    were searched under: each constraint is built at its stated value."""
    probes = [(i, g) for g in (1, 2) for i in range(ledger.grid.d)]
    for (i, g), res in zip(probes, max_probability_policies(probes, fhat, ledger, delta_s, cfg)):
        assert not res.ledger_infeasible and member(res.policy, ledger), (i, g)
    opt = empirical_optimizer(fhat, ledger, delta_s, cfg=cfg)
    assert not opt.ledger_infeasible and member(opt.policy, ledger)


def test_batched_probes_match_single_calls_on_every_ledger_prefix(example_market):
    """The d = 3 scan path, on the ledgers an example run builds; every
    search returns a member of the prefix it was searched under."""
    horizon = 100_000
    agent = FpaAgent(FpaConfig(grid=example_market.grid, q=example_market.q,
                               horizon=horizon, seed=0))
    run_episode(agent, example_market, horizon, seed=0, record_every=horizon)
    entries = agent.ledger.entries
    assert len(entries) >= 5
    for n in range(1, len(entries) + 1):
        prefix = EliminationLedger(agent.ledger.grid, agent.ledger.q, list(entries[:n]))
        latest = prefix.latest
        batch = _assert_batch_matches_single_calls(latest.fhat, prefix, latest.delta_s,
                                                   agent.oracle_cfg)
        assert not any(res.ledger_infeasible for res in batch)
        _assert_searches_return_members(latest.fhat, prefix, latest.delta_s, agent.oracle_cfg)


D4_MARKET = MarketConfig(
    grid=PriceGrid(np.array([0.4, 0.6, 0.8, 1.0])),
    accept=AcceptanceModel(np.array([0.9, 0.7, 0.5, 0.3]), np.array([0.8, 0.75, 0.4, 0.35])),
    q=0.4)


def test_d4_ledger_probes_reach_the_best_member_of_dense_anchors():
    """On every ledger prefix of a seeded d = 4 run, each probe returns a
    member with at least the weight of the best member among the LP optima
    at 1,001 dense anchors: the walk post-filters the bands exactly in v_s."""
    horizon = 3000
    agent = FpaAgent(FpaConfig(grid=D4_MARKET.grid, q=D4_MARKET.q, horizon=horizon, seed=0))
    run_episode(agent, D4_MARKET, horizon, seed=0, record_every=horizon)
    v, d = D4_MARKET.grid.prices, D4_MARKET.grid.d
    probes = [(i, g) for g in (1, 2) for i in range(d)]
    entries = agent.ledger.entries
    assert len(entries) >= 2
    for n in range(1, len(entries) + 1):
        prefix = EliminationLedger(agent.ledger.grid, agent.ledger.q, list(entries[:n]))
        latest = prefix.latest
        estimated = MarketConfig(D4_MARKET.grid, latest.fhat, q=D4_MARKET.q)
        results = max_probability_policies(probes, latest.fhat, prefix, latest.delta_s)
        for (i, g), res in zip(probes, results):
            assert not res.ledger_infeasible and member(res.policy, prefix), (n, i, g)
            weight = np.zeros(2 * d)
            weight[(g - 1) * d + i] = 1.0
            best = 0.0
            for v_s in np.linspace(v[0], v[-1], 1001):
                lp = _statement_lp(estimated, latest.delta_s, v_s, weight, prefix.entries)
                opt = lp_maximize(lp)
                if opt.status == OPTIMAL and member(PolicyPair(
                        GroupDistribution.renormalized(opt.x[:d]),
                        GroupDistribution.renormalized(opt.x[d:])), prefix):
                    best = max(best, opt.value)
            assert res.achieved_prob >= best - 1e-12, (n, i, g)


@pytest.mark.parametrize("market, band, below_optimum, delta_s", [
    (example1_market(), 0.02, 0.01, 0.0),
    (example1_market(), 0.02, 0.01, 0.02),
    (D4_MARKET, 0.05, 0.02, 0.05),
], ids=["d3-pinned", "d3-band", "d4-lp"])
def test_searches_return_members_of_a_one_snapshot_ledger(market, band, below_optimum, delta_s):
    """Floors just under the optimum bind where the searches end up; the d = 3
    scan and the d = 4 LP path must still land inside them."""
    floor = solve_fair_optimal(market).revenue - below_optimum
    _assert_searches_return_members(market.accept, _ledger_with(market, band, floor), delta_s)


@pytest.mark.parametrize("delta_s", [0.0, 0.02])
def test_batched_probes_match_single_calls_through_two_refine_windows(example_market, delta_s):
    """A point (delta = 0) and a floating group-2 segment; the second window
    is centred on each probe's first refined row."""
    cfg = OracleConfig(grid_steps_vs=200, grid_steps_alpha=60, refine_iters=3)
    ledger = _ledger_with(example_market, 0.02, 0.505)
    batch = _assert_batch_matches_single_calls(example_market.accept, ledger, delta_s, cfg)
    assert all(0.0 < res.achieved_prob < 1.0 for res in batch)


def test_batched_probes_match_single_calls_on_a_d4_ledger():
    """The LP path, one objective at a time."""
    market = D4_MARKET
    floor = solve_fair_optimal(market).revenue - 0.05
    batch = _assert_batch_matches_single_calls(
        market.accept, _ledger_with(market, 0.05, floor), 0.05)
    assert not any(res.ledger_infeasible for res in batch)


def test_batched_probes_match_single_calls_when_nothing_survives(example_market):
    batch = _assert_batch_matches_single_calls(
        example_market.accept, _ledger_with(example_market, 0.02, 0.99), 0.02)
    assert all(res.ledger_infeasible and res.policy is None for res in batch)


def test_batched_probes_accept_an_empty_probe_list(example_market):
    ledger = _ledger_with(example_market, 0.02, 0.4)
    assert max_probability_policies([], example_market.accept, ledger, 0.02) == []
