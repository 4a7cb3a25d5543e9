"""The phased elimination agent: schedule arithmetic, round protocol, and one
full short-horizon run pinned down to its epoch boundaries."""

import json
import math

import numpy as np
import pytest

import fairprice.fpa
from fairprice import (
    FpaAgent,
    FpaConfig,
    example1_market,
    max_probability_policy,
    run_episode,
    write_summary_json,
    write_trace_csv,
)
from fairprice.fpa import (
    DegenerateDemandError,
    ProtocolError,
    epoch_params,
    warmup_length,
)


def _config(horizon, **kw):
    market = example1_market()
    return FpaConfig(grid=market.grid, q=market.q, horizon=horizon, **kw)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {"horizon": 0},
    {"horizon": 1000, "error_prob": 0.0},
    {"horizon": 1000, "error_prob": 1.0},
    {"horizon": 1000, "relaxation_l": -0.1},
    {"horizon": 1000, "constants_mode": "exact"},
    {"horizon": 1000, "scale_factor": 0.0},
])
def test_config_rejects_bad_values(kw):
    market = example1_market()
    with pytest.raises(ValueError):
        FpaConfig(grid=market.grid, q=market.q, **kw)


def test_config_rejects_degenerate_q():
    market = example1_market()
    with pytest.raises(ValueError):
        FpaConfig(grid=market.grid, q=0.0, horizon=100)


# ---------------------------------------------------------------------------
# schedule arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("horizon,want", [(10_000, 107), (100_000, 133),
                                          (1_000_000, 160)])
def test_warmup_length_golden(horizon, want):
    assert warmup_length(_config(horizon)) == want


def test_warmup_never_vanishes():
    assert warmup_length(_config(1)) == 1


def test_scaled_epoch_parameters_golden():
    cfg = _config(10_000)  # batch lengths c * sqrt(T) * 2^k with c = 2
    p1 = epoch_params(cfg, 1)
    assert (p1.tau, p1.delta_r, p1.delta_s) == (400, 0.05, 0.04)
    assert epoch_params(cfg, 2).tau == 800
    assert epoch_params(cfg, 3).tau == 1600


def test_radii_halve_as_batches_double():
    cfg = _config(250_000)
    prev = epoch_params(cfg, 1)
    for k in range(2, 8):
        cur = epoch_params(cfg, k)
        assert cur.tau == 2 * prev.tau
        assert cur.delta_r == pytest.approx(prev.delta_r / math.sqrt(2.0), rel=1e-12)
        assert cur.delta_s == pytest.approx(prev.delta_s / math.sqrt(2.0), rel=1e-12)
        prev = cur


def test_epoch_numbering_starts_at_one():
    with pytest.raises(ValueError):
        epoch_params(_config(10_000), 0)


def test_theory_mode_parameters():
    cfg = _config(1_000_000, constants_mode="theory")
    with pytest.raises(ValueError):
        epoch_params(cfg, 1)  # needs the warmup acceptance floor
    with pytest.raises(ValueError):
        epoch_params(cfg, 1, fmin_hat=0.0)
    p = epoch_params(cfg, 1, fmin_hat=0.25)
    assert p.tau == 5315927  # larger than the horizon: epoch 1 runs truncated
    assert p.delta_s > p.delta_r  # the band pays an extra 1/fmin^2
    # radii still halve within the mode
    p2 = epoch_params(cfg, 2, fmin_hat=0.25)
    assert p2.delta_r == pytest.approx(p.delta_r / math.sqrt(2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# round protocol
# ---------------------------------------------------------------------------

def test_round_protocol_enforced():
    agent = FpaAgent(_config(1000))
    with pytest.raises(ValueError):
        agent.propose_price(3)
    with pytest.raises(ProtocolError):
        agent.observe(1, 2, True)            # nothing proposed yet
    idx = agent.propose_price(1)
    assert idx == 2                          # warmup posts the top price
    with pytest.raises(ProtocolError):
        agent.propose_price(2)               # outcome still pending
    with pytest.raises(ProtocolError):
        agent.observe(1, idx - 1, True)      # outcome must match the proposal
    agent.observe(1, idx, True)
    assert agent.t == 1


def test_single_round_horizon_retires_the_agent():
    agent = FpaAgent(_config(1))
    idx = agent.propose_price(2)
    agent.observe(2, idx, False)
    assert agent.stage == "done"
    with pytest.raises(ProtocolError):
        agent.propose_price(1)


def test_all_rejections_raise_degenerate_demand():
    agent = FpaAgent(_config(5000))
    with pytest.raises(DegenerateDemandError):
        for t in range(agent.tau0):
            group = 1 + t % 2
            idx = agent.propose_price(group)
            agent.observe(group, idx, False)


def test_one_sided_arrivals_raise_degenerate_demand():
    agent = FpaAgent(_config(5000))
    with pytest.raises(DegenerateDemandError):
        for _ in range(agent.tau0):
            idx = agent.propose_price(1)     # group 2 never shows up
            agent.observe(1, idx, True)


# ---------------------------------------------------------------------------
# a full short run, pinned to its schedule
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_run():
    market = example1_market()
    agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q, horizon=10_000, seed=0))
    trace = run_episode(agent, market, 10_000, seed=0, record_every=500,
                        oracle_revenue=74.0 / 145.0)
    return agent, trace


def test_run_follows_the_epoch_schedule(short_run):
    agent, _ = short_run
    assert agent.tau0 == 107
    assert [e["tau"] for e in agent.epochs_info] == [400, 800, 1600, 3200, 6400]
    assert len(agent.ledger) == 4            # epoch 5 never finished
    assert agent.stage == "done"
    assert "epoch_truncated:e5" in agent.flags


def test_truncated_epoch_still_reports_its_elimination(short_run):
    agent, _ = short_run
    diag = agent.truncated_diagnostic
    assert diag is not None and diag["epoch"] == 5
    # 10000 - 107 (warmup) - (400 + 800 + 1600 + 3200) = 3893 rounds observed
    assert diag["rounds_used"] == 3893
    assert -1.0 <= diag["revenue_floor"] <= 1.0
    assert len(diag["fhat_group1"]) == 3


def test_run_never_pays_procedural_unfairness(short_run):
    _, trace = short_run
    assert trace.cum_u <= 1e-9
    assert trace.max_inst_u <= 1e-12


def test_meta_is_json_serializable_with_full_history(short_run):
    agent, trace = short_run
    meta = trace.agent_meta
    assert meta == agent.meta()
    text = json.dumps(meta)                  # raises on stray numpy scalars
    assert "fhat_history" in meta and len(meta["fhat_history"]) == 4
    for snap, entry in zip(meta["fhat_history"], agent.ledger):
        assert snap["epoch"] == entry.epoch
        np.testing.assert_allclose(snap["group1"], entry.fhat.group1)
        assert snap["delta_s"] == entry.delta_s
    assert meta["truncated_diagnostic"]["epoch"] == 5
    assert isinstance(text, str)


def test_run_estimates_converge_on_the_true_curves(short_run):
    """Counters reset each epoch, so lightly-weighted prices are noisy; the
    top price is in every surviving policy's support and should be sharp."""
    agent, _ = short_run
    market = example1_market()
    last = agent.ledger.latest.fhat
    for got, want in ((last.group1, market.accept.group1),
                      (last.group2, market.accept.group2)):
        sampled = [i for i in range(3) if abs(got[i] - 0.05) > 1e-9]
        np.testing.assert_allclose(got[sampled], want[sampled], atol=0.15)
        assert got[2] == pytest.approx(want[2], abs=0.06)


def test_identical_configs_propose_identically():
    market = example1_market()
    cfg = FpaConfig(grid=market.grid, q=market.q, horizon=2000, seed=3)
    agents = (FpaAgent(cfg), FpaAgent(cfg))
    groups = np.random.default_rng(0).integers(1, 3, size=2000)
    accepts = np.random.default_rng(1).random(2000) < 0.6
    seen = [[], []]
    for g, acc in zip(groups, accepts):
        for which, agent in enumerate(agents):
            idx = agent.propose_price(int(g))
            agent.observe(int(g), idx, bool(acc))
            seen[which].append(idx)
    assert seen[0] == seen[1]


def test_batched_probes_write_the_single_calls_bytes(tmp_path, monkeypatch):
    """An epoch's probes share one scan; probing one at a time must give the
    same trace and summary bytes."""
    market = example1_market()

    def outputs(name):
        agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q, horizon=10_000, seed=0))
        trace = run_episode(agent, market, 10_000, seed=0, record_every=1,
                            oracle_revenue=74.0 / 145.0)
        write_trace_csv(trace, str(tmp_path / f"{name}.csv"))
        write_summary_json(trace.summary(), str(tmp_path / f"{name}.json"))
        return (tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}.json").read_bytes()

    batched = outputs("batched")
    calls = []

    def one_at_a_time(probes, fhat, ledger, delta_s, cfg=None):
        calls.append(len(probes))
        return [max_probability_policy(i, g, fhat, ledger, delta_s, cfg) for i, g in probes]

    monkeypatch.setattr(fairprice.fpa, "max_probability_policies", one_at_a_time)
    single = outputs("single")
    assert len(calls) == 4 and sum(calls) > len(calls)
    assert batched[0] == single[0], "trace CSV differs"
    assert batched[1] == single[1], "summary JSON differs"
