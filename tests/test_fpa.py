"""The phased elimination agent: schedule arithmetic, round protocol, and one
full short-horizon run pinned down to its epoch boundaries."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairprice.fpa
from fairprice import (
    FpaAgent,
    FpaConfig,
    LedgerEntry,
    example1_market,
    fixed_price_policy,
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


@pytest.mark.parametrize("kw, field", [
    ({"scale_factor": math.inf}, "scale_factor"),
    ({"scale_factor": math.nan}, "scale_factor"),
    ({"scale_factor": 1e308}, "scale_factor"),          # epoch 1's tau overflows
    ({"relaxation_l": math.inf}, "relaxation_l"),
    ({"relaxation_l": math.nan}, "relaxation_l"),
    ({"error_prob": 1e-320}, "error_prob"),             # 16 / error_prob overflows
    ({"error_prob": math.nan}, "error_prob"),
    ({"horizon": 10**400}, "horizon"),                  # float() cannot hold it
    ({"q": 1e-305, "constants_mode": "theory"}, "q"),   # c_q overflows epoch 1's tau
])
def test_config_rejects_settings_whose_schedule_it_cannot_compute(kw, field):
    market = example1_market()
    with pytest.raises(ValueError, match=rf"^{field} "):
        FpaConfig(**{"grid": market.grid, "q": market.q, "horizon": 2000, **kw})


@settings(max_examples=60)
@given(horizon=st.integers(1, 10**9),
       error_prob=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       scale_factor=st.floats(0.0, 1e300, exclude_min=True),
       q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       mode=st.sampled_from(fairprice.fpa.CONSTANT_MODES))
def test_accepted_configs_have_a_finite_schedule(horizon, error_prob, scale_factor, q, mode):
    """Every configuration FpaConfig accepts has a warmup and, for every
    epoch that starts before the horizon, finite epoch parameters (the
    theory radii at the smallest floor a warmup can estimate)."""
    try:
        cfg = FpaConfig(example1_market().grid, q, horizon, error_prob=error_prob,
                        constants_mode=mode, scale_factor=scale_factor)
    except ValueError:
        return
    t = warmup_length(cfg)
    fmin_hat, k = 0.5 / t, 0
    while t < horizon:
        k += 1
        params = epoch_params(cfg, k, fmin_hat)
        assert math.isfinite(params.delta_r) and math.isfinite(params.delta_s)
        t += params.tau


def test_tiny_scale_factors_double_past_2_to_the_1024():
    """Epoch k's batch is c sqrt(T) 2^k, formed without 2.0**k, which
    overflows at k = 1024 although the product does not."""
    cfg = _config(2000, scale_factor=1e-320)
    assert epoch_params(cfg, 1100).tau == math.ceil(math.ldexp(1e-320 * math.sqrt(2000.0), 1100))


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


def test_batches_wait_for_the_pending_round():
    agent = FpaAgent(_config(1000))
    idx = agent.propose_price(1)
    with pytest.raises(ProtocolError, match="awaits observe"):
        agent.propose_batch(np.array([1, 2]))
    agent.observe(1, idx, True)
    assert agent.propose_batch(np.array([1, 2])).tolist() == [2, 2]


def test_a_finished_agent_reports_its_last_policy(short_run):
    """Past the horizon the incumbent governs, or the top price when no epoch
    has chosen one."""
    agent, _ = short_run
    assert agent.stage == "done" and agent.current_policy() is agent.incumbent
    agent = FpaAgent(_config(1))
    agent.observe(2, agent.propose_price(2), True)
    assert agent.stage == "done" and agent.incumbent is None
    top = fixed_price_policy(3, 2)
    for g in (1, 2):
        np.testing.assert_array_equal(agent.current_policy().weights(g), top.weights(g))


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
    assert [r.params.tau for r in agent.epochs] == [400, 800, 1600, 3200, 6400]
    assert [r.params.epoch for r in agent.epochs] == [1, 2, 3, 4, 5]
    assert len(agent.ledger) == 4            # epoch 5 never finished
    assert agent.stage == "done"
    assert [r.truncated for r in agent.epochs] == [False] * 4 + [True]


def test_truncated_epoch_still_reports_its_elimination(short_run):
    agent, _ = short_run
    last = agent.epochs[-1]
    # 10000 - 107 (warmup) - (400 + 800 + 1600 + 3200) = 3893 rounds observed
    assert last.params.epoch == 5 and last.run_len == 3893
    assert last.snapshot is not None and last.snapshot.epoch == 5
    assert all(last.snapshot is not entry for entry in agent.ledger)
    assert -1.0 <= last.snapshot.revenue_floor <= 1.0
    assert len(last.snapshot.fhat.group1) == 3
    # Every full epoch's snapshot is the ledger entry it wrote.
    assert [r.snapshot for r in agent.epochs[:-1]] == agent.ledger.entries


_EPOCH_KEYS = ("epoch", "tau", "run_len", "delta_r", "delta_s", "n_active", "truncated")


def _diagnostics(meta):
    return {key: meta[key] for key in ("flags", "epochs", "truncated_diagnostic")}


# The diagnostics that short_run's summary JSON carries, pinned as literals:
# meta() renders them from the epoch records, and their bytes must not move.
SHORT_RUN_DIAGNOSTICS = {
    "flags": ["epoch_truncated:e5"],
    "epochs": [dict(zip(_EPOCH_KEYS, row)) for row in [
        (1, 400, 400, 0.05, 0.04, 3, False),
        (2, 800, 800, 0.035355339059327376, 0.0282842712474619, 5, False),
        (3, 1600, 1600, 0.025, 0.02, 6, False),
        (4, 3200, 3200, 0.017677669529663688, 0.01414213562373095, 6, False),
        (5, 6400, 3893, 0.0125, 0.01, 6, True),
    ]],
    "truncated_diagnostic": {
        "epoch": 5, "rounds_used": 3893,
        "fhat_group1": [0.5882352941176471, 0.5327102803738317, 0.49412915851272016],
        "fhat_group2": [0.8333333333333334, 0.7906976744186046, 0.5195328231977446],
        "delta_r": 0.0125, "delta_s": 0.01, "revenue_floor": 0.49741172379223725,
        "optimizer_ledger_infeasible": True,
    },
}


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
    assert _diagnostics(meta) == SHORT_RUN_DIAGNOSTICS
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


def _episode_bytes(tmp_path, name, seed=0, horizon=10_000):
    """Trace CSV and summary JSON bytes of one FPA episode on the worked
    example, recorded every ``horizon // 10_000`` rounds (every round at
    T = 1e4)."""
    market = example1_market()
    agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q, horizon=horizon, seed=seed))
    trace = run_episode(agent, market, horizon, seed=seed, record_every=horizon // 10_000,
                        oracle_revenue=74.0 / 145.0)
    write_trace_csv(trace, str(tmp_path / f"{name}.csv"))
    write_summary_json(trace.summary(), str(tmp_path / f"{name}.json"))
    return (tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}.json").read_bytes()


def test_batched_probes_write_the_single_calls_bytes(tmp_path, monkeypatch):
    """An epoch's probes share one scan; probing one at a time must give the
    same trace and summary bytes."""
    batched = _episode_bytes(tmp_path, "batched")
    calls = []

    def one_at_a_time(probes, fhat, ledger, delta_s, cfg=None):
        calls.append(len(probes))
        return [max_probability_policy(i, g, fhat, ledger, delta_s, cfg) for i, g in probes]

    monkeypatch.setattr(fairprice.fpa, "max_probability_policies", one_at_a_time)
    single = _episode_bytes(tmp_path, "single")
    assert len(calls) == 4 and sum(calls) > len(calls)
    assert batched[0] == single[0], "trace CSV differs"
    assert batched[1] == single[1], "summary JSON differs"


# SHA-256 of (trace CSV, summary JSON) written by _episode_bytes, recorded at
# commit 2f7d9bf.  A change meant to keep the outputs must keep these; one
# that moves them on purpose records the new digests here and says why.
GOLDEN_DIGESTS = {
    0: ("0ac736e68814f6a466a8c68558024e1ee2aff79df9974ef7381d98b89fb12f65",
        "d4cfdb82e3542cccc58c201e1d4e18fcfc20e87334341128f0833324a3c7a585"),
    1: ("8c9a78677a74c6971cb5ad386c09b36c9872bfd1338435b16f3f468d1a0a7c90",
        "f707dd373e20b35ab1833aac3886680925e333e6d75632ba99ac74d3bb9122a5"),
    2: ("e8a65d491ae6686ee89f27404ceb7feb0ad6ec922d167e12d73c046e9bf62915",
        "071798762f548fbd35c9d6e6408d46c3b1a12b150063e7649789ff04c9d2811a"),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
def test_episode_bytes_match_the_golden_digests(tmp_path, seed):
    csv, summary = _episode_bytes(tmp_path, f"seed{seed}", seed)
    assert hashlib.sha256(csv).hexdigest() == GOLDEN_DIGESTS[seed][0], "trace CSV differs"
    assert hashlib.sha256(summary).hexdigest() == GOLDEN_DIGESTS[seed][1], "summary JSON differs"


# The same digests at longer horizons, recorded at commit a87e229: these
# episodes reach 6 (T = 1e5) and 7 (T = 1e6) ledger snapshots, so they pin
# the d = 3 scan's folds under a deep ledger.  A change meant to keep the
# outputs must keep these; one that moves them on purpose records the new
# digests here and says why.
DEEP_LEDGER_DIGESTS = {
    (100_000, 0): ("1ce411bd504ab48d8f5d35f9bcf513e3d943f2fd9cee2a7466ba10eb0800d813",
                   "d8fa774883bb9f8f51910f103fb63a29b804348c5dc01d5a8992592ca1ed2827"),
    (100_000, 1): ("1bfe0fd82fdd0dce05865a1ec06f45add19e22149cfe2e325e9f101a9ded8b47",
                   "b0c29d20666cd06e2cf30f04c01143e373921f1a9ab0122a624df28605a45f81"),
    (1_000_000, 0): ("824b5e285af20993958f3b530d96a0c309b29f4f7436453820c95eff4cecf4b9",
                     "3c048a86bb1869f63628d484995c98bf23753ebdc5325e5ce45a08d76d0d435f"),
    (1_000_000, 1): ("536a564ffea4f23214aa3200fef511cf575cd50140bdfe422c4e5f15ba89b93b",
                     "a5b5aef85b5f7640e4724171624909c1aaeb14a042c0201cbcbb314cfa15341a"),
}


@pytest.mark.parametrize("horizon,seed", sorted(DEEP_LEDGER_DIGESTS))
def test_deep_ledger_episode_bytes_match_the_golden_digests(tmp_path, horizon, seed):
    csv, summary = _episode_bytes(tmp_path, f"T{horizon}-seed{seed}", seed, horizon)
    want = DEEP_LEDGER_DIGESTS[horizon, seed]
    assert hashlib.sha256(csv).hexdigest() == want[0], "trace CSV differs"
    assert hashlib.sha256(summary).hexdigest() == want[1], "summary JSON differs"


# ---------------------------------------------------------------------------
# when nothing survives the ledger
# ---------------------------------------------------------------------------

class _UnclearableSnapshot:
    """Forwards to an FPA agent; at its first proposal of epoch 1 appends a
    snapshot whose revenue floor (1.0) no policy clears, and notes the
    policy governing each later proposal with the incumbent of that time."""

    def __init__(self, agent, market):
        self._agent = agent
        self._entry = LedgerEntry(0, market.accept, 0.01, 1.0)
        self.played = []

    def __getattr__(self, name):
        return getattr(self._agent, name)

    def propose_batch(self, groups):
        agent = self._agent
        if agent.epoch == 1 and self._entry is not None:
            agent.ledger.append(self._entry)
            self._entry = None
        idx = agent.propose_batch(groups)
        self.played.append((agent.epoch, agent.current_policy(), agent.incumbent))
        return idx


# What meta() renders for test_an_unclearable_ledger_falls_back_to_the_incumbent's
# run, pinned as literals like SHORT_RUN_DIAGNOSTICS: all four flag kinds.
UNCLEARABLE_DIAGNOSTICS = {
    "flags": ["optimizer_ledger_infeasible:e1",
              *(f"probe_ledger_infeasible:e2:g{g}:i{i}" for g in (1, 2) for i in range(3)),
              "empty_active_set:e2", "optimizer_ledger_infeasible:e2",
              "empty_active_set:e3", "optimizer_ledger_infeasible:e3",
              "empty_active_set:e4", "epoch_truncated:e4"],
    "epochs": [dict(zip(_EPOCH_KEYS, row)) for row in [
        (1, 179, 179, 0.07476743906106102, 0.05981395124884883, 3, False),
        (2, 358, 358, 0.052868563172028205, 0.042294850537622566, 1, False),
        (3, 716, 716, 0.03738371953053051, 0.029906975624424414, 1, False),
        (4, 1432, 659, 0.026434281586014102, 0.021147425268811283, 1, True),
    ]],
    "truncated_diagnostic": {
        "epoch": 4, "rounds_used": 659,
        "fhat_group1": [0.24193548387096775] * 3, "fhat_group2": [0.24193548387096775] * 3,
        "delta_r": 0.026434281586014102, "delta_s": 0.021147425268811283,
        "revenue_floor": 0.2112717172311914, "optimizer_ledger_infeasible": True,
    },
}


def test_an_unclearable_ledger_falls_back_to_the_incumbent():
    market = example1_market()
    agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q, horizon=2000, seed=0))
    wrapped = _UnclearableSnapshot(agent, market)
    trace = run_episode(wrapped, market, 2000, seed=0, oracle_revenue=74.0 / 145.0)
    first, second = agent.epochs[:2]
    assert first.optimizer_infeasible and not first.truncated
    assert second.infeasible_probes == tuple((g, i) for g in (1, 2) for i in range(3))
    assert second.fell_back and len(second.policies) == 1
    assert _diagnostics(agent.meta()) == UNCLEARABLE_DIAGNOSTICS
    epoch2 = [(policy, incumbent) for epoch, policy, incumbent in wrapped.played
              if epoch == 2]
    assert epoch2 and all(policy is incumbent for policy, incumbent in epoch2)
    assert trace.max_inst_u <= 1e-9
    assert all(r.inst_u <= 1e-9 for r in trace.records) and len(trace.records) == 2000
