"""The batched episode engine: block draws on the random streams, the
agent's batch protocol, and byte-identical output against the per-round loop."""

import random
from bisect import bisect_right

import numpy as np
import pytest

import fairprice.sim
from fairprice import (
    BASELINE_KINDS,
    AcceptanceModel,
    FpaAgent,
    FpaConfig,
    MarketConfig,
    OracleConfig,
    PolicyPair,
    PriceGrid,
    baseline_agent,
    example1_market,
    example_eps_market,
    lowerbound_family_market,
    run_episode,
    write_summary_json,
    write_trace_csv,
)
from fairprice.core import RandomStream, cumulative_weights, stream_seed
from fairprice.fpa import ProtocolError, warmup_length
from test_oracle import _random_market

R_STAR = 74.0 / 145.0
# Coarse agent searches: the engine's output identity does not depend on the
# oracle's resolution, and these keep each episode well under a second.
COARSE = OracleConfig(grid_steps_vs=40, grid_steps_alpha=10, refine_iters=1)


# ---------------------------------------------------------------------------
# block draws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3, 2**62 + 5])
def test_block_draws_equal_single_draws(seed):
    """A stream's blocks and single draws, interleaved, are the values of
    ``random.Random(stream_seed(seed, label))`` one for one: empty blocks,
    blocks of one value, blocks that end on either side of a twist of the
    624-word state (312 values), and runs of single draws across one."""
    sizes = [0, 1, 5, 311, 312, 313, 3, 50_000, 1, 2055, 254, 256, 257]
    singles = [1, 0, 259, 2, 255]
    reference = random.Random(stream_seed(seed, "agent"))
    stream = RandomStream(seed, "agent")
    for k, n in enumerate(sizes):
        want = [reference.random() for _ in range(n)]
        got = stream.block(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tolist() == want, f"block {k} of {n} draws"
        m = singles[k % len(singles)]
        assert [stream.random() for _ in range(m)] == [reference.random() for _ in range(m)]
    assert stream.block(2000).tolist() == [reference.random() for _ in range(2000)]


def test_two_streams_alternate():
    """Each stream owns its generator: blocks and single draws of two
    streams alternate without touching each other's values."""
    sizes = [623, 624, 625, 0, 65_536]  # 624 words per MT19937 state
    references = [random.Random(stream_seed(7, "env-groups")),
                  random.Random(stream_seed(7, "env-values"))]
    streams = [RandomStream(7, "env-groups"), RandomStream(7, "env-values")]
    for n in sizes:
        for reference, stream in zip(references, streams):
            want = [reference.random() for _ in range(n)]
            assert stream.block(n).tolist() == want
            assert stream.random() == reference.random()


# ---------------------------------------------------------------------------
# batch protocol
# ---------------------------------------------------------------------------

def _agent(horizon, **kw):
    market = example1_market()
    return FpaAgent(FpaConfig(grid=market.grid, q=market.q, horizon=horizon, **kw),
                    oracle_cfg=COARSE)


def test_batch_protocol_is_enforced():
    agent = _agent(2000)
    assert agent.batch_rounds() == agent.tau0
    with pytest.raises(ProtocolError):
        agent.observe_batch(np.array([1]), np.array([2]), np.array([True]))
    with pytest.raises(ProtocolError):
        agent.propose_batch(np.ones(agent.tau0 + 1, dtype=int))  # past the warmup
    with pytest.raises(ProtocolError):
        agent.propose_batch(np.ones(0, dtype=int))
    with pytest.raises(ValueError):
        agent.propose_batch(np.array([1, 3]))
    groups = np.array([1, 2, 2])
    idx = agent.propose_batch(groups)
    assert idx.tolist() == [2, 2, 2]                # warmup posts the top price
    with pytest.raises(ProtocolError):
        agent.propose_price(1)                      # the batch still awaits observe
    with pytest.raises(ProtocolError):
        agent.observe_batch(groups, idx - 1, np.ones(3, dtype=bool))
    with pytest.raises(ProtocolError):
        agent.observe_batch(groups, idx, np.ones(2, dtype=bool))
    agent.observe_batch(groups, idx, np.array([True, False, True]))
    assert agent.t == 3 and agent.batch_rounds() == agent.tau0 - 3


def test_batch_draws_pick_bisect_rights_index(monkeypatch):
    """propose_batch and propose_price pick the same price for each draw,
    bisect_right's index in the policy's sampling table, and never a
    zero-weight one: not at a draw of 0.0 with a zero first weight, a draw
    exactly on a sum, or a draw above a last sum short of 1 by rounding."""
    short = 0.5 - 2.0**-52
    policy = PolicyPair.from_weights([0.0, 0.25, 0.75], [0.5, short, 0.0])
    agent = _agent(2000)
    agent._cums = cums = cumulative_weights(policy)
    assert cums == ([0.0, 0.25, 1.0], [0.5, 1.0, 1.0]) and 0.5 + short < 1.0 - 2.0**-53
    draws = [0.0, 0.25, 0.5, 0.5 + short, 1.0 - 2.0**-53, np.nextafter(0.25, 0.0),
             np.nextafter(0.25, 1.0), np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
             0.1, 0.9]
    draws, groups = np.array(draws * 2), np.repeat([1, 2], len(draws))
    monkeypatch.setattr(agent.rng, "block", lambda n: draws[:n])
    idx = agent.propose_batch(groups)
    want = [bisect_right(cums[g - 1], u) for g, u in zip(groups, draws)]
    assert idx.tolist() == want
    assert idx.dtype == np.intp
    assert all(policy.weights(g)[i] > 0.0 for g, i in zip(groups, want))
    agent._pending_batch = None
    for g, u, i in zip(groups, draws.tolist(), want):
        monkeypatch.setattr(agent.rng, "random", lambda: u)
        assert agent.propose_price(int(g)) == i
        agent._pending = None


def test_batches_and_single_rounds_interleave():
    """Any mix of the two protocols drives the same schedule and draws."""
    groups = np.random.default_rng(0).integers(1, 3, size=3000)
    accepts = np.random.default_rng(1).random(3000) < 0.6
    single, mixed = _agent(3000, seed=3), _agent(3000, seed=3)
    want = []
    for g, acc in zip(groups, accepts):
        want.append(single.propose_price(int(g)))
        single.observe(int(g), want[-1], bool(acc))
    t, rounds, blocks = 0, [], 0
    while t < 3000:
        if blocks % 2:
            n = min(mixed.batch_rounds(), 37)
            idx = mixed.propose_batch(groups[t:t + n])
            mixed.observe_batch(groups[t:t + n], idx, accepts[t:t + n])
            rounds += idx.tolist()
        else:
            n = 1
            idx = mixed.propose_price(int(groups[t]))
            mixed.observe(int(groups[t]), idx, bool(accepts[t]))
            rounds.append(idx)
        t, blocks = t + n, blocks + 1
    assert rounds == want
    assert mixed.meta() == single.meta()
    # the streams stand at the same value: the next 2,000 draws (more than
    # one 624-word twist) agree, however the two were drawn
    assert mixed.rng.block(2000).tolist() == [single.rng.random() for _ in range(2000)]
    np.testing.assert_array_equal(mixed._m, single._m)


# ---------------------------------------------------------------------------
# whole episodes: batched engine against the per-round loop
# ---------------------------------------------------------------------------

class _RoundByRound:
    """Forwards the per-round protocol only (and ``epoch`` and ``meta``, when
    the agent has them), so run_episode takes its reference loop."""

    _FORWARDED = ("propose_price", "observe", "current_policy", "epoch", "meta")

    def __init__(self, agent):
        self._agent = agent

    def __getattr__(self, name):
        if name not in self._FORWARDED:
            raise AttributeError(name)
        return getattr(self._agent, name)


def _outputs(tmp_path, name, agent, market, horizon, seed, record_every):
    trace = run_episode(agent, market, horizon, seed=seed, record_every=record_every,
                        oracle_revenue=R_STAR)
    write_trace_csv(trace, str(tmp_path / f"{name}.csv"))
    write_summary_json(trace.summary(), str(tmp_path / f"{name}.json"))
    return ((tmp_path / f"{name}.csv").read_bytes(),
            (tmp_path / f"{name}.json").read_bytes())


def _assert_same_bytes(tmp_path, horizon, record_every, agent_horizon=None, seed=0,
                       mode="scaled", market=None):
    market = market or example1_market()
    cfg = FpaConfig(grid=market.grid, q=market.q, horizon=agent_horizon or horizon,
                    seed=seed, constants_mode=mode)
    batched = FpaAgent(cfg, oracle_cfg=COARSE)
    reference = FpaAgent(cfg, oracle_cfg=COARSE)
    got = _outputs(tmp_path, "batched", batched, market, horizon, seed, record_every)
    want = _outputs(tmp_path, "rounds", _RoundByRound(reference), market, horizon, seed,
                    record_every)
    assert got[0] == want[0], "trace CSV differs"
    assert got[1] == want[1], "summary JSON differs"
    return batched


@pytest.mark.parametrize("record_every", [1, 7, 10**9])
@pytest.mark.parametrize("horizon", [40, 60, 10_000])
def test_engine_writes_the_loops_bytes(tmp_path, horizon, record_every):
    agent = _assert_same_bytes(tmp_path, horizon, record_every)
    tau0 = warmup_length(agent.cfg)
    if horizon == 40:
        assert horizon <= tau0 and agent.epoch == 0
    elif horizon == 60:
        assert tau0 < horizon and agent.epoch == 1 and not agent.ledger
    else:
        assert "epoch_truncated:e5" in agent.flags and len(agent.ledger) == 4


def test_engine_cuts_long_batches_into_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(fairprice.sim, "MAX_BLOCK_ROUNDS", 50)
    _assert_same_bytes(tmp_path, 5000, 7, seed=2)


# A two-price market, searched by the v_s walk like every market with d <= 2.
TWO_PRICES = MarketConfig(PriceGrid(np.array([0.5, 1.0])),
                          AcceptanceModel(np.array([0.8, 0.4]), np.array([0.9, 0.3])), q=0.4)


@pytest.mark.parametrize("market, horizon, seed", [
    (TWO_PRICES, 1500, 0),
    (lowerbound_family_market(1, 4, 3000), 1500, 0),
    # the fuzzed markets of seeds s = 0, 4, 5, 6 and 7 (d = 1 + s % 8), each
    # played with seed s
    *[(_random_market(np.random.default_rng(10000 + s), 1 + s % 8), 2000, s)
      for s in (0, 4, 5, 6, 7)],
], ids=["d2", "hard-d4", "d1", "d5", "d6", "d7", "d8"])
def test_engine_writes_the_loops_bytes_at_other_grid_sizes(tmp_path, monkeypatch, market,
                                                           horizon, seed):
    monkeypatch.setattr(fairprice.sim, "MAX_BLOCK_ROUNDS", 50)
    agent = _assert_same_bytes(tmp_path, horizon, 7, seed=seed, market=market)
    assert agent.epoch >= 3 and agent.ledger


def test_engine_matches_the_loop_in_theory_mode(tmp_path):
    agent = _assert_same_bytes(tmp_path, 3000, 7, seed=1, mode="theory")
    assert agent.epoch >= 1


def test_engine_matches_the_loop_on_a_shorter_run(tmp_path):
    agent = _assert_same_bytes(tmp_path, 3000, 1, agent_horizon=10_000, seed=4)
    assert agent.t == 3000 and agent.stage == "epochs" and agent.ledger


class _PerRoundFixedPolicy:
    """The per-round reference of a fixed-policy baseline: each round posts
    ``bisect_right`` of one draw of ``random.Random(stream_seed(seed,
    "agent"))`` in its group's sampling table."""

    def __init__(self, policy, seed):
        self._policy = policy
        self._rng = random.Random(stream_seed(seed, "agent"))
        self._cums = cumulative_weights(policy)

    def propose_price(self, group):
        return bisect_right(self._cums[group - 1], self._rng.random())

    def observe(self, group, price_index, accepted):
        pass

    def current_policy(self):
        return self._policy


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("eps", [0.0, 0.03])
@pytest.mark.parametrize("kind", ["best_fixed", "group_oracle", "fair_oracle"])
def test_fixed_policies_play_the_loops_bytes_in_blocks(tmp_path, monkeypatch, kind, eps,
                                                       record_every):
    """Blocks of 50 rounds (the engine's cap, lowered) against the per-round
    loop driving the reference, with the agent's draws checked too."""
    monkeypatch.setattr(fairprice.sim, "MAX_BLOCK_ROUNDS", 50)
    market = example_eps_market(eps)
    batched = baseline_agent(kind, market, seed=5)
    reference = _PerRoundFixedPolicy(batched.current_policy(), seed=5)
    got = _outputs(tmp_path, "batched", batched, market, 2013, 5, record_every)
    want = _outputs(tmp_path, "rounds", reference, market, 2013, 5, record_every)
    assert got[0] == want[0], "trace CSV differs"
    assert got[1] == want[1], "summary JSON differs"
    assert batched.propose_batch(np.array([1])).tolist() == [reference.propose_price(1)]


class _CheckedBlocks:
    """Forwards everything to the agent and checks each ``propose_batch``
    call against the engine's block cap, keeping the block sizes."""

    def __init__(self, agent):
        self._agent = agent
        self.sizes = []

    def propose_batch(self, groups):
        assert 0 < groups.size <= fairprice.sim.MAX_BLOCK_ROUNDS
        self.sizes.append(groups.size)
        return self._agent.propose_batch(groups)

    def __getattr__(self, name):
        return getattr(self._agent, name)


@pytest.mark.parametrize("kind", ["fpa", "fair_oracle", "ucb_fixed"])
def test_block_cap_cuts_blocks_not_bytes(tmp_path, monkeypatch, kind):
    """Every kept row at the old cap of 65,536 rounds and at the current one,
    in an episode of several blocks that the current cap cuts.  UCB2's runs
    outgrow the cap only after about 50,000 rounds."""
    cap, market = fairprice.sim.MAX_BLOCK_ROUNDS, example1_market()
    horizon = 100_000 if kind == "ucb_fixed" else 40_000

    def play(name, max_block):
        monkeypatch.setattr(fairprice.sim, "MAX_BLOCK_ROUNDS", max_block)
        agent = _CheckedBlocks(_agent(horizon, seed=1) if kind == "fpa"
                               else baseline_agent(kind, market, seed=1))
        return _outputs(tmp_path, name, agent, market, horizon, 1, 1), agent.sizes

    old, old_sizes = play("old", 65_536)
    new, new_sizes = play("new", cap)
    assert new[0] == old[0], "trace CSV differs"
    assert new[1] == old[1], "summary JSON differs"
    assert sum(new_sizes) == horizon and len(new_sizes) >= 3
    assert max(new_sizes) == cap < max(old_sizes)


@pytest.mark.parametrize("kind", ["fpa", *BASELINE_KINDS])
def test_every_agent_plays_in_blocks(monkeypatch, kind):
    """The learner and every baseline run whole episodes with the per-round
    loop switched off."""
    def per_round(*args):
        raise AssertionError("the per-round loop ran")

    monkeypatch.setattr(fairprice.sim, "_play_rounds", per_round)
    market = example1_market()
    agent = _agent(2000) if kind == "fpa" else baseline_agent(kind, market, seed=0)
    trace = run_episode(agent, market, 2000, seed=0, oracle_revenue=R_STAR)
    assert trace.records[-1].t == 2000


def test_engine_refuses_rounds_past_the_agents_horizon():
    market = example1_market()
    for wrap in (lambda a: a, _RoundByRound):
        agent = _agent(100)
        with pytest.raises(ProtocolError):
            run_episode(wrap(agent), market, 101, seed=0, oracle_revenue=R_STAR)


# ---------------------------------------------------------------------------
# a general-d episode
# ---------------------------------------------------------------------------

def test_d4_episode_is_procedurally_fair_in_every_round():
    market = MarketConfig(
        grid=PriceGrid(np.array([0.4, 0.6, 0.8, 1.0])),
        accept=AcceptanceModel(np.array([0.9, 0.7, 0.5, 0.3]),
                               np.array([0.8, 0.75, 0.4, 0.35])),
        q=0.4)
    agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q, horizon=3000, seed=0))
    trace = run_episode(agent, market, 3000, seed=0, record_every=1)
    assert len(trace.records) == 3000 and len(agent.ledger) >= 1
    assert max(r.inst_u for r in trace.records) <= 1e-9
    assert trace.max_inst_u <= 1e-9
