"""The batched episode engine: block draws on the shared random streams, the
agent's batch protocol, and byte-identical output against the per-round loop."""

import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fairprice.sim
from fairprice import (
    AcceptanceModel,
    FpaAgent,
    FpaConfig,
    MarketConfig,
    OracleConfig,
    PriceGrid,
    example1_market,
    run_episode,
    write_summary_json,
    write_trace_csv,
)
from fairprice.core import draw_block
from fairprice.fpa import ProtocolError, warmup_length

R_STAR = 74.0 / 145.0
# Coarse agent searches: the engine's output identity does not depend on the
# oracle's resolution, and these keep each episode well under a second.
COARSE = OracleConfig(grid_steps_vs=40, grid_steps_alpha=10, refine_iters=1)


# ---------------------------------------------------------------------------
# block draws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3, 2**62 + 5])
def test_block_draws_equal_single_draws(seed):
    sizes = [0, 1, 5, 311, 312, 313, 3, 50_000, 1, 2055]  # 312 doubles per MT twist
    reference = random.Random(seed)
    blocks = random.Random(seed)
    for k, n in enumerate(sizes):
        want = [reference.random() for _ in range(n)]
        got = draw_block(blocks, n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tolist() == want, f"block {k} of {n} draws"
        assert blocks.random() == reference.random()  # a single draw in between
    assert blocks.getstate() == reference.getstate()


def test_block_draws_keep_the_gaussian_cache():
    reference, blocks = random.Random(1), random.Random(1)
    reference.gauss(0.0, 1.0)
    blocks.gauss(0.0, 1.0)  # leaves a cached second normal behind
    [reference.random() for _ in range(3000)]
    draw_block(blocks, 3000)
    assert blocks.getstate() == reference.getstate()
    assert blocks.gauss(0.0, 1.0) == reference.gauss(0.0, 1.0)


def test_two_streams_alternate_through_the_shared_generator():
    """Every block re-states the one module generator from its own stream and
    copies the state back, so blocks of two streams can alternate."""
    sizes = [623, 624, 625, 0, 65_536]  # 624 words per MT19937 state
    references = [random.Random(7), random.Random(2**40 + 1)]
    streams = [random.Random(7), random.Random(2**40 + 1)]
    for n in sizes:
        for reference, stream in zip(references, streams):
            want = [reference.random() for _ in range(n)]
            assert draw_block(stream, n).tolist() == want
            assert stream.getstate() == reference.getstate()
            assert stream.random() == reference.random()


def test_block_draws_from_two_threads_stay_on_their_streams():
    """The lock keeps one block's state copy, draws and copy back together
    while another thread draws on its own stream."""
    sizes = [623, 624, 625, 0, 65_536] * 4

    def draws(seed):
        stream = random.Random(seed)
        return [draw_block(stream, n).tolist() for n in sizes], stream.getstate()

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(draws, [5, 6]))
    for seed, (blocks, state) in zip([5, 6], results):
        reference = random.Random(seed)
        assert blocks == [[reference.random() for _ in range(n)] for n in sizes]
        assert state == reference.getstate()


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
    assert mixed.rng.getstate() == single.rng.getstate()
    np.testing.assert_array_equal(mixed._m, single._m)


# ---------------------------------------------------------------------------
# whole episodes: batched engine against the per-round loop
# ---------------------------------------------------------------------------

class _RoundByRound:
    """Forwards the per-round protocol only, so run_episode takes its
    reference loop."""

    def __init__(self, agent):
        self._agent = agent

    def propose_price(self, group):
        return self._agent.propose_price(group)

    def observe(self, group, price_index, accepted):
        self._agent.observe(group, price_index, accepted)

    def current_policy(self):
        return self._agent.current_policy()

    @property
    def epoch(self):
        return self._agent.epoch

    def meta(self):
        return self._agent.meta()


def _outputs(tmp_path, name, agent, market, horizon, seed, record_every):
    trace = run_episode(agent, market, horizon, seed=seed, record_every=record_every,
                        oracle_revenue=R_STAR)
    write_trace_csv(trace, str(tmp_path / f"{name}.csv"))
    write_summary_json(trace.summary(), str(tmp_path / f"{name}.json"))
    return ((tmp_path / f"{name}.csv").read_bytes(),
            (tmp_path / f"{name}.json").read_bytes())


def _assert_same_bytes(tmp_path, horizon, record_every, agent_horizon=None, seed=0,
                       mode="scaled"):
    market = example1_market()
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


def test_engine_matches_the_loop_in_theory_mode(tmp_path):
    agent = _assert_same_bytes(tmp_path, 3000, 7, seed=1, mode="theory")
    assert agent.epoch >= 1


def test_engine_matches_the_loop_on_a_shorter_run(tmp_path):
    agent = _assert_same_bytes(tmp_path, 3000, 1, agent_horizon=10_000, seed=4)
    assert agent.t == 3000 and agent.stage == "epochs" and agent.ledger


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
    coarse = OracleConfig(grid_steps_vs=12, grid_steps_alpha=4, refine_iters=1)
    agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q, horizon=3000, seed=0),
                     oracle_cfg=coarse)
    trace = run_episode(agent, market, 3000, seed=0, record_every=1)
    assert len(trace.records) == 3000 and len(agent.ledger) >= 1
    assert max(r.inst_u for r in trace.records) <= 1e-9
    assert trace.max_inst_u <= 1e-9
