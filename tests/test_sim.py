"""Episode runner, built-in markets, hard-instance family, and baselines."""

import collections.abc
import csv
import fractions
import gc
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import fairprice.sim
from fairprice import (
    BASELINE_KINDS,
    FpaAgent,
    FpaConfig,
    RoundRecord,
    RunTrace,
    baseline_agent,
    best_fixed_price,
    example1_market,
    example_eps_market,
    expected_revenue,
    fixed_price_policy,
    lowerbound_family_market,
    run_episode,
    substantive_gap,
    write_summary_json,
    write_trace_csv,
)

R_STAR = 74.0 / 145.0


# ---------------------------------------------------------------------------
# built-in markets
# ---------------------------------------------------------------------------

def test_example_market_shape(example_market):
    m = example_market
    np.testing.assert_array_equal(m.grid.prices, [0.625, 0.7, 1.0])
    np.testing.assert_array_equal(m.accept.group1, [0.6, 0.5, 0.5])
    np.testing.assert_array_equal(m.accept.group2, [0.8, 0.8, 0.5])
    assert m.q == 0.3


def test_eps_market_perturbs_three_entries():
    m = example_eps_market(0.1)
    np.testing.assert_allclose(m.accept.group1, [0.6, 0.4, 0.4])
    np.testing.assert_allclose(m.accept.group2, [0.8, 0.8, 0.4])
    with pytest.raises(ValueError):
        example_eps_market(0.46)
    with pytest.raises(ValueError):
        example_eps_market(-0.01)


# ---------------------------------------------------------------------------
# the hard-instance family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,horizon", [(3, 10_000), (4, 100_000), (5, 1_000_000)])
def test_hard_family_profile_is_flat_with_one_exact_bump(d, horizon):
    eps = math.sqrt(d / horizon)
    base = lowerbound_family_market(0, d, horizon)
    # the flat base: every price earns exactly 1/12 per arrival
    profile = base.grid.prices * base.accept.group1 * 12.0
    np.testing.assert_array_equal(profile, np.ones(d))
    assert base.q == 0.5
    np.testing.assert_array_equal(base.accept.group1, base.accept.group2)
    for j in range(1, d + 1):
        bumped = lowerbound_family_market(j, d, horizon)
        prof = bumped.grid.prices * bumped.accept.group1 * 12.0
        assert prof[j - 1] == pytest.approx(1.0 + eps, abs=1e-12)
        others = np.delete(prof, j - 1)
        np.testing.assert_allclose(others, 1.0, atol=1e-12)


def test_hard_family_bump_keeps_the_curve_monotone():
    m = lowerbound_family_market(2, 4, 100_000)
    f = m.accept.group1
    assert np.all(np.diff(f) <= 1e-15)
    # the bump lifts price 2's acceptance exactly to price 1's: a tie
    assert f[1] == pytest.approx(f[0], abs=1e-15)


def test_hard_family_rejects_overgrown_ladders():
    with pytest.raises(ValueError):
        lowerbound_family_market(1, 9, 100)   # (1+eps)^d escapes the range
    with pytest.raises(ValueError):
        lowerbound_family_market(5, 4, 10_000)  # j out of 0..d
    with pytest.raises(ValueError):
        lowerbound_family_market(1, 0, 100)
    with pytest.raises(ValueError):
        lowerbound_family_market(1, 3, 0)


# ---------------------------------------------------------------------------
# the episode runner
# ---------------------------------------------------------------------------

def test_run_episode_argument_checks(example_market):
    agent = baseline_agent("best_fixed", example_market)
    with pytest.raises(ValueError):
        run_episode(agent, example_market, 0, seed=0)
    with pytest.raises(ValueError):
        run_episode(agent, example_market, 100, seed=0, record_every=0)


def test_records_are_thinned_but_totals_exact(example_market):
    agent = baseline_agent("best_fixed", example_market)
    trace = run_episode(agent, example_market, 1000, seed=4, record_every=300,
                        oracle_revenue=R_STAR)
    assert [r.t for r in trace.records] == [1, 300, 600, 900, 1000]
    last = trace.records[-1]
    assert last.cum_regret == trace.cum_regret
    assert last.cum_reward == trace.cum_reward


def test_cumulative_columns_are_prefix_sums(example_market):
    market = example_eps_market(0.01)
    agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q, horizon=800, seed=2))
    trace = run_episode(agent, market, 800, seed=2)
    cr = cs = cu = cw = 0.0
    for r in trace.records:
        cr += r.inst_regret
        cs += r.inst_s
        cu += r.inst_u
        cw += r.reward
        assert r.cum_regret == pytest.approx(cr, abs=1e-12)
        assert r.cum_s == pytest.approx(cs, abs=1e-12)
        assert r.cum_u == pytest.approx(cu, abs=1e-12)
        assert r.cum_reward == pytest.approx(cw, abs=1e-12)
    assert trace.cum_regret == pytest.approx(cr, abs=1e-12)


def test_environment_draws_do_not_depend_on_the_agent(example_market):
    """Group arrivals and acceptance latents come from their own streams, so
    swapping the agent replays the identical environment."""
    t1 = run_episode(baseline_agent("best_fixed", example_market),
                     example_market, 400, seed=9, oracle_revenue=R_STAR)
    t2 = run_episode(baseline_agent("group_oracle", example_market),
                     example_market, 400, seed=9, oracle_revenue=R_STAR)
    assert [r.group for r in t1.records] == [r.group for r in t2.records]
    # same price posted means same acceptance draw
    same_price = [(a, b) for a, b in zip(t1.records, t2.records)
                  if a.price_index == b.price_index]
    assert same_price and all(a.accepted == b.accepted for a, b in same_price)


def test_rerun_is_bit_identical(example_market):
    market = example_market
    runs = []
    for _ in range(2):
        agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q, horizon=600, seed=11))
        runs.append(run_episode(agent, market, 600, seed=11, oracle_revenue=R_STAR))
    a, b = runs
    assert a.cum_regret == b.cum_regret and a.cum_reward == b.cum_reward
    assert [r.price_index for r in a.records] == [r.price_index for r in b.records]


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_best_fixed_posts_the_revenue_argmax(example_market):
    trace = run_episode(baseline_agent("best_fixed", example_market),
                        example_market, 500, seed=1, oracle_revenue=R_STAR)
    assert all(r.price_index == 2 for r in trace.records)
    assert all(r.inst_u == 0.0 and r.inst_s == 0.0 for r in trace.records)
    # regret rate of the best fixed price against the fair optimum: 3/290
    assert trace.cum_regret == pytest.approx(500 * 3.0 / 290.0, abs=1e-9)


def test_group_oracle_splits_the_groups(example_market):
    agent = baseline_agent("group_oracle", example_market)
    # group 1's own best price is 1.0 (index 2), group 2's is 0.7
    assert agent.propose_batch(np.array([1, 2])).tolist() == [2, 1]
    trace = run_episode(agent, example_market, 300, seed=5, oracle_revenue=R_STAR)
    assert trace.records[0].inst_u == pytest.approx(0.3, abs=1e-15)
    assert trace.cum_regret < 0.0            # ignores fairness, beats the oracle


def test_fair_oracle_plays_the_given_policy(example_market, example_closed_form):
    policy = example_closed_form.policy
    agent = baseline_agent("fair_oracle", example_market, seed=3, policy=policy)
    trace = run_episode(agent, example_market, 400, seed=3, oracle_revenue=R_STAR)
    assert trace.cum_regret == pytest.approx(0.0, abs=1e-9)
    assert trace.cum_u <= 1e-9
    assert trace.cum_s <= 1e-9
    counts = np.bincount(agent.propose_batch(np.ones(2000, dtype=int)), minlength=3)
    assert counts[1] == 0                    # group 1 never posts 0.7
    assert counts[0] > counts[2] > 0         # roughly 20/29 vs 9/29


def test_ucb_baseline_is_group_blind(example_market):
    trace = run_episode(baseline_agent("ucb_fixed", example_market),
                        example_market, 800, seed=7, oracle_revenue=R_STAR)
    assert trace.cum_u == 0.0
    assert trace.cum_s <= 1e-12  # v*f/f leaves 1-ulp residue per round
    # it should settle near the best fixed price's regret rate, not above it
    assert trace.cum_regret <= 800 * 3.0 / 290.0 + 40.0


@pytest.mark.parametrize("kind", ["best_fixed", "group_oracle", "fair_oracle", "ucb_fixed"])
@pytest.mark.parametrize("group", [0, 3])
def test_fixed_policies_reject_a_group_outside_1_and_2(example_market, kind, group):
    """No baseline reads another group's table for a bad group, and a
    rejected call draws nothing from the agent's stream."""
    agent = baseline_agent(kind, example_market, seed=4)
    with pytest.raises(ValueError, match="group must be 1 or 2"):
        agent.propose_batch(np.array([group]))
    with pytest.raises(ValueError, match="group must be 1 or 2"):
        agent.propose_batch(np.array([1, group, 2]))
    fresh = baseline_agent(kind, example_market, seed=4)
    groups = np.tile([1, 2], 20)[:agent.batch_rounds()]
    assert agent.propose_batch(groups).tolist() == fresh.propose_batch(groups).tolist()


def test_baseline_kinds_are_exhaustive(example_market):
    for kind in BASELINE_KINDS:
        agent = baseline_agent(kind, example_market)
        assert agent.current_policy().d == 3
    with pytest.raises(ValueError):
        baseline_agent("greedy", example_market)


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def test_trace_csv_round_trips_floats_exactly(tmp_path, example_market):
    agent = baseline_agent("fair_oracle", example_market)
    trace = run_episode(agent, example_market, 50, seed=0, oracle_revenue=R_STAR)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(trace.records)
    for row, rec in zip(rows, trace.records):
        assert int(row["t"]) == rec.t
        assert float(row["cum_regret"]) == rec.cum_regret  # 17 digits: exact
        assert float(row["reward"]) == rec.reward
        assert int(row["accepted"]) == int(rec.accepted)


def test_summary_json_is_sorted_and_newline_terminated(tmp_path, example_market):
    agent = baseline_agent("best_fixed", example_market)
    trace = run_episode(agent, example_market, 20, seed=0, oracle_revenue=R_STAR)
    path = tmp_path / "summary.json"
    write_summary_json(trace.summary(), str(path))
    text = path.read_text()
    assert text.endswith("\n")
    loaded = json.loads(text)
    assert loaded["horizon"] == 20
    assert list(loaded) == sorted(loaded)
    assert loaded["avg_reward"] == pytest.approx(trace.cum_reward / 20.0)


def test_round_record_is_a_read_only_record_by_name(example_market):
    agent = FpaAgent(FpaConfig(grid=example_market.grid, q=example_market.q,
                               horizon=40, seed=0))
    batched = run_episode(agent, example_market, 40, seed=0, oracle_revenue=R_STAR)
    rounds = run_episode(baseline_agent("best_fixed", example_market), example_market,
                         30, seed=0, record_every=10, oracle_revenue=R_STAR)
    for trace in (batched, rounds):
        assert isinstance(trace.records, collections.abc.Sequence)
        assert all(isinstance(r, RoundRecord) for r in trace.records)
    last = rounds.records[-1]
    assert (last.t, last.price_index, last.epoch) == (30, 2, 0)
    assert last.cum_reward == rounds.cum_reward
    with pytest.raises(AttributeError):
        last.t = 31
    assert batched.records[-1].t == 40


def test_kept_rows_are_columns_not_objects(example_market, example_closed_form):
    """A per-round trace holds its rows in arrays: the garbage collector
    tracks a handful of new objects, not one per row."""
    def play(horizon):
        agent = baseline_agent("fair_oracle", example_market, seed=0,
                               policy=example_closed_form.policy)
        return run_episode(agent, example_market, horizon, seed=0, oracle_revenue=R_STAR)

    play(100)  # imports and set-up that a first episode triggers
    before = len(gc.get_objects())
    trace = play(50_000)
    assert len(gc.get_objects()) - before < 1_000
    assert len(trace.records) == 50_000 and trace.records[-1].t == 50_000


def _append_row(trace: RunTrace, record: RoundRecord) -> None:
    """Add one record to the trace as a block of its own, as the per-round
    loop does."""
    (t, group, price_index, accepted, reward, inst_regret, inst_s, inst_u,
     cum_regret, cum_s, cum_u, cum_reward, epoch) = record
    row = (t, group, price_index, accepted, reward, cum_regret, cum_s, cum_u, cum_reward)
    trace._append_block([[value] for value in row], inst_regret, inst_s, inst_u, epoch)


_FIELD_TYPES = (int, int, int, bool) + (float,) * 8 + (int,)
_ints = st.integers(-2**63, 2**63 - 1)
_floats = st.floats(allow_nan=False)
_row = st.tuples(_ints, _ints, _ints, st.booleans(), *[_floats] * 5)
_shared = st.tuples(_floats, _floats, _floats, _ints)


@given(st.lists(st.one_of(st.tuples(st.just("row"), _row, _shared),
                          st.tuples(st.just("block"), st.lists(_row, max_size=6), _shared)),
                max_size=8),
       st.integers(-40, 40), st.integers(-40, 40), st.integers(-3, 3).filter(bool))
def test_records_view_reads_the_rows_as_appended(adds, start, stop, step):
    """The view against a list built row by row, from rows added one at a
    time and in blocks that share their instant metrics and epoch."""
    trace, want = RunTrace(horizon=1, seed=0, oracle_revenue=0.5), []
    for kind, rows, (inst_regret, inst_s, inst_u, epoch) in adds:
        block = [RoundRecord(*row[:5], inst_regret, inst_s, inst_u, *row[5:], epoch)
                 for row in (rows if kind == "block" else [rows])]
        if kind == "row":  # a block of one row, as the per-round loop adds it
            _append_row(trace, block[0])
        else:  # a row holds the row columns in their order; a block may be empty
            columns = [np.array(column) for column in zip(*rows)] or [np.empty(0)] * 9
            trace._append_block(columns, inst_regret, inst_s, inst_u, epoch)
        want += block
    records = trace.records
    assert len(records) == len(want) and bool(records) == bool(want)
    assert list(records) == want
    for record in records:
        assert tuple(map(type, record)) == _FIELD_TYPES
    for k in range(-len(want), len(want)):
        assert records[k] == want[k]
    for k in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            records[k]
    assert records[start:stop:step] == want[start:stop:step]
    assert records[::-1] == want[::-1]


# Rows of each block: blocks straddle rows 2,048 and 4,096, where the
# records view moves from one slice of rows to the next.
_STRADDLING_BLOCKS = (1, 2039, 20, 0, 2030, 1, 20, 900, 1)


def test_records_view_reads_across_slices_of_rows():
    """Iteration, every index and slices that cross rows 2,048 and 4,096
    against a list built row by row as the rows were appended."""
    rng = np.random.default_rng(29)
    trace, want = RunTrace(horizon=1, seed=0, oracle_revenue=0.5), []
    for k, n in enumerate(_STRADDLING_BLOCKS):
        shared = (float(rng.normal()), float(rng.random()), float(rng.random()), 3 * k - 5)
        rows = [len(want) + 1 + np.arange(n), rng.integers(1, 3, n), rng.integers(0, 6, n),
                rng.random(n) < 0.5, *rng.normal(size=(5, n))]
        trace._append_block(rows, *shared)
        for j in range(n):
            t, group, price_index, accepted, reward, *totals = (r[j].item() for r in rows)
            want.append(RoundRecord(t, group, price_index, accepted, reward, *shared[:3],
                                    *totals, shared[3]))
    records = trace.records
    assert len(want) == sum(_STRADDLING_BLOCKS) > 4096 and list(records) == want
    assert all(tuple(map(type, record)) == _FIELD_TYPES for record in records)
    assert [records[k] for k in range(-len(want), len(want))] == want + want
    for rows in (slice(2040, 2060), slice(4090, 4110, 3), slice(None, None, -1),
                 slice(4100, 2040, -7), slice(2047, 2049), slice(-3000, -1000, 5),
                 slice(None, None, 1000), slice(4096, 2048), slice(9, None, -3)):
        assert records[rows] == want[rows]


def test_csv_writes_the_header_then_every_field_once_in_its_order(tmp_path):
    """A one-row trace whose 13 fields are 13 distinct texts: the line holds
    each once, in the header's order."""
    trace = RunTrace(horizon=5, seed=0, oracle_revenue=0.5)
    _append_row(trace, RoundRecord(5, 2, 3, True, 0.25, 0.5, 0.75, 1.5, 2.5, 3.5, 4.5, 6.5, 7))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    header, line, end = path.read_bytes().split(b"\r\n")
    assert header.decode().split(",") == list(RoundRecord._fields)
    assert line == b"5,2,3,1,0.25,0.5,0.75,1.5,2.5,3.5,4.5,6.5,7"
    assert end == b""


def test_append_block_refuses_values_of_another_kind():
    """A float for an int column, a string or None for a float column: the
    block is refused whole and the trace keeps what it had."""
    trace = RunTrace(horizon=3, seed=0, oracle_revenue=0.5)
    good = [[1], [1], [0], [True], [0.5], [0.1], [0.0], [0.0], [0.5]]
    trace._append_block(good, 0.1, 0.0, 0.0, 0)
    for column, value in ((0, 1.5), (4, "0.1"), (5, None)):
        rows = [list(values) for values in good]
        rows[column] = [value]
        with pytest.raises(TypeError):
            trace._append_block(rows, 0.1, 0.0, 0.0, 0)
    with pytest.raises(TypeError):
        trace._append_block(good, "0.1", 0.0, 0.0, 0)
    assert len(trace.records) == 1 and len(trace._blocks[0]) == 1
    trace._append_block([[np.int64(2)], [np.int8(2)], [np.uint8(1)], [np.bool_(False)],
                         [0], [np.float32(0.5)], [1], [0.0], [0.5]], 0.1, 0.0, 0.0, 0)
    assert trace.records[-1].t == 2 and trace.records[-1].reward == 0.0


def _csv_writer_bytes(trace: RunTrace) -> bytes:
    """The trace CSV as csv.writer wrote it before the one-pass writer: the
    reference that writer must match byte for byte."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(("t", "group", "price_index", "accepted", "reward", "inst_regret",
                     "inst_s", "inst_u", "cum_regret", "cum_s", "cum_u", "cum_reward",
                     "epoch"))
    for r in trace.records:
        writer.writerow([
            r.t, r.group, r.price_index, int(r.accepted), f"{r.reward:.17g}",
            f"{r.inst_regret:.17g}", f"{r.inst_s:.17g}", f"{r.inst_u:.17g}",
            f"{r.cum_regret:.17g}", f"{r.cum_s:.17g}", f"{r.cum_u:.17g}",
            f"{r.cum_reward:.17g}", r.epoch,
        ])
    return buf.getvalue().encode()


EDGE_FLOATS = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1 + 0.2, 1.0 / 3.0,
               2.0 / 3.0 * 1e-7, 12345678901234567.0, np.float64(0.7), np.float64(-1e-310)]


def _edge_trace() -> RunTrace:
    """Hand-built records: every float column cycles through EDGE_FLOATS, and
    the integer columns hold the numpy scalars the per-round path stores."""
    trace = RunTrace(horizon=len(EDGE_FLOATS), seed=0, oracle_revenue=0.5)
    for k in range(len(EDGE_FLOATS)):
        floats = [EDGE_FLOATS[(k + j) % len(EDGE_FLOATS)] for j in range(8)]
        _append_row(trace, RoundRecord(
            np.int64(k + 1) if k % 2 else k + 1, 1 + k % 2, np.int64(k % 3),
            np.bool_(k % 3 == 0) if k % 2 else k % 3 == 0, np.float64(floats[0]),
            *floats[1:], 10**12 + k))
    return trace


def _repeated_outcome_trace() -> RunTrace:
    """Rows whose outcomes (fields 2-8) compare equal but are written
    differently (-0.0 and 0.0, NaNs), or differ in type only (bool, numpy
    scalars, int for float), each outcome on several rows."""
    nan = math.nan
    outcomes = [(1, 0, True, 0.5, 0.0, 0.0, 0.0), (1, 0, True, 0.5, -0.0, 0.0, 0.0),
                (1, np.int64(0), np.bool_(True), np.float64(0.5), 0.0, -0.0, 0.0),
                (2, 2, False, 0.0, nan, float("nan"), 0.0), (2, 2, 0, 0, nan, nan, 0),
                (2, 2, False, -0.0, np.float64(nan), 1e-300, 0.0)]
    trace = RunTrace(horizon=3 * len(outcomes), seed=0, oracle_revenue=0.5)
    for k in range(trace.horizon):
        _append_row(trace, RoundRecord(k + 1, *outcomes[k % len(outcomes)],
                                 0.1 * k, 0.0, -0.0, 0.5 * k, k // 4))
    return trace


def _reward_bits_trace() -> RunTrace:
    """One block of rows that share group, price index and accepted, and
    the block's instant metrics, but differ in the reward's bits."""
    trace = RunTrace(horizon=6, seed=0, oracle_revenue=0.5)
    rewards = [0.5, 0.5000000000000001, -0.0, 0.0, 0.5, 1e-300]
    n = len(rewards)
    trace._append_block([np.arange(1, n + 1), [1] * n, [0] * n, [True] * n, rewards,
                         *[np.linspace(0.1, 0.6, n)] * 4], 0.25, 0.0, 0.0, 3)
    return trace


@pytest.mark.parametrize("source", ["edge", "repeated", "reward_bits", "empty", "ucb_fixed",
                                    "fpa", "fair_oracle", "group_oracle"])
def test_trace_csv_bytes_match_the_csv_writer(tmp_path, example_market, example_closed_form,
                                              source):
    if source == "edge":
        trace = _edge_trace()
    elif source == "repeated":
        trace = _repeated_outcome_trace()
    elif source == "reward_bits":
        trace = _reward_bits_trace()
    elif source == "empty":
        trace = RunTrace(horizon=1, seed=0, oracle_revenue=0.5)
    elif source == "fair_oracle":  # every round kept: past every slice and block end
        agent = baseline_agent("fair_oracle", example_market, policy=example_closed_form.policy)
        trace = run_episode(agent, example_market, 20_000, seed=3, oracle_revenue=R_STAR)
    elif source == "group_oracle":  # negative instant and cumulative regret
        trace = run_episode(baseline_agent("group_oracle", example_market), example_market,
                            5_000, seed=4, record_every=3, oracle_revenue=R_STAR)
        assert trace.records[-1].inst_regret < 0 and trace.cum_regret < 0
    elif source == "ucb_fixed":
        trace = run_episode(baseline_agent("ucb_fixed", example_market), example_market,
                            300, seed=1, record_every=7, oracle_revenue=R_STAR)
    else:
        agent = FpaAgent(FpaConfig(grid=example_market.grid, q=example_market.q,
                                   horizon=800, seed=2))
        trace = run_episode(agent, example_market, 800, seed=2, oracle_revenue=R_STAR)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    data = path.read_bytes()
    assert data == _csv_writer_bytes(trace)
    assert data.count(b"\r\n") == len(trace.records) + 1
    assert b"\n" not in data.replace(b"\r\n", b"")


# ---------------------------------------------------------------------------
# the trace writer's %.17g
# ---------------------------------------------------------------------------

def _g17(values) -> list[bytes]:
    """The trace writer's text of each float."""
    text = fairprice.sim._g17_field(np.asarray(values, dtype=np.float64))
    return [row.tobytes().replace(b"\0", b"") for row in text]


def _cpython(values) -> list[bytes]:
    return [b"%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def _with_neighbours(values, steps: int) -> list[float]:
    """Each value and the ``steps`` doubles on either side of it."""
    out = []
    for value in values:
        below = above = value
        out.append(value)
        for _ in range(steps):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            out += [below, above]
    return out


_DOUBLE_BITS = [0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x0010000000000000,  # subnormals
                0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,  # DBL_MAX, inf
                0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001,  # NaNs
                0x0000000000000000, 0x8000000000000000]  # +-0


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example(_DOUBLE_BITS)
def test_g17_matches_cpython_on_any_bit_pattern(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _g17(values) == _cpython(values)


@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_g17_matches_cpython_on_any_float(values):
    assert _g17(values) == _cpython(values)


def test_g17_next_to_powers_of_ten():
    """Next to 10**k, log10 can put a value one decade off; the fast path
    still certifies every one in its exponent range."""
    values = _with_neighbours([float(f"1e{k}") for k in range(-30, 31)], steps=2)
    assert _g17(values) == _cpython(values)
    assert _g17(np.negative(values)) == _cpython(np.negative(values))
    # log10 can put a neighbour of an end's power of ten outside the range
    low, high = fairprice.sim._G17_EXPONENTS
    in_range = [v for v in values if 10.0 ** (low + 1) <= v < 10.0 ** high]
    assert fairprice.sim._g17_decimal(np.array(in_range))[2].all()


def test_g17_at_the_switch_points_of_g():
    """%.17g writes scientific notation below 1e-4 and from 1e17 on."""
    assert _g17([1e-5, 1e-4, 1e16, 1e17]) == [b"1.0000000000000001e-05", b"0.0001",
                                              b"10000000000000000", b"1e+17"]
    values = _with_neighbours([1e-5, 1e-4, 1e16, 1e17], steps=3)
    assert _g17(values) == _cpython(values)


def test_g17_rounds_exact_ties_to_even():
    """Values whose 18th significant digit is a final 5."""
    values = [1234567890123456.75, 1125899906842624.75, 1125899906842624.25,
              1125899906842625.25, -1234567890123456.75, 3 * 2.0 ** -24]
    assert _g17(values) == [b"1234567890123456.8", b"1125899906842624.8", b"1125899906842624.2",
                            b"1125899906842625.2", b"-1234567890123456.8",
                            b"1.7881393432617188e-07"]


def _near_tie(past: int) -> float:
    """A double in [1e-7, 1e-6), which _g17_decimal scales by two powers of
    ten, 10**22 and 10, whose scaled value lies 2**-past above a rounding
    tie: x = m / 2**(past + 23) makes x * 10**23 = m * 5**23 / 2**past."""
    five = 5 ** 23
    m = (2 ** (past - 1) + 1) * pow(five, -1, 2 ** past) % 2 ** past
    while m * five < 10 ** 16 * 2 ** past:
        m += 2 ** past
    assert m < 2 ** 53
    return math.ldexp(m, -(past + 23))


def test_g17_leaves_values_inside_the_tie_margin_to_cpython():
    """Scaled inexactly, a value 2**-45 past a tie lies inside the tie
    margin (2**-40): the fast path does not certify it, and CPython writes
    it.  With no margin the fast path would take it, on an estimate whose
    error bound (2**-47) is too close to its distance from the tie."""
    x = _near_tie(45)
    scaled = fractions.Fraction(x) * 10 ** 23
    assert scaled - math.floor(scaled) == fractions.Fraction(1, 2) + fractions.Fraction(1, 2 ** 45)
    assert 2.0 ** -45 < fairprice.sim._G17_TIE_MARGIN
    _, _, certified = fairprice.sim._g17_decimal(np.array([x, _near_tie(20)]))
    assert certified.tolist() == [False, True]
    assert _g17([x]) == _cpython([x])


def test_g17_certifies_every_nonzero_running_total_of_an_episode(example_market):
    """The fast path, not CPython, writes the running totals of a learning
    episode (T = 1e5, seed 0, the CLI's thinning); only exact zeros, which
    are left to CPython, are not certified."""
    agent = FpaAgent(FpaConfig(grid=example_market.grid, q=example_market.q,
                               horizon=100_000, seed=0))
    trace = run_episode(agent, example_market, 100_000, seed=0, record_every=10,
                        oracle_revenue=R_STAR)
    totals = np.array([r[8:12] for r in trace.records]).ravel()
    _, _, certified = fairprice.sim._g17_decimal(totals)
    assert np.count_nonzero(totals) > 0.95 * totals.size
    np.testing.assert_array_equal(certified, totals != 0)


# SHA-256 of (trace CSV, summary JSON) of per-round-path baseline episodes on
# the example market: T = 2000, seed 0, the closed-form fair optimum as the
# fair_oracle policy.  Recorded at commit 2bf9cea, before the trace writer
# dropped csv.writer.
PER_ROUND_DIGESTS = {
    ("fair_oracle", 1): ("4386ebea9a06796dfeeea2b285d865ebb7954e0f73a8a83fc024cdf8d33793f3",
                         "cc335e55cae6b802fec9362601c931d54c3fcac1e1bc892fb0f7aefab0da73b6"),
    ("fair_oracle", 7): ("f5ad3a3ea32fd602fd80adfb411faee22acc5d7bc9a5e6092713f13b705cde89",
                         "cc335e55cae6b802fec9362601c931d54c3fcac1e1bc892fb0f7aefab0da73b6"),
}
# The same for the two baselines that drew nothing while each was its own
# class, recorded at commit 7ae7576 on the per-round path.  Every fixed
# baseline now samples its policy on the block engine; fair_oracle's
# digests above hold it to the per-round path's bytes.
FIXED_PRICE_DIGESTS = {
    ("best_fixed", 1): ("eb2afd52ea2d357c4a39fe2a9273713c726ce960940aac38099bbf5eb010bb56",
                        "6d62a2c601374fa110def8e9e9d0e1a082dc9e850fe99d301b97dfbf64020a42"),
    ("best_fixed", 7): ("bdcf51aea25723cda4f938a40321ca343bee811ea701b799c432d936e46558ed",
                        "6d62a2c601374fa110def8e9e9d0e1a082dc9e850fe99d301b97dfbf64020a42"),
    ("group_oracle", 1): ("82bc7d89bafe47223b32fde9026688336eca0ebaa7088bc58d337b9dbf4278bb",
                          "d69b62f15b2f63055a03c08d411ac42f4505abdeb1dc6414d08aa60ae882070a"),
    ("group_oracle", 7): ("745e8b00e7d270f5fb5371fba802664491ce026ca9a1693bd5ef04d25b8b1129",
                          "d69b62f15b2f63055a03c08d411ac42f4505abdeb1dc6414d08aa60ae882070a"),
}
# The same for ucb_fixed, recorded when UCB2 on the block engine replaced
# UCB1 on the per-round path, whose bytes no longer apply.
UCB2_DIGESTS = {
    ("ucb_fixed", 1): ("39d5293b7e55e370489f1021bb8dee303bb0ae9fb7e99d01cc6971e860b4552e",
                       "d0636fdfd4c9d63ca1103739780a8ac383b5ddd7ec6bab763aab559c385ffa4c"),
    ("ucb_fixed", 7): ("2e67b7940ae2cb500abce3139e3b43c8e39393d12f3f5fcca616a55a4bb25842",
                       "d0636fdfd4c9d63ca1103739780a8ac383b5ddd7ec6bab763aab559c385ffa4c"),
}
GOLDEN_EPISODES = {**PER_ROUND_DIGESTS, **UCB2_DIGESTS, **FIXED_PRICE_DIGESTS}


@pytest.mark.parametrize("kind,record_every", sorted(GOLDEN_EPISODES))
def test_per_round_episode_bytes_match_the_golden_digests(tmp_path, example_market,
                                                          example_closed_form, kind,
                                                          record_every):
    agent = baseline_agent(kind, example_market, seed=0, policy=example_closed_form.policy)
    trace = run_episode(agent, example_market, 2000, seed=0, record_every=record_every,
                        oracle_revenue=R_STAR)
    write_trace_csv(trace, str(tmp_path / "trace.csv"))
    write_summary_json(trace.summary(), str(tmp_path / "summary.json"))
    want = GOLDEN_EPISODES[kind, record_every]
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == want[0], \
        "trace CSV differs"
    assert hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest() == want[1], \
        "summary JSON differs"
