"""Spans recorded from outside the program, around its public calls.

Nothing in ``fairprice`` is patched or hooked.  The agent is wrapped in a
forwarding proxy that ``run_episode`` drives like any agent; the proxy times
each ``propose_price`` / ``current_policy`` / ``observe`` call.  The
benchmark wraps its own calls into ``sim``, ``oracle`` and ``linsolve`` the
same way.  Spans (name, start, end, parent) stay in memory and are written
once, when the run ends.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np

from fairprice import EliminationLedger, empirical_optimizer, max_probability_policy

PROPOSE = "fpa.propose_price"
CURRENT = "fpa.current_policy"
OBSERVE = "fpa.observe"
# An observe that closes an epoch (or the warmup): the elimination plus the
# next epoch's probes.
BOUNDARY = "fpa.boundary"
NO_PARENT = -1


class SpanRecorder:
    """Append-only span store in flat arrays (about 21 bytes per span)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name_id: int, start: int, end: int, parent: int) -> int:
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.name) - 1

    def open(self, name: str, parent: int = NO_PARENT) -> int:
        return self.add(self.name_id(name), perf_counter_ns(), -1, parent)

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class TracedAgent:
    """Forwarding proxy around an :class:`fairprice.FpaAgent`.

    ``run_episode`` reads ``ledger`` once, ``epoch`` every round and calls
    ``meta`` at the end; those are forwarded.  An observe after which the
    agent's epoch or stage changed is recorded as a boundary span.
    """

    def __init__(self, agent, spans: SpanRecorder, parent: int):
        self.agent = agent
        self.ledger = agent.ledger
        self.epoch = agent.epoch
        self._add = spans.add
        self._parent = parent
        self._ids = tuple(spans.name_id(n) for n in (PROPOSE, CURRENT, OBSERVE, BOUNDARY))

    def propose_price(self, group: int) -> int:
        t0 = perf_counter_ns()
        idx = self.agent.propose_price(group)
        self._add(self._ids[0], t0, perf_counter_ns(), self._parent)
        return idx

    def current_policy(self):
        t0 = perf_counter_ns()
        policy = self.agent.current_policy()
        self._add(self._ids[1], t0, perf_counter_ns(), self._parent)
        return policy

    def observe(self, group: int, price_index: int, accepted: bool) -> None:
        agent = self.agent
        epoch, stage = agent.epoch, agent.stage
        t0 = perf_counter_ns()
        agent.observe(group, price_index, accepted)
        t1 = perf_counter_ns()
        self.epoch = agent.epoch
        closed = self.epoch != epoch or agent.stage != stage
        self._add(self._ids[3 if closed else 2], t0, t1, self._parent)

    def meta(self) -> dict:
        return self.agent.meta()


class _NullAgent:
    """Does nothing, with the attributes the proxy reads."""

    epoch = 0
    stage = "epochs"
    ledger = ()

    def propose_price(self, group):
        return 0

    def current_policy(self):
        return None

    def observe(self, group, price_index, accepted):
        pass


def proxy_cost_per_round(rounds: int = 200_000) -> float:
    """Nanoseconds per round that the proxy adds outside its own spans.

    Drives the proxy around an agent that does nothing: the loop's wall time
    minus the time inside the spans minus an empty loop's time is the cost
    of the wrappers themselves, which a traced episode charges to
    ``run_episode``'s self time and which is subtracted from it.
    """
    spans = SpanRecorder()
    proxy = TracedAgent(_NullAgent(), spans, NO_PARENT)
    propose, current, observe = proxy.propose_price, proxy.current_policy, proxy.observe
    t0 = perf_counter_ns()
    for _ in range(rounds):
        pass
    empty = perf_counter_ns() - t0
    t0 = perf_counter_ns()
    for _ in range(rounds):
        propose(1)
        current()
        observe(1, 0, False)
    wall = perf_counter_ns() - t0
    a = spans.arrays()
    inside = int((a["end"] - a["start"]).sum())
    return (wall - inside - empty) / rounds


def replay_oracle(agent, spans: SpanRecorder, parent: int) -> list[dict]:
    """Time the oracle's searches against every prefix of the finished
    agent's ledger, through the public functions and ``agent.oracle_cfg``.

    For a prefix of L snapshots this makes the calls the agent made with L
    snapshots: the epoch-closing ``empirical_optimizer`` on snapshot L+1's
    estimates (incumbent chained from the previous call), and one
    ``max_probability_policy`` probe per group at the top price, on snapshot
    L's estimates and band.  Returns one record per call, keyed by ledger
    length.
    """
    entries = list(agent.ledger)
    grid, q, cfg = agent.ledger.grid, agent.ledger.q, agent.oracle_cfg
    top = grid.d - 1
    eo_id = spans.name_id("oracle.empirical_optimizer")
    mp_id = spans.name_id("oracle.max_probability_policy")
    calls: list[dict] = []
    incumbent = None
    for length in range(len(entries) + 1):
        ledger = EliminationLedger(grid, q, entries[:length])
        if length >= 1:
            latest = entries[length - 1]
            for group in (1, 2):
                t0 = perf_counter_ns()
                max_probability_policy(top, group, latest.fhat, ledger, latest.delta_s, cfg=cfg)
                t1 = perf_counter_ns()
                spans.add(mp_id, t0, t1, parent)
                calls.append({"call": "max_probability_policy", "ledger_len": length,
                              "group": group, "ms": (t1 - t0) / 1e6})
        if length < len(entries):
            nxt = entries[length]
            t0 = perf_counter_ns()
            result = empirical_optimizer(nxt.fhat, ledger, nxt.delta_s,
                                         incumbent=incumbent, cfg=cfg)
            t1 = perf_counter_ns()
            spans.add(eo_id, t0, t1, parent)
            incumbent = result.policy
            calls.append({"call": "empirical_optimizer", "ledger_len": length,
                          "ms": (t1 - t0) / 1e6})
    return calls


def layer_totals(spans: SpanRecorder) -> dict:
    """Durations (ns) of the finished spans by name, the parent-minus-children
    self time of the ``sim.run_episode`` spans, and the propose time of the
    rounds whose observe closed an epoch."""
    a = spans.arrays()
    ids = {name: i for i, name in enumerate(spans.names)}
    # A span left open (end = -1) belongs to a call that raised: leave it out.
    done = a["end"] >= 0
    dur = np.where(done, a["end"] - a["start"], 0)
    by_name = {name: dur[done & (a["name"] == i)] for name, i in ids.items()}
    child_ns = np.zeros(dur.size, dtype=np.int64)
    has_parent = a["parent"] >= 0
    np.add.at(child_ns, a["parent"][has_parent], dur[has_parent])
    episodes = done & (a["name"] == ids.get("sim.run_episode", -1))
    # The propose of a round sits two spans before its observe
    # (propose, current_policy, observe).
    boundary_pos = np.flatnonzero(a["name"] == ids.get(BOUNDARY, -1))
    return {"by_name": by_name,
            "episode_self_ns": int((dur - child_ns)[episodes].sum()),
            "boundary_propose_ns": int(dur[boundary_pos - 2].sum())}
