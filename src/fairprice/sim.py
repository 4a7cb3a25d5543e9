"""Round-level market simulator, built-in example markets (with the worked
example's closed forms), and baselines.

An episode draws the arriving buyer's group with probability q, asks the
agent for a price, resolves acceptance against the market's curves, and feeds
the outcome back.  Instantaneous metrics are expectation-based: each round is
charged the expected regret / fairness gaps of the policy the agent played,
not the realized coin flips, so cumulative curves are smooth at all horizons.

Randomness is split into named streams (group draws, valuation latents, agent
sampling) derived from one seed, so two runs with equal seeds are replayable
bit for bit and paired comparisons across markets share their draws.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    AcceptanceModel,
    GroupDistribution,
    MarketConfig,
    PolicyPair,
    PriceGrid,
    best_fixed_price,
    draw_block,
    expected_revenue,
    fixed_price_policy,
    procedural_gap,
    stream_seed,
    substantive_gap,
)
from .linsolve import solve_linear_system
from .oracle import solve_fair_optimal

BASELINE_KINDS = ("best_fixed", "ucb_fixed", "fair_oracle", "group_oracle")
# Longest block of rounds the batched engine plays at once; bounds its arrays
# (about a dozen arrays of this length).
MAX_BLOCK_ROUNDS = 65536


# ---------------------------------------------------------------------------
# built-in markets
# ---------------------------------------------------------------------------

def example1_market() -> MarketConfig:
    """The running three-price example: prices (5/8, 7/10, 1), q = 0.3."""
    return example_eps_market(0.0)


def example_eps_market(eps: float) -> MarketConfig:
    """The example family: group-1 acceptance (0.6, 0.5-eps, 0.5-eps) and
    group-2 acceptance (0.8, 0.8, 0.5-eps) on prices (5/8, 7/10, 1)."""
    if not 0.0 <= eps <= 0.45:
        raise ValueError("eps must lie in [0, 0.45] to keep acceptance above the floor")
    return MarketConfig(
        grid=PriceGrid(np.array([0.625, 0.7, 1.0])),
        accept=AcceptanceModel(np.array([0.6, 0.5 - eps, 0.5 - eps]),
                               np.array([0.8, 0.8, 0.5 - eps])),
        q=0.3,
    )


def lowerbound_family_market(j: int, d: int, horizon: int) -> MarketConfig:
    """Hard-instance family: d geometrically spaced prices whose revenue
    profile is exactly flat, except instance j (1-based; j = 0 is the flat
    base) bumps price j's acceptance so it wins by eps = sqrt(d / horizon).

    The bumped value (1+eps)/a_j equals 1/a_{j-1} exactly, so the curve stays
    nonincreasing with a tie rather than a rounding violation.  Both groups
    share the curve and q = 1/2, so fairness is free and only the pricing
    problem is hard.

    Raises:
        ValueError: when the geometric ladder escapes the unit price range
            (needs (1 + eps)^d < 3, i.e. d small next to the horizon).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0 <= j <= d:
        raise ValueError(f"j must lie in 0..{d}")
    eps = math.sqrt(d / horizon)
    ladder = [4.0 * (1.0 + eps) ** i for i in range(d + 1)]
    if ladder[d] >= 12.0:
        raise ValueError(
            f"price ladder tops out at {ladder[d]:.3f} >= 12: the construction "
            f"needs (1+eps)^d < 3 with eps = sqrt(d/horizon) = {eps:.4f}; "
            "use fewer prices or a longer horizon")
    prices = np.array(ladder[1:]) / 12.0
    accept = np.array([1.0 / a for a in ladder[1:]])
    if j >= 1:
        accept[j - 1] = 1.0 / ladder[j - 1]  # the exact bump identity
    return MarketConfig(
        grid=PriceGrid(prices),
        accept=AcceptanceModel(accept.copy(), accept.copy()),
        q=0.5,
    )


# ---------------------------------------------------------------------------
# the worked three-price example: closed forms
# ---------------------------------------------------------------------------

# Largest eps of the example family that the closed forms below cover.
CLOSED_FORM_EPS_MAX = 0.05


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps <= CLOSED_FORM_EPS_MAX:
        raise ValueError(f"eps must lie in [0, {CLOSED_FORM_EPS_MAX}]")


@dataclass(frozen=True)
class ClosedFormOptimum:
    policy: PolicyPair
    revenue: float
    v_s: float
    alpha: float


def closed_form_example_optimum(eps: float = 0.0) -> ClosedFormOptimum:
    """Exact fair optimum of the built-in example family.

    The family has prices (5/8, 7/10, 1), group-1 acceptance
    (0.6, 0.5-eps, 0.5-eps), group-2 acceptance (0.8, 0.8, 0.5-eps) and
    q = 0.3.  All four returned quantities are closed-form rational
    expressions in eps.
    """
    _check_eps(eps)
    den = 29.0 - 10.0 * eps
    pi1 = np.array([(20.0 - 40.0 * eps) / den, 0.0, (9.0 + 30.0 * eps) / den])
    pi2 = np.array([0.0, (25.0 - 50.0 * eps) / den, (4.0 + 40.0 * eps) / den])
    revenue = 37.0 * (1.0 - 2.0 * eps) * (4.0 + 5.0 * eps) / (10.0 * den)
    v_s = (8.0 + 10.0 * eps) / (11.0 + 10.0 * eps)
    alpha = 3.0 * (1.0 + 10.0 * eps) * (3.0 + 10.0 * eps) / (2.0 * den * (11.0 + 10.0 * eps))
    return ClosedFormOptimum(PolicyPair.from_weights(pi1, pi2), revenue, v_s, alpha)


def example_revenue_surface(eps: float, v_s: float, alpha: float) -> float:
    """Expected revenue of the example family's fair policy at (v_s, alpha).

    Valid strictly between the poles 5/8 < v_s < 1 (where the group systems
    are nonsingular) and for alpha >= 0.
    """
    _check_eps(eps)
    if not 0.625 < v_s < 1.0:
        raise ValueError("v_s must lie strictly between 5/8 and 1")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    linear = (71.0 - 30.0 * eps) / 100.0 * v_s
    coef = ((100.0 - 60.0 * eps) - (142.0 - 60.0 * eps) * v_s) \
        / (25.0 * (8.0 * v_s - 5.0) * (1.0 - v_s))
    return linear + coef * v_s * alpha


@dataclass(frozen=True)
class AlphaBounds:
    """Feasible premium range at one v_s of the example family.  b1/b4 are the
    nonnegativity ceilings of groups 1 and 2; b2/b3 the floors."""

    lower: float
    upper: float
    feasible: bool
    b1: float
    b2: float
    b3: float
    b4: float


def alpha_bounds(eps: float, v_s: float) -> AlphaBounds:
    """Closed-form alpha feasibility interval of the example family at v_s."""
    _check_eps(eps)
    if not 0.625 < v_s < 1.0:
        raise ValueError("v_s must lie strictly between 5/8 and 1")
    e1, e3 = 1.0 + 10.0 * eps, 3.0 + 10.0 * eps
    b1 = e1 * (8.0 * v_s - 5.0) * (1.0 - v_s) / (e1 * 8.0 * v_s + 10.0 * (1.0 - 8.0 * eps))
    b2 = e1 * (8.0 * v_s - 5.0) * (7.0 - 10.0 * v_s) / (10.0 * (e1 * 8.0 * v_s - 2.0 * (1.0 + 28.0 * eps)))
    b3 = e3 * (10.0 * v_s - 7.0) * (1.0 - v_s) / (e3 * 10.0 * v_s - (6.0 + 100.0 * eps))
    b4 = e3 * (8.0 * v_s - 5.0) * (1.0 - v_s) / (e3 * 8.0 * v_s - 80.0 * eps)
    lower = max(0.0, b2, b3)
    upper = min(b1, b4)
    return AlphaBounds(lower, upper, lower <= upper + 1e-15, b1, b2, b3, b4)


def eps_family_policy(eps: float, v_s: float, alpha: float) -> PolicyPair:
    """Reconstruct the example family's strict-parity policy at (v_s, alpha)
    by solving each group's 3x3 system [sum; proposed mean; pinned accepted
    mean] = (1, v_s + alpha, 0) exactly.

    Raises:
        SingularMatrixError: at degenerate anchors (e.g. v_s at a pole).
        ValueError: if the reconstructed weights are not a distribution.
    """
    _check_eps(eps)
    v, rhs = np.array([0.625, 0.7, 1.0]), np.array([1.0, v_s + alpha, 0.0])
    w1, w2 = (solve_linear_system(np.vstack([np.ones(3), v, (v - v_s) * f]), rhs)
              for f in (np.array([0.6, 0.5 - eps, 0.5 - eps]), np.array([0.8, 0.8, 0.5 - eps])))
    return PolicyPair(GroupDistribution.renormalized(w1), GroupDistribution.renormalized(w2))


# ---------------------------------------------------------------------------
# episode runner
# ---------------------------------------------------------------------------

class RoundRecord(NamedTuple):
    """One kept round of an episode, in the trace CSV's column order.  Fields
    read by name; equality, iteration and ``len`` are a tuple's."""

    t: int
    group: int
    price_index: int
    accepted: bool
    reward: float
    inst_regret: float
    inst_s: float
    inst_u: float
    cum_regret: float
    cum_s: float
    cum_u: float
    cum_reward: float
    epoch: int


@dataclass
class RunTrace:
    """Outcome of one episode: thinned per-round records plus exact totals."""

    horizon: int
    seed: int
    oracle_revenue: float
    records: list[RoundRecord] = field(default_factory=list)
    cum_regret: float = 0.0
    cum_s: float = 0.0
    cum_u: float = 0.0
    cum_reward: float = 0.0
    max_inst_u: float = 0.0
    agent_meta: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "horizon": self.horizon,
            "seed": self.seed,
            "oracle_revenue": self.oracle_revenue,
            "cum_regret": self.cum_regret,
            "cum_s": self.cum_s,
            "cum_u": self.cum_u,
            "cum_reward": self.cum_reward,
            "avg_reward": self.cum_reward / self.horizon if self.horizon else 0.0,
            "max_inst_u": self.max_inst_u,
            "agent": self.agent_meta,
        }


_CSV_COLUMNS = RoundRecord._fields
# One row per record, as csv.writer wrote it: %d of a bool is 0/1, %.17g is
# the format of f"{x:.17g}", and \r\n is csv.writer's line terminator.
_CSV_ROW = "%d,%d,%d,%d," + ",".join(["%.17g"] * 8) + ",%d\r\n"


def write_trace_csv(trace: RunTrace, path: str) -> None:
    """Write the thinned records with floats at full 17-significant-digit
    precision, so identical runs produce byte-identical files."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\r\n")
        fh.writelines(_CSV_ROW % r for r in trace.records)


def write_summary_json(summary: dict, path: str) -> None:
    """Write the summary as strict JSON: a NaN or an infinity raises
    ValueError before the file is opened."""
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def run_episode(agent, market: MarketConfig, horizon: int, seed: int,
                record_every: int = 1,
                oracle_revenue: Optional[float] = None) -> RunTrace:
    """Run one agent against one market for ``horizon`` rounds.

    An agent with the batch protocol (``batch_rounds``, ``propose_batch``,
    ``observe_batch``; :class:`~fairprice.fpa.FpaAgent`) is played a block of
    rounds at a time with numpy; any other agent one round at a time.  Both
    paths draw every random stream in the same order and add the running
    totals in the same order, so they produce the same bytes.

    Args:
        agent: anything with propose_price(group) -> index,
            observe(group, index, accepted), and current_policy() -> PolicyPair.
        oracle_revenue: per-round revenue of the fair optimum; computed here
            when omitted (pass it in when sweeping many seeds).
        record_every: keep every n-th round record (totals stay exact).

    Returns:
        RunTrace with records, exact cumulative metrics, and agent metadata.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if oracle_revenue is None:
        oracle_revenue = solve_fair_optimal(market).revenue
    trace = RunTrace(horizon=horizon, seed=seed, oracle_revenue=oracle_revenue)
    streams = (random.Random(stream_seed(seed, "env-groups")),
               random.Random(stream_seed(seed, "env-values")))
    if callable(getattr(agent, "propose_batch", None)):
        _play_blocks(agent, market, trace, record_every, streams)
    else:
        _play_rounds(agent, market, trace, record_every, streams)
    meta = getattr(agent, "meta", None)
    trace.agent_meta = meta() if callable(meta) else {}
    return trace


def _policy_costs(market: MarketConfig, oracle_revenue: float) -> Callable:
    """Per-round (regret, S, U) of a policy, cached by object identity (the
    cache keeps a reference to each policy, so an id is never reused)."""
    cache: dict[int, tuple] = {}

    def costs(policy: PolicyPair) -> tuple[float, float, float]:
        hit = cache.get(id(policy))
        if hit is None:
            hit = (policy,
                   oracle_revenue - expected_revenue(market, policy),
                   substantive_gap(market, policy),
                   procedural_gap(market.grid, policy))
            cache[id(policy)] = hit
        return hit[1:]

    return costs


def _play_rounds(agent, market: MarketConfig, trace: RunTrace, record_every: int,
                 streams: tuple) -> None:
    """The reference loop: one Python round at a time, for any agent."""
    horizon = trace.horizon
    v = market.grid.prices
    curves = (market.accept.group1, market.accept.group2)
    q = market.q
    group_rng, value_rng = streams
    costs = _policy_costs(market, trace.oracle_revenue)

    for t in range(1, horizon + 1):
        group = 1 if group_rng.random() < q else 2
        idx = agent.propose_price(group)
        inst_regret, inst_s, inst_u = costs(agent.current_policy())
        epoch = getattr(agent, "epoch", 0)

        accepted = value_rng.random() < curves[group - 1][idx]
        reward = float(v[idx]) if accepted else 0.0
        agent.observe(group, idx, accepted)

        trace.cum_regret += inst_regret
        trace.cum_s += inst_s
        trace.cum_u += inst_u
        trace.cum_reward += reward
        if inst_u > trace.max_inst_u:
            trace.max_inst_u = inst_u
        if t == 1 or t % record_every == 0 or t == horizon:
            trace.records.append(RoundRecord(
                t, group, idx, accepted, reward, inst_regret, inst_s, inst_u,
                trace.cum_regret, trace.cum_s, trace.cum_u, trace.cum_reward, epoch))


def _running(start: float, steps, n: int) -> np.ndarray:
    """``start`` followed by its running totals over ``n`` steps (an array,
    or one value repeated), added one at a time left to right as
    ``total += step`` does, so the totals are bit-identical to that loop's."""
    out = np.empty(n + 1)
    out[0] = start
    out[1:] = steps
    return np.add.accumulate(out)


def _play_blocks(agent, market: MarketConfig, trace: RunTrace, record_every: int,
                 streams: tuple) -> None:
    """Blocks of rounds under one fixed policy, as whole arrays: each block
    is at most the agent's ``batch_rounds()`` and ``MAX_BLOCK_ROUNDS``."""
    horizon = trace.horizon
    v = market.grid.prices
    curves = np.stack([market.accept.group1, market.accept.group2])
    group_rng, value_rng = streams
    costs = _policy_costs(market, trace.oracle_revenue)

    t = 0
    while t < horizon:
        n = min(agent.batch_rounds(), horizon - t, MAX_BLOCK_ROUNDS)
        groups = np.where(draw_block(group_rng, n) < market.q, 1, 2)
        idx = agent.propose_batch(groups)
        inst_regret, inst_s, inst_u = costs(agent.current_policy())
        epoch = getattr(agent, "epoch", 0)

        accepted = draw_block(value_rng, n) < curves[groups - 1, idx]
        reward = np.where(accepted, v[idx], 0.0)
        agent.observe_batch(groups, idx, accepted)

        cums = [_running(total, step, n) for total, step in (
            (trace.cum_regret, inst_regret), (trace.cum_s, inst_s),
            (trace.cum_u, inst_u), (trace.cum_reward, reward))]
        trace.cum_regret, trace.cum_s, trace.cum_u, trace.cum_reward = (
            float(c[-1]) for c in cums)
        if inst_u > trace.max_inst_u:
            trace.max_inst_u = inst_u
        # kept rounds: the multiples of record_every, round 1 and the horizon
        keep = np.arange(record_every - 1 - t % record_every, n, record_every)
        ends = [0] * (t == 0) + [n - 1] * (t + n == horizon)
        if ends:
            keep = np.union1d(keep, ends)
        if keep.size:
            columns = [(keep + t + 1).tolist()]
            columns += [a[keep].tolist() for a in (groups, idx, accepted, reward)]
            columns += [[x] * keep.size for x in (inst_regret, inst_s, inst_u)]
            columns += [c[keep + 1].tolist() for c in cums]
            columns.append([epoch] * keep.size)
            trace.records.extend(map(RoundRecord._make, zip(*columns)))
        t += n


# ---------------------------------------------------------------------------
# reference baselines
# ---------------------------------------------------------------------------

class BestFixedAgent:
    """Posts the revenue-best single price (market known in advance)."""

    def __init__(self, market: MarketConfig):
        idx, _ = best_fixed_price(market)
        self._policy = fixed_price_policy(market.d, idx)
        self._idx = idx

    def propose_price(self, group: int) -> int:
        return self._idx

    def observe(self, group: int, price_index: int, accepted: bool) -> None:
        pass

    def current_policy(self) -> PolicyPair:
        return self._policy


class UcbFixedAgent:
    """Group-blind upper-confidence-bound learner over the fixed prices.

    Classic average-plus-root-log bonus on the realized revenue of each price
    (rewards live in [0, 1] because the grid does).  Posts the same price to
    either group, so both fairness gaps are identically zero.
    """

    def __init__(self, grid: PriceGrid):
        self.d = grid.d
        self.prices = grid.prices
        self.counts = np.zeros(self.d, dtype=np.int64)
        self.sums = np.zeros(self.d)
        self.t = 0
        self._policies = [fixed_price_policy(self.d, i) for i in range(self.d)]
        self._arm = 0

    def propose_price(self, group: int) -> int:
        self.t += 1
        if self.t <= self.d:
            self._arm = self.t - 1
        else:
            bonus = np.sqrt(2.0 * math.log(self.t) / self.counts)
            self._arm = int(np.argmax(self.sums / self.counts + bonus))
        return self._arm

    def observe(self, group: int, price_index: int, accepted: bool) -> None:
        self.counts[price_index] += 1
        if accepted:
            self.sums[price_index] += float(self.prices[price_index])

    def current_policy(self) -> PolicyPair:
        return self._policies[self._arm]


class FairOracleAgent:
    """Samples a fixed given policy (typically the fair optimum)."""

    def __init__(self, policy: PolicyPair, seed: int = 0):
        self._policy = policy
        self._rng = random.Random(stream_seed(seed, "agent"))
        self._cums = [np.cumsum(policy.weights(g)) for g in (1, 2)]

    def propose_price(self, group: int) -> int:
        u = self._rng.random()
        return min(int(np.searchsorted(self._cums[group - 1], u, side="right")),
                   self._policy.d - 1)

    def observe(self, group: int, price_index: int, accepted: bool) -> None:
        pass

    def current_policy(self) -> PolicyPair:
        return self._policy


class GroupOracleAgent:
    """Groupwise unconstrained optimum: each group gets its own best price.

    Ignores fairness entirely; its procedural gap is whatever the two argmax
    prices differ by.  Useful as the revenue ceiling in comparisons.
    """

    def __init__(self, market: MarketConfig):
        v = market.grid.prices
        i1 = int(np.argmax(v * market.accept.group1))
        i2 = int(np.argmax(v * market.accept.group2))
        w = np.zeros((2, market.d))
        w[0, i1] = 1.0
        w[1, i2] = 1.0
        self._policy = PolicyPair.from_weights(w[0], w[1])
        self._arms = (i1, i2)

    def propose_price(self, group: int) -> int:
        return self._arms[group - 1]

    def observe(self, group: int, price_index: int, accepted: bool) -> None:
        pass

    def current_policy(self) -> PolicyPair:
        return self._policy


def baseline_agent(kind: str, market: MarketConfig, seed: int = 0,
                   policy: Optional[PolicyPair] = None):
    """Build one of the named reference agents for this market.

    ``fair_oracle`` plays ``policy`` when given, otherwise it solves for the
    fair optimum first.
    """
    if kind == "best_fixed":
        return BestFixedAgent(market)
    if kind == "ucb_fixed":
        return UcbFixedAgent(market.grid)
    if kind == "fair_oracle":
        if policy is None:
            policy = solve_fair_optimal(market).policy
        return FairOracleAgent(policy, seed=seed)
    if kind == "group_oracle":
        return GroupOracleAgent(market)
    raise ValueError(f"unknown baseline kind {kind!r}; expected one of {BASELINE_KINDS}")
