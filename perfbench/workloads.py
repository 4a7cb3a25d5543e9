"""Inputs of the three benchmark workloads, made from a workload seed.

A workload is a list of operations that one *round* performs: episodes (an
agent learning for T rounds, outputs written as ``fairprice run`` writes
them) and known-market solves.  Every round of a run repeats the same list,
so the share of failed operations is the same in every run.  The same seed
gives the same inputs; the program only ever sees the generated markets.

Each workload also carries a small fixed probe of the operation kind it does
not exercise itself (known-market solves on the learning workloads, one
episode on ``solve-markets``), so every end-to-end metric is present on every
workload.  Probes are repeated within the round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Optional, Union

import numpy as np

from checks import EXACT_TOL, SCAN_TOL
from fairprice import (
    AcceptanceModel,
    MarketConfig,
    OracleConfig,
    PriceGrid,
    example1_market,
    example_eps_market,
    lowerbound_family_market,
)

WORKLOADS = ("example1-sweep", "hardfamily-d4", "solve-markets")
SIZES = ("full", "quick")

# Relaxation bands of every solve; 0 is the doubly fair problem.
DELTAS = {"full": (0.0, 0.01, 0.03), "quick": (0.0, 0.03)}
EPS_FAMILY = {"full": (0.0, 1e-4, 1e-3, 1e-2), "quick": (0.0, 1e-2)}
# Random markets per round of solve-markets, by grid size, and their bands.
# Solve cost varies from market to market, so many markets at two bands
# each keep the per-run median steadier than few markets at more bands.
RANDOM_MARKETS = {"full": {3: 12, 4: 16}, "quick": {3: 1, 4: 1}}
RANDOM_DELTAS = (0.0, 0.03)
SWEEP_HORIZONS = {"full": (10_000, 100_000, 1_000_000), "quick": (1_000, 3_000, 10_000)}
# example1-sweep runs its sweep twice, so its rate covers 40 s of episodes.
SWEEP_REPEATS = {"full": 2, "quick": 1}
HARD_HORIZON = {"full": 3_000, "quick": 300}
# hardfamily-d4 runs its episode twice: one episode is a single 20-second
# stretch of the general-d oracle, and its rate read whatever phase the
# machine was in (ten runs spread 30%; with two, still 25%, which is why
# BENCHMARK.json leaves this workload out).
HARD_EPISODE_REPEATS = {"full": 2, "quick": 1}
# Probes: the solves the learning workloads run, and the episode solve-markets
# runs.  The machine's speed swings by up to 1.5x in phases of ten seconds to
# a minute, so a probe metric is only steady when its samples are many and
# spread over the whole run: each probe is repeated within the round, and
# _interleave spreads the repeats out.
PROBE_SOLVE_REPEATS = {"full": 4, "quick": 2}
PROBE_HORIZON = {"full": 100_000, "quick": 1_000}
PROBE_EPISODE_REPEATS = {"full": 4, "quick": 2}
# Horizon of the fixed hard-family markets used by solves (d = 4 and d = 5).
HARD_SOLVE_HORIZON = 100_000
# Quick size runs the agent's searches on a coarse scan so the smoke test
# stays short; full size uses the agent's own default resolution.
QUICK_AGENT_ORACLE = OracleConfig(grid_steps_vs=12, grid_steps_alpha=4, refine_iters=1)


@dataclass(frozen=True)
class Episode:
    name: str
    market: MarketConfig
    horizon: int
    seed: int
    agent_oracle: Optional[OracleConfig]
    # (exact optimum, tolerance) the market's set-up solve is checked against.
    reference: Optional[tuple[float, float]] = None

    @property
    def record_every(self) -> int:
        # The thinning ``fairprice run`` picks by default.
        return max(1, self.horizon // 10_000)


@dataclass(frozen=True)
class Solve:
    name: str
    market: MarketConfig
    delta: float
    # (exact doubly fair optimum, tolerance), checked at delta = 0.
    reference: Optional[tuple[float, float]] = None
    # Known to fail today (grid too large for the LP); see README.
    expect_failure: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    size: str
    # One round's operations in the order they run.
    ops: tuple[Union[Episode, Solve], ...]
    # Market the fixed-anchor LP timings are built from (a d = 4 market).
    lp_market: MarketConfig

    @property
    def episodes(self) -> list[Episode]:
        return [op for op in self.ops if isinstance(op, Episode)]

    @property
    def setup_markets(self) -> list[MarketConfig]:
        """Distinct episode markets; set-up solves each once, as
        ``fairprice run`` solves its market once before its cells."""
        seen, out = set(), []
        for ep in self.episodes:
            if id(ep.market) not in seen:
                seen.add(id(ep.market))
                out.append(ep.market)
        return out


def _interleave(episodes: list[Episode], solves: list[Solve]) -> tuple:
    """One round's order: solves alternate between grid sizes and are spread
    evenly before, between and after the episodes.  The machine's speed
    drifts in phases of seconds to a minute, so samples spread over the whole
    run give steadier medians than samples taken in one stretch of it."""
    by_d: dict[int, list[Solve]] = {}
    for job in solves:
        by_d.setdefault(job.market.grid.d, []).append(job)
    mixed = [job for group in zip_longest(*by_d.values()) for job in group if job is not None]
    n = len(episodes) + 1
    ops: list = mixed[:len(mixed) // n]
    for k, ep in enumerate(episodes, start=1):
        ops.append(ep)
        ops += mixed[k * len(mixed) // n:(k + 1) * len(mixed) // n]
    return tuple(ops)


def eps_family_optimum(eps: float) -> tuple[float, float]:
    """37(1-2e)(4+5e) / (10(29-10e)) in exact rationals, held to the
    accuracy the default scan promises."""
    e = Fraction(str(eps))
    return float(37 * (1 - 2 * e) * (4 + 5 * e) / (10 * (29 - 10 * e))), SCAN_TOL


def hard_family_optimum(d: int, horizon: int) -> tuple[float, float]:
    """(1 + sqrt(d/T)) / 12, earned by the bumped fixed price, so exact."""
    return (1.0 + (d / horizon) ** 0.5) / 12.0, EXACT_TOL


def random_market(rng: np.random.Generator, d: int) -> MarketConfig:
    """Prices spread over [0.2, 1] at least 0.04 apart, nonincreasing
    acceptance curves in [0.15, 0.95], arrival share q in [0.2, 0.8]."""
    while True:
        v = np.sort(rng.uniform(0.2, 1.0, d))
        if np.min(np.diff(v)) >= 0.04:
            break
    f1 = np.sort(rng.uniform(0.15, 0.95, d))[::-1].copy()
    f2 = np.sort(rng.uniform(0.15, 0.95, d))[::-1].copy()
    q = float(rng.uniform(0.2, 0.8))
    return MarketConfig(PriceGrid(v), AcceptanceModel(f1, f2), q)


# A d = 5 market that does not depend on the seed: the hard family's shape
# with distinct group curves.
_FIXED_D5 = MarketConfig(
    PriceGrid(np.array([0.3, 0.45, 0.6, 0.8, 1.0])),
    AcceptanceModel(np.array([0.9, 0.75, 0.6, 0.4, 0.25]),
                    np.array([0.85, 0.8, 0.5, 0.45, 0.2])),
    0.4,
)


def _solves(name: str, market: MarketConfig, size: str,
            reference: Optional[tuple[float, float]] = None,
            expect_failure: bool = False, deltas=None) -> list[Solve]:
    return [Solve(f"{name}/delta={delta:g}", market, delta, reference, expect_failure)
            for delta in deltas or DELTAS[size]]


def _probe_solves(size: str) -> list[Solve]:
    """Known-market solves run by the learning workloads: the example market
    (eps = 0, d = 3) and the hard family at T = 3000 (d = 4) at every band,
    the whole set repeated ``PROBE_SOLVE_REPEATS`` times."""
    t = HARD_HORIZON["full"]
    solves = (_solves("probe/eps=0", example_eps_market(0.0), size, eps_family_optimum(0.0))
              + _solves(f"probe/hard-d4-T{t}", lowerbound_family_market(1, 4, t), size,
                        hard_family_optimum(4, t)))
    return solves * PROBE_SOLVE_REPEATS[size]


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The operations of one round of workload ``name`` for ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    agent_oracle = QUICK_AGENT_ORACLE if size == "quick" else None
    hard_d4 = lowerbound_family_market(1, 4, HARD_HORIZON["full"])  # LP timings

    if name == "example1-sweep":
        market = example1_market()
        episodes = [Episode(f"example1/T{t}", market, t, seed, agent_oracle,
                            eps_family_optimum(0.0))
                    for t in SWEEP_HORIZONS[size]] * SWEEP_REPEATS[size]
        return Workload(name, seed, size, _interleave(episodes, _probe_solves(size)), hard_d4)

    if name == "hardfamily-d4":
        t = HARD_HORIZON[size]
        market = lowerbound_family_market(1, 4, t)
        episode = Episode(f"hard-d4/T{t}", market, t, seed, agent_oracle,
                          hard_family_optimum(4, t))
        return Workload(name, seed, size,
                        _interleave([episode] * HARD_EPISODE_REPEATS[size], _probe_solves(size)),
                        market)

    rng = np.random.default_rng(seed)
    solves: list[Solve] = []
    for eps in EPS_FAMILY[size]:
        solves += _solves(f"eps={eps:g}", example_eps_market(eps), size,
                          eps_family_optimum(eps))
    randoms = {d: [random_market(rng, d) for _ in range(n)]
               for d, n in RANDOM_MARKETS[size].items()}
    for d, markets in randoms.items():
        for k, market in enumerate(markets):
            solves += _solves(f"random-d{d}-{k}", market, size, deltas=RANDOM_DELTAS)
    t = HARD_SOLVE_HORIZON
    solves += _solves(f"hard-d4-T{t}", lowerbound_family_market(2, 4, t), size,
                      hard_family_optimum(4, t))
    solves += _solves(f"hard-d5-T{t}", lowerbound_family_market(2, 5, t), size,
                      expect_failure=True)
    if size == "full":
        solves += _solves("fixed-d5", _FIXED_D5, size, expect_failure=True)
    probe = Episode(f"probe/example1/T{PROBE_HORIZON[size]}", example1_market(),
                    PROBE_HORIZON[size], seed, agent_oracle, eps_family_optimum(0.0))
    return Workload(name, seed, size,
                    _interleave([probe] * PROBE_EPISODE_REPEATS[size], solves), randoms[4][0])
