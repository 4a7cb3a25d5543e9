"""Market model and fairness metrics for two-group posted-price selling.

A seller posts one price per round from a fixed grid to an arriving buyer who
belongs to one of two groups.  A (randomized) pricing policy is a pair of
distributions over the grid, one per group.  This module holds the value
types (grid, acceptance curves, policies, market) and the three quantities
everything else is built on:

* expected revenue  ``R = q * v'F1 pi1 + (1-q) * v'F2 pi2``
* procedural gap    ``U = | v'pi1 - v'pi2 |``  (difference of proposed means)
* substantive gap   ``S = | m1 - m2 |``        (difference of accepted means)

where ``m_e = v'F_e pi_e / 1'F_e pi_e`` is the mean price paid by buyers of
group ``e`` who actually accept.

It also holds :class:`RandomStream`, the seeded random streams an episode
draws from, one value at a time or in blocks, with the same values.

The tolerance chain (:mod:`fairprice.linsolve`, then :mod:`fairprice.oracle`)
ends here: :meth:`GroupDistribution.renormalized` turns a search's weights
into a policy.  It clips to zero the weights down to ``-FEAS_TOL``, as
negative as :func:`~fairprice.linsolve.lp_maximize` may return, and
rescales, so a result moves by rounding only.  ``ROUNDING_TOL`` is the room
every check here gives an order-one value for rounding: a weight sum off
one, a curve rising, a curve under its floor.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .linsolve import FEAS_TOL, ROUNDING_TOL

# Default floor on acceptance probabilities (keeps accepted means well defined).
DEFAULT_F_MIN = 0.05


class ZeroAcceptanceError(ValueError):
    """A group's acceptance mass is zero, so its accepted mean is undefined."""


def stream_seed(seed: int, label: str) -> int:
    """Derive a reproducible 63-bit child seed for one named random stream.

    Uses sha256 of ``"{seed}:{label}"`` so the derivation is stable across
    platforms and interpreter sessions (unlike the builtin ``hash``), and so
    distinct streams (environment draws vs. agent sampling) never overlap.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class RandomStream:
    """A named random stream of doubles in [0, 1) on its own numpy MT19937,
    started from the state of ``random.Random(stream_seed(seed, label))``.
    CPython and numpy build a double from two 32-bit outputs the same way
    (``(a >> 5) * 2**26 + (b >> 6)``, scaled by ``2**-53``), so the values
    are that object's ``random()``'s, however :meth:`random` and
    :meth:`block` interleave."""

    def __init__(self, seed: int, label: str):
        _, internal, _ = random.Random(stream_seed(seed, label)).getstate()
        self._gen = np.random.Generator(np.random.MT19937(0))
        self._gen.bit_generator.state = {"bit_generator": "MT19937",
                                         "state": {"key": internal[:-1], "pos": internal[-1]}}

    def random(self) -> float:
        """The stream's next value."""
        return self._gen.random()

    def block(self, n: int) -> np.ndarray:
        """The stream's next ``n`` values as a float64 array."""
        return self._gen.random(n)


def cumulative_weights(policy: PolicyPair) -> tuple[list[float], list[float]]:
    """Each group's sampling table for ``policy``: the running sums of its
    weights, set to exactly 1.0 from the last positive weight on.

    Price i takes the draws u in [cum[i-1], cum[i]) (``bisect_right(cum, u)``
    for one round, :func:`draw_prices` for a block).  A zero weight repeats
    the sum before it, so it takes no draw, and no draw in [0, 1) passes the
    last positive weight, however the sums round."""
    tables = []
    for w in (policy.group1.weights, policy.group2.weights):
        last = int(np.flatnonzero(w)[-1])
        tables.append(list(accumulate(w[:last].tolist())) + [1.0] * (w.size - last))
    return tables[0], tables[1]


def draw_prices(cums: tuple[list[float], list[float]], groups: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """Grid indices for a block of arrivals ``groups`` (1 or 2) and their
    draws ``u`` in [0, 1), under the tables of :func:`cumulative_weights`:
    each draw's count of its group's sums c with u >= c, which is
    ``bisect_right``'s index.  Counts one pass per price in the narrowest
    integer type that holds them; the last sum, 1.0, takes no pass."""
    counts = []
    for cum in cums:
        count = np.zeros(u.size, dtype=np.min_scalar_type(len(cum)))
        for c in cum[:-1]:
            count += u >= c
        counts.append(count)
    return np.where(groups == 1, counts[0], counts[1]).astype(np.intp)


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PriceGrid:
    """Strictly increasing price levels 0 < v_1 < ... < v_d <= 1."""

    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "prices", _as_vector(self.prices, "prices"))
        v = self.prices
        if v[0] <= 0.0 or v[-1] > 1.0:
            raise ValueError("prices must lie in (0, 1]")
        if np.any(np.diff(v) <= 0.0):
            raise ValueError("prices must be strictly increasing")

    @property
    def d(self) -> int:
        return self.prices.size


@dataclass(frozen=True, eq=False)
class GroupDistribution:
    """A probability vector over the price grid (one group's policy)."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_vector(self.weights, "weights"))
        w = self.weights
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if abs(float(w.sum()) - 1.0) > ROUNDING_TOL:
            raise ValueError(f"weights must sum to 1 within {ROUNDING_TOL}, got {w.sum()!r}")

    @classmethod
    def renormalized(cls, weights) -> "GroupDistribution":
        """Build from near-feasible weights: clip negatives down to
        ``-FEAS_TOL`` to zero and rescale to unit sum.  Rejects anything
        worse."""
        w = np.asarray(weights, dtype=float)
        if np.any(w < -FEAS_TOL):
            raise ValueError(f"weights more negative than -{FEAS_TOL} "
                             "cannot be renormalized")
        w = np.clip(w, 0.0, None)
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("weights sum to zero; nothing to renormalize")
        return cls(w / total)

    @property
    def d(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class PolicyPair:
    """A pricing policy: one grid distribution per group."""

    group1: GroupDistribution
    group2: GroupDistribution

    def __post_init__(self):
        if self.group1.d != self.group2.d:
            raise ValueError("group distributions must share one grid length")

    @property
    def d(self) -> int:
        return self.group1.d

    def weights(self, group: int) -> np.ndarray:
        """Weights for group 1 or group 2."""
        if group == 1:
            return self.group1.weights
        if group == 2:
            return self.group2.weights
        raise ValueError(f"group must be 1 or 2, got {group}")

    @classmethod
    def from_weights(cls, w1, w2) -> "PolicyPair":
        return cls(GroupDistribution(np.asarray(w1, float)), GroupDistribution(np.asarray(w2, float)))


def fixed_price_policy(d: int, index: int) -> PolicyPair:
    """The deterministic policy posting grid price ``index`` to both groups."""
    if not 0 <= index < d:
        raise ValueError(f"index {index} out of range for d={d}")
    w = np.zeros(d)
    w[index] = 1.0
    return PolicyPair.from_weights(w, w)


@dataclass(frozen=True, eq=False)
class AcceptanceModel:
    """Per-group acceptance probabilities F_e(i) at each grid price.

    Model curves are validated as nonincreasing in the price (rational buyers
    accept cheaper offers at least as often) with every entry in (0, 1] and
    the floor ``min_i F_e(i) >= f_min``.  Empirical snapshots built from
    counts need not be monotone; construct those with
    :meth:`from_estimates`, which skips only the monotonicity check.
    """

    group1: np.ndarray
    group2: np.ndarray
    f_min: float = DEFAULT_F_MIN
    estimated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "group1", _as_vector(self.group1, "group1"))
        object.__setattr__(self, "group2", _as_vector(self.group2, "group2"))
        if self.group1.size != self.group2.size:
            raise ValueError("acceptance curves must share one grid length")
        if not 0.0 < self.f_min <= 1.0:
            raise ValueError("f_min must lie in (0, 1]")
        for name, f in (("group1", self.group1), ("group2", self.group2)):
            if np.any(f <= 0.0) or np.any(f > 1.0):
                raise ValueError(f"{name} acceptance probabilities must lie in (0, 1]")
            if np.min(f) < self.f_min - ROUNDING_TOL:
                raise ValueError(f"{name} dips below the floor f_min={self.f_min}")
            if not self.estimated and np.any(np.diff(f) > ROUNDING_TOL):
                raise ValueError(f"{name} must be nonincreasing in the price")

    @classmethod
    def from_estimates(cls, group1, group2, f_min: float) -> "AcceptanceModel":
        return cls(group1, group2, f_min=f_min, estimated=True)

    @property
    def d(self) -> int:
        return self.group1.size

    def curve(self, group: int) -> np.ndarray:
        if group == 1:
            return self.group1
        if group == 2:
            return self.group2
        raise ValueError(f"group must be 1 or 2, got {group}")


@dataclass(frozen=True, eq=False)
class MarketConfig:
    """A complete market: grid, acceptance curves, and group-1 arrival rate q."""

    grid: PriceGrid
    accept: AcceptanceModel
    q: float

    def __post_init__(self):
        if self.grid.d != self.accept.d:
            raise ValueError("grid and acceptance curves must share one length")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie strictly inside (0, 1)")

    @property
    def d(self) -> int:
        return self.grid.d


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def proposed_mean(grid: PriceGrid, dist: GroupDistribution) -> float:
    """Mean posted price v'pi for one group."""
    return float(grid.prices @ dist.weights)


def accepted_mean(grid: PriceGrid, accept_curve: np.ndarray, dist: GroupDistribution) -> float:
    """Mean price paid conditional on acceptance, v'F pi / 1'F pi.

    Raises:
        ZeroAcceptanceError: if the acceptance mass is zero.
    """
    f = np.asarray(accept_curve, float)
    mass = float(f @ dist.weights)
    if mass <= 0.0:
        raise ZeroAcceptanceError("acceptance mass is zero; accepted mean undefined")
    return float((grid.prices * f) @ dist.weights) / mass


def group_expected_revenue(market: MarketConfig, policy: PolicyPair, group: int) -> float:
    """Per-arrival revenue v'F_e pi_e collected from one group."""
    f = market.accept.curve(group)
    return float((market.grid.prices * f) @ policy.weights(group))


def expected_revenue(market: MarketConfig, policy: PolicyPair) -> float:
    """Per-round expected revenue q*v'F1 pi1 + (1-q)*v'F2 pi2."""
    r1 = group_expected_revenue(market, policy, 1)
    r2 = group_expected_revenue(market, policy, 2)
    return market.q * r1 + (1.0 - market.q) * r2


def procedural_gap(grid: PriceGrid, policy: PolicyPair) -> float:
    """U(pi) = |v'pi1 - v'pi2|, the gap between the groups' proposed means."""
    return abs(proposed_mean(grid, policy.group1) - proposed_mean(grid, policy.group2))


def substantive_gap(market: MarketConfig, policy: PolicyPair) -> float:
    """S(pi) = |m1 - m2|, the gap between the groups' accepted means.

    Raises:
        ZeroAcceptanceError: if either group's acceptance mass is zero.
    """
    m1 = accepted_mean(market.grid, market.accept.group1, policy.group1)
    m2 = accepted_mean(market.grid, market.accept.group2, policy.group2)
    return abs(m1 - m2)


def best_fixed_price(market: MarketConfig) -> tuple[int, float]:
    """Best single posted price ignoring fairness: argmax_i v_i * blended F(i).

    Returns the grid index and its per-round expected revenue.  Ties go to the
    lowest index.
    """
    v = market.grid.prices
    blended = market.q * market.accept.group1 + (1.0 - market.q) * market.accept.group2
    revenue = v * blended
    idx = int(np.argmax(revenue))
    return idx, float(revenue[idx])


# ---------------------------------------------------------------------------
# plain-text market files
# ---------------------------------------------------------------------------

def market_to_text(market: MarketConfig) -> str:
    """Serialize a market to a small line-oriented text block (round-trips)."""
    fmt = lambda arr: " ".join(f"{x:.17g}" for x in arr)
    lines = [
        "# fairprice market",
        f"d {market.d}",
        f"q {market.q:.17g}",
        f"f_min {market.accept.f_min:.17g}",
        f"prices {fmt(market.grid.prices)}",
        f"accept1 {fmt(market.accept.group1)}",
        f"accept2 {fmt(market.accept.group2)}",
    ]
    return "\n".join(lines) + "\n"


def market_from_text(text: str, source: str = "<market text>") -> MarketConfig:
    """Parse the format written by :func:`market_to_text`.  An unknown or
    repeated key, or a ``d``, ``q`` or ``f_min`` line without exactly one
    value, raises ValueError naming ``source`` (the file name) and the line."""
    fields: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *rest = line.split()
        if key not in ("d", "q", "f_min", "prices", "accept1", "accept2"):
            raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
        if key in ("d", "q", "f_min") and len(rest) != 1:
            raise ValueError(f"{source}:{lineno}: {key!r} takes one value, not {len(rest)}")
        if fields.setdefault(key, rest) is not rest:
            raise ValueError(f"{source}:{lineno}: repeated key {key!r}")
    try:
        d = int(fields["d"][0])
        q = float(fields["q"][0])
        f_min = float(fields.get("f_min", [str(DEFAULT_F_MIN)])[0])
        prices = [float(x) for x in fields["prices"]]
        f1 = [float(x) for x in fields["accept1"]]
        f2 = [float(x) for x in fields["accept2"]]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed market text: {exc}") from exc
    if not (len(prices) == len(f1) == len(f2) == d):
        raise ValueError("market text length fields disagree with d")
    return MarketConfig(
        grid=PriceGrid(np.array(prices)),
        accept=AcceptanceModel(np.array(f1), np.array(f2), f_min=f_min),
        q=q,
    )
