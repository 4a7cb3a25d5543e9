"""Fair phased-elimination pricing agent.

The agent learns acceptance curves on the fly while keeping both fairness
guarantees: it only ever plays policies posting equal mean prices to the two
groups (procedural parity is exact by construction), and it shrinks the
allowed accepted-mean gap epoch by epoch so substantive unfairness decays at
the same root-tau rate as the revenue error.

Schedule:

* warmup — the first batch: post the top price for tau_0 rounds to
  floor-estimate acceptance;
* epoch k — for every surviving (price, group), find the surviving policy
  putting the most weight on that price; drop prices whose best weight falls
  under 1/sqrt(T); queue the kept policies in equal batches; re-estimate
  acceptance from this epoch's counts; append an elimination snapshot (the
  estimates, the fairness band delta_{k,s}, and a revenue floor
  ``max R_hat - delta_{k,r} - L * delta_{k,s}``) to the ledger.

The warmup and each epoch end when their last batch is spent.

When nothing survives the ledger the agent still plays, and says so in its
flags:

* no probe keeps a policy — the epoch plays the incumbent alone, or the top
  price if there is no incumbent yet (``empty_active_set:e<k>``);
* the optimizer finds no member of the ledger — the incumbent becomes the
  best fixed price by estimated revenue, the ledger ignored
  (``optimizer_ledger_infeasible:e<k>``).

So the policy played can be a non-member of the ledger.

Radii halve every epoch as batch lengths double.  Two constant schedules are
built in: "theory" uses the analysis constants (conservative by orders of
magnitude at bench horizons) and "scaled" replaces them with a single knob
``c`` times fixed structural ratios, keeping every proportionality.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    AcceptanceModel,
    PolicyPair,
    PriceGrid,
    RandomStream,
    cumulative_weights,
    draw_prices,
    fixed_price_policy,
)
from .oracle import (
    EliminationLedger,
    LedgerEntry,
    OracleConfig,
    empirical_optimizer,
    max_probability_policies,
)

# Scaled mode: delta_{k,r} = c * B_R / sqrt(tau_k), delta_{k,s} = c * B_S / sqrt(tau_k).
# Calibrated on the built-in example.  Per-epoch estimates put the optimum's
# measured gap at roughly 0.25/sqrt(tau) (sd ~0.2/sqrt(tau)) and its revenue
# shortfall against the empirical max at ~0.2/sqrt(tau), uniformly over
# epochs, so these radii keep the optimum a comfortable multiple of the noise
# inside every snapshot while binding the exploratory policies early enough
# that cumulative unfairness tracks the root-tau schedule.  B_R is NOT a
# loosen-to-taste knob: the floor references the empirical maximum over the
# surviving set, so a larger B_R widens that set, inflates the selected
# maximum, and can tighten the floor net-net (measured: retention worsens and
# small-horizon exploration collapses onto fixed prices for B_R >= 0.6).
SCALED_RADIUS_REVENUE = 0.5
SCALED_RADIUS_FAIRNESS = 0.4

CONSTANT_MODES = ("scaled", "theory")


class ProtocolError(RuntimeError):
    """propose/observe were called out of order or past the horizon."""


class DegenerateDemandError(RuntimeError):
    """Warmup saw no arrivals or no acceptances for some group, so acceptance
    cannot be floor-estimated and the schedule cannot start."""


@dataclass(frozen=True)
class FpaConfig:
    """Run parameters for the agent.  The defaults are the CLI's too.

    Attributes:
        grid: price levels.
        q: group-1 arrival probability.
        horizon: total number of rounds T.
        error_prob: failure budget of the confidence schedule.
        relaxation_l: multiplier L on the fairness band in the revenue floor.
            It must dominate how fast the relaxed optimum's revenue grows in
            the band width: a slope of 0.16-0.17 on the built-in example for
            bands up to 0.01 (``demos/relaxation_frontier.py`` prints it).
        constants_mode: "scaled" (bench constants, knob ``scale_factor``) or
            "theory" (analysis constants).
        scale_factor: the knob c of scaled mode.
        seed: agent sampling seed (stream-split; independent of any
            environment stream derived from the same integer).
    """

    grid: PriceGrid
    q: float
    horizon: int
    error_prob: float = 0.05
    relaxation_l: float = 0.2
    constants_mode: str = "scaled"
    scale_factor: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie strictly inside (0, 1)")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 < self.error_prob < 1.0:
            raise ValueError("error_prob must lie strictly inside (0, 1)")
        if self.relaxation_l < 0.0:
            raise ValueError("relaxation_l must be >= 0")
        if self.constants_mode not in CONSTANT_MODES:
            raise ValueError(f"constants_mode must be one of {CONSTANT_MODES}")
        if self.scale_factor <= 0.0:
            raise ValueError("scale_factor must be positive")


@dataclass(frozen=True)
class EpochParams:
    """Nominal schedule of one epoch (before any horizon truncation)."""

    epoch: int
    tau: int
    delta_r: float
    delta_s: float


def warmup_length(cfg: FpaConfig) -> int:
    """Rounds spent posting the top price before epoch 1 (at least one)."""
    return max(1, math.ceil(2.0 * math.log(cfg.horizon) * math.log(16.0 / cfg.error_prob)))


def epoch_params(cfg: FpaConfig, k: int, fmin_hat: Optional[float] = None) -> EpochParams:
    """Batch length and confidence radii of epoch k >= 1.

    The radii are computed from the un-rounded batch length, so they halve
    exactly (delta_{k+1} = delta_k / sqrt(2)) as batch lengths double.
    "theory" mode needs the warmup acceptance floor ``fmin_hat``.
    """
    if k < 1:
        raise ValueError("epochs are numbered from 1")
    d = cfg.grid.d
    t_len = float(cfg.horizon)
    if cfg.constants_mode == "scaled":
        tau_exact = cfg.scale_factor * math.sqrt(t_len) * 2.0**k
        delta_r = cfg.scale_factor * SCALED_RADIUS_REVENUE / math.sqrt(tau_exact)
        delta_s = cfg.scale_factor * SCALED_RADIUS_FAIRNESS / math.sqrt(tau_exact)
    else:
        if fmin_hat is None or not 0.0 < fmin_hat <= 1.0:
            raise ValueError("theory mode needs fmin_hat in (0, 1]")
        c_q = 3.0 * max(1.0 / cfg.q, 1.0 / (1.0 - cfg.q))
        c_t = max(3.0, math.sqrt(3.0 / fmin_hat))
        log_term = math.log(16.0 * d * max(math.log(t_len), 1.0) / cfg.error_prob)
        tau_exact = (28.0 * c_q / 3.0) * d * math.sqrt(t_len) * log_term * 2.0**k
        root = math.sqrt(c_q / tau_exact)
        delta_r = 4.0 * c_t * log_term * d**1.5 * root
        delta_s = (32.0 * c_t / fmin_hat**2) * log_term * d**1.5 * root
    return EpochParams(k, max(1, math.ceil(tau_exact)), delta_r, delta_s)


def _policy_key(policy: PolicyPair) -> tuple:
    return tuple(np.round(np.r_[policy.group1.weights, policy.group2.weights], 12))


class FpaAgent:
    """Interactive agent: for up to :meth:`batch_rounds` rounds at once, call
    :meth:`propose_batch` with the arriving buyers' groups, then
    :meth:`observe_batch` with the outcomes.

    It also keeps a per-round protocol, :meth:`propose_price` then
    :meth:`observe`, exactly once per round: the same schedule and the same
    draws of the agent's stream, one round at a time.  The two protocols may
    alternate between rounds.  No agent of this package needs it: it serves
    drivers that wrap the agent round by round (the benchmark's tracing
    proxy) and the tests' reference, and it goes once that proxy forwards
    the batch protocol (ROADMAP items 1 and 7).

    Each round of an epoch samples the batch's policy with one draw u of the
    agent's :class:`~fairprice.core.RandomStream` ``rng`` (``random()`` for a
    round, ``block(n)`` for a batch), by the rule of
    :func:`~fairprice.core.cumulative_weights`:
    the price whose interval [cum[i-1], cum[i]) holds u, so a zero-weight
    price is never posted.  The warmup posts the top price and draws nothing."""

    def __init__(self, cfg: FpaConfig, oracle_cfg: Optional[OracleConfig] = None):
        self.cfg = cfg
        self.oracle_cfg = oracle_cfg
        self.d = cfg.grid.d
        self.rng = RandomStream(cfg.seed, "agent")
        self.ledger = EliminationLedger(cfg.grid, cfg.q)

        self.stage = "warmup"
        self.t = 0
        self.epoch = 0
        self.tau0 = min(warmup_length(cfg), cfg.horizon)
        self.fmin_hat: Optional[float] = None
        self.incumbent: Optional[PolicyPair] = None
        self.price_sets = (set(range(self.d)), set(range(self.d)))
        self.flags: list[str] = []
        self.epochs_info: list[dict] = []
        self.truncated_diagnostic: Optional[dict] = None

        self._pending: Optional[tuple[int, int]] = None
        self._pending_batch: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._params: Optional[EpochParams] = None
        # The batch being played (its policy, sampling tables and rounds
        # left), then the epoch's queued batches.  The warmup has no tables:
        # it posts the top price and draws nothing.
        self._policy = fixed_price_policy(self.d, self.d - 1)
        self._cums: Optional[tuple[list[float], list[float]]] = None
        self._batch_left = self.tau0
        self._queue: list[tuple[PolicyPair, tuple, int]] = []
        self._epoch_truncated = False
        self._m = np.zeros((2, self.d), dtype=np.int64)
        self._n = np.zeros((2, self.d), dtype=np.int64)

    # ------------------------------------------------------------------
    # round protocol
    # ------------------------------------------------------------------

    def propose_price(self, group: int) -> int:
        """Grid index to post to the arriving buyer of ``group`` (1 or 2):
        ``bisect_right`` of one draw in the group's sampling table.  The
        per-round protocol, for drivers outside the package (see the class
        docstring)."""
        if group not in (1, 2):
            raise ValueError("group must be 1 or 2")
        if self._pending is not None or self._pending_batch is not None:
            raise ProtocolError("previous round still awaits observe()")
        if self.stage == "done":
            raise ProtocolError("horizon exhausted")
        if self._cums is None:
            idx = self.d - 1
        else:
            idx = bisect_right(self._cums[group - 1], self.rng.random())
        self._pending = (group, idx)
        return idx

    def observe(self, group: int, price_index: int, accepted: bool) -> None:
        """Record the outcome of the pending proposal and advance the
        schedule: the per-round protocol's second half."""
        if self._pending is None:
            raise ProtocolError("no proposal pending")
        if self._pending != (group, price_index):
            raise ProtocolError(f"outcome {(group, price_index)} does not match "
                                f"the pending proposal {self._pending}")
        self._pending = None
        self._m[group - 1, price_index] += 1
        if accepted:
            self._n[group - 1, price_index] += 1
        self._played(1)

    # ------------------------------------------------------------------
    # batch protocol: the rounds one fixed policy governs, in one call each
    # ------------------------------------------------------------------

    def batch_rounds(self) -> int:
        """Rounds the current policy still governs: the rest of the current
        batch (0 once the horizon is exhausted).  Within them the agent's
        choices depend on no single outcome."""
        return self._batch_left

    def propose_batch(self, groups: np.ndarray) -> np.ndarray:
        """Grid indices for ``len(groups)`` consecutive arrivals, at most
        :meth:`batch_rounds` of them.  Draws the agent's stream exactly as
        that many :meth:`propose_price` calls would, and picks the same
        prices (:func:`~fairprice.core.draw_prices`)."""
        if self._pending is not None or self._pending_batch is not None:
            raise ProtocolError("previous round still awaits observe()")
        if self.stage == "done":
            raise ProtocolError("horizon exhausted")
        groups = np.asarray(groups)
        n = groups.size
        if not 1 <= n <= self.batch_rounds():
            raise ProtocolError(f"batch of {n} rounds; the current policy governs "
                                f"{self.batch_rounds()}")
        if not np.all((groups == 1) | (groups == 2)):
            raise ValueError("group must be 1 or 2")
        if self._cums is None:
            idx = np.full(n, self.d - 1)
        else:
            idx = draw_prices(self._cums, groups, self.rng.block(n))
        self._pending_batch = (groups, idx)
        return idx

    def observe_batch(self, groups: np.ndarray, idx: np.ndarray,
                      accepted: np.ndarray) -> None:
        """Record the outcomes of the pending batch and advance the schedule."""
        if self._pending_batch is None:
            raise ProtocolError("no batch pending")
        pending_groups, pending_idx = self._pending_batch
        if not (np.array_equal(groups, pending_groups) and np.array_equal(idx, pending_idx)):
            raise ProtocolError("outcomes do not match the pending batch")
        accepted = np.asarray(accepted, dtype=bool)
        if accepted.shape != pending_idx.shape:
            raise ProtocolError("one acceptance per proposed round is needed")
        self._pending_batch = None
        cell = (pending_groups - 1) * self.d + pending_idx
        self._m += np.bincount(cell, minlength=2 * self.d).reshape(2, self.d)
        self._n += np.bincount(cell[accepted], minlength=2 * self.d).reshape(2, self.d)
        self._played(pending_idx.size)

    def current_policy(self) -> PolicyPair:
        """The policy governing the next proposal."""
        if self.stage != "done":
            return self._policy
        if self.incumbent is not None:
            return self.incumbent
        return fixed_price_policy(self.d, self.d - 1)

    # ------------------------------------------------------------------
    # schedule transitions
    # ------------------------------------------------------------------

    def _played(self, n: int) -> None:
        """Advance past ``n`` observed rounds: to the next queued batch or,
        once the warmup or an epoch has spent its last batch, through the
        elimination (after an epoch) to the next epoch's batches."""
        self.t += n
        self._batch_left -= n
        if self._batch_left:
            return
        if not self._queue:
            if self.stage == "epochs":
                self._finalize_epoch()
            if self.t >= self.cfg.horizon:
                self.stage = "done"
                return
            if self.stage == "warmup":
                self._finish_warmup()
            else:
                self._start_epoch(self.epoch + 1)
        self._policy, self._cums, self._batch_left = self._queue.pop(0)

    def _finish_warmup(self) -> None:
        # Every warmup round posts the top price: row sums are per group.
        arrivals, accepts = self._m.sum(axis=1).tolist(), self._n.sum(axis=1).tolist()
        for g in (0, 1):
            if arrivals[g] == 0 or accepts[g] == 0:
                raise DegenerateDemandError(
                    f"group {g + 1} saw {arrivals[g]} arrivals and "
                    f"{accepts[g]} acceptances during warmup")
        self.fmin_hat = min(n / m for n, m in zip(accepts, arrivals)) / 2.0
        self.stage = "epochs"
        self._start_epoch(1)

    def _start_epoch(self, k: int) -> None:
        self.epoch = k
        self._params = epoch_params(self.cfg, k, self.fmin_hat)
        remaining = self.cfg.horizon - self.t
        run_len = min(self._params.tau, remaining)
        self._epoch_truncated = run_len < self._params.tau

        keep_threshold = 1.0 / math.sqrt(self.cfg.horizon)
        active: list[PolicyPair] = []
        seen: set[tuple] = set()
        if not self.ledger.entries:
            # Nothing eliminated yet: every surviving price takes full weight.
            for i in sorted(self.price_sets[0] | self.price_sets[1]):
                active.append(fixed_price_policy(self.d, i))
        else:
            latest = self.ledger.latest
            probes = [(i, g) for g in (1, 2) for i in sorted(self.price_sets[g - 1])]
            results = max_probability_policies(probes, latest.fhat, self.ledger,
                                               latest.delta_s, cfg=self.oracle_cfg)
            for (i, g), res in zip(probes, results):
                if res.ledger_infeasible:
                    self.flags.append(f"probe_ledger_infeasible:e{k}:g{g}:i{i}")
                if res.policy is not None and res.achieved_prob >= keep_threshold:
                    key = _policy_key(res.policy)
                    if key not in seen:
                        seen.add(key)
                        active.append(res.policy)
                else:
                    self.price_sets[g - 1].discard(i)
        if not active:
            self.flags.append(f"empty_active_set:e{k}")
            active = [self.incumbent if self.incumbent is not None
                      else fixed_price_policy(self.d, self.d - 1)]

        # Equal batches, the remainder to the last; a short epoch leaves
        # the first batches empty, and those are not queued.
        share, extra = divmod(run_len, len(active))
        sizes = [share] * (len(active) - 1) + [share + extra]
        self._queue = [(pol, cumulative_weights(pol), size)
                       for pol, size in zip(active, sizes) if size]
        self._m[:] = 0
        self._n[:] = 0
        self.epochs_info.append({
            "epoch": k, "tau": self._params.tau, "run_len": run_len,
            "delta_r": self._params.delta_r, "delta_s": self._params.delta_s,
            "n_active": len(active), "truncated": self._epoch_truncated,
        })

    def _estimates(self) -> AcceptanceModel:
        """This epoch's acceptance estimates: empirical rate floored at the
        warmup floor for probed surviving prices, the floor itself elsewhere."""
        fhat = np.full((2, self.d), self.fmin_hat)
        for g in (0, 1):
            for i in range(self.d):
                if i in self.price_sets[g] and self._m[g, i] > 0:
                    fhat[g, i] = max(self._n[g, i] / self._m[g, i], self.fmin_hat)
        return AcceptanceModel.from_estimates(fhat[0], fhat[1], f_min=self.fmin_hat)

    def _finalize_epoch(self) -> None:
        fhat = self._estimates()
        params = self._params
        opt = empirical_optimizer(fhat, self.ledger, params.delta_s,
                                  incumbent=self.incumbent, cfg=self.oracle_cfg)
        floor = max(opt.revenue_hat - params.delta_r
                    - self.cfg.relaxation_l * params.delta_s, -1.0)
        if self._epoch_truncated:
            # The sample cannot support the nominal radii; keep the ledger as
            # is (the run is ending) and only report, in the run metadata,
            # what the next elimination would have looked like.
            self.flags.append(f"epoch_truncated:e{self.epoch}")
            self.truncated_diagnostic = {
                "epoch": self.epoch,
                "rounds_used": sum(int(x) for x in self._m.sum(axis=0)),
                "fhat_group1": [float(x) for x in fhat.group1],
                "fhat_group2": [float(x) for x in fhat.group2],
                "delta_r": params.delta_r,
                "delta_s": params.delta_s,
                "revenue_floor": floor,
                "optimizer_ledger_infeasible": opt.ledger_infeasible,
            }
            return
        if opt.ledger_infeasible:
            self.flags.append(f"optimizer_ledger_infeasible:e{self.epoch}")
        self.ledger.append(LedgerEntry(self.epoch, fhat, params.delta_s, floor))
        self.incumbent = opt.policy

    # ------------------------------------------------------------------

    def meta(self) -> dict:
        """JSON-ready snapshot of the agent's run state."""
        return {
            "stage": self.stage,
            "rounds": self.t,
            "epoch": self.epoch,
            "warmup_rounds": self.tau0,
            "fmin_hat": self.fmin_hat,
            "surviving_prices": [sorted(s) for s in self.price_sets],
            "ledger_entries": len(self.ledger),
            "fhat_history": [
                {
                    "epoch": e.epoch,
                    "group1": [float(x) for x in e.fhat.group1],
                    "group2": [float(x) for x in e.fhat.group2],
                    "delta_s": e.delta_s,
                    "revenue_floor": e.revenue_floor,
                }
                for e in self.ledger
            ],
            "truncated_diagnostic": self.truncated_diagnostic,
            "flags": list(self.flags),
            "epochs": [dict(info) for info in self.epochs_info],
        }
