"""Search for revenue-optimal fair pricing policies.

Every policy considered here posts the same mean price to both groups
(procedural parity, U = 0).  The search runs over a two-parameter family:

* ``v_s``    — the accepted mean anchored on group 1,
* ``alpha``  — the premium of the shared proposed mean over it,

so the shared proposed mean is ``v_r = v_s + alpha``.  Nonincreasing
acceptance curves keep ``alpha`` nonnegative (discounting by acceptance can
only pull the accepted mean down), but estimated curves need not be monotone,
so the scan extends to negative premiums whenever its anchor curve inverts
somewhere.  For a given
``(v_s, alpha)`` the group-1 weights solve the 3x3 system
``{sum pi = 1, v'pi = v_r, (v - v_s)'F1 pi = 0}``; group 2 either pins its
accepted mean to ``v_s`` exactly (strict parity, S = 0) or floats inside the
linearized band ``|v'F2 pi - v_s * 1'F2 pi| <= delta * 1'F2 pi``.  On a
three-price grid those solutions are closed-form (batched adjugate solves), so
a dense grid over ``(v_s, alpha)`` plus windowed refinement is both fast and
accurate; for other grid sizes each cell is a small simplex LP instead.

Elimination state from a learning run is a ledger of per-epoch snapshots;
candidate policies are screened against every snapshot (fairness band and
revenue floor) before they can win a search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    MONOTONE_TOL,
    AcceptanceModel,
    GroupDistribution,
    MarketConfig,
    PolicyPair,
    PriceGrid,
    expected_revenue,
    fixed_price_policy,
)
from .linsolve import OPTIMAL, LinearProgram, lp_maximize, solve_linear_system

# Slack added to every ledger membership comparison.
MEMBER_TOL = 1e-9
# Candidates within this band of the best are considered tied.
TIE_TOL = 1e-9
# Grid cells kept on each side of an argmax when a scan window shrinks.
_REFINE_WINDOW = 12
_REFINE_STEPS = 241
# Cells the d = 3 full scan takes at once, in whole v_s rows.  Its
# temporaries take about 140 bytes per cell, so the default 2000 x 400 scan
# runs in three blocks, and a solve's peak RSS is about 90 MB instead of 146;
# the agent's 500 x 120 scans stay one block.  Smaller blocks would save more
# memory but cost time.  glibc's malloc keeps freed heap for reuse only up to
# twice the largest array freed so far.  After a solve with small blocks, the
# heap goes back to the system after each of the agent's searches, and the
# next search page-faults it in again.  Measured after a default solve, on
# the searches of a T = 1e6 ledger: 56k extra minor faults and 25% slower
# probes at 262,144 cells, none at this budget.
_SCAN_BLOCK_CELLS = 393_216
_DET_TOL = 1e-13
_NONNEG_TOL = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Resolution knobs for the (v_s, alpha) scan."""

    grid_steps_vs: int = 2000
    grid_steps_alpha: int = 400
    refine_iters: int = 3
    tolerance: float = 1e-7

    def __post_init__(self):
        if self.grid_steps_vs < 2 or self.grid_steps_alpha < 2:
            raise ValueError("need at least 2 grid steps per axis")
        if self.refine_iters < 1:
            raise ValueError("refine_iters must be >= 1")


_DEFAULT_CFG = OracleConfig()


@dataclass(frozen=True)
class ParamPoint:
    """A point of the search family; beta reports any accepted-mean offset
    actually used by group 2 inside the relaxation band."""

    v_s: float
    alpha: float
    beta: float = 0.0

    @property
    def v_r(self) -> float:
        return self.v_s + self.alpha


@dataclass(frozen=True)
class FairSolution:
    policy: PolicyPair
    revenue: float
    point: ParamPoint


@dataclass(frozen=True)
class OptimizerResult:
    """Outcome of the empirical search.  When ``ledger_infeasible`` is set no
    candidate satisfied every ledger snapshot and ``policy`` falls back to the
    best fixed price by estimated revenue (ledger ignored)."""

    policy: PolicyPair
    revenue_hat: float
    point: ParamPoint
    ledger_infeasible: bool = False


@dataclass(frozen=True)
class MaxProbResult:
    """Most weight placeable on one grid price within the surviving set."""

    policy: Optional[PolicyPair]
    achieved_prob: float
    point: Optional[ParamPoint]
    ledger_infeasible: bool = False


@dataclass(frozen=True)
class LedgerEntry:
    """One epoch's elimination snapshot: the acceptance estimates it was made
    with, the fairness band, and the revenue floor survivors must clear."""

    epoch: int
    fhat: AcceptanceModel
    delta_s: float
    revenue_floor: float

    def __post_init__(self):
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")
        if not self.delta_s > 0.0:
            raise ValueError("delta_s must be positive")
        if not -1.0 <= self.revenue_floor <= 1.0:
            raise ValueError("revenue_floor must lie in [-1, 1]")


@dataclass
class EliminationLedger:
    """Ordered elimination snapshots for one market (grid and q are fixed)."""

    grid: PriceGrid
    q: float
    entries: list[LedgerEntry] = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie strictly inside (0, 1)")

    def append(self, entry: LedgerEntry) -> None:
        if entry.fhat.d != self.grid.d:
            raise ValueError("entry grid size disagrees with the ledger")
        self.entries.append(entry)

    @property
    def latest(self) -> Optional[LedgerEntry]:
        return self.entries[-1] if self.entries else None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _member_mask(v: np.ndarray, q: float, entries: Sequence[LedgerEntry],
                 pi1: np.ndarray, pi2: np.ndarray) -> np.ndarray:
    """Vectorized ledger screen for stacked policies pi1, pi2 of shape (N, d)."""
    ok = np.ones(pi1.shape[0], dtype=bool)
    for entry in entries:
        f1, f2 = entry.fhat.group1, entry.fhat.group2
        num1, den1 = pi1 @ (v * f1), pi1 @ f1
        num2, den2 = pi2 @ (v * f2), pi2 @ f2
        gap = np.abs(num1 / den1 - num2 / den2)
        revenue = q * num1 + (1.0 - q) * num2
        ok &= (gap <= entry.delta_s + MEMBER_TOL) & (revenue >= entry.revenue_floor - MEMBER_TOL)
    return ok


def member(policy: PolicyPair, ledger: EliminationLedger) -> bool:
    """True when the policy posts equal means (within tolerance) and clears the
    fairness band and revenue floor of every ledger snapshot."""
    v = ledger.grid.prices
    w1, w2 = policy.group1.weights, policy.group2.weights
    if abs(float(v @ w1 - v @ w2)) > MEMBER_TOL:
        return False
    return bool(_member_mask(v, ledger.q, ledger.entries, w1[None, :], w2[None, :])[0])


# ---------------------------------------------------------------------------
# batched 3x3 machinery (d == 3 fast path)
# ---------------------------------------------------------------------------

def _adjugate_cols(v: np.ndarray, z: np.ndarray):
    """For M = [[1,1,1], v, z_row] return the first two adjugate columns and
    the determinant, elementwise over stacked z rows of shape (..., 3).

    The solution of M x = [1, r, 0] is then x = (p + r*s) / det.
    """
    v1, v2, v3 = float(v[0]), float(v[1]), float(v[2])
    z1, z2, z3 = z[..., 0], z[..., 1], z[..., 2]
    p = np.stack([v2 * z3 - v3 * z2, v3 * z1 - v1 * z3, v1 * z2 - v2 * z1], axis=-1)
    s = np.stack([z2 - z3, z3 - z1, z1 - z2], axis=-1)
    det = p[..., 0] + p[..., 1] + p[..., 2]
    return p, s, det


def _pin_group(v: np.ndarray, f: np.ndarray, vs_vals: np.ndarray, vr: np.ndarray):
    """Group weights with accepted mean pinned to each vs and proposed mean vr.

    Returns (pi, feasible) with pi of shape (nvs, na, 3); infeasible cells
    (singular system or negative weights) are flagged, not raised.
    """
    z = (v[None, :] - vs_vals[:, None]) * f[None, :]
    p, s, det = _adjugate_cols(v, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        pi = (p[:, None, :] + vr[:, :, None] * s[:, None, :]) / det[:, None, None]
    ok = np.abs(det)[:, None] > _DET_TOL
    feas = ok & np.all(pi >= -_NONNEG_TOL, axis=-1) & np.all(np.isfinite(pi), axis=-1)
    return pi, feas


def _tighten(a, b, t_lo, t_hi, feas):
    """Impose a + t*b <= 0 elementwise on the interval [t_lo, t_hi]."""
    b = np.broadcast_to(np.asarray(b, dtype=float), a.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = -a / b
    t_hi = np.where(b > _DET_TOL, np.fmin(t_hi, cand), t_hi)
    t_lo = np.where(b < -_DET_TOL, np.fmax(t_lo, cand), t_lo)
    feas = feas & np.where(np.abs(b) <= _DET_TOL, a <= _NONNEG_TOL, True)
    return t_lo, t_hi, feas


def _float_group(v: np.ndarray, f: np.ndarray, vs_vals: np.ndarray, vr: np.ndarray,
                 delta: float):
    """Group-2 solutions under the relaxation band, parametrized as a segment
    pi(t) = pi_base(vr) + t * n along the common null direction n of the sum
    and proposed-mean rows.

    Returns (pi_base, n_dir, t_lo, t_hi, feasible).
    """
    n_dir = np.array([v[2] - v[1], v[0] - v[2], v[1] - v[0]])
    p, s, det = _adjugate_cols(v, n_dir[None, :])
    c0, c1 = p[0] / det[0], s[0] / det[0]  # det = |n|^2 > 0 for a strict grid
    pi_base = c0[None, None, :] + vr[:, :, None] * c1[None, None, :]

    nvs, na = vr.shape
    t_lo = np.full((nvs, na), -np.inf)
    t_hi = np.full((nvs, na), np.inf)
    feas = np.ones((nvs, na), dtype=bool)
    for i in range(3):  # weights stay nonnegative along the segment
        t_lo, t_hi, feas = _tighten(-pi_base[..., i], -n_dir[i], t_lo, t_hi, feas)
    band = (v[None, :] - vs_vals[:, None]) * f[None, :]
    for w in (band - delta * f[None, :], -(band + delta * f[None, :])):
        a = np.einsum("vi,vai->va", w, pi_base)
        t_lo, t_hi, feas = _tighten(a, (w @ n_dir)[:, None], t_lo, t_hi, feas)
    feas &= t_lo <= t_hi + _NONNEG_TOL
    return pi_base, n_dir, t_lo, t_hi, feas


def _entry_interval_rows(v, q, entries, pi1, pi_base, n_dir, t_lo, t_hi, feas):
    """Fold every ledger snapshot into the group-2 segment interval.

    With pi1 fixed per cell, each snapshot's fairness band and revenue floor
    are linear in pi2 (the gap ratio multiplied through by the positive
    acceptance mass), so they tighten [t_lo, t_hi] exactly instead of being
    sampled at one endpoint.
    """
    for entry in entries:
        g1, g2 = entry.fhat.group1, entry.fhat.group2
        num1 = pi1 @ (v * g1)
        m1 = num1 / (pi1 @ g1)
        width = entry.delta_s + MEMBER_TOL
        for sign in (1.0, -1.0):
            w = g2[None, None, :] * (sign * v[None, None, :]
                                     - (sign * m1 + width)[..., None])
            a = np.einsum("vai,vai->va", w, pi_base)
            b = np.einsum("vai,i->va", w, n_dir)
            t_lo, t_hi, feas = _tighten(a, b, t_lo, t_hi, feas)
        vg2 = v * g2
        a = (entry.revenue_floor - MEMBER_TOL) - q * num1 - (1.0 - q) * (pi_base @ vg2)
        t_lo, t_hi, feas = _tighten(a, -(1.0 - q) * float(vg2 @ n_dir), t_lo, t_hi, feas)
    feas = feas & (t_lo <= t_hi + _NONNEG_TOL)
    return t_lo, t_hi, feas


@dataclass
class _Objective:
    """Linear search objective: value = obj1 . pi1 + obj2 . pi2.  When group 2
    is a segment, its endpoint is picked to maximize t_coef . pi2 (defaults to
    the objective's own group-2 part)."""

    obj1: Optional[np.ndarray]
    obj2: Optional[np.ndarray]
    t_coef: Optional[np.ndarray] = None


@dataclass
class _Row:
    """One surviving candidate: parameters, weights, and scores."""

    value: float
    revenue: float
    vs: float
    alpha: float
    beta: float
    pi1: np.ndarray
    pi2: np.ndarray
    fixed: bool = False


def _region_scan_d3(v, f1, f2, q, delta, entries, objectives, vs_vals, alpha_axis):
    """Scan one rectangular (vs, alpha) region; return the best row per
    objective (None where nothing in the region is feasible and surviving).

    ``alpha_axis`` is ("relative", n) for the full span per vs row or
    ("absolute", lo, hi, n) for refinement windows.
    """
    vs_vals = np.asarray(vs_vals, dtype=float)
    nvs = vs_vals.size
    if alpha_axis[0] == "relative":
        fracs = np.linspace(0.0, 1.0, alpha_axis[1])
        hi = (v[-1] - vs_vals)[:, None]
        lo = 0.0
        if np.any(np.diff(f1) > MONOTONE_TOL):  # inverted estimates: premium can flip
            lo = -(vs_vals - v[0])[:, None]
        alpha = lo + fracs[None, :] * (hi - lo)
    else:
        _, lo, hi, n = alpha_axis
        alpha = np.broadcast_to(np.linspace(lo, hi, n), (nvs, n)).copy()
    vr = vs_vals[:, None] + alpha

    with np.errstate(all="ignore"):
        pi1, feas1 = _pin_group(v, f1, vs_vals, vr)
        if delta == 0.0:
            pi2_pin, feas2 = _pin_group(v, f2, vs_vals, vr)
        else:
            pi_base, n_dir, t_lo, t_hi, feas2 = _float_group(v, f2, vs_vals, vr, delta)
            if entries:
                t_lo, t_hi, feas2 = _entry_interval_rows(
                    v, q, entries, pi1, pi_base, n_dir, t_lo, t_hi, feas2)
        feas = feas1 & feas2

        rev1 = pi1 @ (v * f1)
        results: list[Optional[_Row]] = []
        for spec in objectives:
            if delta == 0.0:
                pi2 = pi2_pin
            else:
                t_coef = spec.t_coef if spec.t_coef is not None else spec.obj2
                slope = 0.0 if t_coef is None else float(t_coef @ n_dir)
                t = t_hi if slope > 0.0 else t_lo
                pi2 = pi_base + t[:, :, None] * n_dir
            value = np.zeros_like(vr)
            if spec.obj1 is not None:
                value = value + pi1 @ spec.obj1
            if spec.obj2 is not None:
                value = value + pi2 @ spec.obj2
            revenue = q * rev1 + (1.0 - q) * (pi2 @ (v * f2))
            mask = feas.copy()
            if entries:
                flat = _member_mask(v, q, entries, pi1.reshape(-1, 3), pi2.reshape(-1, 3))
                mask &= flat.reshape(feas.shape)
            if not mask.any():
                results.append(None)
                continue
            score = np.where(mask & np.isfinite(value), value, -np.inf)
            i, j = np.unravel_index(int(np.argmax(score)), score.shape)
            if not np.isfinite(score[i, j]):
                results.append(None)
                continue
            m2 = float((v * f2) @ pi2[i, j]) / float(f2 @ pi2[i, j])
            results.append(_Row(
                value=float(value[i, j]), revenue=float(revenue[i, j]),
                vs=float(vs_vals[i]), alpha=float(alpha[i, j]),
                beta=m2 - float(vs_vals[i]),
                pi1=pi1[i, j].copy(), pi2=pi2[i, j].copy(),
            ))
    return results


def _search_d3(v, f1, f2, q, delta, entries, objectives, cfg: OracleConfig):
    """Full scan + windowed refinement; one best row per objective."""
    vs0 = np.unique(np.concatenate([np.linspace(v[0], v[-1], cfg.grid_steps_vs), v]))
    block_rows = max(1, _SCAN_BLOCK_CELLS // cfg.grid_steps_alpha)
    rows: list[Optional[_Row]] = [None] * len(objectives)
    for start in range(0, vs0.size, block_rows):
        block = _region_scan_d3(v, f1, f2, q, delta, entries, objectives,
                                vs0[start:start + block_rows],
                                ("relative", cfg.grid_steps_alpha))
        for k, row in enumerate(block):
            # Strictly better only: ties keep the earlier cell, as argmax
            # over the whole scan would.
            if row is not None and (rows[k] is None or row.value > rows[k].value):
                rows[k] = row
    d_vs = (v[-1] - v[0]) / (cfg.grid_steps_vs - 1)
    d_al = (v[-1] - v[0]) / (cfg.grid_steps_alpha - 1)
    shrink = 2.0 * _REFINE_WINDOW / (_REFINE_STEPS - 1)
    for _ in range(cfg.refine_iters - 1):
        for k, row in enumerate(rows):
            if row is None:
                continue
            w_vs, w_al = _REFINE_WINDOW * d_vs, _REFINE_WINDOW * d_al
            vs_win = np.linspace(max(v[0], row.vs - w_vs), min(v[-1], row.vs + w_vs),
                                 _REFINE_STEPS)
            better = _region_scan_d3(
                v, f1, f2, q, delta, entries, [objectives[k]], vs_win,
                ("absolute", row.alpha - w_al, row.alpha + w_al, _REFINE_STEPS))[0]
            if better is not None and better.value >= row.value:
                rows[k] = better
        d_vs *= shrink
        d_al *= shrink
    return rows


# ---------------------------------------------------------------------------
# general-d fallback (small LP per grid cell)
# ---------------------------------------------------------------------------

def _search_general(v, f1, f2, q, delta, entries, objectives, cfg: OracleConfig):
    d = v.size
    nvs = min(cfg.grid_steps_vs, 72)
    na = min(cfg.grid_steps_alpha, 20)
    vs_vals = np.unique(np.concatenate([np.linspace(v[0], v[-1], nvs), v]))
    rows: list[Optional[_Row]] = [None] * len(objectives)
    zero = np.zeros(d)
    can_invert = bool(np.any(np.diff(f1) > MONOTONE_TOL))
    floor_rows = [(np.r_[-q * v * e.fhat.group1, -(1.0 - q) * v * e.fhat.group2],
                   -(e.revenue_floor - MEMBER_TOL)) for e in entries]
    for vs in vs_vals:
        z1 = (v - vs) * f1
        band = (v - vs) * f2
        al_lo = -(vs - v[0]) if can_invert else 0.0
        for al in np.linspace(al_lo, v[-1] - vs, na):
            vr = vs + al
            a_eq = [np.r_[np.ones(d), zero], np.r_[zero, np.ones(d)],
                    np.r_[v, zero], np.r_[zero, v], np.r_[z1, zero]]
            b_eq = [1.0, 1.0, vr, vr, 0.0]
            a_ub = [row for row, _ in floor_rows]
            b_ub = [rhs for _, rhs in floor_rows]
            if delta == 0.0:
                a_eq.append(np.r_[zero, band])
                b_eq.append(0.0)
            else:
                a_ub += [np.r_[zero, band - delta * f2], np.r_[zero, -(band + delta * f2)]]
                b_ub += [0.0, 0.0]
            if not a_ub:
                a_ub = b_ub = None
            for k, spec in enumerate(objectives):
                c = np.r_[spec.obj1 if spec.obj1 is not None else zero,
                          spec.obj2 if spec.obj2 is not None else zero]
                res = lp_maximize(LinearProgram(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq))
                if res.status != OPTIMAL:
                    continue
                pi1, pi2 = res.x[:d], res.x[d:]
                if entries and not _member_mask(v, q, entries, pi1[None], pi2[None])[0]:
                    continue
                revenue = float(q * (v * f1) @ pi1 + (1 - q) * (v * f2) @ pi2)
                if rows[k] is None or res.value > rows[k].value:
                    m2 = float((v * f2) @ pi2) / float(f2 @ pi2)
                    rows[k] = _Row(res.value, revenue, float(vs), float(al), m2 - float(vs),
                                   pi1, pi2)
    return rows


# ---------------------------------------------------------------------------
# candidate assembly and selection
# ---------------------------------------------------------------------------

def _explicit_rows(v, f1, f2, q, delta, entries, policies, objectives):
    """Score hand-picked whole policies (fixed prices, an incumbent) under the
    same constraints the scan enforces.  Returns one row list per objective."""
    per_objective: list[list[_Row]] = [[] for _ in objectives]
    for pol, fixed in policies:
        w1, w2 = pol.group1.weights, pol.group2.weights
        if abs(float(v @ w1 - v @ w2)) > MEMBER_TOL:
            continue
        den1, den2 = float(f1 @ w1), float(f2 @ w2)
        m1 = float((v * f1) @ w1) / den1
        m2 = float((v * f2) @ w2) / den2
        if abs(m1 - m2) > delta + MEMBER_TOL:
            continue
        if entries and not _member_mask(v, q, entries, w1[None], w2[None])[0]:
            continue
        revenue = float(q * (v * f1) @ w1 + (1 - q) * (v * f2) @ w2)
        for k, spec in enumerate(objectives):
            value = 0.0
            if spec.obj1 is not None:
                value += float(spec.obj1 @ w1)
            if spec.obj2 is not None:
                value += float(spec.obj2 @ w2)
            per_objective[k].append(_Row(value, revenue, m1, float(v @ w1) - m1, m2 - m1,
                                         w1, w2, fixed=fixed))
    return per_objective


def _select_best(rows: list[_Row]) -> Optional[_Row]:
    """Deterministic pick: best value, then best revenue, then fixed-price
    candidates, then lexicographically smallest concatenated weights."""
    rows = [r for r in rows if r is not None]
    if not rows:
        return None
    top = max(r.value for r in rows)
    rows = [r for r in rows if r.value >= top - TIE_TOL]
    top_rev = max(r.revenue for r in rows)
    rows = [r for r in rows if r.revenue >= top_rev - TIE_TOL]
    if any(r.fixed for r in rows):
        rows = [r for r in rows if r.fixed]
    return min(rows, key=lambda r: tuple(np.r_[r.pi1, r.pi2]))


def _clean_pair(pi1: np.ndarray, pi2: np.ndarray) -> PolicyPair:
    return PolicyPair(GroupDistribution.renormalized(pi1),
                      GroupDistribution.renormalized(pi2))


def _search(v, f1, f2, q, delta, entries, objectives, cfg, extra_policies=()):
    """Scan + explicit candidates, selected per objective."""
    d = v.size
    if d == 3:
        scan = _search_d3(v, f1, f2, q, delta, entries, objectives, cfg)
    elif d > 3:
        scan = _search_general(v, f1, f2, q, delta, entries, objectives, cfg)
    else:
        scan = [None] * len(objectives)  # one or two prices: explicit only
    policies = [(fixed_price_policy(d, i), True) for i in range(d)]
    policies += [(pol, False) for pol in extra_policies]
    explicit = _explicit_rows(v, f1, f2, q, delta, entries, policies, objectives)
    return [_select_best([scan[k]] + explicit[k]) for k in range(len(objectives))]


def _market_arrays(market: MarketConfig):
    return (market.grid.prices, market.accept.group1, market.accept.group2, market.q)


# ---------------------------------------------------------------------------
# public searches
# ---------------------------------------------------------------------------

def solve_fair_optimal(market: MarketConfig, cfg: Optional[OracleConfig] = None) -> FairSolution:
    """Maximize expected revenue over policies with equal proposed means and
    equal accepted means (U = 0 and S = 0).

    Returns:
        FairSolution with the optimal pair, its exact expected revenue under
        the market, and the (v_s, alpha) parameters it was found at.
    """
    return solve_relaxed_optimal(market, 0.0, cfg)


def solve_relaxed_optimal(market: MarketConfig, delta: float,
                          cfg: Optional[OracleConfig] = None) -> FairSolution:
    """Like :func:`solve_fair_optimal` but lets group 2's accepted mean float
    within ``delta`` of group 1's (linearized band).  ``delta = 0`` recovers
    the strict problem; the optimum value is nondecreasing in ``delta``."""
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    cfg = cfg or _DEFAULT_CFG
    v, f1, f2, q = _market_arrays(market)
    spec = _Objective(q * v * f1, (1.0 - q) * v * f2)
    best = _search(v, f1, f2, q, delta, [], [spec], cfg)[0]
    if best is None:  # unreachable: fixed prices are always feasible here
        raise RuntimeError("no feasible policy found")
    policy = _clean_pair(best.pi1, best.pi2)
    return FairSolution(policy, expected_revenue(market, policy),
                        ParamPoint(best.vs, best.alpha, best.beta))


def empirical_optimizer(fhat: AcceptanceModel, ledger: EliminationLedger, delta_s: float,
                        incumbent: Optional[PolicyPair] = None,
                        cfg: Optional[OracleConfig] = None) -> OptimizerResult:
    """Maximize estimated revenue over the surviving set.

    The candidate must keep its estimated accepted-mean gap within
    ``delta_s`` under ``fhat`` and clear every ledger snapshot.  The fixed
    prices and the ``incumbent`` (if given) are always scored as candidates.
    If nothing survives, the best fixed price by estimated revenue is
    returned with ``ledger_infeasible`` set.
    """
    if delta_s < 0.0:
        raise ValueError("delta_s must be >= 0")
    cfg = cfg or _DEFAULT_CFG
    v, q = ledger.grid.prices, ledger.q
    f1, f2 = fhat.group1, fhat.group2
    spec = _Objective(q * v * f1, (1.0 - q) * v * f2)
    extras = (incumbent,) if incumbent is not None else ()
    best = _search(v, f1, f2, q, delta_s, list(ledger.entries), [spec], cfg, extras)
    if best[0] is not None:
        row = best[0]
        return OptimizerResult(_clean_pair(row.pi1, row.pi2), row.revenue,
                               ParamPoint(row.vs, row.alpha, row.beta))
    # Nothing clears the ledger: fall back to the best fixed price, flagged.
    rev = q * v * f1 + (1.0 - q) * v * f2
    i = int(np.argmax(rev))
    return OptimizerResult(fixed_price_policy(v.size, i), float(rev[i]),
                           ParamPoint(float(v[i]), 0.0), ledger_infeasible=True)


def max_probability_policy(price_index: int, group: int, fhat: AcceptanceModel,
                           ledger: EliminationLedger, delta_s: float,
                           cfg: Optional[OracleConfig] = None) -> MaxProbResult:
    """Find the surviving policy putting the most weight on one grid price.

    Args:
        price_index: grid index whose weight is maximized.
        group: 1 or 2, whose distribution is probed.
        fhat: current acceptance estimates (candidate generation anchor).
        ledger: elimination snapshots every candidate must clear.
        delta_s: fairness band for candidate generation under ``fhat``
            (normally the latest snapshot's band).

    Ties on the achieved weight are broken toward higher estimated revenue,
    then fixed-price policies, then lexicographically smallest weights.  If
    no candidate survives the ledger, ``achieved_prob`` is 0 and the result
    is flagged.
    """
    v, q = ledger.grid.prices, ledger.q
    d = v.size
    if not 0 <= price_index < d:
        raise ValueError(f"price_index {price_index} out of range for d={d}")
    if group not in (1, 2):
        raise ValueError("group must be 1 or 2")
    if delta_s < 0.0:
        raise ValueError("delta_s must be >= 0")
    cfg = cfg or _DEFAULT_CFG
    f1, f2 = fhat.group1, fhat.group2
    e_i = np.zeros(d)
    e_i[price_index] = 1.0
    if group == 1:
        spec = _Objective(e_i, None, t_coef=v * f2)  # segment slack spent on revenue
    else:
        spec = _Objective(None, e_i)
    best = _search(v, f1, f2, q, delta_s, list(ledger.entries), [spec], cfg)[0]
    if best is None:
        return MaxProbResult(None, 0.0, None, ledger_infeasible=True)
    return MaxProbResult(_clean_pair(best.pi1, best.pi2), float(best.value),
                         ParamPoint(best.vs, best.alpha, best.beta))


# ---------------------------------------------------------------------------
# the worked three-price example: closed forms
# ---------------------------------------------------------------------------

_EPS_MAX = 0.05


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps <= _EPS_MAX:
        raise ValueError(f"eps must lie in [0, {_EPS_MAX}]")


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


def eps_family_matrices(eps: float, v_s: float):
    """Constraint matrices [sum; proposed mean; pinned accepted mean] of the
    example family's two groups at anchor v_s.  Rows pair with the right-hand
    side (1, v_s + alpha, 0)."""
    _check_eps(eps)
    v = np.array([0.625, 0.7, 1.0])
    f1 = np.array([0.6, 0.5 - eps, 0.5 - eps])
    f2 = np.array([0.8, 0.8, 0.5 - eps])
    a1 = np.vstack([np.ones(3), v, (v - v_s) * f1])
    a2 = np.vstack([np.ones(3), v, (v - v_s) * f2])
    return a1, a2


def eps_family_policy(eps: float, v_s: float, alpha: float) -> PolicyPair:
    """Reconstruct the example family's strict-parity policy at (v_s, alpha)
    by solving both groups' 3x3 systems exactly.

    Raises:
        SingularMatrixError: at degenerate anchors (e.g. v_s at a pole).
        ValueError: if the reconstructed weights are not a distribution.
    """
    a1, a2 = eps_family_matrices(eps, v_s)
    rhs = np.array([1.0, v_s + alpha, 0.0])
    w1 = solve_linear_system(a1, rhs)
    w2 = solve_linear_system(a2, rhs)
    return PolicyPair(GroupDistribution.renormalized(w1),
                      GroupDistribution.renormalized(w2))
