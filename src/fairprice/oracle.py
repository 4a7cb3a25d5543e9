"""Search for revenue-optimal fair pricing policies.

Every policy considered here posts the same mean price to both groups
(procedural parity, U = 0).  Once the accepted mean ``v_s`` of group 1 is
fixed, the fair problem is one LP over ``(pi1, pi2)``: both sum to one,
their proposed means are equal (the premium ``alpha`` of the shared mean
``v_r = v_s + alpha`` is free), group 1's accepted mean is ``v_s``, and
group 2's is pinned to it (S = 0) or held in the linearized band
``|v'F2 pi2 - v_s * 1'F2 pi2| <= delta * 1'F2 pi2``.  The exact search
solves that LP on a fixed grid of anchors and polishes the best ones inside
their LP basis, where the value is a ratio of polynomials in ``v_s``
(Gass-Saaty parametric LP): its best ``v_s`` is a breakpoint or a
stationary point, and the LP is re-solved there.

Candidates are screened against every snapshot of an elimination ledger
(fairness band and revenue floor).  Floors are LP rows.  Bands compare
accepted means under each snapshot's own estimates, not linear in
``(pi1, pi2)`` jointly: on three prices, a dense ``(v_s, alpha)`` scan of
closed-form solutions folds them exactly (fixing pi1 per cell makes them
linear in pi2); on other grids each anchor's LP optimum is post-filtered,
so an anchor is lost when its optimum fails an older band even if another
policy there would pass.  That is the approximation that remains.
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
# The exact search solves the anchor LP at this many evenly spaced v_s (plus
# the grid prices), then polishes the bases of the best few local maxima.
_SEED_STEPS = 200
_POLISH_SEEDS = 3
# Revenue's weight in the anchor LP, so ties on a probe's weight go to revenue
# as in _select_best; it can cost the objective at most 1e-7.
_REVENUE_TIE = 1e-7
_DET_TOL = 1e-13
_NONNEG_TOL = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Resolution of the d = 3 scan under a ledger; the exact search has none."""

    grid_steps_vs: int = 2000
    grid_steps_alpha: int = 400
    refine_iters: int = 3

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

def _member_mask(v: np.ndarray, q: float, entries: Sequence[LedgerEntry], dot1, dot2):
    """Ledger screen of policies given by their products, dot1(u) = pi1 @ u
    and dot2(u) = pi2 @ u, elementwise over whatever stack they return."""
    ok = True
    for entry in entries:
        f1, f2 = entry.fhat.group1, entry.fhat.group2
        num1, num2 = dot1(v * f1), dot2(v * f2)
        gap = num1 / dot1(f1)
        gap -= num2 / dot2(f2)
        num1 *= q  # now the revenue
        num1 += (1.0 - q) * num2
        ok = ok & (np.abs(gap) <= entry.delta_s + MEMBER_TOL) & (num1 >= entry.revenue_floor - MEMBER_TOL)
    return ok


def member(policy: PolicyPair, ledger: EliminationLedger) -> bool:
    """True when the policy posts equal means (within tolerance) and clears the
    fairness band and revenue floor of every ledger snapshot."""
    v = ledger.grid.prices
    w1, w2 = policy.group1.weights, policy.group2.weights
    return (abs(float(v @ w1 - v @ w2)) <= MEMBER_TOL
            and bool(_member_mask(v, ledger.q, ledger.entries, w1.dot, w2.dot)))


# ---------------------------------------------------------------------------
# the d = 3 ledger scan
# ---------------------------------------------------------------------------

def _adjugate_cols(v: np.ndarray, z: np.ndarray):
    """For M = [[1,1,1], v, z_row] return the first two adjugate columns and
    the determinant, elementwise over stacked z rows of shape (..., 3): the
    solution of M x = [1, r, 0] is then x = (p + r*s) / det."""
    v1, v2, v3 = float(v[0]), float(v[1]), float(v[2])
    z1, z2, z3 = z[..., 0], z[..., 1], z[..., 2]
    p = np.stack([v2 * z3 - v3 * z2, v3 * z1 - v1 * z3, v1 * z2 - v2 * z1], axis=-1)
    s = np.stack([z2 - z3, z3 - z1, z1 - z2], axis=-1)
    det = p[..., 0] + p[..., 1] + p[..., 2]
    return p, s, det


def _pin_group(v: np.ndarray, f: np.ndarray, vs_vals: np.ndarray, vr: np.ndarray):
    """Group weights with accepted mean pinned to each vs, affine in the
    proposed mean vr: pi = a + vr * b with rows a, b of shape (nvs, 3).
    Returns (a, b, feasible); singular rows are nan and never feasible."""
    p, s, det = _adjugate_cols(v, (v[None, :] - vs_vals[:, None]) * f[None, :])
    det = np.where(np.abs(det) > _DET_TOL, det, np.nan)[:, None]
    a, b = p / det, s / det
    feas = np.ones(vr.shape, dtype=bool)
    for e_k in np.eye(3):
        feas &= _affine_dot(a, b, vr)(e_k) >= -_NONNEG_TOL
    return a, b, feas


def _affine_dot(a: np.ndarray, b: np.ndarray, vr: np.ndarray, t=None, n_dir=None):
    """u -> (a + vr * b + t * n_dir) @ u over the (vs, alpha) grid, built
    from products with whole rows instead of a per-cell weight array."""
    def dot(u):
        out = vr * (b @ u)[:, None]
        out += (a @ u)[:, None]
        if t is not None:
            out += t * float(n_dir @ u)
        return out
    return dot


def _tighten(a, b, t_lo, t_hi, feas):
    """Impose a + t*b <= 0 elementwise on the interval [t_lo, t_hi].  Works in
    place and uses a up: the scan's arrays are large, and every fresh one
    can page-fault in again once the allocator has trimmed the heap."""
    b = np.broadcast_to(np.asarray(b, dtype=float), a.shape)
    up, down = b > _DET_TOL, b < -_DET_TOL
    feas &= up | down | (a <= _NONNEG_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = np.divide(a, b, out=a)
    np.negative(cand, out=cand)
    np.fmin(t_hi, cand, out=t_hi, where=up)
    np.fmax(t_lo, cand, out=t_lo, where=down)
    return t_lo, t_hi, feas


def _float_group(v: np.ndarray, f: np.ndarray, vs_vals: np.ndarray, vr: np.ndarray,
                 delta: float):
    """Group-2 solutions under the relaxation band, as segments pi(t) =
    a + vr * b + t * n_dir along the common null direction of the sum and
    proposed-mean rows; returns (a, b, n_dir, t_lo, t_hi, feasible)."""
    n_dir = np.array([v[2] - v[1], v[0] - v[2], v[1] - v[0]])
    p, s, det = _adjugate_cols(v, n_dir)  # det = |n|^2 > 0 for a strict grid
    a, b = (np.broadcast_to(m / det, (vs_vals.size, 3)) for m in (p, s))
    t_lo, t_hi = np.full(vr.shape, -np.inf), np.full(vr.shape, np.inf)
    feas = np.ones(vr.shape, dtype=bool)
    for i, e_i in enumerate(np.eye(3)):  # weights stay nonnegative along the segment
        t_lo, t_hi, feas = _tighten(_affine_dot(a, b, vr)(-e_i), -n_dir[i], t_lo, t_hi, feas)
    band = (v[None, :] - vs_vals[:, None]) * f[None, :]
    for w in (band - delta * f[None, :], -(band + delta * f[None, :])):
        rows = vr * (w @ b[0])[:, None]
        rows += (w @ a[0])[:, None]
        t_lo, t_hi, feas = _tighten(rows, (w @ n_dir)[:, None], t_lo, t_hi, feas)
    return a, b, n_dir, t_lo, t_hi, feas & (t_lo <= t_hi + _NONNEG_TOL)


def _entry_interval_rows(v, q, entries, dot1, base2, n_dir, t_lo, t_hi, feas):
    """Fold every ledger snapshot into the group-2 segment interval.

    With pi1 fixed per cell, each snapshot's fairness band and revenue floor
    are linear in pi2 (the gap ratio multiplied through by the positive
    acceptance mass), so they tighten [t_lo, t_hi] exactly.  The two band
    rows are +-(gap, gap_dir) - width * (base_1, dir_1) on the segment.
    """
    for entry in entries:
        g1, g2 = entry.fhat.group1, entry.fhat.group2
        vg2 = v * g2
        num1 = dot1(v * g1)
        m1 = num1 / dot1(g1)
        width = entry.delta_s + MEMBER_TOL
        base_v, base_1 = base2(vg2), base2(g2)
        dir_v, dir_1 = float(vg2 @ n_dir), float(g2 @ n_dir)
        gap, gap_dir = base_v - m1 * base_1, dir_v - m1 * dir_1
        base_1 *= width
        for sign in (1.0, -1.0):
            t_lo, t_hi, feas = _tighten(sign * gap - base_1, sign * gap_dir - width * dir_1,
                                        t_lo, t_hi, feas)
        a = (entry.revenue_floor - MEMBER_TOL) - q * num1 - (1.0 - q) * base_v
        t_lo, t_hi, feas = _tighten(a, -(1.0 - q) * dir_v, t_lo, t_hi, feas)
    return t_lo, t_hi, feas & (t_lo <= t_hi + _NONNEG_TOL)


@dataclass
class _Objective:
    """Linear objective c . (pi1, pi2); a group-2 segment ends where t_coef .
    pi2 is largest (by default c's group-2 part)."""

    c: np.ndarray
    t_coef: Optional[np.ndarray] = None


@dataclass
class _Row:
    """One surviving candidate: parameters, weights, and scores."""

    value: float
    revenue: float
    point: ParamPoint
    pi1: np.ndarray
    pi2: np.ndarray
    fixed: bool = False


def _row_from_weights(v, f1, f2, q, value, vs, pi1, pi2, fixed=False) -> _Row:
    """A candidate with its revenue and (v_s, alpha, beta) from its weights."""
    revenue = float(q * (v * f1) @ pi1 + (1.0 - q) * (v * f2) @ pi2)
    m2 = float((v * f2) @ pi2) / float(f2 @ pi2)
    return _Row(value, revenue, ParamPoint(vs, float(v @ pi1) - vs, m2 - vs), pi1, pi2, fixed)


def _scan_d3(v, f1, f2, q, delta, entries, vs_vals, alpha, specs) -> list[Optional[_Row]]:
    """Best row of a (vs, alpha) grid, alpha of shape (nvs, na), for each
    objective, or None.  The objective-free state (group-1 rows, the group-2
    segment with the ledger folded in, the feasible cells at each segment
    end used) is built once and freed on return.  Weights enter only
    through products with fixed vectors, so every per-cell array is 2-D."""
    vr = vs_vals[:, None] + alpha
    rows = []
    with np.errstate(all="ignore"):
        a1, b1, feas = _pin_group(v, f1, vs_vals, vr)
        dot1 = _affine_dot(a1, b1, vr)
        if delta == 0.0:
            a2, b2, feas2 = _pin_group(v, f2, vs_vals, vr)
            n_dir, ends = np.zeros(3), (np.zeros(vr.shape),) * 2
        else:
            a2, b2, n_dir, t_lo, t_hi, feas2 = _float_group(v, f2, vs_vals, vr, delta)
            if entries:
                t_lo, t_hi, feas2 = _entry_interval_rows(
                    v, q, entries, dot1, _affine_dot(a2, b2, vr), n_dir, t_lo, t_hi, feas2)
            ends = (t_lo, t_hi)
        feas &= feas2
        feas_at = {}  # segment end -> cells feasible and clearing the ledger
        for spec in specs:
            t_coef = spec.c[3:] if spec.t_coef is None else spec.t_coef
            end = int(float(t_coef @ n_dir) > 0.0)
            t = ends[end]
            dot2 = _affine_dot(a2, b2, vr, t, n_dir)
            value = dot1(spec.c[:3]) + dot2(spec.c[3:])
            if end not in feas_at:
                feas_at[end] = feas & _member_mask(v, q, entries, dot1, dot2) if entries else feas
            score = np.where(feas_at[end] & np.isfinite(value), value, -np.inf)
            i, j = np.unravel_index(int(np.argmax(score)), score.shape)
            if not np.isfinite(score[i, j]):
                rows.append(None)
                continue
            pi1 = a1[i] + vr[i, j] * b1[i]
            pi2 = a2[i] + vr[i, j] * b2[i] + t[i, j] * n_dir
            rows.append(_row_from_weights(v, f1, f2, q, float(value[i, j]), float(vs_vals[i]),
                                          pi1, pi2))
    return rows


def _search_d3(v, f1, f2, q, delta, entries, specs, cfg: OracleConfig) -> list[Optional[_Row]]:
    """Full scan + windowed refinement, one row per objective.  The full scan
    spans each vs row's premium range, reaching below zero when the anchor
    curve inverts.  Objectives whose rows sit at the same (v_s, alpha) share
    their refine window."""
    vs0 = np.unique(np.concatenate([np.linspace(v[0], v[-1], cfg.grid_steps_vs), v]))
    lo = -(vs0 - v[0]) if np.any(np.diff(f1) > MONOTONE_TOL) else np.zeros_like(vs0)
    fracs = np.linspace(0.0, 1.0, cfg.grid_steps_alpha)
    alpha = lo[:, None] + fracs[None, :] * (v[-1] - vs0 - lo)[:, None]
    rows = _scan_d3(v, f1, f2, q, delta, entries, vs0, alpha, specs)
    d_vs = (v[-1] - v[0]) / (cfg.grid_steps_vs - 1)
    d_al = (v[-1] - v[0]) / (cfg.grid_steps_alpha - 1)
    shrink = 2.0 * _REFINE_WINDOW / (_REFINE_STEPS - 1)
    for _ in range(cfg.refine_iters - 1):
        w_vs, w_al = _REFINE_WINDOW * d_vs, _REFINE_WINDOW * d_al
        windows: dict[tuple, list[int]] = {}
        for k, row in enumerate(rows):
            if row is not None:
                windows.setdefault((row.point.v_s, row.point.alpha), []).append(k)
        for (vs, al), ks in windows.items():
            vs_win = np.linspace(max(v[0], vs - w_vs), min(v[-1], vs + w_vs), _REFINE_STEPS)
            al_win = np.linspace(al - w_al, al + w_al, _REFINE_STEPS)
            found = _scan_d3(v, f1, f2, q, delta, entries, vs_win,
                             np.broadcast_to(al_win, (_REFINE_STEPS, _REFINE_STEPS)),
                             [specs[k] for k in ks])
            for k, better in zip(ks, found):
                if better is not None and better.value >= rows[k].value:
                    rows[k] = better
        d_vs *= shrink
        d_al *= shrink
    return rows


# ---------------------------------------------------------------------------
# exact search (v_s outer, LP inner), candidate assembly and selection
# ---------------------------------------------------------------------------

def _anchor_lp(v, f1, f2, q, delta, entries, c, vs) -> LinearProgram:
    """The fair LP at anchor vs over x = (pi1, pi2): both sums 1, equal
    proposed means (the premium is free), group 1's accepted mean at vs,
    group 2's pinned (delta = 0) or in its band, and the ledger floors."""
    zero, one = np.zeros(v.size), np.ones(v.size)
    a_eq = [np.r_[one, zero], np.r_[zero, one], np.r_[v, -v], np.r_[(v - vs) * f1, zero]]
    b_eq = [1.0, 1.0, 0.0, 0.0]
    a_ub = [np.r_[-q * v * e.fhat.group1, -(1.0 - q) * v * e.fhat.group2] for e in entries]
    b_ub = [MEMBER_TOL - e.revenue_floor for e in entries]
    band = (v - vs) * f2
    if delta == 0.0:
        a_eq.append(np.r_[zero, band])
        b_eq.append(0.0)
    else:
        a_ub += [np.r_[zero, band - delta * f2], np.r_[zero, -(band + delta * f2)]]
        b_ub += [0.0, 0.0]
    return LinearProgram(c, a_ub=a_ub or None, b_ub=b_ub or None, a_eq=a_eq, b_eq=b_eq)


def _split_rows(lp: LinearProgram, x: np.ndarray, tight=None):
    """(a, b) of the rows active at x (equalities, inequalities without slack),
    (a, b) of the others, and the tight mask, which a later call can reuse."""
    a_ub = np.empty((0, lp.n)) if lp.a_ub is None else lp.a_ub
    b_ub = np.empty(0) if lp.b_ub is None else lp.b_ub
    if tight is None:
        tight = b_ub - a_ub @ x <= _NONNEG_TOL
    return (np.vstack([lp.a_eq, a_ub[tight]]), np.r_[lp.b_eq, b_ub[tight]],
            a_ub[~tight], b_ub[~tight], tight)


def _vertex(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """x re-solved from its active rows over its support: one vertex gives
    the same bits whatever the pivots or the rows that do not bind there (a
    wider band), so the relaxed optimum cannot dip by rounding as it grows."""
    a, b, *_ = _split_rows(lp, x)
    support = x > _NONNEG_TOL
    out = np.zeros_like(x)
    out[support] = np.linalg.lstsq(a[:, support], b, rcond=None)[0]
    return out


def _real_roots(poly: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Real roots in [lo, hi]; leading coefficients may be rounding noise."""
    big = np.flatnonzero(np.abs(poly) > 1e-10 * np.max(np.abs(poly), initial=0.0))
    if big.size == 0 or big[0] >= poly.size - 1:
        return np.empty(0)
    roots = np.roots(poly[big[0]:])
    roots = roots.real[np.abs(roots.imag) <= 1e-7]
    return roots[(roots >= lo) & (roots <= hi)]


def _basis_anchors(lp_at, x: np.ndarray, vs: float, v: np.ndarray) -> np.ndarray:
    """Anchors in [v_1, v_d] where the LP's value can peak while x's basis holds.

    When x is nondegenerate, its active rows over its support are square.
    At most two of them move with v_s, affinely (group 1's anchor; group 2's
    pin or binding band edge), so by Cramer's rule each basic weight is
    P_j / D, each inactive row's slack R_k / D and the objective N / D, all
    polynomials in v_s of degree <= 3.  The basis peaks at a breakpoint (a
    root of some P_j or R_k) or a root of N'D - ND'; those where the basis
    stays feasible are returned, none when x is degenerate.
    """
    a, _, _, _, tight = _split_rows(lp_at(vs), x)
    support = np.flatnonzero(x > _NONNEG_TOL)
    if v[-1] <= v[0] or support.size != a.shape[0]:
        return np.empty(0)
    # Fit in u = (v_s - mid) / half on [-1, 1], where the monomials are well
    # conditioned; five nodes fix a quartic, a margin over degree 3.
    mid, half = 0.5 * (v[0] + v[-1]), 0.5 * (v[-1] - v[0])
    nodes = np.linspace(-1.0, 1.0, 5)
    values = []
    for u in nodes:
        a, b, a_in, b_in, _ = _split_rows(lp_at(mid + half * u), x, tight)
        stack = np.repeat(a[None, :, support], support.size + 1, axis=0)
        for j in range(support.size):
            stack[j + 1, :, j] = b
        dets = np.linalg.det(stack)  # D, then each P_j
        values.append(np.r_[dets, b_in * dets[0] - a_in[:, support] @ dets[1:]])
    coef = np.linalg.solve(np.vander(nodes), np.array(values))
    den, nums = coef[:, 0], coef[:, 1:]
    obj = nums[:, :support.size] @ lp_at(vs).objective[support]
    stationary = np.polysub(np.polymul(np.polyder(obj), den),
                            np.polymul(obj, np.polyder(den)))
    u = np.concatenate([_real_roots(p, -1.0, 1.0) for p in (stationary, *nums.T)])
    d_u = np.polyval(den, u)
    basic = np.array([np.polyval(p, u) for p in nums.T]).reshape(-1, u.size)
    ok = (d_u != 0.0) & np.all(basic * np.sign(d_u) >= -1e-9 * np.abs(d_u), axis=0)
    return np.unique(mid + half * u[ok])


def _search_lp(v, f1, f2, q, delta, entries, spec) -> Optional[_Row]:
    """The anchor LP at every seed v_s, then the best local maxima polished
    in their basis; ledger bands are post-filtered (module docstring)."""
    d, c = v.size, spec.c
    lp_c = c + _REVENUE_TIE * np.r_[q * v * f1, (1.0 - q) * v * f2]

    def lp_at(vs):
        return _anchor_lp(v, f1, f2, q, delta, entries, lp_c, vs)

    def solve(vs) -> Optional[_Row]:
        lp = lp_at(vs)
        res = lp_maximize(lp)
        if res.status != OPTIMAL:
            return None
        x = _vertex(lp, res.x)
        pi1, pi2 = x[:d], x[d:]
        if entries and not _member_mask(v, q, entries, pi1.dot, pi2.dot):
            return None
        return _row_from_weights(v, f1, f2, q, float(c @ x), float(vs), pi1, pi2)

    rows = [solve(vs) for vs in np.unique(np.r_[np.linspace(v[0], v[-1], _SEED_STEPS), v])]
    values = np.array([-np.inf if r is None else r.value for r in rows])
    padded = np.r_[-np.inf, values, -np.inf]
    peaks = [i for i in np.argsort(-values, kind="stable")
             if rows[i] is not None and padded[i] <= values[i] >= padded[i + 2]]
    found = [r for r in rows if r is not None]
    for i in peaks[:_POLISH_SEEDS]:
        anchors = _basis_anchors(lp_at, np.r_[rows[i].pi1, rows[i].pi2], rows[i].point.v_s, v)
        found += [r for r in map(solve, anchors) if r is not None]
    return max(found, key=lambda r: (r.value, r.revenue), default=None)


def _explicit_rows(v, f1, f2, q, delta, entries, policies, spec) -> list[_Row]:
    """Score hand-picked whole policies (fixed prices, an incumbent) under the
    same constraints the searches enforce."""
    rows = []
    for pol, fixed in policies:
        w1, w2 = pol.group1.weights, pol.group2.weights
        row = _row_from_weights(v, f1, f2, q, float(spec.c @ np.r_[w1, w2]),
                                float((v * f1) @ w1) / float(f1 @ w1), w1, w2, fixed)
        if (abs(float(v @ w1 - v @ w2)) <= MEMBER_TOL and abs(row.point.beta) <= delta + MEMBER_TOL
                and (not entries or _member_mask(v, q, entries, w1.dot, w2.dot))):
            rows.append(row)
    return rows


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


def _search(v, f1, f2, q, delta, entries, specs, cfg=None, extra_policies=()):
    """Best candidate for each objective.  A three-price grid with ledger
    snapshots takes the closed-form scan, which folds the bands exactly and
    shares its objective-free state between the objectives; everything else
    takes the exact LP search, one objective at a time.  The fixed prices and
    any extra policies are scored as candidates too."""
    if v.size == 3 and entries:
        found = _search_d3(v, f1, f2, q, delta, entries, specs, cfg or _DEFAULT_CFG)
    else:
        found = [_search_lp(v, f1, f2, q, delta, entries, spec) for spec in specs]
    policies = [(fixed_price_policy(v.size, i), True) for i in range(v.size)]
    policies += [(pol, False) for pol in extra_policies]
    return [_select_best([row] + _explicit_rows(v, f1, f2, q, delta, entries, policies, spec))
            for row, spec in zip(found, specs)]


# ---------------------------------------------------------------------------
# public searches
# ---------------------------------------------------------------------------

def solve_fair_optimal(market: MarketConfig) -> FairSolution:
    """Maximize expected revenue over policies with equal proposed means and
    equal accepted means (U = 0 and S = 0).

    Returns:
        FairSolution with the optimal pair, its exact expected revenue under
        the market, and the (v_s, alpha) parameters it was found at.
    """
    return solve_relaxed_optimal(market, 0.0)


def solve_relaxed_optimal(market: MarketConfig, delta: float) -> FairSolution:
    """Like :func:`solve_fair_optimal` but lets group 2's accepted mean float
    within ``delta`` of group 1's (linearized band).  ``delta = 0`` recovers
    the strict problem; the optimum value is nondecreasing in ``delta``."""
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    v, f1, f2, q = market.grid.prices, market.accept.group1, market.accept.group2, market.q
    best, = _search(v, f1, f2, q, delta, [], [_Objective(np.r_[q * v * f1, (1.0 - q) * v * f2])])
    if best is None:  # unreachable: fixed prices are always feasible here
        raise RuntimeError("no feasible policy found")
    policy = _clean_pair(best.pi1, best.pi2)
    return FairSolution(policy, expected_revenue(market, policy), best.point)


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
    v, q = ledger.grid.prices, ledger.q
    f1, f2 = fhat.group1, fhat.group2
    spec = _Objective(np.r_[q * v * f1, (1.0 - q) * v * f2])
    extras = (incumbent,) if incumbent is not None else ()
    row, = _search(v, f1, f2, q, delta_s, list(ledger.entries), [spec], cfg, extras)
    if row is not None:
        return OptimizerResult(_clean_pair(row.pi1, row.pi2), row.revenue, row.point)
    # Nothing clears the ledger: fall back to the best fixed price, flagged.
    rev = q * v * f1 + (1.0 - q) * v * f2
    i = int(np.argmax(rev))
    return OptimizerResult(fixed_price_policy(v.size, i), float(rev[i]),
                           ParamPoint(float(v[i]), 0.0), ledger_infeasible=True)


def max_probability_policies(probes: Sequence[tuple[int, int]], fhat: AcceptanceModel,
                             ledger: EliminationLedger, delta_s: float,
                             cfg: Optional[OracleConfig] = None) -> list[MaxProbResult]:
    """Find, for each probe, the surviving policy putting the most weight on
    one grid price.

    Args:
        probes: (price_index, group) pairs; the grid index whose weight is
            maximized and the group (1 or 2) whose distribution is probed.
        fhat: current acceptance estimates (candidate generation anchor).
        ledger: elimination snapshots every candidate must clear.
        delta_s: fairness band for candidate generation under ``fhat``
            (normally the latest snapshot's band).

    The probes share the surviving set, so on three prices they are scored
    against one scan of it.  Each result is the one
    :func:`max_probability_policy` gives for its probe: ties on the achieved
    weight are broken toward higher estimated revenue, then fixed-price
    policies, then lexicographically smallest weights.  If no candidate
    survives the ledger, ``achieved_prob`` is 0 and the result is flagged.
    """
    v, q = ledger.grid.prices, ledger.q
    d = v.size
    f1, f2 = fhat.group1, fhat.group2
    specs = []
    for price_index, group in probes:
        if not 0 <= price_index < d:
            raise ValueError(f"price_index {price_index} out of range for d={d}")
        if group not in (1, 2):
            raise ValueError("group must be 1 or 2")
        c = np.zeros(2 * d)
        c[(group - 1) * d + price_index] = 1.0
        # A group-1 probe spends group 2's segment slack on revenue.
        specs.append(_Objective(c, t_coef=v * f2 if group == 1 else None))
    if delta_s < 0.0:
        raise ValueError("delta_s must be >= 0")
    if not specs:
        return []
    return [MaxProbResult(None, 0.0, None, ledger_infeasible=True) if best is None
            else MaxProbResult(_clean_pair(best.pi1, best.pi2), float(best.value), best.point)
            for best in _search(v, f1, f2, q, delta_s, list(ledger.entries), specs, cfg)]


def max_probability_policy(price_index: int, group: int, fhat: AcceptanceModel,
                           ledger: EliminationLedger, delta_s: float,
                           cfg: Optional[OracleConfig] = None) -> MaxProbResult:
    """Find the surviving policy putting the most weight on one grid price:
    :func:`max_probability_policies` with the single probe
    ``(price_index, group)``."""
    return max_probability_policies([(price_index, group)], fhat, ledger, delta_s, cfg)[0]


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
