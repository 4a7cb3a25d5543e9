"""Search for revenue-optimal fair pricing policies.

Every policy considered here posts the same mean price to both groups
(procedural parity, U = 0).  Once the accepted mean ``v_s`` of group 1 is
fixed, the fair problem is one LP over ``(pi1, pi2)``: both sum to one,
their proposed means are equal (the premium ``alpha`` of the shared mean
``v_r = v_s + alpha`` is free), group 1's accepted mean is ``v_s``, and
group 2's is pinned to it (S = 0) or held in the linearized band
``|v'F2 pi2 - v_s * 1'F2 pi2| <= delta * 1'F2 pi2``.  The exact search walks
``v_s`` from ``v_1`` to ``v_d`` through that LP's optimal bases (Gass-Saaty
parametric LP): inside one basis the value is a ratio of polynomials in
``v_s``, best at a breakpoint or a stationary point, so one LP solve per
basis replaces any grid of anchors.

Candidates are screened against every snapshot of an elimination ledger
(fairness band and revenue floor).  Floors are LP rows.  Bands compare
accepted means under each snapshot's own estimates, not linear in
``(pi1, pi2)`` jointly: on three prices, a ``(v_s, alpha)`` grid scan of
closed-form solutions folds them exactly (fixing pi1 per cell makes them
linear in pi2), on the cells of one premium interval per ``v_s`` that
group 1's nonnegativity admits; on other grids the walk keeps the LP
optimum at each ``v_s`` only where it clears every band, exactly along
``v_s``, so a ``v_s`` is lost when its optimum fails an older band even if
another policy there would pass.  That is the approximation that remains.

The tolerance chain, from :mod:`fairprice.linsolve` (each LP row held to
``FEAS_TOL``) to :mod:`fairprice.core` (weights renormalized by rounding):

* :func:`member` allows ``MEMBER_TOL`` on the gap of proposed means and,
  per snapshot, on the band (in accepted-mean units) and on the floor;
* each constraint is built once, at its stated value, and ``MEMBER_TOL`` is
  slack only where membership is tested: the scan folds every snapshot
  exactly; the walk holds floors and equal means as LP rows (to
  ``FEAS_TOL`` <= ``MEMBER_TOL``, in those units), checks each snapshot's
  band along ``v_s`` with half ``MEMBER_TOL`` of room and screens every
  vertex it keeps with member's own test; hand-picked candidates take that
  test too.  So a search's result is a member of the ledger it was searched
  under;
* the one link that does not hold yet is the walk's current band, which
  is no snapshot yet but becomes the next one: an LP row in numerator
  units, held to ``FEAS_TOL`` there, so in accepted-mean units it can miss
  by ``FEAS_TOL`` over group 2's acceptance mass.  Seed 133 of ROADMAP
  item 4's episodes (d = 6) shows it: epoch 3's incumbent misses its own
  snapshot's band by 1.69e-9.  Mending it is left to that item.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    AcceptanceModel,
    GroupDistribution,
    MarketConfig,
    PolicyPair,
    PriceGrid,
    expected_revenue,
    fixed_price_policy,
)
from .linsolve import FEAS_TOL, MAX_LP_VARS, OPTIMAL, ROUNDING_TOL, LinearProgram, lp_maximize

# Slack of every ledger membership test (search constraints carry none).
MEMBER_TOL = 1e-9
# Candidates within this band of the best are considered tied.
TIE_TOL = 1e-9
# Grid cells kept on each side of an argmax when a scan window shrinks.
_REFINE_WINDOW = 12
_REFINE_STEPS = 241
# The walk in v_s re-solves this far (times the price range) past each
# breakpoint, and ten times farther after each basis it cannot follow.
_NUDGE = 1e-9
# Where each basis is fitted, in u = (v_s - mid) / half on [-1, 1]: five
# nodes fix a quartic, a margin over the fitted polynomials' degree 3.
_FIT_NODES = np.linspace(-1.0, 1.0, 5)
_FIT_VANDER = np.vander(_FIT_NODES)
# Revenue's weight in the anchor LP, so ties on a probe's weight go to revenue
# as in _select_best; it can cost the objective at most 1e-7.
_REVENUE_TIE = 1e-7
# The walk re-solves a candidate point unless its fitted value is this far
# below the best re-solved value (see _search_lp).
_RESOLVE_MARGIN = TIE_TOL
# Where |D| is below this share of its largest coefficient, a fitted value
# N / D is not trusted and the point is always re-solved.
_FIT_DEN_TOL = 1e-3
# A fitted polynomial's coefficients below this share of its largest, and
# its values at most this share, are rounding noise: leading coefficients are
# dropped before its roots are found, a polynomial of such coefficients alone
# is zero, and where D is this small the basis is singular and offers no point.
_FIT_NOISE = 1e-10
# A root whose imaginary part is at most this is real.
_REAL_IMAG = 1e-7


@dataclass(frozen=True)
class OracleConfig:
    """Resolution of the d = 3 scan under a ledger; the exact search has none."""

    grid_steps_vs: int = 500
    grid_steps_alpha: int = 120
    refine_iters: int = 2

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
        for entry in self.entries:
            self._check_estimates(entry.fhat)

    def _check_estimates(self, fhat: AcceptanceModel) -> None:
        """Raise ValueError unless ``fhat`` has one estimate per grid price."""
        if fhat.d != self.grid.d:
            raise ValueError(f"estimates for {fhat.d} prices on a ledger of {self.grid.d}")

    def append(self, entry: LedgerEntry) -> None:
        self._check_estimates(entry.fhat)
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

def _clears_ledger(v: np.ndarray, q: float, entries: Sequence[LedgerEntry],
                   w1: np.ndarray, w2: np.ndarray) -> bool:
    """Membership by weights: True when the groups' proposed means are equal
    and the weights clear every snapshot's band and floor, each with
    MEMBER_TOL to spare."""
    for entry in entries:
        f1, f2 = entry.fhat.group1, entry.fhat.group2
        num1, num2 = float(w1 @ (v * f1)), float(w2 @ (v * f2))
        gap = num1 / float(w1 @ f1) - num2 / float(w2 @ f2)
        revenue = q * num1 + (1.0 - q) * num2
        if abs(gap) > entry.delta_s + MEMBER_TOL or revenue < entry.revenue_floor - MEMBER_TOL:
            return False
    return abs(float(v @ w1 - v @ w2)) <= MEMBER_TOL


def member(policy: PolicyPair, ledger: EliminationLedger) -> bool:
    """True when the policy posts equal means (within tolerance) and clears the
    fairness band and revenue floor of every ledger snapshot."""
    v = ledger.grid.prices
    w1, w2 = policy.group1.weights, policy.group2.weights
    return _clears_ledger(v, ledger.q, ledger.entries, w1, w2)


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


def _pin_cells(v, f, vs_vals, lo, span, axis):
    """Group weights with accepted mean pinned to each vs, affine in the
    proposed mean vr: pi = a + vr * b, rows a, b of shape (nvs, 3) (nan where
    singular); and, as _Cells, the cells of vr[r, j] = vs[r] + (lo[r] +
    axis[j] * span[r]) (span >= 0, axis ascending) whose weights all pass >=
    -ROUNDING_TOL.  vr and every rounding are monotone in j, so a row admits
    one interval [first, end): guessed from the real crossings, then stepped
    while the test, evaluated beside each end as on the whole grid, says so."""
    p, s, det = _adjugate_cols(v, (v[None, :] - vs_vals[:, None]) * f[None, :])
    det = np.where(np.abs(det) > ROUNDING_TOL, det, np.nan)[:, None]
    a, b = p / det, s / det
    # Weights lead and rows run along the last axis, the long one.
    n, ak, bk = axis.size, np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    up = bk > 0.0

    def passes(j):  # each weight's test at cells (r, j[i, r]): shape (3,) + j.shape
        vr = vs_vals + (lo + axis.take(j, mode="clip") * span)
        return vr * bk[:, None] + ak[:, None] >= -ROUNDING_TOL

    # A rising weight passes from its crossing on, another up to it; a flat or
    # nan one, or any on a zero-span row, passes at every j or at none.
    t = ((-ROUNDING_TOL - ak) / bk - vs_vals - lo) / span
    decided = ~(up | (bk < 0.0)) | (span == 0.0)
    if decided.any():
        col0 = passes(np.zeros((1, span.size), int))[:, 0]
        t[decided] = np.where(col0 != up, np.inf, -np.inf)[decided]
    first = np.searchsorted(axis, np.where(up, t, -np.inf), "left").max(axis=0)
    end = np.searchsorted(axis, np.where(up, np.inf, t), "right").min(axis=0)
    while True:  # first: least j where all rising weights pass; end: where another fails
        ok = passes(np.stack([first - 1, first, end - 1, end]))
        rising, other = np.all(ok | ~up[:, None], axis=0), np.all(ok | up[:, None], axis=0)
        step_first = ((first < n) & ~rising[1]).astype(int) - ((first > 0) & rising[0])
        step_end = ((end < n) & other[3]).astype(int) - ((end > 0) & ~other[2])
        if not (step_first.any() or step_end.any()):
            break
        first += step_first
        end += step_end
    count = np.maximum(end - first, 0)
    rows = np.repeat(np.arange(vs_vals.size), count)
    j = np.arange(rows.size) + (first - (np.cumsum(count) - count)).take(rows)
    return a, b, _Cells(vs_vals.take(rows) + (lo.take(rows) + axis.take(j) * span.take(rows)), rows)


def _pin_dot(a: np.ndarray, b: np.ndarray, vr: np.ndarray, rows, u: np.ndarray) -> np.ndarray:
    """(a + vr * b) @ u over flat cells, cell k in v_s row rows[k]: products
    with whole rows of a and b are taken once per row and gathered, so no
    per-cell weight array is built.  The scan passes only the cells still
    alive; rows = 0 takes a pin that is one row broadcast over every v_s."""
    out = vr * (b @ u)[rows]
    out += (a @ u)[rows]
    return out


def _tighten(a, b, t_lo, t_hi, feas) -> None:
    """Impose a + t*b <= 0 elementwise on the interval [t_lo, t_hi], folding
    into t_lo, t_hi and feas in place; uses a up.  A scalar slope b needs no
    masks.  Division by a zero slope is masked out, so the scan runs this
    under np.errstate."""
    if np.ndim(b) == 0:
        up, down = bool(b > ROUNDING_TOL), bool(b < -ROUNDING_TOL)
        if not (up or down):
            feas &= a <= ROUNDING_TOL
            return
    else:
        up, down = b > ROUNDING_TOL, b < -ROUNDING_TOL
        feas &= up | down | (a <= ROUNDING_TOL)
    cand = np.divide(a, b, out=a)
    np.negative(cand, out=cand)
    np.fmin(t_hi, cand, out=t_hi, where=up)
    np.fmax(t_lo, cand, out=t_lo, where=down)


class _Cells:
    """The scan's live cells, flat in row-major grid order: proposed mean,
    v_s row, and group 2's segment [t_lo, t_hi] so far."""

    def __init__(self, vr: np.ndarray, rows: np.ndarray):
        self.vr, self.rows = vr, rows
        self.t_lo, self.t_hi = np.full(rows.size, -np.inf), np.full(rows.size, np.inf)

    def keep(self, feas: np.ndarray) -> None:
        """Drop the cells whose segment is infeasible or empty, in place.
        t_lo only rises, t_hi only falls and feas only clears, so no dropped
        cell could come back."""
        alive = feas & (self.t_lo <= self.t_hi + ROUNDING_TOL)
        self.vr, self.rows, self.t_lo, self.t_hi = (
            x[alive] for x in (self.vr, self.rows, self.t_lo, self.t_hi))


def _group2_segment(v, q, f2, vs_vals, cells: _Cells, delta, entries, a1, b1):
    """Group 2 as segments pi(t) = a + vr * b + t * n_dir along the common
    null direction of the sum and proposed-mean rows, with every group-2 row
    folded into [t_lo, t_hi]: nonnegativity, the current band (delta = 0
    shrinks the segment to a point), and each snapshot's band and floor.
    Cells are dropped once a fold cuts them, after the segment's own rows
    and after each snapshot; group 1's pin (a1, b1) is per v_s row.

    With pi1 fixed per cell a snapshot's rows are linear in pi2 (the gap
    ratio multiplied through by the positive acceptance mass), so the fold
    is exact; its band rows are +-(gap, gap_dir) - width * (base_1, dir_1).
    Returns (a, b, n_dir); ``cells`` is compacted in place.
    """
    n_dir = np.array([v[2] - v[1], v[0] - v[2], v[1] - v[0]])
    p, s, det = _adjugate_cols(v, n_dir)  # det = |n|^2 > 0 for a strict grid
    # One row broadcast over every v_s; (b @ u)[0] on the broadcast array
    # keeps the bits of the per-row products.
    a, b = (np.broadcast_to(m / det, (vs_vals.size, 3)) for m in (p, s))
    feas = np.ones(cells.vr.shape, dtype=bool)
    for i, e_i in enumerate(np.eye(3)):
        _tighten(_pin_dot(a, b, cells.vr, 0, -e_i), -n_dir[i], cells.t_lo, cells.t_hi, feas)
    band = (v[None, :] - vs_vals[:, None]) * f2[None, :]
    for w in (band - delta * f2[None, :], -(band + delta * f2[None, :])):
        edge = cells.vr * (w @ b[0])[cells.rows]
        edge += (w @ a[0])[cells.rows]
        _tighten(edge, (w @ n_dir)[cells.rows], cells.t_lo, cells.t_hi, feas)
    cells.keep(feas)
    for entry in entries:
        g1, g2 = entry.fhat.group1, entry.fhat.group2
        vg2, width = v * g2, entry.delta_s
        vr, rows = cells.vr, cells.rows
        feas = np.ones(vr.shape, dtype=bool)
        num1 = _pin_dot(a1, b1, vr, rows, v * g1)
        m1 = num1 / _pin_dot(a1, b1, vr, rows, g1)
        base_v, base_1 = _pin_dot(a, b, vr, 0, vg2), _pin_dot(a, b, vr, 0, g2)
        dir_v, dir_1 = float(vg2 @ n_dir), float(g2 @ n_dir)
        gap, gap_dir = base_v - m1 * base_1, dir_v - m1 * dir_1
        base_1 *= width
        for sign in (1.0, -1.0):
            _tighten(sign * gap - base_1, sign * gap_dir - width * dir_1,
                     cells.t_lo, cells.t_hi, feas)
        floor = entry.revenue_floor - q * num1 - (1.0 - q) * base_v
        _tighten(floor, -(1.0 - q) * dir_v, cells.t_lo, cells.t_hi, feas)
        cells.keep(feas)
    return a, b, n_dir


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


def _scan_d3(v, f1, f2, q, delta, entries, vs_vals, lo, span, axis,
             specs) -> list[Optional[_Row]]:
    """Best row of the grid alpha[r, j] = lo[r] + axis[j] * span[r] (span >= 0,
    axis ascending) over vs_vals for each objective, or None.  Only the cells
    group 1's pin admits are built, one premium interval per v_s row
    (_pin_cells), and the group-2 segment drops each cell as soon as a fold
    cuts it.  Every objective runs on the survivors alone, still in row-major
    order, so argmax keeps the grid's first-maximum tie rule.  Weights enter
    only through products with fixed vectors (_pin_dot); the objective-free
    state is built once and freed on return."""
    with np.errstate(all="ignore"):
        a1, b1, cells = _pin_cells(v, f1, vs_vals, lo, span, axis)
        a2, b2, n_dir = _group2_segment(v, q, f2, vs_vals, cells, delta, entries, a1, b1)
        if cells.rows.size == 0:
            return [None] * len(specs)
        vr, rows = cells.vr, cells.rows
        found = []
        for spec in specs:
            t_coef = spec.c[3:] if spec.t_coef is None else spec.t_coef
            t = cells.t_hi if float(t_coef @ n_dir) > 0.0 else cells.t_lo
            value = _pin_dot(a1, b1, vr, rows, spec.c[:3])
            part2 = _pin_dot(a2, b2, vr, 0, spec.c[3:])
            part2 += t * float(n_dir @ spec.c[3:])
            value += part2
            score = np.where(np.isfinite(value), value, -np.inf)
            k = int(np.argmax(score))
            if not np.isfinite(score[k]):
                found.append(None)
                continue
            i = rows[k]
            pi1 = a1[i] + vr[k] * b1[i]
            pi2 = a2[i] + vr[k] * b2[i] + t[k] * n_dir
            found.append(_row_from_weights(v, f1, f2, q, float(value[k]), float(vs_vals[i]),
                                           pi1, pi2))
    return found


def _search_d3(v, f1, f2, q, delta, entries, specs, cfg: OracleConfig) -> list[Optional[_Row]]:
    """Full scan + windowed refinement, one row per objective.  The full scan
    spans each vs row's premium range on one axis of fractions, reaching
    below zero when the anchor curve inverts; a refine window is one premium
    axis shared by its rows.  Objectives whose rows sit at the same
    (v_s, alpha) share their refine window."""
    vs0 = np.unique(np.concatenate([np.linspace(v[0], v[-1], cfg.grid_steps_vs), v]))
    lo = -(vs0 - v[0]) if np.any(np.diff(f1) > ROUNDING_TOL) else np.zeros_like(vs0)
    fracs = np.linspace(0.0, 1.0, cfg.grid_steps_alpha)
    rows = _scan_d3(v, f1, f2, q, delta, entries, vs0, lo, v[-1] - vs0 - lo, fracs, specs)
    d_vs = (v[-1] - v[0]) / (cfg.grid_steps_vs - 1)
    d_al = (v[-1] - v[0]) / (cfg.grid_steps_alpha - 1)
    shrink = 2.0 * _REFINE_WINDOW / (_REFINE_STEPS - 1)
    # 0.0 + axis * 1.0 is the axis bit for bit, bar the sign of a zero, which
    # cannot change v_s + alpha.
    win_lo, win_span = np.zeros(_REFINE_STEPS), np.ones(_REFINE_STEPS)
    for _ in range(cfg.refine_iters - 1):
        w_vs, w_al = _REFINE_WINDOW * d_vs, _REFINE_WINDOW * d_al
        windows: dict[tuple, list[int]] = {}
        for k, row in enumerate(rows):
            if row is not None:
                windows.setdefault((row.point.v_s, row.point.alpha), []).append(k)
        for (vs, al), ks in windows.items():
            vs_win = np.linspace(max(v[0], vs - w_vs), min(v[-1], vs + w_vs), _REFINE_STEPS)
            al_win = np.linspace(al - w_al, al + w_al, _REFINE_STEPS)
            found = _scan_d3(v, f1, f2, q, delta, entries, vs_win, win_lo, win_span, al_win,
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

class _Rows(NamedTuple):
    """An LP over x >= 0 as stacked rows, equalities first: maximize c'x
    with a x = b on the first n_eq rows and a x <= b on the others.  a and b
    may carry a leading axis of fit nodes."""

    a: np.ndarray
    b: np.ndarray
    n_eq: int
    c: np.ndarray

    def lp(self) -> LinearProgram:
        n = self.n_eq
        return LinearProgram(self.c, a_ub=self.a[n:], b_ub=self.b[n:], a_eq=self.a[:n],
                             b_eq=self.b[:n])

    def active(self, x: np.ndarray) -> np.ndarray:
        """Rows active at x: equalities, inequalities without slack."""
        a, b, n = self.a, self.b, self.n_eq
        return np.concatenate([np.arange(n), n + np.flatnonzero(b[n:] - a[n:] @ x <= ROUNDING_TOL)])

    def basis_point(self, rows, cols) -> np.ndarray:
        """The basic solution of a basis: its rows solved over its columns,
        every other weight zero."""
        x = np.zeros(self.c.size)
        x[cols] = np.linalg.lstsq(self.a[rows][:, cols], self.b[rows], rcond=None)[0]
        return x

    def vertex(self, x: np.ndarray) -> np.ndarray:
        """x re-solved from its active rows over its support: one vertex gives
        the same bits whatever the pivots or the rows that do not bind there
        (a wider band), so the relaxed optimum cannot dip by rounding as it
        grows."""
        active, support = self.active(x), x > ROUNDING_TOL
        out = np.zeros_like(x)
        out[support] = np.linalg.lstsq(self.a[active][:, support], self.b[active], rcond=None)[0]
        return out


class _AnchorRows:
    """The fair LP at an anchor v_s over x = (pi1, pi2): both sums 1, equal
    proposed means (the premium is free), group 1's accepted mean at v_s,
    group 2's pinned (delta = 0), then the ledger floors, then group 2's band
    edges (delta > 0).  The rows are built once; only those that move with
    v_s (group 1's pin, group 2's pin or band edges) are rewritten."""

    def __init__(self, v, f1, f2, q, delta, entries, c):
        d, pinned = v.size, delta == 0.0
        n_eq = 5 if pinned else 4
        a = np.zeros((n_eq + len(entries) + (0 if pinned else 2), 2 * d))
        b = np.zeros(a.shape[0])
        a[0, :d] = a[1, d:] = b[:2] = 1.0
        a[2, :d], a[2, d:] = v, -v
        for i, e in enumerate(entries, n_eq):
            a[i, :d], a[i, d:] = -q * v * e.fhat.group1, -(1.0 - q) * v * e.fhat.group2
            b[i] = -e.revenue_floor
        self.rows = _Rows(a, b, n_eq, c)
        self._v, self._f1, self._f2, self._width = v, f1, f2, None if pinned else delta * f2

    def _move(self, a, vs) -> None:
        """Write the moving rows at vs (a scalar, or one v_s per leading row of a)."""
        v, f2, d = self._v, self._f2, self._v.size
        vs = np.asarray(vs)[..., None]
        a[..., 3, :d] = (v - vs) * self._f1
        band = (v - vs) * f2
        if self._width is None:
            a[..., 4, d:] = band
        else:
            a[..., -2, d:] = band - self._width
            a[..., -1, d:] = -(band + self._width)

    def at(self, vs: float) -> _Rows:
        """The rows at vs, rewritten in place: valid until the next call."""
        self._move(self.rows.a, vs)
        return self.rows

    def at_nodes(self, vs: np.ndarray) -> _Rows:
        """The rows at each vs, stacked on a leading axis."""
        a, b, n_eq, c = self.rows
        a = np.repeat(a[None], vs.size, axis=0)
        self._move(a, vs)
        return _Rows(a, np.broadcast_to(b, (vs.size, b.size)), n_eq, c)


def _phase1(rows: _Rows, d: int, n_floors: int) -> _Rows:
    """The anchor LP's least violation: max -t with |v'pi1 - v'pi2| <= t and
    each floor short by at most t, the other rows kept (rows as _AnchorRows
    stacks them, over any leading axes).  pi1's first weight is one minus
    the others, so (x, t) still takes 2d variables."""
    n_eq, m = rows.n_eq, rows.b.shape[-1]
    order = [1, 3, *range(4, n_eq), 2, 2, *range(n_eq, m)]
    a = np.concatenate([rows.a[..., order, :],
                        np.broadcast_to(-np.eye(2 * d)[0], rows.a.shape[:-2] + (1, 2 * d))],
                       axis=-2)
    a[..., n_eq - 1, :] = -a[..., n_eq - 1, :]
    b = np.concatenate([rows.b[..., order], np.zeros(rows.b.shape[:-1] + (1,))], axis=-1)
    b -= a[..., 0]
    a[..., 1:d] -= a[..., :1]
    t = np.r_[np.zeros(n_eq - 2), -np.ones(2 + n_floors), np.zeros(m - n_eq - n_floors + 1)]
    a = np.concatenate([a[..., 1:], np.broadcast_to(t[:, None], a.shape[:-1] + (1,))], axis=-1)
    return _Rows(a, b, n_eq - 2, np.r_[np.zeros(2 * d - 1), -1.0])


def _real_roots(polys: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The real roots in [lo, hi] of every row of polys (highest degree
    first), pooled and sorted.  Each row loses its leading coefficients
    below _FIT_NOISE of its largest (rounding noise) and is then solved as
    np.roots solves it: exact trailing zeros are roots at 0, the rest are
    the eigenvalues of the companion matrix.  The companions of one degree
    go to LAPACK in one stack, each the matrix np.roots would build, so the
    roots keep np.roots's bits."""
    if polys.shape[0] == 0:
        return np.empty(0)
    size = polys.shape[1]
    mag = np.abs(polys)
    big = mag > _FIT_NOISE * np.max(mag, axis=1, initial=0.0, keepdims=True)
    first = np.argmax(big, axis=1)
    last = size - 1 - np.argmax(polys[:, ::-1] != 0.0, axis=1)
    solved = big.any(axis=1) & (first < size - 1)
    roots = [np.zeros(int(np.sum(size - 1 - last[solved])))]
    # One stack per (first, last): the companions of polys[:, first:last + 1].
    keys = np.where(solved & (last > first), first * size + last, -1)
    for key in sorted(set(keys[keys >= 0].tolist())):
        head, tail = divmod(key, size)
        p, m = polys[keys == key], tail - head
        comp = np.zeros((p.shape[0], m, m))
        comp[:, 1:, :-1] = np.eye(m - 1)
        comp[:, 0] = -p[:, head + 1:tail + 1] / p[:, head, None]
        roots.append(np.linalg.eigvals(comp).ravel())
    roots = np.concatenate(roots)
    roots = roots.real[np.abs(roots.imag) <= _REAL_IMAG]
    return np.sort(roots[(roots >= lo) & (roots <= hi)])


def _lead_trimmed(p: np.ndarray) -> np.ndarray:
    """p without its leading zeros, as np.poly1d keeps it (a zero
    polynomial keeps one)."""
    nz = np.flatnonzero(p)
    return p[nz[0]:] if nz.size else np.zeros(1)


def _products(pairs, width: int) -> np.ndarray:
    """np.polymul of each pair, one row each, right-aligned in width
    columns.  np.polymul convolves its factors as np.poly1d keeps them, so
    a product can come out short; the zeros in front are what np.polysub
    pads with."""
    out = np.zeros((len(pairs), width))
    for row, factors in zip(out, pairs):
        p = np.convolve(*map(_lead_trimmed, factors))
        row[width - p.size:] = p
    return out


def _fit_basis(nodes: _Rows, rows, cols) -> np.ndarray:
    """A basis (its rows solved over its columns) fitted in u from the rows
    at the fit nodes.  At most three rows move with v_s, affinely (group 1's
    anchor, group 2's pin or band edges), so by Cramer's rule its weights
    are P_j / D, the other rows' slacks R_i / D, the other columns' reduced
    costs Q_k / D (bordered determinants) and its inequalities' duals Y_i / D,
    all of degree <= 3.  Returns the coefficients of D, P, R, -Q and Y, one
    column each: the basis is optimal where all after D have D's sign."""
    a_n, b_n, n_eq, c = nodes
    m, others = len(cols), [k for k in range(c.size) if k not in cols]
    a = a_n[:, rows][:, :, cols]
    duals = [p for p, i in enumerate(rows) if i >= n_eq]
    sq = np.repeat(a[:, None], 1 + m + len(duals), axis=1)
    for j in range(m):
        sq[:, 1 + j, :, j] = b_n[:, rows]
    for k, p in enumerate(duals):
        sq[:, 1 + m + k, p, :] = c[cols]
    dets = np.linalg.det(sq)
    out = [i for i in range(n_eq, b_n.shape[1]) if i not in rows]
    slack = b_n[:, out] * dets[:, :1] - np.einsum("nij,nj->ni", a_n[:, out][:, :, cols],
                                                   dets[:, 1:1 + m])
    border = np.zeros((_FIT_NODES.size, len(others), m + 1, m + 1))
    border[:, :, :m, :m] = a[:, None]
    border[:, :, :m, m] = np.swapaxes(a_n[:, rows][:, :, others], 1, 2)
    border[:, :, m, :m], border[:, :, m, m] = c[cols], c[others]
    values = np.concatenate([dets[:, :1 + m], slack, -np.linalg.det(border), dets[:, 1 + m:]],
                            axis=1)
    return np.linalg.solve(_FIT_VANDER, values)


def _basis_span(nodes: _Rows, rows, cols):
    """What following a basis takes from the basis alone, whatever u0:
    its fit (_fit_basis), D's largest coefficient, the columns above
    rounding noise and their real roots on [-1, 1]."""
    coef = _fit_basis(nodes, rows, cols)
    scale = np.max(np.abs(coef[:, 0]))
    live = np.flatnonzero(np.max(np.abs(coef), axis=0) > _FIT_NOISE * scale)
    return coef, scale, live, _real_roots(coef[:, live].T, -1.0, 1.0)


def _follow_basis(nodes: _Rows, spans: dict, here: _Rows, x: np.ndarray, u0: float):
    """(lower, upper, rows, cols, coef): the basis of the vertex x of here
    (the rows at u0) and the stretch of u around u0 where the basis stays
    optimal, or None if it fails just right of u0.  A degenerate x (more
    active rows than weights) is completed with zero weights or zero slacks;
    the first completion that holds wins.  Each basis is fitted once per
    set of nodes: spans (basis -> _basis_span) keeps the fits of earlier
    calls, so a revisit only checks D's sign at u0, the stretch around u0
    and the midpoints.  Zero polynomials (a flat objective's reduced costs)
    set no bound.  A basis holds where its fitted weights, slacks, reduced
    costs and duals are >= -FEAS_TOL, the room lp_maximize's answers have."""
    n_eq, active = here.n_eq, list(here.active(x))
    support = list(np.flatnonzero(x > ROUNDING_TOL))
    spare = [(j, None) for j in range(x.size) if j not in support]
    spare += [(None, i) for i in active[n_eq:]]
    for extra in itertools.combinations(spare, max(len(active) - len(support), 0)):
        cols = sorted(support + [j for j, _ in extra if j is not None])
        rows = [i for i in active if (None, i) not in extra]
        if len(rows) != len(cols):
            return None  # more weights than active rows: not a vertex
        key = (tuple(rows), tuple(cols))
        if key not in spans:
            spans[key] = _basis_span(nodes, rows, cols)
        coef, scale, live, roots = spans[key]
        d0 = np.polyval(coef[:, 0], u0)
        if abs(d0) <= _FIT_NOISE * scale:
            continue
        upper = np.min(roots[roots > u0 + ROUNDING_TOL], initial=1.0)
        lower = np.max(roots[roots < u0], initial=-1.0)
        vals = np.vander([0.5 * (lower + u0), 0.5 * (u0 + upper)], _FIT_NODES.size) @ coef
        holds = np.all(np.sign(d0) * vals[:, live[1:]] >= -FEAS_TOL * np.abs(vals[:, :1]), axis=1)
        if holds[1]:
            return (lower if holds[0] else u0), upper, rows, cols, coef
    return None


def _band_pieces(v, entries, weights, lo, hi):
    """(starts, ends): the pieces of [lo, hi] where a fitted basis's weights
    clear every snapshot's band; all of [lo, hi] when there is none."""
    if not entries:
        return np.array([lo]), np.array([hi])
    d = v.size
    # |gap| <= band, times the positive (g1'P1)(g2'P2); per snapshot the
    # products n1 m2, n2 m1 and m1 m2 of its group means' numerators and
    # denominators.
    pairs = []
    for e in entries:
        g1, g2 = e.fhat.group1, e.fhat.group2
        m1, m2 = weights[:, :d] @ g1, weights[:, d:] @ g2
        pairs += [(weights[:, :d] @ (v * g1), m2), (weights[:, d:] @ (v * g2), m1), (m1, m2)]
    prods = _products(pairs, 2 * _FIT_NODES.size - 1)
    gap = prods[0::3] - prods[1::3]
    # Half MEMBER_TOL of room: the current snapshot's band binds wherever
    # its LP row does, and every piece end must pass the membership test.
    width = np.array([e.delta_s + 0.5 * MEMBER_TOL for e in entries])[:, None] * prods[2::3]
    bands = np.concatenate([width - gap, width + gap])
    cuts = np.sort(np.concatenate([[lo, hi], _real_roots(bands, lo, hi)]))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    sign = np.zeros((bands.shape[0], mids.size))
    for col in bands.T:  # np.polyval of every band at every piece's middle
        sign = sign * mids + col[:, None]
    clears = np.all(sign >= 0.0, axis=0)
    return cuts[:-1][clears], cuts[1:][clears]


def _basis_points(v, entries, coef, cols, lo, hi, objectives):
    """Where a fitted basis can hold its best point in [lo, hi]: the ends of
    the pieces that clear every snapshot's band and, inside them, the
    stationary points (roots of N'D - ND') of each objective's N / D; none
    where D vanishes.  A stationary point does not depend on the piece, so
    all are found once and kept where a piece clears.  Returns the points
    and the first objective's fitted value N / D at each, +inf where |D| is
    too small for the fit to be trusted."""
    den = coef[:, 0]
    weights = np.zeros((_FIT_NODES.size, 2 * v.size))
    weights[:, cols] = coef[:, 1:1 + len(cols)]
    starts, ends = _band_pieces(v, entries, weights, lo, hi)
    nums = [weights @ obj for obj in objectives]
    der = np.polyder(den)
    prods = _products([(np.polyder(num), den) for num in nums] + [(num, der) for num in nums],
                      2 * _FIT_NODES.size - 2)
    stationary = _real_roots(prods[:len(nums)] - prods[len(nums):], lo, hi)
    inside = np.any((stationary[:, None] >= starts) & (stationary[:, None] <= ends), axis=1)
    points = np.unique(np.concatenate([starts, ends, stationary[inside]]))
    scale, at = np.max(np.abs(den)), np.polyval(den, points)
    keep = np.abs(at) > _FIT_NOISE * scale
    points, at = points[keep], at[keep]
    return points, np.where(np.abs(at) >= _FIT_DEN_TOL * scale,
                            np.polyval(nums[0], points) / at, np.inf)


def _search_lp(v, f1, f2, q, delta, entries, spec) -> Optional[_Row]:
    """Walk v_s from v_1 to v_d through the anchor LP's optimal bases
    (Gass-Saaty): solve the LP, fit its basis, list the basis's candidate
    points (_basis_points), and re-solve just past the first root where the
    basis stops being primal or dual feasible.  The LP's infeasible
    stretches are walked in its least-violation LP; a basis that cannot be
    followed is left by ever larger nudges, and the vertex found there is
    kept as it is.  Each phase's fit nodes come with the search's fits of
    that phase (_basis_span by basis), so a basis met again, at a nudge or
    as a degenerate vertex's trial completion, is not fitted again.  After
    the walk the candidates are solved from their basis and re-solved as a
    vertex, best fitted value first, until none left can win."""
    d, c = v.size, spec.c
    lo, hi = float(v[0]), float(v[-1])
    if hi <= lo:
        return None  # one price: the fixed-price candidate is the answer
    lp_c = c + _REVENUE_TIE * np.r_[q * v * f1, (1.0 - q) * v * f2]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    anchor = _AnchorRows(v, f1, f2, q, delta, entries, lp_c)

    def keep(order, u, x) -> float:
        """Keep the vertex x if it clears the ledger; return its value, or -inf."""
        if not _clears_ledger(v, q, entries, x[:d], x[d:]):
            return -np.inf
        found.append((order, _row_from_weights(v, f1, f2, q, float(c @ x), mid + half * u,
                                               x[:d], x[d:])))
        return found[-1][1].value

    nodes, found, pending, order = {}, [], [], itertools.count()
    u, done, nudge = -1.0 + 2.0 * _NUDGE, -1.0, 2.0 * _NUDGE
    while u <= 1.0:
        rows = anchor.at(mid + half * u)
        res = lp_maximize(rows.lp())
        phase = res.status != OPTIMAL
        if phase:
            rows = _phase1(rows, d, len(entries))
            res = lp_maximize(rows.lp())
        if phase not in nodes:
            at_nodes = anchor.at_nodes(mid + half * _FIT_NODES)
            nodes[phase] = _phase1(at_nodes, d, len(entries)) if phase else at_nodes, {}
        x = rows.vertex(res.x) if res.status == OPTIMAL else None
        seg = None if x is None else _follow_basis(*nodes[phase], rows, x, u)
        if seg is None:  # degenerate, or a basis that ends at once: nudge on
            if not phase:
                keep(next(order), u, x)
            u, nudge = u + nudge, 10.0 * nudge
            continue
        lower, upper, basis, cols, coef = seg
        u, nudge = upper + 2.0 * _NUDGE, 2.0 * _NUDGE
        if phase:
            continue
        points, fitted = _basis_points(v, entries, coef, cols, max(lower, done), upper, (c, lp_c))
        pending += [(value, next(order), w, basis, cols)
                    for w, value in zip(points, fitted.tolist())]
        done = upper
    # A candidate's fitted value and its re-solved vertex's value agree to
    # rounding (2.3e-12 at most over 5,347 candidates of 412 searches: the
    # known-market solves of d = 3 to 5 and the ledger searches of learners
    # at d = 4 to 8), far inside _RESOLVE_MARGIN; where |D| is small the fit
    # is not used (+inf).  So a candidate fitted more than the margin below
    # the best re-solved value that clears the ledger has an exact value
    # below that best: it cannot be the max, and every tie of the max is
    # re-solved.  Taken in walk order, the max keeps the walk's first-max
    # rule.
    best = max((row.value for _, row in found), default=-np.inf)
    pending.sort(key=lambda p: -p[0])
    for value, k, w, basis, cols in pending:
        if value < best - _RESOLVE_MARGIN:
            break
        rows = anchor.at(mid + half * w)
        best = max(best, keep(k, w, rows.vertex(rows.basis_point(basis, cols))))
    found.sort(key=lambda f: f[0])
    return max((row for _, row in found), key=lambda r: (r.value, r.revenue), default=None)


def _explicit_rows(v, f1, f2, q, delta, entries, policies) -> list[_Row]:
    """The hand-picked whole policies, given as (w1, w2, fixed) (fixed
    prices, an incumbent), that meet the constraints the searches enforce,
    with no value yet: the screen does not depend on the objective."""
    rows = []
    for w1, w2, fixed in policies:
        row = _row_from_weights(v, f1, f2, q, 0.0, float((v * f1) @ w1) / float(f1 @ w1),
                                w1, w2, fixed)
        if abs(row.point.beta) <= delta + MEMBER_TOL and _clears_ledger(v, q, entries, w1, w2):
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
    any extra policies are candidates too, screened once and scored per
    objective."""
    if 2 * v.size > MAX_LP_VARS:
        raise ValueError(f"a grid of {v.size} prices needs {2 * v.size} LP variables; at most "
                         f"{MAX_LP_VARS} are supported (d <= {MAX_LP_VARS // 2})")
    if v.size == 3 and entries:
        found = _search_d3(v, f1, f2, q, delta, entries, specs, cfg or _DEFAULT_CFG)
    else:
        found = [_search_lp(v, f1, f2, q, delta, entries, spec) for spec in specs]
    policies = [(w, w, True) for w in np.eye(v.size)]
    policies += [(pol.group1.weights, pol.group2.weights, False) for pol in extra_policies]
    explicit = _explicit_rows(v, f1, f2, q, delta, entries, policies)
    return [_select_best([row] + [replace(r, value=float(spec.c @ np.r_[r.pi1, r.pi2]))
                                  for r in explicit])
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
    ledger._check_estimates(fhat)
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
    ledger._check_estimates(fhat)
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
