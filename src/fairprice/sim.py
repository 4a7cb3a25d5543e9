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
import operator
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    AcceptanceModel,
    GroupDistribution,
    MarketConfig,
    PolicyPair,
    PriceGrid,
    RandomStream,
    best_fixed_price,
    cumulative_weights,
    draw_prices,
    expected_revenue,
    fixed_price_policy,
    procedural_gap,
    substantive_gap,
)
from .linsolve import ROUNDING_TOL, solve_linear_system
from .oracle import solve_fair_optimal

BASELINE_KINDS = ("best_fixed", "ucb_fixed", "fair_oracle", "group_oracle")
# Longest block of rounds the batched engine plays at once.  A block holds
# about a dozen float64 arrays of this length: at 8,192 rounds each is 64 KB,
# so a block's working set stays in a core's L2 cache.
MAX_BLOCK_ROUNDS = 8192
# UCB2's run growth: ``UcbFixedAgent`` plays a chosen price for
# tau(r + 1) - tau(r) rounds, tau(r) = ceil((1 + UCB2_ALPHA)^r).
UCB2_ALPHA = 0.25


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
    return AlphaBounds(lower, upper, lower <= upper + ROUNDING_TOL, b1, b2, b3, b4)


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


# A trace keeps its rows as columns, each an ``array.array`` whose typecode
# numpy reads as the same dtype (q: int64, b: int8, d: float64).  One column
# per RoundRecord field that can change from round to round: t, group,
# price_index, accepted, reward and the four running totals.
_ROW_TYPECODES = "qqqbddddd"
# One column per field a block of rounds shares (its policy's instant
# metrics and the epoch), after the index of the block's first row: start,
# inst_regret, inst_s, inst_u, epoch.
_BLOCK_TYPECODES = "qdddq"


@dataclass
class RunTrace:
    """Outcome of one episode: thinned per-round records plus exact totals.

    The kept rows are stored as columns (see ``_ROW_TYPECODES`` and
    ``_BLOCK_TYPECODES``), added a block at a time by :meth:`_append_block`
    and read through :attr:`records`.
    """

    horizon: int
    seed: int
    oracle_revenue: float
    cum_regret: float = 0.0
    cum_s: float = 0.0
    cum_u: float = 0.0
    cum_reward: float = 0.0
    max_inst_u: float = 0.0
    agent_meta: dict = field(default_factory=dict)
    _rows: tuple = field(default_factory=lambda: tuple(map(array, _ROW_TYPECODES)),
                         init=False, repr=False)
    _blocks: tuple = field(default_factory=lambda: tuple(map(array, _BLOCK_TYPECODES)),
                           init=False, repr=False)

    @property
    def records(self) -> Sequence[RoundRecord]:
        """The kept rows as a read-only sequence of :class:`RoundRecord`,
        each built when it is read, with Python int, bool and float
        fields."""
        return _Records(self)

    def _append_block(self, rows: Sequence, inst_regret: float, inst_s: float,
                      inst_u: float, epoch: int) -> None:
        """Add the kept rows of one block: ``rows`` holds one array per row
        column, in ``_ROW_TYPECODES`` order; the rest is the block's.  A
        block of no rows adds nothing.

        Raises:
            TypeError: when a value does not fit its column without a change
                of kind (a float for an int column, a string, ``None``); the
                trace is left as it was.
        """
        if len(rows[0]) == 0:
            return
        rows = [np.asarray(values) for values in rows]
        for column, values in zip(self._rows, rows):
            if not np.can_cast(values.dtype, column.typecode, "same_kind"):
                raise TypeError(f"cannot store {values.dtype} values in a "
                                f"{np.dtype(column.typecode)} trace column")
        block = [array(code, [value]) for code, value in zip(
            _BLOCK_TYPECODES, (len(self._rows[0]), inst_regret, inst_s, inst_u, epoch))]
        for column, entry in zip(self._blocks, block):
            column.extend(entry)
        for column, values in zip(self._rows, rows):
            column.frombytes(np.ascontiguousarray(values, column.typecode).view(np.uint8))

    def _row_columns(self) -> tuple:
        """Iterables over the kept rows, one value per row each: the five
        row fields from ``t`` to ``reward``, the row's block fields as one
        tuple (inst_regret, inst_s, inst_u, epoch), then the four running
        totals."""
        starts, *shared = self._blocks
        ends = chain(starts[1:], (len(self._rows[0]),))
        per_row = chain.from_iterable(map(repeat, zip(*shared), map(operator.sub, ends, starts)))
        return (*self._rows[:5], per_row, *self._rows[5:])

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


def _record(t, group, price_index, accepted, reward, shared, cum_regret, cum_s, cum_u,
            cum_reward) -> RoundRecord:
    return RoundRecord(t, group, price_index, bool(accepted), reward, *shared[:3],
                       cum_regret, cum_s, cum_u, cum_reward, shared[3])


class _Records(Sequence):
    """Read-only view of a :class:`RunTrace`'s kept rows: an index reads a
    :class:`RoundRecord`, a slice a list of them."""

    __slots__ = ("_trace",)

    def __init__(self, trace: RunTrace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace._rows[0])

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(n))]
        k = operator.index(index)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError("record index out of range")
        starts, *shared = self._trace._blocks
        block = bisect_right(starts, k) - 1
        rows = [column[k] for column in self._trace._rows]
        return _record(*rows[:5], tuple(column[block] for column in shared), *rows[5:])

    def __iter__(self):
        return map(_record, *self._trace._row_columns())


# ---------------------------------------------------------------------------
# trace CSV: %.17g and %d in numpy
# ---------------------------------------------------------------------------

_CSV_HEADER = (",".join(RoundRecord._fields) + "\r\n").encode()
# Rows formatted at a time.  A slice's text is a byte matrix of about 300
# bytes a row, built from about 700 bytes a row of temporaries: at 2,048
# rows the writer adds about 1.2 MB to the peak RSS of a benchmark run
# that peaks while writing, and larger slices were no faster (CHANGES.md).
_CSV_CHUNK_ROWS = 2048
# Rows of a slice's text turned into bytes and written at a time, so that
# copy stays small.
_CSV_WRITE_ROWS = 256
# Veltkamp's splitter: x * (2**27 + 1) splits a float64 into two halves of
# at most 26 significant bits, whose products are exact (_two_product).
_DEKKER_SPLIT = 2.0 ** 27 + 1.0
# Decimal exponents e (10**e <= |x| < 10**(e + 1)) whose 17 digits
# _g17_decimal certifies.  It scales |x| by 10**(16 - e) with one exact
# power of ten (-6 <= e <= 16) or two of them (e down to -28); 1e22 is the
# largest power of ten a float64 holds exactly.  No trace value reaches
# 1e17: a running total is at most the horizon.
_G17_EXPONENTS = (-28, 16)
# How far from a rounding tie, in units of the 17th digit, an inexactly
# scaled value must lie for its rounding to be certified: 2**7 times the
# scaling's error bound (see _g17_decimal).
_G17_TIE_MARGIN = 2.0 ** -40
# 10**0 .. 10**22 as float64, each exact.
_POW10 = np.array([float(10 ** k) for k in range(23)])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each of at most 26 bits."""
    c = a * _DEKKER_SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's two-product: ``(p, err)`` with p = fl(a * b) and
    a * b = p + err exactly (no overflow or underflow on the way)."""
    p = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


def _g17_scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hi, lo, exact)``: a * 10**(16 - e) = hi + lo, with hi its float64
    rounding (an integer from 2**53 on), exactly where ``exact`` and within
    the bound of :func:`_g17_decimal` elsewhere.  An e one past an end of
    ``_G17_EXPONENTS`` (never certified) scales as at that end."""
    k = np.clip(16 - e, 0, 44)
    hi, lo = _two_product(a, _POW10[np.minimum(k, 22)])
    far = np.flatnonzero(k > 22)
    if far.size:  # a second factor c: (hi + lo) * c = hi * c + lo * c
        c = _POW10[k[far] - 22]
        err = lo[far]
        hi[far], lo[far] = _two_product(hi[far], c)
        lo[far] += err * c
    return hi, lo, k <= 22


def _g17_off(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1 where hi + lo < 10**16, 1 where it is 10**17 or more, else 0."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.int64) - below


def _g17_decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``%.17g``'s rounding of each |x|: ``(d, e, certified)``, with
    |x| = d * 10**(e - 16) rounded half to even and 10**16 <= d < 10**17.

    d and e hold where ``certified``: x finite and nonzero, e within
    ``_G17_EXPONENTS``, and the rounding decided.  The scaled value
    y = |x| * 10**(16 - e) is hi + lo (:func:`_g17_scaled`), exactly for
    0 <= 16 - e <= 22, ties included.  Elsewhere (two factors) hi + lo is
    within 2**-47 of y.  As y < 2**57, each term that makes lo is below
    16.01: the second two-product's error (at most half an ulp of hi) and
    the first one's error times the second factor (at most 2**-53 of y).
    lo takes two roundings, each at most 2**-53 of a value below 32.  So
    there the rounding is certified only when lo lies
    ``_G17_TIE_MARGIN`` or more inside its rounding interval: no error
    within the bound can cross a tie.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    low, high = _G17_EXPONENTS
    certified = (e >= low) & (e <= high)
    e = np.where(certified, e, 0).astype(np.int64)
    a = np.where(certified, a, 1.0)
    hi, lo, exact = _g17_scaled(a, e)
    off = _g17_off(hi, lo)  # log10 may put e one off next to a power of ten
    moved = np.flatnonzero(off)
    if moved.size:
        e[moved] += off[moved]
        hi[moved], lo[moved], exact[moved] = _g17_scaled(a[moved], e[moved])
        certified &= (e >= low) & (e <= high) & (_g17_off(hi, lo) == 0)
    # hi >= 10**16 > 2**53 is even, so rint's half-to-even rounding of lo
    # rounds hi + lo half to even
    r = np.rint(lo)
    d = hi.astype(np.int64) + r.astype(np.int64)
    certified &= exact | (np.abs(lo - r) < 0.5 - _G17_TIE_MARGIN)
    carry = d == 10 ** 17
    d[carry] //= 10
    e[carry] += 1
    return d, e, certified


def _at(text: bytes, byte: int) -> int:
    """A little-endian word that holds ``text`` from byte ``byte`` on."""
    return int.from_bytes(text, "little") << 8 * byte


# Text is built in little-endian words, then read as bytes; a byte left
# zero is dropped when the rows are written.
_WORDS = np.dtype("<u8")


def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """By g = 0 .. 9999: its four ASCII digits packed in a 32-bit word; the
    same in the even bytes of a 64-bit word, with a point in each odd byte;
    and the place (1 to 4) of its last nonzero digit, -99 for none."""
    g = np.arange(10_000)
    digits = [g // 1000 + ord("0"), g // 100 % 10 + ord("0"), g // 10 % 10 + ord("0"),
              g % 10 + ord("0")]
    points = sum(_at(b".", 2 * i + 1) for i in range(4))
    return (sum(digit << 8 * i for i, digit in enumerate(digits)).astype("<u4"),
            (sum(digit << 16 * i for i, digit in enumerate(digits)) + points).astype(_WORDS),
            np.where(g == 0, -99, 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)))


_DIGITS4, _DOTTED4, _LAST4 = _digit_tables()
# The mask of a 32-bit word that clears its first z bytes, by z = 0 .. 4.
_CLEAR_FIRST = np.array([0xFFFFFFFF >> 8 * z << 8 * z for z in range(5)], "<u4")
# A float's text takes six words (_g17_field): byte 0 the sign; bytes 1-5
# "0." and up to three zeros; from byte 6 the 17 digits, digit i at byte
# 6 + 2i and a slot for the point after it; bytes 40-43 "e", the
# exponent's sign and two digits.  The tables below go by decimal
# exponent, over the certified ones and one past each end.
_E_FIRST = _G17_EXPONENTS[0] - 1
_E_TABLE = range(_E_FIRST, _G17_EXPONENTS[1] + 2)
_LEAD = np.array([_at(b"0." + b"0" * (-1 - e), 1) if -4 <= e < 0 else 0 for e in _E_TABLE],
                 _WORDS)
_EXPONENT = np.array([0 if -4 <= e < 17 else _at(b"e%+03d" % e, 0) for e in _E_TABLE], _WORDS)
# The digit the point follows: e in fixed notation from 1 on, 0 in
# scientific notation, and -1 below 1, where the lead holds the point.
_POINT = np.array([e if 0 <= e < 17 else -1 if -4 <= e < 0 else 0 for e in _E_TABLE])


def _frame_masks() -> np.ndarray:
    """[w, 18 * end + slot]: the bytes that word w of a float's text keeps
    when its last digit is digit ``end`` and its point follows digit
    ``slot - 1`` (no point among the digits for slot 0)."""
    digits = np.array([[sum(_at(b"\xff", 6 + 2 * i - 8 * w) for i in range(end + 1)
                            if (6 + 2 * i) // 8 == w) for end in range(17)]
                       for w in range(5)], _WORDS)
    point = np.array([[_at(b"\xff", 5 + 2 * slot - 8 * w) if slot and (5 + 2 * slot) // 8 == w
                       else 0 for slot in range(18)] for w in range(5)], _WORDS)
    return (digits[:, :, None] | point[:, None, :]).reshape(5, -1)


_KEEP = _frame_masks()


def _g17_field(x: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` for each v of ``x``, as the rows of a uint8 matrix
    that hold each text's bytes in order, with zero bytes between them to
    drop.

    The digits come from :func:`_g17_decimal`, laid out by %g's rules:
    fixed notation for -4 <= e < 17, otherwise one digit, the point and
    ``e`` with a sign and two digits; trailing zeros and a bare point are
    dropped.  Each value it does not certify (+-0, nan, +-inf, exponents
    out of range, near-ties) is formatted by CPython, once per distinct
    value.
    """
    d, e, certified = _g17_decimal(x)
    e = np.clip(e, _E_FIRST, _E_TABLE[-1]) - _E_FIRST
    groups = []  # digits 1-4, 5-8, 9-12 and 13-16; d ends as digit 0
    for _ in range(4):
        q = d // 10_000
        groups.insert(0, d - q * 10_000)
        d = q
    last = np.zeros_like(d)  # the last nonzero digit
    for w, group in enumerate(groups):
        np.maximum(last, _LAST4[group] + 4 * w, out=last)
    point = _POINT[e]
    end = np.maximum(last, point)  # the last digit written
    keep = 18 * end + np.where(end > point, point + 1, 0)
    words = np.empty((x.size, 6), _WORDS)
    words[:, 0] = ((d.astype(_WORDS) + ord("0") << 48 | ord(".") << 56) & _KEEP[0][keep]
                   | _LEAD[e] | np.signbit(x).astype(_WORDS) * ord("-"))
    for w, group in enumerate(groups, 1):
        words[:, w] = _DOTTED4[group] & _KEEP[w][keep]
    words[:, 5] = _EXPONENT[e]
    text = words.view(np.uint8)
    deferred = np.flatnonzero(~certified)
    if deferred.size:
        bits, inverse = np.unique(x[deferred].view(np.int64), return_inverse=True)
        formatted = np.array([b"%.17g" % v for v in bits.view(np.float64).tolist()], "S48")
        text[deferred] = formatted.view(np.uint8).reshape(-1, 48)[inverse]
    return text[:, :44]


def _fields(field: Callable, *columns: np.ndarray) -> list[np.ndarray]:
    """``field`` (:func:`_g17_field` or :func:`_int_field`) of equal-length
    columns in one pass, one matrix each."""
    return np.split(field(np.concatenate(columns)), len(columns))


def _int_field(values: np.ndarray) -> np.ndarray:
    """``b"%d" % v`` for each integer of ``values``, laid out as
    :func:`_g17_field` lays out floats: a word for the sign, then the
    digits four to a word."""
    v = values.astype(np.int64)
    magnitude = np.where(v < 0, -v, v).view(np.uint64)  # -(-2**63) wraps to 2**63's bits
    width = len(str(int(magnitude.max())))
    groups = -(-width // 4)
    zeros = 4 * groups - 1 - sum(magnitude >= 10 ** k for k in range(1, width))  # leading
    words = np.empty((v.size, 1 + groups), "<u4")
    words[:, 0] = (v < 0) * (ord("-") << 24)
    for j in range(groups, 0, -1):
        q = magnitude // 10_000
        words[:, j] = (_DIGITS4[magnitude - q * 10_000]
                       & _CLEAR_FIRST[np.clip(zeros - 4 * (j - 1), 0, 4)])
        magnitude = q
    return words.view(np.uint8)


def _joined(fields: list[np.ndarray], end: bytes = b"") -> np.ndarray:
    """The fields' rows side by side, a comma between two fields and
    ``end`` after the last."""
    n = fields[0].shape[0]
    comma = np.full((n, 1), ord(","), np.uint8)
    parts = [part for text in fields for part in (comma, text)][1:]
    parts.append(np.broadcast_to(np.frombuffer(end, np.uint8), (n, len(end))))
    return np.hstack(parts)


def _left_aligned(text: np.ndarray) -> np.ndarray:
    """``text`` with the zero bytes of each row moved to its end."""
    keep = text != 0
    lengths = keep.sum(axis=1)
    out = np.zeros((len(text), lengths.max()), np.uint8)
    out[np.arange(out.shape[1]) < lengths[:, None]] = text[keep]
    return out


def _csv_text(columns: list[np.ndarray], blocks: list[np.ndarray], start: int,
              stop: int) -> np.ndarray:
    """The CSV lines of kept rows ``start`` to ``stop - 1``, one row of
    bytes each, with zero bytes to drop."""
    t, group, price_index, accepted, reward, *totals = (c[start:stop] for c in columns)
    starts, *shared = blocks
    block = np.searchsorted(starts, np.arange(start, start + t.size), side="right") - 1
    inst = [metric[block] for metric in shared[:3]]
    # one outcome per distinct (group, price index, accepted, bits of the
    # reward and of the three instant metrics)
    key = np.column_stack([group, price_index, accepted, reward.view(np.int64),
                           *(metric.view(np.int64) for metric in inst)])
    _, first, inverse = np.unique(key.view(np.dtype((np.void, key.shape[1] * 8))).ravel(),
                                  return_index=True, return_inverse=True)
    outcome = _joined(_fields(_int_field, group[first], price_index[first], accepted[first])
                      + _fields(_g17_field, reward[first], *(metric[first] for metric in inst)))
    t, epoch = _fields(_int_field, t, shared[3][block])
    return _joined([t, _left_aligned(outcome)[inverse], *_fields(_g17_field, *totals), epoch],
                   b"\r\n")


def write_trace_csv(trace: RunTrace, path: str) -> None:
    """Write the kept rows with every float at 17 significant digits
    (``%.17g``), so identical runs produce byte-identical files.

    The text is built in numpy, ``_CSV_CHUNK_ROWS`` rows at a time: each
    distinct outcome (fields 2-8) of a slice is formatted once, and floats
    by an exact %.17g that leaves to CPython every value it cannot certify
    (:func:`_g17_field`).
    """
    columns = [np.frombuffer(c, c.typecode) for c in trace._rows]
    blocks = [np.frombuffer(c, c.typecode) for c in trace._blocks]
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER)
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            text = _csv_text(columns, blocks, start, start + _CSV_CHUNK_ROWS)
            for rows in range(0, len(text), _CSV_WRITE_ROWS):
                fh.write(text[rows:rows + _CSV_WRITE_ROWS].tobytes().translate(None, b"\0"))


def write_summary_json(summary: dict | list, path: str) -> None:
    """Write the summary as strict JSON, keys sorted, with a final newline:
    a NaN or an infinity raises ValueError before the file is opened."""
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def run_episode(agent, market: MarketConfig, horizon: int, seed: int,
                record_every: int = 1,
                oracle_revenue: Optional[float] = None) -> RunTrace:
    """Run one agent against one market for ``horizon`` rounds.

    Every agent of this package has the batch protocol (``batch_rounds``,
    ``propose_batch``, ``observe_batch``) and is played a block of rounds at
    a time with numpy.  An agent with only the per-round protocol
    (``propose_price``, ``observe``) is played one round at a time; that
    path serves drivers from outside the package that wrap
    :class:`~fairprice.fpa.FpaAgent` round by round, and the tests'
    reference.  Both paths draw every random stream in the same order and
    add the running totals in the same order, so they produce the same
    bytes.

    Args:
        agent: current_policy() -> PolicyPair, with either protocol.
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
    streams = (RandomStream(seed, "env-groups"), RandomStream(seed, "env-values"))
    if callable(getattr(agent, "propose_batch", None)):
        _play_blocks(agent, market, trace, record_every, streams)
    else:
        _play_rounds(agent, market, trace, record_every, streams)
    meta = getattr(agent, "meta", None)
    trace.agent_meta = meta() if callable(meta) else {}
    return trace


def _policy_costs(market: MarketConfig, oracle_revenue: float) -> Callable:
    """Per-round (regret, S, U) of a policy, cached by the policy itself (a
    ``PolicyPair`` hashes by identity)."""
    cache: dict[PolicyPair, tuple[float, float, float]] = {}

    def costs(policy: PolicyPair) -> tuple[float, float, float]:
        hit = cache.get(policy)
        if hit is None:
            hit = cache[policy] = (oracle_revenue - expected_revenue(market, policy),
                                   substantive_gap(market, policy),
                                   procedural_gap(market.grid, policy))
        return hit

    return costs


def _play_rounds(agent, market: MarketConfig, trace: RunTrace, record_every: int,
                 streams: tuple) -> None:
    """The per-round loop: one Python round at a time, each kept row handed
    to the trace as a block of its own."""
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
            row = (t, group, idx, accepted, reward, trace.cum_regret, trace.cum_s,
                   trace.cum_u, trace.cum_reward)
            trace._append_block([[value] for value in row], inst_regret, inst_s, inst_u,
                                epoch)


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
        groups = np.where(group_rng.block(n) < market.q, 1, 2)
        idx = agent.propose_batch(groups)
        inst_regret, inst_s, inst_u = costs(agent.current_policy())
        epoch = getattr(agent, "epoch", 0)

        accepted = value_rng.block(n) < curves[groups - 1, idx]
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
        trace._append_block([keep + t + 1, *(a[keep] for a in (groups, idx, accepted, reward)),
                             *(c[keep + 1] for c in cums)], inst_regret, inst_s, inst_u, epoch)
        t += n


# ---------------------------------------------------------------------------
# reference baselines
# ---------------------------------------------------------------------------

class FixedPolicyAgent:
    """Samples one fixed policy every round: the best fixed price, the
    group-wise optimum or the fair optimum (see :func:`baseline_agent`).

    It draws prices from its own stream by the learner's rule
    (:func:`~fairprice.core.cumulative_weights`), one draw per round: round
    k of an episode posts ``bisect_right`` of the stream's k-th value in its
    group's table, however the engine cuts the episode into blocks."""

    def __init__(self, policy: PolicyPair, seed: int = 0):
        self._policy = policy
        self._rng = RandomStream(seed, "agent")
        self._cums = cumulative_weights(policy)

    def batch_rounds(self) -> int:
        return MAX_BLOCK_ROUNDS

    def propose_batch(self, groups: np.ndarray) -> np.ndarray:
        if not np.all((groups == 1) | (groups == 2)):
            raise ValueError("group must be 1 or 2")
        return draw_prices(self._cums, groups, self._rng.block(groups.size))

    def observe_batch(self, groups: np.ndarray, idx: np.ndarray,
                      accepted: np.ndarray) -> None:
        pass

    def current_policy(self) -> PolicyPair:
        return self._policy


def _ucb2_tau(r):
    """UCB2's tau(r) = ceil((1 + UCB2_ALPHA)^r), elementwise, as floats."""
    return np.ceil((1.0 + UCB2_ALPHA) ** r)


class UcbFixedAgent:
    """Group-blind UCB2 learner over the fixed prices (Auer, Cesa-Bianchi &
    Fischer 2002, Figure 2) on the realized revenue, price x accepted, which
    lies in [0, 1] because the grid does.

    It plays each price once, in index order.  Then it picks the price j
    that maximizes mean_j + sqrt((1 + a) ln(e n / tau(r_j)) / (2 tau(r_j))),
    with n the rounds played so far, a = ``UCB2_ALPHA``,
    tau(r) = ceil((1 + a)^r) and ties to the lowest index.  It plays j for
    tau(r_j + 1) - tau(r_j) rounds, one batch, and adds 1 to r_j; a run of
    no rounds goes straight on to the next pick.  mean_j is
    v_j * accepts_j / plays_j from integer counts, so the picks do not
    depend on how the engine cuts a run into blocks.  It posts the same
    price to either group, so the proposed-price gap is zero; the accepted
    means' gap is zero up to rounding, since a fixed price's two accepted
    means v f / f can differ in the last bit (1.1e-16 per round for the
    example's 0.7).
    """

    def __init__(self, grid: PriceGrid):
        self.prices = grid.prices
        self._plays = np.zeros(grid.d, dtype=np.int64)
        self._accepts = np.zeros(grid.d, dtype=np.int64)
        self._r = np.zeros(grid.d, dtype=np.int64)
        self._policies = [fixed_price_policy(grid.d, i) for i in range(grid.d)]
        self._arm, self._left = 0, 1

    def batch_rounds(self) -> int:
        return self._left

    def propose_batch(self, groups: np.ndarray) -> np.ndarray:
        if not np.all((groups == 1) | (groups == 2)):
            raise ValueError("group must be 1 or 2")
        if groups.size > self._left:
            raise ValueError(f"batch of {groups.size} rounds; the run has {self._left} left")
        return np.full(groups.size, self._arm)

    def observe_batch(self, groups: np.ndarray, idx: np.ndarray,
                      accepted: np.ndarray) -> None:
        self._plays[self._arm] += idx.size
        self._accepts[self._arm] += np.count_nonzero(accepted)
        self._left -= idx.size
        n = int(self._plays.sum())
        if not self._left and n < self.prices.size:
            self._arm, self._left = n, 1  # the opening pass, one round per price
        while not self._left:
            tau = _ucb2_tau(self._r)
            bonus = np.sqrt((1.0 + UCB2_ALPHA) * np.log(math.e * n / tau) / (2.0 * tau))
            self._arm = arm = int(np.argmax(self.prices * self._accepts / self._plays + bonus))
            self._r[arm] += 1
            self._left = int(_ucb2_tau(self._r[arm]) - _ucb2_tau(self._r[arm] - 1))

    def current_policy(self) -> PolicyPair:
        return self._policies[self._arm]


def baseline_agent(kind: str, market: MarketConfig, seed: int = 0,
                   policy: Optional[PolicyPair] = None):
    """Build one of the named reference agents for this market.

    ``best_fixed`` posts :func:`~fairprice.core.best_fixed_price` to both
    groups, ``group_oracle`` each group its own revenue-best price (fairness
    ignored: the revenue ceiling), and ``fair_oracle`` plays ``policy`` when
    given, otherwise the fair optimum, solved first.  ``ucb_fixed`` learns.
    """
    if kind == "ucb_fixed":
        return UcbFixedAgent(market.grid)
    if kind == "best_fixed":
        policy = fixed_price_policy(market.d, best_fixed_price(market)[0])
    elif kind == "group_oracle":
        v = market.grid.prices
        best = [int(np.argmax(v * market.accept.curve(g))) for g in (1, 2)]
        policy = PolicyPair.from_weights(*np.eye(market.d)[best])
    elif kind == "fair_oracle":
        if policy is None:
            policy = solve_fair_optimal(market).policy
    else:
        raise ValueError(f"unknown baseline kind {kind!r}; expected one of {BASELINE_KINDS}")
    return FixedPolicyAgent(policy, seed=seed)
