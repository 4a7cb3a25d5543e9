"""Small dense linear algebra written out in full: a partial-pivot Gaussian
solver, a two-phase tableau simplex, and a brute-force vertex enumerator.

The simplex and the enumerator deliberately share nothing beyond the
:class:`LinearProgram` container so they can cross-check each other: one walks
bases with Bland's rule, the other solves every square subsystem of active
constraints and keeps the feasible maximum.  Problems here are tiny (a few
variables), so clarity wins over sparsity tricks.  numpy arrays hold the
tableau and do its row arithmetic; the choice of every pivot is explicit.

The tolerance chain starts here.  :func:`lp_maximize` guarantees that an
OPTIMAL x meets every row within ``FEAS_TOL``, in the row's own units, and
has x >= -``FEAS_TOL``; no tighter, since phase 1 accepts artificials
summing to ``FEAS_TOL`` and pivots at or below ``PIVOT_TOL`` count as zero.
The oracle's docstring takes the chain on to ledger membership.
``ROUNDING_TOL`` is kept here too: the rounding room that the other
modules' checks of order-one values share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

# |pivot| at or below this is treated as zero during elimination.
PIVOT_TOL = 1e-10
# Constraint violations up to this are accepted when classifying feasibility.
FEAS_TOL = 1e-9
# Rounding room of comparisons of order-one values elsewhere in the package
# (weights, their sums, acceptance probabilities, the walk's position): a
# value this close to its bound meets it.
ROUNDING_TOL = 1e-12
# Capacity guards; everything in this package is low-dimensional by design.
MAX_SOLVE_N = 64
MAX_LP_VARS = 16
MAX_LP_ROWS = 48
_MAX_PIVOTS = 20000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SingularMatrixError(ValueError):
    """The coefficient matrix has no usable pivot (rank deficient)."""


def solve_linear_system(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting.

    Args:
        a: square matrix, at most 64x64.
        b: right-hand side, shape (n,) or (n, k).

    Returns:
        Solution with the same trailing shape as ``b``.

    Raises:
        SingularMatrixError: if some pivot magnitude is <= 1e-10.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n > MAX_SOLVE_N:
        raise ValueError(f"system size {n} exceeds the {MAX_SOLVE_N} cap")
    squeeze = b.ndim == 1
    rhs = b.reshape(n, -1) if not squeeze else b.reshape(n, 1)
    if rhs.shape[0] != n:
        raise ValueError("right-hand side length disagrees with the matrix")

    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot_row, col]) <= PIVOT_TOL:
            raise SingularMatrixError(f"no pivot in column {col}")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            rhs[[col, pivot_row]] = rhs[[pivot_row, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= factors[:, None] * a[col, col:]
        rhs[col + 1 :] -= factors[:, None] * rhs[col]

    x = np.empty_like(rhs)
    for row in range(n - 1, -1, -1):
        x[row] = (rhs[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x[:, 0] if squeeze else x


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize c'x  subject to  a_ub x <= b_ub,  a_eq x = b_eq,  x >= 0."""

    objective: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "objective", c)
        n = c.size
        if n == 0 or n > MAX_LP_VARS:
            raise ValueError(f"need 1..{MAX_LP_VARS} variables, got {n}")
        for name in ("ub", "eq"):
            a = getattr(self, f"a_{name}")
            b = getattr(self, f"b_{name}")
            if (a is None) != (b is None):
                raise ValueError(f"a_{name} and b_{name} must be given together")
            if a is None:
                continue
            a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if a.shape != (b.size, n):
                raise ValueError(f"a_{name} shape {a.shape} mismatches n={n}, rows={b.size}")
            object.__setattr__(self, f"a_{name}", a)
            object.__setattr__(self, f"b_{name}", b)
        if self.n_rows > MAX_LP_ROWS:
            raise ValueError(f"row count {self.n_rows} exceeds the {MAX_LP_ROWS} cap")

    @property
    def n(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        rows = 0 if self.a_ub is None else self.a_ub.shape[0]
        rows += 0 if self.a_eq is None else self.a_eq.shape[0]
        return rows


@dataclass(frozen=True)
class LpResult:
    status: str
    x: Optional[np.ndarray]
    value: Optional[float]


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Pivot on (row, col).  Every other row with a nonzero entry in col is
    updated in one step, each element as a row-by-row loop would update it;
    rows with a zero entry are left alone, so no -0.0 appears."""
    pivot = tableau[row]
    pivot /= pivot[col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    tableau[rows] -= factors[rows, None] * pivot
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: list[int], n_cols: int) -> str:
    """Pivot to optimality over columns [0, n_cols) using Bland's rule.

    The last tableau row holds reduced costs (maximization: pivot while some
    reduced cost exceeds the tolerance); the last column is the rhs.
    Returns OPTIMAL or UNBOUNDED.
    """
    m = tableau.shape[0] - 1
    for _ in range(_MAX_PIVOTS):
        # Bland: first improving column.
        enter = next((j for j, r in enumerate(tableau[-1, :n_cols].tolist()) if r > PIVOT_TOL), -1)
        if enter < 0:
            return OPTIMAL
        best_ratio, leave = None, -1
        rhs = tableau[:m, -1].tolist()
        for i, coeff in enumerate(tableau[:m, enter].tolist()):
            if coeff > PIVOT_TOL:
                ratio = rhs[i] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio - PIVOT_TOL
                    or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return UNBOUNDED
        _pivot(tableau, basis, leave, enter)
    raise RuntimeError("simplex failed to terminate (pivot cap hit)")


def lp_maximize(lp: LinearProgram) -> LpResult:
    """Two-phase primal simplex with Bland's anti-cycling rule.

    Every OPTIMAL x meets each row within FEAS_TOL (|a_eq x - b_eq| and
    a_ub x - b_ub at most FEAS_TOL) and has x >= -FEAS_TOL, for rows and
    right-hand sides of order one, as every LP in this package has.  It is
    not exact: phase 1 accepts artificials summing to FEAS_TOL and the ratio
    test breaks ties within PIVOT_TOL, so a vertex can miss a row by rounding
    and those tolerances (a slack of -1.1e-10 has been seen).

    Returns:
        LpResult with status "optimal" (x and value set), "infeasible", or
        "unbounded" (x of the final ray's base point is not reported).
    """
    n = lp.n
    a_ub = lp.a_ub if lp.a_ub is not None else np.empty((0, n))
    b_ub = lp.b_ub if lp.b_ub is not None else np.empty(0)
    a_eq = lp.a_eq if lp.a_eq is not None else np.empty((0, n))
    b_eq = lp.b_eq if lp.b_eq is not None else np.empty(0)
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    # Equality form: [A_ub | I_slack] then equality rows, rhs made nonnegative.
    body = np.zeros((m, n + m_ub))
    body[:m_ub, :n] = a_ub
    body[:m_ub, n : n + m_ub] = np.eye(m_ub)
    body[m_ub:, :n] = a_eq
    rhs = np.concatenate([b_ub, b_eq])
    for i in range(m):
        if rhs[i] < 0.0:
            body[i] *= -1.0
            rhs[i] *= -1.0

    # Rows whose slack now has coefficient -1 (flipped) and all equality rows
    # get an artificial variable; untouched ub rows start with their slack basic.
    needs_art = [i for i in range(m) if i >= m_ub or body[i, n + i] != 1.0]
    n_art = len(needs_art)
    n_real = n + m_ub
    tableau = np.zeros((m + 1, n_real + n_art + 1))
    tableau[:m, :n_real] = body
    tableau[:m, -1] = rhs
    basis = [0] * m
    for k, i in enumerate(needs_art):
        tableau[i, n_real + k] = 1.0
        basis[i] = n_real + k
    for i in range(m_ub):
        if i not in needs_art:
            basis[i] = n + i

    if n_art:
        # Phase 1: maximize -(sum of artificials); price out basic artificials.
        tableau[-1, n_real : n_real + n_art] = -1.0
        for i in needs_art:
            tableau[-1] += tableau[i]
        status = _run_simplex(tableau, basis, n_real + n_art)
        if status != OPTIMAL or tableau[-1, -1] > FEAS_TOL:
            return LpResult(INFEASIBLE, None, None)
        # Kick degenerate artificials out of the basis; drop redundant rows.
        # Phase 1 accepted each one within FEAS_TOL, so it is zero: a pivot
        # on a tiny entry would scale its rounding residue into a real row.
        drop_rows = []
        for i in range(m):
            if basis[i] >= n_real:
                tableau[i, -1] = 0.0
                for j in range(n_real):
                    if abs(tableau[i, j]) > PIVOT_TOL:
                        _pivot(tableau, basis, i, j)
                        break
                else:
                    drop_rows.append(i)
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            tableau = tableau[keep + [m]]
            basis = [basis[i] for i in keep]
            m = len(basis)

    # Phase 2: drop the artificial columns, keeping the rhs column.
    if n_art:
        tableau = np.hstack([tableau[:, :n_real], tableau[:, -1:]])
    tableau[-1, :] = 0.0
    tableau[-1, :n] = lp.objective
    for i in range(m):
        if basis[i] < n and lp.objective[basis[i]] != 0.0:
            tableau[-1] -= lp.objective[basis[i]] * tableau[i]
    status = _run_simplex(tableau, basis, n_real)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i, -1]
    return LpResult(OPTIMAL, x, float(lp.objective @ x))


def vertex_enumerate(lp: LinearProgram) -> LpResult:
    """Maximize by checking every basic point: solve each square system of n
    active constraints (equalities, tight inequalities, tight sign bounds),
    keep feasible solutions, and return the best objective.

    Assumes the feasible region has at least one vertex and the objective is
    bounded over it (true whenever the region is bounded); never reports
    "unbounded".  Returns "infeasible" when no candidate point satisfies all
    constraints.  Intended as an independent cross-check for
    :func:`lp_maximize` on small problems.
    """
    n = lp.n
    if n > 6:
        raise ValueError("vertex enumeration is capped at 6 variables")
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    if lp.a_eq is not None:
        rows += [r for r in lp.a_eq]
        rhs += [float(b) for b in lp.b_eq]
    if lp.a_ub is not None:
        rows += [r for r in lp.a_ub]
        rhs += [float(b) for b in lp.b_ub]
    eye = np.eye(n)
    rows += [eye[i] for i in range(n)]  # sign bounds x_i >= 0, active as x_i = 0
    rhs += [0.0] * n

    best_x, best_val = None, None
    for combo in itertools.combinations(range(len(rows)), n):
        a = np.array([rows[i] for i in combo])
        b = np.array([rhs[i] for i in combo])
        try:
            x = solve_linear_system(a, b)
        except SingularMatrixError:
            continue
        if np.any(x < -FEAS_TOL):
            continue
        if lp.a_eq is not None and np.any(np.abs(lp.a_eq @ x - lp.b_eq) > FEAS_TOL):
            continue
        if lp.a_ub is not None and np.any(lp.a_ub @ x - lp.b_ub > FEAS_TOL):
            continue
        val = float(lp.objective @ x)
        if best_val is None or val > best_val:
            best_x, best_val = x, val
    if best_x is None:
        return LpResult(INFEASIBLE, None, None)
    return LpResult(OPTIMAL, best_x, best_val)
