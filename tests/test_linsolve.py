"""Dense solves and the two independent LP routes.

The simplex and the vertex enumerator share nothing but the problem type, so
their agreement on random instances is a genuine cross-check; a couple of
textbook programs with known optima pin the absolute answers.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairprice import (
    LinearProgram,
    SingularMatrixError,
    lp_maximize,
    oracle,
    solve_linear_system,
    solve_relaxed_optimal,
    vertex_enumerate,
)
from fairprice import linsolve
from fairprice.linsolve import FEAS_TOL, MAX_LP_VARS, MAX_SOLVE_N, PIVOT_TOL
from test_oracle import GOLDEN_SOLVES, _golden_solve


# ---------------------------------------------------------------------------
# dense linear systems
# ---------------------------------------------------------------------------

def test_solve_matches_numpy_on_random_systems():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) + n * np.eye(n)  # keep it well conditioned
        b = rng.normal(size=n)
        x = solve_linear_system(a, b)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-9)


def test_solve_exact_small_system():
    x = solve_linear_system([[2.0, 0.0], [0.0, 4.0]], [6.0, 8.0])
    np.testing.assert_array_equal(x, [3.0, 2.0])


def test_solve_rejects_singular_and_misshapen():
    with pytest.raises(SingularMatrixError):
        solve_linear_system([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        solve_linear_system(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        solve_linear_system(np.ones((2, 2)), np.ones(3))
    n = MAX_SOLVE_N + 1
    with pytest.raises(ValueError):
        solve_linear_system(np.eye(n), np.ones(n))


def test_solve_needs_pivoting():
    # leading zero forces a row swap; plain elimination would divide by zero
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(solve_linear_system(a, [2.0, 3.0]), [3.0, 2.0])


# ---------------------------------------------------------------------------
# LP construction
# ---------------------------------------------------------------------------

def test_lp_shape_validation():
    with pytest.raises(ValueError):
        LinearProgram(np.ones(MAX_LP_VARS + 1))
    with pytest.raises(ValueError):
        LinearProgram(np.ones(2), a_ub=np.ones((1, 3)), b_ub=np.ones(1))
    with pytest.raises(ValueError):
        LinearProgram(np.ones(2), a_ub=np.ones((1, 2)))  # rhs missing
    lp = LinearProgram([1.0, 2.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert lp.n == 2 and lp.n_rows == 1


# ---------------------------------------------------------------------------
# known optima
# ---------------------------------------------------------------------------

def test_textbook_two_variable_program():
    # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18: optimum (2, 6) -> 36
    lp = LinearProgram([3.0, 5.0],
                       a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                       b_ub=[4.0, 12.0, 18.0])
    for solve in (lp_maximize, vertex_enumerate):
        res = solve(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(36.0, abs=1e-9)
        np.testing.assert_allclose(res.x, [2.0, 6.0], atol=1e-9)


def test_equality_constrained_program():
    # max 2a + b on the simplex a + b = 1: all mass on a
    lp = LinearProgram([2.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    for solve in (lp_maximize, vertex_enumerate):
        res = solve(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-9)


def test_equality_rows_leave_no_artificial_residue():
    """Optimum strictly inside the simplex face: the driving-out of the
    phase-1 artificials must hand phase 2 the right basic values.  (A
    truncation slip here once returned infeasible negative "solutions".)"""
    lp = LinearProgram([1.0, 1.0, 0.0],
                       a_eq=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                       b_eq=[1.0, 0.25])
    got = lp_maximize(lp)
    want = vertex_enumerate(lp)
    assert got.status == want.status == "optimal"
    assert got.value == pytest.approx(want.value, abs=1e-9)
    assert got.value == pytest.approx(1.0, abs=1e-9)
    assert np.all(got.x >= -FEAS_TOL)
    np.testing.assert_allclose(lp.a_eq @ got.x, lp.b_eq, atol=1e-8)


def test_negative_rhs_row_is_flipped_through_phase_one():
    # -x <= -0.5 says x >= 0.5; minimizing x (max -x) lands exactly there
    lp = LinearProgram([-1.0], a_ub=[[-1.0]], b_ub=[-0.5])
    res = lp_maximize(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-0.5, abs=1e-9)
    assert res.x[0] == pytest.approx(0.5, abs=1e-9)


def test_degenerate_vertices_do_not_cycle():
    # three planes through one corner; Bland's rule must still terminate
    lp = LinearProgram([1.0, 1.0],
                       a_ub=[[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
                       b_ub=[1.0, 1.0, 2.0])
    res = lp_maximize(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# status detection
# ---------------------------------------------------------------------------

def test_unbounded_detection():
    assert lp_maximize(LinearProgram([1.0, 0.0])).status == "unbounded"
    lp = LinearProgram([1.0, 1.0], a_ub=[[1.0, -1.0]], b_ub=[1.0])
    assert lp_maximize(lp).status == "unbounded"


def test_infeasible_detection():
    lp = LinearProgram([1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])  # 2 <= x <= 1
    for solve in (lp_maximize, vertex_enumerate):
        assert solve(lp).status == "infeasible"
    lp = LinearProgram([1.0, 1.0],
                       a_eq=[[1.0, 1.0]], b_eq=[2.0],
                       a_ub=[[1.0, 1.0]], b_ub=[1.0])
    for solve in (lp_maximize, vertex_enumerate):
        assert solve(lp).status == "infeasible"


def test_vertex_enumeration_cap():
    with pytest.raises(ValueError):
        vertex_enumerate(LinearProgram(np.ones(7)))


# ---------------------------------------------------------------------------
# dual-route agreement on random bounded programs
# ---------------------------------------------------------------------------

def _random_bounded_lp(rng):
    """Small LP whose region is bounded (an all-ones cap row guarantees it)."""
    n = int(rng.integers(2, 5))
    c = rng.normal(size=n)
    rows = [np.ones(n)]
    rhs = [float(rng.uniform(0.5, 2.0))]
    for _ in range(int(rng.integers(0, 3))):
        rows.append(rng.normal(size=n))
        rhs.append(float(rng.uniform(-0.2, 1.5)))
    a_eq = b_eq = None
    if rng.random() < 0.3:
        a_eq = rng.uniform(0.2, 1.0, size=(1, n))
        b_eq = np.array([float(rng.uniform(0.1, 0.8))])
    return LinearProgram(c, a_ub=np.array(rows), b_ub=np.array(rhs),
                         a_eq=a_eq, b_eq=b_eq)


def test_simplex_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(2024)
    solved = 0
    for _ in range(150):
        lp = _random_bounded_lp(rng)
        got = lp_maximize(lp)
        want = vertex_enumerate(lp)
        assert got.status == want.status, f"{got.status} vs {want.status}: {lp}"
        if got.status != "optimal":
            continue
        solved += 1
        assert got.value == pytest.approx(want.value, abs=1e-8)
        assert np.all(got.x >= -FEAS_TOL)
        assert np.all(lp.a_ub @ got.x <= lp.b_ub + 1e-8)
        if lp.a_eq is not None:
            np.testing.assert_allclose(lp.a_eq @ got.x, lp.b_eq, atol=1e-8)
    assert solved >= 80  # the generator should mostly produce solvable programs


# ---------------------------------------------------------------------------
# the one-step pivot against the row loop, bit for bit
# ---------------------------------------------------------------------------

def _pivot_row_loop(tableau, basis, row, col):
    """The pivot as a loop over rows: the reference the one-step pivot keeps."""
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _run_simplex_column_scan(tableau, basis, n_cols):
    """Bland's rule reading the tableau one entry at a time, pivoting with
    the row loop: the reference for linsolve._run_simplex."""
    m = tableau.shape[0] - 1
    for _ in range(linsolve._MAX_PIVOTS):
        obj = tableau[-1, :n_cols]
        enter = -1
        for j in range(n_cols):
            if obj[j] > PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return linsolve.OPTIMAL
        best_ratio, leave = None, -1
        for i in range(m):
            coeff = tableau[i, enter]
            if coeff > PIVOT_TOL:
                ratio = tableau[i, -1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio - PIVOT_TOL
                    or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return linsolve.UNBOUNDED
        _pivot_row_loop(tableau, basis, leave, enter)
    raise RuntimeError("simplex failed to terminate (pivot cap hit)")


def _row_loop_maximize(lp):
    with mock.patch.object(linsolve, "_pivot", _pivot_row_loop), \
            mock.patch.object(linsolve, "_run_simplex", _run_simplex_column_scan):
        return lp_maximize(lp)


def _assert_same_bits(got, want):
    assert got.status == want.status
    assert (got.x is None) == (want.x is None)
    if want.x is not None:
        assert got.x.tobytes() == want.x.tobytes()
        assert got.value == want.value


# Entries that tie often (0, +-1, 0.5) mixed with arbitrary ones.
_ENTRY = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5]),
                   st.floats(-3.0, 3.0, allow_subnormal=False))


def _matrix(draw, rows, cols):
    return np.array(draw(st.lists(_ENTRY, min_size=rows * cols, max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)


@st.composite
def lp_programs(draw, feasible=False):
    """LPs of 1-16 variables with up to 8 inequality and 4 equality rows,
    often capped by an all-ones row.  A feasible one has a right-hand side
    met by a drawn x0 >= 0 (some rows exactly, so vertices are degenerate);
    otherwise the right-hand side is drawn too, negative entries included,
    and a drawn row may repeat another."""
    n = draw(st.integers(1, MAX_LP_VARS))
    m_ub, m_eq = draw(st.integers(0, 8)), draw(st.integers(0, 4))
    c = _matrix(draw, 1, n)[0]
    a_ub, a_eq = _matrix(draw, m_ub, n), _matrix(draw, m_eq, n)
    if m_ub > 1 and draw(st.booleans()):
        a_ub[-1] = a_ub[0]
    if draw(st.booleans()):
        a_ub = np.vstack([a_ub, np.ones(n)])
    if feasible:
        x0 = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 2.0),
                                    min_size=n, max_size=n)))
        slack = np.array(draw(st.lists(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0),
                                       min_size=a_ub.shape[0], max_size=a_ub.shape[0])))
        b_ub, b_eq = a_ub @ x0 + slack, a_eq @ x0
    else:
        b_ub = np.array(draw(st.lists(_ENTRY, min_size=a_ub.shape[0], max_size=a_ub.shape[0])))
        b_eq = np.array(draw(st.lists(_ENTRY, min_size=m_eq, max_size=m_eq)))
    return LinearProgram(c, a_ub=a_ub if a_ub.size else None, b_ub=b_ub if a_ub.size else None,
                         a_eq=a_eq if m_eq else None, b_eq=b_eq if m_eq else None)


@settings(max_examples=400)
@given(st.one_of(lp_programs(), lp_programs(feasible=True)))
def test_one_step_pivot_matches_the_row_loop_bit_for_bit(lp):
    """Same status, the same bytes of x and the same value as the row loop,
    on every kind of program: infeasible, unbounded, degenerate."""
    _assert_same_bits(lp_maximize(lp), _row_loop_maximize(lp))


def test_one_step_pivot_matches_the_row_loop_on_the_golden_solves():
    """Every LP the solves of GOLDEN_SOLVES issue, solved both ways."""
    lps = []
    real = oracle.lp_maximize
    with mock.patch.object(oracle, "lp_maximize", lambda lp: lps.append(lp) or real(lp)):
        for name in sorted(GOLDEN_SOLVES):
            solve_relaxed_optimal(*_golden_solve(name))
    assert len(lps) == 498  # the sum of the LP counts GOLDEN_SOLVES pins
    for lp in lps:
        _assert_same_bits(lp_maximize(lp), _row_loop_maximize(lp))


# Phase 1 leaves an artificial basic at 7.4e-17 here; kicked out on the
# 5.96e-8 entry of the x2 <= 0 row's slack, that residue once made the
# slack -1.24e-9 and x2 1.24e-9.
_KICK_RESIDUE_LP = LinearProgram(
    np.zeros(3),
    a_ub=np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [1.0, 0.0, -2.0]]),
    b_ub=np.array([0.0, -0.25, -0.5]),
    a_eq=np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 2.0**-24], [1.5, 0.0, 0.0]]),
    b_eq=np.array([1.0, -(1.0 - 2.0**-24), 1.5]))


@settings(max_examples=400)
@given(lp_programs(feasible=True))
@example(_KICK_RESIDUE_LP)
def test_optimal_points_meet_every_row_within_the_tolerance(lp):
    """What lp_maximize promises of every OPTIMAL result: each row holds
    within FEAS_TOL and x >= -FEAS_TOL.  The programs are feasible by
    construction, so the only other status is unbounded."""
    res = lp_maximize(lp)
    assert res.status in ("optimal", "unbounded")
    if res.status != "optimal":
        return
    assert np.all(res.x >= -FEAS_TOL)
    if lp.a_ub is not None:
        assert np.all(lp.a_ub @ res.x - lp.b_ub <= FEAS_TOL)
    if lp.a_eq is not None:
        assert np.all(np.abs(lp.a_eq @ res.x - lp.b_eq) <= FEAS_TOL)
    assert res.value == float(lp.objective @ res.x)
