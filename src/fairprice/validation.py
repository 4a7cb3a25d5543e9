"""Acceptance suite: every promise the package makes, checked in one place.

Each check returns a :class:`CheckResult` instead of raising, so the suite
always runs to completion and reports expected-vs-actual for whatever failed.
The checks deliberately re-derive their reference values through routes that
share as little code as possible with the library proper: closed forms are
hand-expanded rationals, the solver is cross-examined against a dense simplex
enumeration, and the LP solver against brute-force vertex inspection.

Budget notes: the scaling and retention checks run full simulated episodes
(tens of millions of simulated rounds in total) and dominate the runtime at
roughly two minutes; everything else finishes in seconds.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .core import (
    AcceptanceModel,
    MarketConfig,
    PolicyPair,
    PriceGrid,
    accepted_mean,
    expected_revenue,
    procedural_gap,
    proposed_mean,
    substantive_gap,
)
from .fpa import FpaAgent, FpaConfig
from .linsolve import LinearProgram, lp_maximize, vertex_enumerate
from .oracle import member, solve_fair_optimal
from .sim import (
    alpha_bounds,
    closed_form_example_optimum,
    eps_family_policy,
    example1_market,
    example_eps_market,
    example_revenue_surface,
    lowerbound_family_market,
    run_episode,
    write_summary_json,
    write_trace_csv,
)

# Cumulative regret of the best fixed price on the built-in example grows at
# exactly 3/290 per round; the scaling check's absolute gates compare to it.
BEST_FIXED_RATE = 3.0 / 290.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name} ({self.elapsed:.1f}s): {self.detail}"


def _finish(name: str, t0: float, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, passed, detail, time.time() - t0)


# ---------------------------------------------------------------------------
# random instances used by several checks
# ---------------------------------------------------------------------------

def random_market(rng: np.random.Generator) -> MarketConfig:
    """A small random market: three spaced prices in (0, 1], monotone
    acceptance curves bounded away from zero, and a non-extreme group mix."""
    top = rng.uniform(0.7, 1.0)
    g2 = rng.uniform(0.07, 0.3)
    g1 = rng.uniform(0.07, 0.3)
    prices = np.array([top - g1 - g2, top - g2, top])
    curves = []
    for _ in range(2):
        f = np.empty(3)
        f[0] = rng.uniform(0.5, 0.95)
        f[1] = f[0] * rng.uniform(0.55, 1.0)
        f[2] = f[1] * rng.uniform(0.55, 1.0)
        curves.append(np.maximum(f, 0.1))
    q = rng.uniform(0.2, 0.8)
    return MarketConfig(grid=PriceGrid(prices),
                        accept=AcceptanceModel(curves[0], curves[1]),
                        q=q)


def _random_policy(rng: np.random.Generator, d: int) -> PolicyPair:
    return PolicyPair.from_weights(rng.dirichlet(np.ones(d)),
                                   rng.dirichlet(np.ones(d)))


# ---------------------------------------------------------------------------
# independent dense-grid oracle
# ---------------------------------------------------------------------------

def brute_force_fair_optimal(market: MarketConfig, step: float = 1e-3):
    """Fair optimum by dense enumeration, independent of the solver.

    Walks group 1 over the full probability simplex at resolution ``step``;
    for each point the doubly-fair group-2 weights are the unique solution of
    the 3x3 system (total mass, equal proposed mean, equal accepted mean),
    solved in batch.  Infeasible points (negative weights or a singular
    system) are discarded.  One local refinement pass re-enumerates a +-2
    step neighborhood of the argmax at a tenth of the step.

    Returns (revenue, group1_weights, group2_weights).
    """
    if market.d != 3:
        raise ValueError("dense enumeration is a d=3 reference oracle")
    v = market.grid.prices
    f1, f2 = market.accept.group1, market.accept.group2
    q = market.q

    def evaluate(w1: np.ndarray):
        # accepted mean of group 1 at every enumerated point
        num = w1 @ (v * f1)
        den = w1 @ f1
        m1 = num / den
        rows = np.empty((w1.shape[0], 3, 3))
        rows[:, 0, :] = 1.0
        rows[:, 1, :] = v
        rows[:, 2, :] = (v[None, :] - m1[:, None]) * f2[None, :]
        dets = np.linalg.det(rows)
        ok = np.abs(dets) > 1e-12
        if not np.any(ok):
            return None
        rhs = np.stack([np.ones(ok.sum()), w1[ok] @ v, np.zeros(ok.sum())], axis=1)
        w2 = np.linalg.solve(rows[ok], rhs[..., None])[..., 0]
        feas = np.all(w2 >= -1e-9, axis=1)
        if not np.any(feas):
            return None
        w1ok = w1[ok][feas]
        w2ok = np.clip(w2[feas], 0.0, None)
        w2ok /= w2ok.sum(axis=1, keepdims=True)
        rev = q * (w1ok @ (v * f1)) + (1.0 - q) * (w2ok @ (v * f2))
        i = int(np.argmax(rev))
        return float(rev[i]), w1ok[i], w2ok[i]

    n = round(1.0 / step)
    counts = np.arange(n + 1)
    a = np.repeat(counts, n + 1 - counts)
    b = np.concatenate([np.arange(n + 1 - c) for c in counts])
    grid1 = np.stack([a, b, n - a - b], axis=1) / n
    best = evaluate(grid1)
    if best is None:
        raise ValueError("no feasible fair policy found on the dense grid")

    # refinement: +-2 coarse steps around the argmax at step/10
    fine = step / 10.0
    offs = np.arange(-20, 21) * fine
    aa, bb = np.meshgrid(best[1][0] + offs, best[1][1] + offs, indexing="ij")
    w1 = np.stack([aa.ravel(), bb.ravel(), 1.0 - aa.ravel() - bb.ravel()], axis=1)
    w1 = w1[np.all(w1 >= 0.0, axis=1)]
    refined = evaluate(w1) if w1.size else None
    if refined is not None and refined[0] > best[0]:
        best = refined
    return best


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def check_closed_form_golden() -> CheckResult:
    """Exact rational values of the built-in example's fair optimum."""
    t0 = time.time()
    opt = closed_form_example_optimum(0.0)
    expect = {
        "pi1": np.array([20.0, 0.0, 9.0]) / 29.0,
        "pi2": np.array([0.0, 25.0, 4.0]) / 29.0,
        "revenue": 74.0 / 145.0,
        "v_s": 8.0 / 11.0,
        "v_r": 43.0 / 58.0,
    }
    errs = {
        "pi1": float(np.max(np.abs(opt.policy.weights(1) - expect["pi1"]))),
        "pi2": float(np.max(np.abs(opt.policy.weights(2) - expect["pi2"]))),
        "revenue": abs(opt.revenue - expect["revenue"]),
        "v_s": abs(opt.v_s - expect["v_s"]),
        "v_r": abs(opt.v_s + opt.alpha - expect["v_r"]),
    }
    worst = max(errs, key=errs.get)
    return _finish("closed-form-golden", t0, all(e <= 1e-12 for e in errs.values()),
                   f"worst deviation {errs[worst]:.2e} ({worst}), tolerance 1e-12")


def check_scan_matches_closed_form() -> CheckResult:
    """The exact solver reproduces the family's closed form at several eps."""
    t0 = time.time()
    worst_rev, worst_pol = 0.0, 0.0
    for eps in (0.0, 1e-4, 1e-3, 1e-2):
        ref = closed_form_example_optimum(eps)
        got = solve_fair_optimal(example_eps_market(eps))
        worst_rev = max(worst_rev, abs(got.revenue - ref.revenue))
        for g in (1, 2):
            worst_pol = max(worst_pol, float(np.max(np.abs(
                got.policy.weights(g) - ref.policy.weights(g)))))
    return _finish("scan-vs-closed-form", t0, worst_rev <= 1e-10 and worst_pol <= 1e-10,
                   f"max revenue err {worst_rev:.2e} (tol 1e-10), "
                   f"max policy err {worst_pol:.2e} (tol 1e-10)")


def check_parametrized_surface() -> CheckResult:
    """Policies rebuilt from the (v_s, alpha) systems hit every promised
    identity: strict parity, pinned means, and the closed-form revenue."""
    t0 = time.time()
    rng = np.random.default_rng(1234)
    done, worst = 0, 0.0
    while done < 50:
        eps = float(rng.choice([0.0, 0.01, 0.02, 0.03, 0.05]))
        v_s = rng.uniform(0.64, 0.99)
        bounds = alpha_bounds(eps, v_s)
        if not bounds.feasible or bounds.upper <= bounds.lower + 1e-9:
            continue
        alpha = rng.uniform(bounds.lower, bounds.upper)
        market = example_eps_market(eps)
        try:
            pol = eps_family_policy(eps, v_s, alpha)
        except ValueError:
            continue
        errs = [
            procedural_gap(market.grid, pol),
            substantive_gap(market, pol),
            abs(proposed_mean(market.grid, pol.group1) - (v_s + alpha)),
            abs(accepted_mean(market.grid, market.accept.group1, pol.group1) - v_s),
            abs(accepted_mean(market.grid, market.accept.group2, pol.group2) - v_s),
            abs(expected_revenue(market, pol)
                - example_revenue_surface(eps, v_s, alpha)),
        ]
        worst = max(worst, max(errs))
        done += 1
    return _finish("parametrized-surface", t0, worst <= 1e-9,
                   f"50 feasible samples, worst identity error {worst:.2e} (tol 1e-9)")


def check_brute_force_agreement() -> CheckResult:
    """The solver and the dense simplex enumeration agree on random markets."""
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst, worst_idx = 0.0, -1
    for idx in range(20):
        market = random_market(rng)
        scan = solve_fair_optimal(market)
        dense_rev, _, _ = brute_force_fair_optimal(market)
        gap = abs(scan.revenue - dense_rev)
        if gap > worst:
            worst, worst_idx = gap, idx
    return _finish("brute-force-agreement", t0, worst <= 2e-3,
                   f"20 random markets, worst revenue gap {worst:.2e} "
                   f"(market {worst_idx}, tol 2e-3)")


def _random_lp(rng: np.random.Generator) -> LinearProgram:
    """A bounded random LP: x >= 0 plus a simplex-style cap keeps every
    instance's feasible set compact, so both routes must return 'optimal'
    or both 'infeasible' (never 'unbounded')."""
    n = int(rng.integers(2, 5))
    c = rng.normal(size=n)
    rows = [np.ones(n)]
    rhs = [float(rng.uniform(0.5, 2.0))]
    for _ in range(int(rng.integers(0, 3))):
        rows.append(rng.normal(size=n))
        rhs.append(float(rng.uniform(-0.5, 1.5)))
    a_eq = b_eq = None
    if rng.random() < 0.3:
        a_eq = rng.normal(size=(1, n))
        b_eq = np.array([float(rng.uniform(-0.2, 0.8))])
    return LinearProgram(objective=c, a_ub=np.array(rows), b_ub=np.array(rhs),
                         a_eq=a_eq, b_eq=b_eq)


def check_lp_dual_route() -> CheckResult:
    """Simplex and vertex enumeration agree on feasibility and value."""
    t0 = time.time()
    rng = np.random.default_rng(4242)
    worst, disagreements = 0.0, 0
    for _ in range(500):
        lp = _random_lp(rng)
        a = lp_maximize(lp)
        b = vertex_enumerate(lp)
        if a.status != b.status:
            disagreements += 1
        elif a.status == "optimal":
            worst = max(worst, abs(a.value - b.value))
    return _finish("lp-dual-route", t0, disagreements == 0 and worst <= 1e-8,
                   f"500 LPs, {disagreements} status disagreements, "
                   f"worst value gap {worst:.2e} (tol 1e-8)")


def check_procedural_exactness() -> CheckResult:
    """Cumulative proposed-price disparity is zero on every agent run."""
    t0 = time.time()
    worst = 0.0
    runs = 0
    cases = []
    for seed in range(10):
        cases.append((example1_market(), 1000, seed, "scaled"))
        cases.append((example_eps_market(0.01), 3163, seed, "scaled"))
        cases.append((example1_market(), 10_000, seed, "scaled"))
        cases.append((example_eps_market(0.1), 317, seed, "theory"))
    for market, horizon, seed, mode in cases:
        agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q, horizon=horizon,
                                   seed=seed, constants_mode=mode))
        trace = run_episode(agent, market, horizon, seed=seed, record_every=10**9)
        worst = max(worst, abs(trace.cum_u), trace.max_inst_u)
        runs += 1
    return _finish("procedural-exactness", t0, worst <= 1e-9,
                   f"{runs} runs (horizons 317..10000, both modes), "
                   f"max |U| {worst:.2e} (tol 1e-9)")


def check_sublinear_scaling() -> CheckResult:
    """Log-log slopes of mean cumulative regret and unfairness stay under
    0.75 across three decades, and both metrics at the largest horizon beat
    the best fixed price's linearly growing regret."""
    t0 = time.time()
    market = example1_market()
    opt = solve_fair_optimal(market)
    horizons = (10_000, 100_000, 1_000_000)
    mean_regret, mean_s = [], []
    for horizon in horizons:
        regs, ss = [], []
        for seed in range(10):
            agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q,
                                       horizon=horizon, seed=seed))
            trace = run_episode(agent, market, horizon, seed=seed,
                                oracle_revenue=opt.revenue, record_every=10**9)
            regs.append(trace.cum_regret)
            ss.append(trace.cum_s)
        mean_regret.append(float(np.mean(regs)))
        mean_s.append(float(np.mean(ss)))
    xs = np.log10(horizons)
    slope_r = float(np.polyfit(xs, np.log10(mean_regret), 1)[0])
    slope_s = float(np.polyfit(xs, np.log10(mean_s), 1)[0])
    bound = BEST_FIXED_RATE * horizons[-1]
    passed = (slope_r <= 0.75 and slope_s <= 0.75
              and mean_regret[-1] < bound and mean_s[-1] < bound)
    return _finish("sublinear-scaling", t0, passed,
                   f"slopes regret {slope_r:.3f} / S {slope_s:.3f} (gate 0.75); "
                   f"at T=1e6 regret {mean_regret[-1]:.0f}, S {mean_s[-1]:.0f} "
                   f"vs fixed-price {bound:.0f}")


def check_optimum_retention() -> CheckResult:
    """The true optimum stays in the surviving set at every epoch boundary
    in at least 19 of 20 seeded runs."""
    t0 = time.time()
    market = example1_market()
    opt = solve_fair_optimal(market)
    held = 0
    for seed in range(20):
        agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q,
                                   horizon=100_000, seed=seed))
        run_episode(agent, market, 100_000, seed=seed, record_every=10**9)
        # The ledger only grows and membership clears every snapshot, so a
        # member of the finished ledger was a member at every boundary.
        held += len(agent.ledger) > 0 and member(opt.policy, agent.ledger)
    return _finish("optimum-retention", t0, held >= 19,
                   f"{held}/20 runs kept the optimum at every boundary (need 19)")


def check_metric_properties() -> CheckResult:
    """Revenue mixes linearly, the accepted-mean gap ignores uniform
    per-group acceptance scaling, and monotone curves discount the mean."""
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst_lin = worst_scale = worst_order = 0.0
    for _ in range(200):
        market = random_market(rng)
        pol_a = _random_policy(rng, 3)
        pol_b = _random_policy(rng, 3)
        lam = float(rng.random())
        mix = PolicyPair.from_weights(
            lam * pol_a.weights(1) + (1 - lam) * pol_b.weights(1),
            lam * pol_a.weights(2) + (1 - lam) * pol_b.weights(2))
        worst_lin = max(worst_lin, abs(
            expected_revenue(market, mix)
            - lam * expected_revenue(market, pol_a)
            - (1 - lam) * expected_revenue(market, pol_b)))

        c1 = float(rng.uniform(0.2, 1.0 / market.accept.group1.max()))
        c2 = float(rng.uniform(0.2, 1.0 / market.accept.group2.max()))
        scaled = MarketConfig(
            grid=market.grid,
            accept=AcceptanceModel(c1 * market.accept.group1,
                                   c2 * market.accept.group2,
                                   f_min=0.01),
            q=market.q)
        worst_scale = max(worst_scale, abs(
            substantive_gap(market, pol_a) - substantive_gap(scaled, pol_a)))

        for group, curve in ((1, market.accept.group1), (2, market.accept.group2)):
            dist = pol_b.group1 if group == 1 else pol_b.group2
            worst_order = max(worst_order,
                              accepted_mean(market.grid, curve, dist)
                              - proposed_mean(market.grid, dist))
    passed = worst_lin <= 1e-12 and worst_scale <= 1e-12 and worst_order <= 1e-12
    return _finish("metric-properties", t0, passed,
                   f"200 instances: linearity err {worst_lin:.1e}, scale-invariance "
                   f"err {worst_scale:.1e}, mean-ordering excess {worst_order:.1e} "
                   f"(tol 1e-12)")


def check_determinism() -> CheckResult:
    """Identical configuration twice gives byte-identical trace and summary."""
    t0 = time.time()
    market = example1_market()
    blobs = []
    with tempfile.TemporaryDirectory() as root:
        for rep in range(2):
            agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q,
                                       horizon=3000, seed=11))
            trace = run_episode(agent, market, 3000, seed=11, record_every=10)
            csv_path = Path(root, f"trace{rep}.csv")
            json_path = Path(root, f"summary{rep}.json")
            write_trace_csv(trace, str(csv_path))
            write_summary_json(trace.summary(), str(json_path))
            blobs.append((csv_path.read_bytes(), json_path.read_bytes()))
    same = blobs[0] == blobs[1]
    return _finish("determinism", t0, same,
                   "repeated run byte-identical" if same else
                   "repeated run produced different bytes")


def check_lowerbound_construction() -> CheckResult:
    """The indistinguishable-environment family is flat at j=0 and has a
    unique bump of exactly eps = sqrt(d/T) at the chosen index otherwise."""
    t0 = time.time()
    worst_flat = 0.0
    bump_ok = True
    detail_bits = []
    for d, horizon in ((3, 10_000), (4, 100_000), (5, 1_000_000)):
        eps = math.sqrt(d / horizon)
        base = lowerbound_family_market(0, d, horizon)
        # construction units: price * acceptance * 12, flat at 1 with no bump
        profile0 = base.grid.prices * base.accept.group1 * 12.0
        worst_flat = max(worst_flat, float(np.max(np.abs(profile0 - 1.0))))
        for j in range(1, d + 1):
            market = lowerbound_family_market(j, d, horizon)
            profile = market.grid.prices * market.accept.group1 * 12.0
            gaps = profile - 1.0
            k = int(np.argmax(gaps))
            if k != j - 1 or abs(gaps[k] - eps) > 1e-12:
                bump_ok = False
            others = np.delete(gaps, k)
            if others.size and np.max(np.abs(others)) > 1e-12:
                bump_ok = False
        detail_bits.append(f"d={d}")
    return _finish("lowerbound-construction", t0, worst_flat <= 1e-12 and bump_ok,
                   f"flat profile err {worst_flat:.1e}, bump position/size exact "
                   f"({', '.join(detail_bits)})")


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_closed_form_golden,
    check_scan_matches_closed_form,
    check_parametrized_surface,
    check_brute_force_agreement,
    check_lp_dual_route,
    check_procedural_exactness,
    check_sublinear_scaling,
    check_optimum_retention,
    check_metric_properties,
    check_determinism,
    check_lowerbound_construction,
)


def run_all(report: Optional[Callable[[str], None]] = None) -> list[CheckResult]:
    """Run the full suite in order; stream one line per finished check."""
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        if report:
            report(result.line())
    return results
