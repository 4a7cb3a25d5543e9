"""Reference and property checks, computed apart from the program.

Nothing here calls into ``fairprice``'s metrics: revenue, the procedural gap
U and the substantive gap S are recomputed from the returned weights with
plain numpy, and the exact optima come from closed forms.  Checks run outside
the timed regions and return a list of failure messages (empty when all
hold).
"""

from __future__ import annotations

import hashlib

import numpy as np

# Accuracy the default scan promises against the exact optimum.
SCAN_TOL = 1e-4
# Slack on fairness gaps, bounds and exact identities.
EXACT_TOL = 1e-9


def _arrays(market):
    return (np.asarray(market.grid.prices, float), np.asarray(market.accept.group1, float),
            np.asarray(market.accept.group2, float), float(market.q))


def best_fixed_revenue(market) -> float:
    """Best single price; a fixed price is always doubly fair."""
    v, f1, f2, q = _arrays(market)
    return float(np.max(q * v * f1 + (1.0 - q) * v * f2))


def groupwise_revenue(market) -> float:
    """Each group at its own best price: the unconstrained ceiling."""
    v, f1, f2, q = _arrays(market)
    return float(q * np.max(v * f1) + (1.0 - q) * np.max(v * f2))


def check_solution(name: str, market, solution, delta: float, reference=None) -> list[str]:
    """Weights are distributions, U <= 1e-9, S <= delta + 1e-9, the reported
    revenue is the weights' revenue, and it lies between the best fixed
    price and the group-wise optimum (and within its tolerance of the exact
    optimum, when ``reference`` = (optimum, tolerance) is given and
    delta = 0)."""
    v, f1, f2, q = _arrays(market)
    w1 = np.asarray(solution.policy.weights(1), float)
    w2 = np.asarray(solution.policy.weights(2), float)
    errors = []
    for g, w in ((1, w1), (2, w2)):
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
            errors.append(f"{name}: group {g} weights are not a distribution: {w.tolist()}")
    u = abs(float(v @ w1 - v @ w2))
    s = abs(float((v * f1) @ w1 / (f1 @ w1) - (v * f2) @ w2 / (f2 @ w2)))
    revenue = float(q * (v * f1) @ w1 + (1.0 - q) * (v * f2) @ w2)
    if u > EXACT_TOL:
        errors.append(f"{name}: procedural gap U = {u:.3e} > {EXACT_TOL:g}")
    if s > delta + EXACT_TOL:
        errors.append(f"{name}: substantive gap S = {s:.3e} > delta + {EXACT_TOL:g}")
    if abs(revenue - solution.revenue) > EXACT_TOL:
        errors.append(f"{name}: reported revenue {solution.revenue!r} but the weights "
                      f"earn {revenue!r}")
    floor, ceiling = best_fixed_revenue(market), groupwise_revenue(market)
    if revenue < floor - EXACT_TOL:
        errors.append(f"{name}: revenue {revenue!r} below the best fixed price {floor!r}")
    if revenue > ceiling + EXACT_TOL:
        errors.append(f"{name}: revenue {revenue!r} above the group-wise optimum {ceiling!r}")
    if reference is not None and delta == 0.0:
        exact, tol = reference
        if abs(revenue - exact) > tol:
            errors.append(f"{name}: revenue {revenue!r} misses the exact optimum "
                          f"{exact!r} by more than {tol:g}")
    return errors


def check_monotone(name: str, revenues_by_delta: list[tuple[float, float]]) -> list[str]:
    """The relaxed optimum must not decrease as the band widens."""
    errors = []
    ordered = sorted(revenues_by_delta)
    for (d0, r0), (d1, r1) in zip(ordered, ordered[1:]):
        if r1 < r0:
            errors.append(f"{name}: revenue falls from {r0!r} at delta={d0:g} "
                          f"to {r1!r} at delta={d1:g}")
    return errors


def check_episode(name: str, trace, agent, horizon: int) -> list[str]:
    """All T rounds were played and every round's policy posted equal
    proposed means (procedural gap at most 1e-9)."""
    errors = []
    last = trace.records[-1].t if trace.records else 0
    rounds = trace.agent_meta.get("rounds")
    if last != horizon or agent.t != horizon or rounds != horizon:
        errors.append(f"{name}: played {agent.t} rounds (last record {last}, "
                      f"meta {rounds}), expected {horizon}")
    if not trace.max_inst_u <= EXACT_TOL:
        errors.append(f"{name}: per-round procedural gap reached {trace.max_inst_u:.3e}")
    return errors


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
