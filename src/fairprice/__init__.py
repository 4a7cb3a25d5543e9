"""Doubly fair dynamic pricing over a finite price grid.

The package has three layers:

* primitives and metrics (:mod:`fairprice.core`, :mod:`fairprice.linsolve`),
* the fair-policy oracle and elimination machinery (:mod:`fairprice.oracle`),
* the learning agent, simulator, baselines, and benchmarks
  (:mod:`fairprice.fpa`, :mod:`fairprice.sim`, :mod:`fairprice.validation`,
  :mod:`fairprice.cli`).

The names re-exported here are the supported surface; everything else may
move without notice.
"""

from .core import (
    AcceptanceModel,
    MarketConfig,
    PolicyPair,
    PriceGrid,
    accepted_mean,
    best_fixed_price,
    expected_revenue,
    fixed_price_policy,
    market_from_text,
    market_to_text,
    procedural_gap,
    proposed_mean,
    substantive_gap,
)
from .fpa import FpaAgent, FpaConfig
from .linsolve import (
    LinearProgram,
    LpResult,
    SingularMatrixError,
    lp_maximize,
    solve_linear_system,
    vertex_enumerate,
)
from .oracle import (
    EliminationLedger,
    FairSolution,
    LedgerEntry,
    OracleConfig,
    alpha_bounds,
    closed_form_example_optimum,
    empirical_optimizer,
    eps_family_policy,
    example_revenue_surface,
    max_probability_policies,
    max_probability_policy,
    member,
    solve_fair_optimal,
    solve_relaxed_optimal,
)
from .sim import (
    BASELINE_KINDS,
    RoundRecord,
    RunTrace,
    baseline_agent,
    example1_market,
    example_eps_market,
    lowerbound_family_market,
    run_episode,
    write_summary_json,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AcceptanceModel",
    "BASELINE_KINDS",
    "EliminationLedger",
    "FairSolution",
    "FpaAgent",
    "FpaConfig",
    "LedgerEntry",
    "LinearProgram",
    "LpResult",
    "MarketConfig",
    "OracleConfig",
    "PolicyPair",
    "PriceGrid",
    "RoundRecord",
    "RunTrace",
    "SingularMatrixError",
    "accepted_mean",
    "alpha_bounds",
    "baseline_agent",
    "best_fixed_price",
    "closed_form_example_optimum",
    "empirical_optimizer",
    "eps_family_policy",
    "example1_market",
    "example_eps_market",
    "example_revenue_surface",
    "expected_revenue",
    "fixed_price_policy",
    "lowerbound_family_market",
    "lp_maximize",
    "market_from_text",
    "market_to_text",
    "max_probability_policies",
    "max_probability_policy",
    "member",
    "procedural_gap",
    "proposed_mean",
    "run_episode",
    "solve_fair_optimal",
    "solve_linear_system",
    "solve_relaxed_optimal",
    "substantive_gap",
    "vertex_enumerate",
    "write_summary_json",
    "write_trace_csv",
]
