"""What does fairness cost in the worked three-price market?

Solves the built-in example in closed form and with the exact solver, then
lines the doubly-fair optimum up against the two natural unfair benchmarks:
the best single posted price (group-blind, so fair by construction but
weaker) and the groupwise-optimal prices (revenue ceiling, but both fairness
gaps open).
"""

import numpy as np

from fairprice import (
    baseline_agent,
    best_fixed_price,
    closed_form_example_optimum,
    example1_market,
    expected_revenue,
    procedural_gap,
    solve_fair_optimal,
    substantive_gap,
)


def describe(name, market, policy):
    rev = expected_revenue(market, policy)
    u = procedural_gap(market.grid, policy)
    s = substantive_gap(market, policy)
    print(f"  {name:<24} revenue {rev:.6f}   U {u:.4f}   S {s:.4f}")
    return rev


def main():
    market = example1_market()
    print("Market: prices", np.array2string(market.grid.prices, precision=3),
          f" q = {market.q}")
    print("  group-1 acceptance", market.accept.group1)
    print("  group-2 acceptance", market.accept.group2)

    print("\nClosed form vs exact solver")
    closed = closed_form_example_optimum()
    solved = solve_fair_optimal(market)
    print(f"  closed-form revenue  {closed.revenue:.12f}")
    print(f"  solver revenue       {solved.revenue:.12f}")
    print(f"  |gap|                {abs(closed.revenue - solved.revenue):.2e}")
    print(f"  accepted-mean anchor {closed.v_s:.6f}  premium {closed.alpha:.6f}")
    for g in (1, 2):
        print(f"  group-{g} weights      closed",
              np.array2string(closed.policy.weights(g), precision=4),
              " solver", np.array2string(solved.policy.weights(g), precision=4))

    print("\nBenchmarks")
    fair = describe("doubly-fair optimum", market, closed.policy)
    idx, _ = best_fixed_price(market)
    fixed = describe(f"best fixed price (v={market.grid.prices[idx]})", market,
                     baseline_agent("best_fixed", market).current_policy())
    greedy = describe("groupwise optima", market,
                      baseline_agent("group_oracle", market).current_policy())

    print("\nReading")
    print(f"  randomization beats the best fixed price by "
          f"{fair - fixed:.6f} per round ({100 * (fair / fixed - 1):.2f}%)")
    print(f"  full discrimination would add another {greedy - fair:.6f}, "
          f"but opens a {procedural_gap(market.grid, baseline_agent('group_oracle', market).current_policy()):.2f} proposed-price gap")


if __name__ == "__main__":
    main()
