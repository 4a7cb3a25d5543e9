"""Anatomy of one learning run: warmup, doubling epochs, elimination.

Runs the phased agent once at T = 10,000 on the worked example and narrates
what the schedule did: the top-price warmup, each epoch's batch length and
confidence radii, the acceptance estimates behind each elimination snapshot,
whether the known optimum survived every cut, and the diagnostic the agent
reports for the final, never-finished epoch.
"""

from fairprice import (
    EliminationLedger,
    FpaAgent,
    FpaConfig,
    closed_form_example_optimum,
    example1_market,
    member,
    run_episode,
)

HORIZON = 10_000
SEED = 1  # seed 0 draws an unlucky epoch-2 revenue floor; see the note below


def main():
    market = example1_market()
    optimum = closed_form_example_optimum()
    agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q,
                               horizon=HORIZON, seed=SEED))

    trace = run_episode(agent, market, HORIZON, seed=SEED, record_every=HORIZON,
                        oracle_revenue=optimum.revenue)

    print(f"T = {HORIZON}, seed = {SEED}")
    print(f"warmup: {agent.tau0} rounds at the top price, "
          f"acceptance floor estimate {agent.fmin_hat:.3f}")

    print("\nepochs (batch length doubles, radii shrink by sqrt 2):")
    for info in agent.epochs_info:
        print(f"  epoch {info['epoch']}: tau {info['tau']:>6}   "
              f"delta_r {info['delta_r']:.4f}   delta_s {info['delta_s']:.4f}   "
              f"policies carried {info['n_active']}")

    print("\nelimination snapshots:")
    t = agent.tau0
    for k, (entry, info) in enumerate(zip(agent.ledger, agent.epochs_info), 1):
        # Each snapshot closes its epoch; the optimum survived it if it is a
        # member of the ledger as it stood then.
        t += info["run_len"]
        ok = member(optimum.policy, EliminationLedger(market.grid, market.q,
                                                      agent.ledger.entries[:k]))
        f1 = " ".join(f"{x:.3f}" for x in entry.fhat.group1)
        f2 = " ".join(f"{x:.3f}" for x in entry.fhat.group2)
        verdict = "kept the optimum" if ok else "DROPPED the optimum"
        print(f"  after epoch {entry.epoch} (t={t:>5}): floor {entry.revenue_floor:.4f}, "
              f"band {entry.delta_s:.4f} -> {verdict}")
        print(f"      fhat group1 [{f1}]  group2 [{f2}]")

    diag = agent.truncated_diagnostic
    if diag is not None:
        print(f"\nepoch {diag['epoch']} ran out of horizon after "
              f"{diag['rounds_used']} of its rounds; had it finished, its "
              f"snapshot would have set floor {diag['revenue_floor']:.4f}")

    print(f"\ntotals: regret {trace.cum_regret:.2f}, "
          f"cumulative S {trace.cum_s:.2f}, cumulative U {trace.cum_u:.2e}")
    print("the proposed-price gap stays at floating-point zero: every policy "
          "the agent mixes over posts equal means to both groups")
    print("\nnote: the snapshots are random; an unlucky empirical floor can "
          "cut the true optimum (seed 0 does at this horizon), after which "
          "the agent settles for the best surviving policy and its regret "
          "grows at the best-fixed rate instead")


if __name__ == "__main__":
    main()
