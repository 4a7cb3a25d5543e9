"""Anatomy of one learning run: warmup, doubling epochs, elimination.

Runs the phased agent once at T = 10,000 on the worked example and narrates
what the schedule did: the top-price warmup, each epoch's batch length and
confidence radii, the acceptance estimates behind each elimination snapshot,
whether the known optimum survived every cut, and the snapshot of the final,
never-finished epoch, which stays in its record and out of the ledger.  It
reads everything from ``agent.epochs``, one record per epoch.
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
    for record in agent.epochs:
        params = record.params
        print(f"  epoch {params.epoch}: tau {params.tau:>6}   "
              f"delta_r {params.delta_r:.4f}   delta_s {params.delta_s:.4f}   "
              f"policies carried {len(record.policies)}")

    print("\nelimination snapshots:")
    t = agent.tau0
    for k, record in enumerate(agent.epochs):
        t += record.run_len
        snap = record.snapshot
        if record.truncated:
            # The horizon cut this epoch short: its snapshot stays in its
            # record and never reaches the ledger.
            print(f"  epoch {snap.epoch} (t={t:>5}) ran out of horizon after {record.run_len} "
                  f"of its {record.params.tau} rounds; had it finished, its snapshot "
                  f"would have set floor {snap.revenue_floor:.4f}")
        else:
            # Each snapshot closes its epoch; the optimum survived it if it
            # is a member of the ledger as it stood then.
            ok = member(optimum.policy, EliminationLedger(market.grid, market.q,
                                                          agent.ledger.entries[:k + 1]))
            verdict = "kept the optimum" if ok else "DROPPED the optimum"
            print(f"  after epoch {snap.epoch} (t={t:>5}): floor {snap.revenue_floor:.4f}, "
                  f"band {snap.delta_s:.4f} -> {verdict}")
        f1 = " ".join(f"{x:.3f}" for x in snap.fhat.group1)
        f2 = " ".join(f"{x:.3f}" for x in snap.fhat.group2)
        print(f"      fhat group1 [{f1}]  group2 [{f2}]")

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
