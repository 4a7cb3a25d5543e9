"""Command-line front end: solve markets, run episodes, sweep horizons,
compare the near-indistinguishable environment pair, and run the acceptance
suite.

The CLI is a thin shell over the library: every number it prints can be
reproduced with direct calls using the configuration echoed into each output
file.  Outputs are deterministic (no timestamps, sorted JSON keys, fixed
float formatting), so identical invocations give byte-identical files.

Each config key is one row of ``SETTINGS``: the key, the dest of its flag,
its type and its default (the agent's come from ``FpaConfig``).  A command
reads the keys of its sections from the flag, else the optional flat
key/value file (``--config``), else the default.  A file key outside
``CONFIG_KEYS`` is an error, so a misspelt key cannot fall back to its
default unnoticed::

    # experiment.cfg
    environment.preset = example-eps
    environment.eps = 0.01
    agent.mode = scaled
    agent.scale_factor = 2.0
    sweep.horizons = 10000,100000,1000000
    sweep.seeds = 10

Seed specs accept a count (``10`` means seeds 0..9), an inclusive range
(``3-7``), or an explicit list (``0,2,5``); a list that repeats a seed, or
horizons that repeat a horizon, are an error.  The environment variable
``FAIRPRICE_THREADS`` (an integer >= 1; default 4) caps how many episode
cells run concurrently; the cell count and the CPU count cap it too.  Errors
(bad input, or an episode the agent cannot run) print one line and exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence

import numpy as np

from .core import MarketConfig, market_from_text, market_to_text
from .fpa import (
    CONSTANT_MODES,
    DegenerateDemandError,
    FpaAgent,
    FpaConfig,
    ProtocolError,
)
from .oracle import solve_fair_optimal
from .sim import (
    BASELINE_KINDS,
    CLOSED_FORM_EPS_MAX,
    baseline_agent,
    closed_form_example_optimum,
    example1_market,
    example_eps_market,
    lowerbound_family_market,
    run_episode,
    write_summary_json,
    write_trace_csv,
)
from .validation import run_all

AGENT_KINDS = ("fpa",) + BASELINE_KINDS
PRESETS = ("example1", "example-eps", "lowerbound")


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def load_config_file(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` file with '#' comments into a dict.  A
    line without '=', a key outside ``CONFIG_KEYS`` or a repeated key raises
    ValueError."""
    settings: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in settings:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            settings[key] = value
    return settings


def parse_seed_spec(spec: str) -> list[int]:
    """Seed list from a count ('10'), a range ('3-7'), or a list ('0,2,5')."""
    spec = spec.strip()
    try:
        if "," in spec:
            seeds = [int(tok) for tok in spec.split(",") if tok.strip()]
        elif "-" in spec and not spec.startswith("-"):
            lo, hi = spec.split("-", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = list(range(int(spec)))
    except ValueError as exc:
        raise ValueError(f"seed spec {spec!r}: {exc}") from None
    if not seeds:
        raise ValueError(f"seed spec {spec!r} selects no seeds")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"seed spec {spec!r} repeats a seed")
    return seeds


def parse_horizons(spec: str) -> list[int]:
    """Horizons from a comma-separated list of integers >= 1."""
    try:
        horizons = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"horizons {spec!r}: {exc}") from None
    if any(h < 1 for h in horizons):
        raise ValueError(f"horizons must be >= 1, got {spec!r}")
    if len(set(horizons)) < len(horizons):
        raise ValueError(f"horizons {spec!r} repeat a horizon")
    return horizons


# One row per config key: the key, the dest of its flag, the type that reads
# a flag's or the config file's value, and the default.  A command reads the
# keys of its sections (the part before the dot).
SETTINGS = (
    ("environment.preset", "preset", str, "example1"),
    ("environment.eps", "eps", float, 0.0),
    ("environment.market_file", "market", str, None),
    ("environment.lb_j", "lb_j", int, 1),
    ("environment.lb_d", "lb_d", int, 3),
    ("agent.kind", "agent", str, "fpa"),
    ("agent.mode", "mode", str, FpaConfig.constants_mode),
    ("agent.scale_factor", "scale_factor", float, FpaConfig.scale_factor),
    ("agent.error_prob", "epsilon", float, FpaConfig.error_prob),
    ("agent.relaxation_l", "relaxation_l", float, FpaConfig.relaxation_l),
    ("run.horizon", "horizon", int, None),          # run needs one
    ("run.seeds", "seeds", parse_seed_spec, (0,)),  # the spec '1'
    ("run.record_every", "record_every", int, None),  # horizon/10000
    ("output.dir", "out", str, None),
    ("sweep.horizons", "horizons", parse_horizons, ()),
    ("sweep.seeds", "seeds", parse_seed_spec, ()),
)
CONFIG_KEYS = tuple(row[0] for row in SETTINGS)


def _read_config_value(path: str, config: dict[str, str], key: str, read):
    """``read(config[key])``; a value it cannot read raises ValueError
    naming the file and the key."""
    try:
        return read(config[key])
    except ValueError as exc:
        raise ValueError(f"{path}: {key}: {exc}") from None


def resolve_settings(args, sections: Sequence[str]) -> dict:
    """``{key: value}`` for each config key of ``sections`` (``"agent"``,
    ``"run"``, ...): the flag, else the ``--config`` file, else the default.
    A value its type cannot read, or an unknown preset, agent or mode,
    raises ValueError; for a file's value the message names file and key."""
    config = load_config_file(args.config) if args.config else {}
    settings = {}
    for key, dest, read, default in SETTINGS:
        if key.split(".")[0] not in sections:
            continue
        if getattr(args, dest) is not None:
            settings[key] = read(getattr(args, dest))
        elif key in config:
            settings[key] = _read_config_value(args.config, config, key, read)
        else:
            settings[key] = default
    if "environment" in sections:
        preset = settings["environment.preset"]
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    if "agent" in sections:
        if settings["agent.kind"] not in AGENT_KINDS:
            raise ValueError(f"unknown agent {settings['agent.kind']!r}; "
                             f"expected one of {AGENT_KINDS}")
        if settings["agent.mode"] not in CONSTANT_MODES:
            raise ValueError(f"unknown mode {settings['agent.mode']!r}; "
                             f"expected one of {CONSTANT_MODES}")
    return settings


def _parse_emit(spec: str) -> set[str]:
    emit = {tok.strip() for tok in spec.split(",") if tok.strip()}
    unknown = emit - {"trace", "summary"}
    if unknown:
        raise ValueError(f"unknown emit kinds {sorted(unknown)}; "
                         f"expected from {{trace, summary}}")
    return emit


def _build_market(settings: dict, horizon: Optional[int] = None) -> MarketConfig:
    if settings["environment.market_file"] is not None:
        with open(settings["environment.market_file"], "r", encoding="utf-8") as fh:
            return market_from_text(fh.read(), fh.name)
    if settings["environment.preset"] == "example1":
        return example1_market()
    if settings["environment.preset"] == "example-eps":
        return example_eps_market(settings["environment.eps"])
    if horizon is None:
        raise ValueError("the lowerbound preset needs a horizon")
    return lowerbound_family_market(settings["environment.lb_j"],
                                    settings["environment.lb_d"], horizon)


def _make_agent(settings: dict, market: MarketConfig, horizon: int, seed: int):
    if settings["agent.kind"] == "fpa":
        return FpaAgent(FpaConfig(
            grid=market.grid, q=market.q, horizon=horizon, seed=seed,
            error_prob=settings["agent.error_prob"],
            relaxation_l=settings["agent.relaxation_l"],
            constants_mode=settings["agent.mode"],
            scale_factor=settings["agent.scale_factor"]))
    return baseline_agent(settings["agent.kind"], market, seed=seed)


# ---------------------------------------------------------------------------
# episode cells (run in worker processes during sweeps)
# ---------------------------------------------------------------------------

def _cell_payloads(market: MarketConfig, horizon: int, seeds: Sequence[int],
                   config: dict, record_every: int, oracle_revenue: float,
                   out_dir: Optional[str] = None, emit: Sequence[str] = ()) -> list[dict]:
    """One :func:`_episode_cell` payload per seed: an episode of ``horizon``
    rounds on ``market`` by the agent of ``config``'s ``agent.*`` keys,
    writing the files ``emit`` names into ``out_dir`` with ``config`` as the
    summary's config."""
    market_text = market_to_text(market)
    return [{
        "market_text": market_text, "horizon": horizon, "seed": seed,
        "config": config, "record_every": record_every,
        "oracle_revenue": oracle_revenue, "out_dir": out_dir,
        "write_trace": "trace" in emit, "write_summary": "summary" in emit,
    } for seed in seeds]


def _cell_stats(cells: Sequence[dict]) -> dict:
    """Mean and standard error of the mean of the cells' regret and S (the
    error of one cell is 0)."""
    stats = {}
    for name in ("regret", "s"):
        arr = np.array([c[f"cum_{name}"] for c in cells])
        stats[f"mean_{name}"] = float(arr.mean())
        stats[f"stderr_{name}"] = (float(arr.std(ddof=1) / math.sqrt(arr.size))
                                   if arr.size > 1 else 0.0)
    return stats


def _episode_cell(payload: dict) -> dict:
    """One (horizon, seed) episode; file writes use cell-unique names."""
    market = market_from_text(payload["market_text"])
    horizon, seed = payload["horizon"], payload["seed"]
    agent = _make_agent(payload["config"], market, horizon, seed)
    try:
        trace = run_episode(agent, market, horizon, seed=seed,
                            record_every=payload["record_every"],
                            oracle_revenue=payload["oracle_revenue"])
    except (DegenerateDemandError, ProtocolError) as exc:
        # A ValueError carries the message through a worker process and out
        # of main() as one line.
        raise ValueError(f"episode T={horizon} seed={seed}: {exc}") from exc
    out_dir = payload["out_dir"]
    tag = f"T{horizon}_seed{seed}"
    if out_dir is not None and payload["write_trace"]:
        write_trace_csv(trace, os.path.join(out_dir, f"trace_{tag}.csv"))
    if out_dir is not None and payload["write_summary"]:
        summary = trace.summary()
        summary["config"] = payload["config"]
        write_summary_json(summary, os.path.join(out_dir, f"summary_{tag}.json"))
    return {
        "horizon": horizon,
        "seed": seed,
        "cum_regret": trace.cum_regret,
        "cum_s": trace.cum_s,
        "cum_u": trace.cum_u,
        "cum_reward": trace.cum_reward,
    }


def worker_count(setting: Optional[str], cells: int, cpus: Optional[int]) -> int:
    """Worker processes for ``cells`` episode cells.

    ``setting`` is the value of ``FAIRPRICE_THREADS`` (unset or empty means
    4); the count is capped by the number of cells and of CPUs.

    Raises:
        ValueError: when ``setting`` is not an integer >= 1.
    """
    wanted = 4
    if setting:
        try:
            wanted = int(setting)
        except ValueError:
            wanted = 0
        if wanted < 1:
            raise ValueError(f"FAIRPRICE_THREADS must be an integer >= 1, got {setting!r}")
    return max(1, min(wanted, cells, cpus or 1))


def _run_cells(payloads: list[dict]) -> list[dict]:
    """Execute cells, concurrently when allowed, merging in submission order."""
    max_workers = worker_count(os.environ.get("FAIRPRICE_THREADS"), len(payloads),
                               os.cpu_count())
    if max_workers == 1:
        return [_episode_cell(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(_episode_cell, payloads))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    settings = resolve_settings(args, ("environment",))
    market = _build_market(settings, horizon=args.horizon)
    solution = solve_fair_optimal(market)
    report = {
        "market": market_to_text(market),
        "policy_group1": [float(x) for x in solution.policy.weights(1)],
        "policy_group2": [float(x) for x in solution.policy.weights(2)],
        "revenue": solution.revenue,
        "v_s": solution.point.v_s,
        "v_r": solution.point.v_r,
    }
    print(f"revenue  {solution.revenue:.9f}")
    print(f"v_s      {solution.point.v_s:.9f}")
    print(f"v_r      {solution.point.v_r:.9f}")
    for g in (1, 2):
        weights = " ".join(f"{x:.6f}" for x in solution.policy.weights(g))
        print(f"group{g}   [{weights}]")
    preset = settings["environment.preset"]
    eps = settings["environment.eps"] if preset == "example-eps" else 0.0
    if (settings["environment.market_file"] is None
            and preset in ("example1", "example-eps") and 0.0 <= eps <= CLOSED_FORM_EPS_MAX):
        closed = closed_form_example_optimum(eps)
        gap = abs(closed.revenue - solution.revenue)
        report["closed_form_revenue"] = closed.revenue
        report["closed_form_gap"] = gap
        print(f"closed-form revenue {closed.revenue:.9f} (|gap| {gap:.2e})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_run(args) -> int:
    settings = resolve_settings(args, ("environment", "agent", "run", "output"))
    horizon = settings["run.horizon"]
    if horizon is None:
        raise ValueError("run needs --horizon")
    if settings["run.record_every"] is None:
        settings["run.record_every"] = max(1, horizon // 10_000)
    out_dir = settings.pop("output.dir")  # the rest is the summaries' config
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    market = _build_market(settings, horizon=horizon)
    oracle_revenue = solve_fair_optimal(market).revenue
    emit = _parse_emit(args.emit)
    cells = _run_cells(_cell_payloads(market, horizon, settings["run.seeds"], settings,
                                      settings["run.record_every"], oracle_revenue,
                                      out_dir, emit))
    for cell in cells:
        print(f"T={cell['horizon']} seed={cell['seed']}: "
              f"regret {cell['cum_regret']:.3f}, S {cell['cum_s']:.3f}, "
              f"U {cell['cum_u']:.2e}, reward {cell['cum_reward']:.3f}")
    if out_dir:
        merged = {"config": settings, "oracle_revenue": oracle_revenue, "cells": cells}
        write_summary_json(merged, os.path.join(out_dir, "run_summary.json"))
    return 0


def _fit_slope(horizons: Sequence[int], means: Sequence[float]) -> Optional[float]:
    """Log-log slope of the means; None when a mean has no logarithm (<= 0)."""
    if min(means) <= 0.0:
        return None
    return float(np.polyfit(np.log10(horizons), np.log10(means), 1)[0])


def _slope_text(slope: Optional[float]) -> str:
    return "n/a" if slope is None else f"{slope:.4f}"


def cmd_sweep(args) -> int:
    settings = resolve_settings(args, ("environment", "agent", "sweep", "output"))
    horizons, seeds = settings["sweep.horizons"], settings["sweep.seeds"]
    if len(horizons) < 3:
        raise ValueError("sweep needs at least 3 horizons")
    if len(seeds) < 5:
        raise ValueError("sweep needs at least 5 seeds")
    out_dir = settings.pop("output.dir")  # the rest is the summaries' config
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    emit = _parse_emit(args.emit)

    payloads = []
    for horizon in horizons:
        market = _build_market(settings, horizon=horizon)
        payloads += _cell_payloads(market, horizon, seeds, settings,
                                   max(1, horizon),  # summaries only; no row spam
                                   solve_fair_optimal(market).revenue, out_dir, emit)
    cells = _run_cells(payloads)

    by_horizon: dict[int, list[dict]] = {}
    for cell in cells:
        by_horizon.setdefault(cell["horizon"], []).append(cell)
    rows = []
    for horizon in horizons:
        group = sorted(by_horizon[horizon], key=lambda c: c["seed"])
        rows.append({"horizon": horizon, "n_seeds": len(group), **_cell_stats(group)})
    slope_regret = _fit_slope(horizons, [r["mean_regret"] for r in rows])
    slope_s = _fit_slope(horizons, [r["mean_s"] for r in rows])

    for row in rows:
        print(f"T={row['horizon']}: regret {row['mean_regret']:.3f} "
              f"(se {row['stderr_regret']:.3f}), S {row['mean_s']:.3f} "
              f"(se {row['stderr_s']:.3f}) over {row['n_seeds']} seeds")
    print(f"log-log slopes: regret {_slope_text(slope_regret)}, S {_slope_text(slope_s)}")

    if out_dir:
        curve_path = os.path.join(out_dir, "curve.csv")
        with open(curve_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("horizon,n_seeds,mean_regret,stderr_regret,mean_s,stderr_s\n")
            for row in rows:
                fh.write(f"{row['horizon']},{row['n_seeds']},"
                         f"{row['mean_regret']:.17g},{row['stderr_regret']:.17g},"
                         f"{row['mean_s']:.17g},{row['stderr_s']:.17g}\n")
        write_summary_json(
            {"config": settings, "curve": rows, "cells": cells,
             "slope_regret": slope_regret, "slope_s": slope_s},
            os.path.join(out_dir, "sweep_summary.json"))
    return 0


def cmd_compare_lb(args) -> int:
    settings = resolve_settings(args, ("agent",))
    # The pair is always the example family, so its perturbation is the one
    # environment key that applies: --eps, else the file's, else 0.01.
    config = load_config_file(args.config) if args.config else {}
    for key in config:
        if key.startswith("environment.") and key != "environment.eps":
            raise ValueError(f"{args.config}: {key}: compare-lb always runs the example "
                             "family; of the environment keys it reads only environment.eps")
    if args.eps is not None:
        eps = args.eps
    elif "environment.eps" in config:
        eps = _read_config_value(args.config, config, "environment.eps", float)
    else:
        eps = 0.01
    # The closed forms also check eps's range, before any episode runs.
    base, pert = closed_form_example_optimum(0.0), closed_form_example_optimum(eps)
    horizon = args.horizon if args.horizon is not None else 100_000
    seeds = parse_seed_spec(args.seeds or "10")
    out_dir = args.out
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    arms = {}
    for label, arm_eps in (("base", 0.0), ("perturbed", eps)):
        market = example_eps_market(arm_eps)
        oracle_revenue = solve_fair_optimal(market).revenue
        cells = _run_cells(_cell_payloads(market, horizon, seeds, settings,
                                          max(1, horizon), oracle_revenue))
        arms[label] = {"eps": arm_eps, "oracle_revenue": oracle_revenue,
                       **_cell_stats(cells), "cells": cells}

    gap = abs((pert.v_s + pert.alpha) - (base.v_s + base.alpha))
    formula_gap = 360.0 * eps / (29.0 * (29.0 - 10.0 * eps))
    report = {
        "horizon": horizon, "seeds": seeds, "eps": eps, "arms": arms,
        "oracle_proposed_mean_gap": gap,
        "proposed_mean_gap_closed_form": formula_gap,
    }
    for label, arm in arms.items():
        print(f"{label} (eps={arm['eps']}): regret {arm['mean_regret']:.3f} "
              f"(se {arm['stderr_regret']:.3f}), S {arm['mean_s']:.3f} "
              f"(se {arm['stderr_s']:.3f}), oracle revenue {arm['oracle_revenue']:.6f}")
    print(f"optimal proposed means differ by {gap:.8f} "
          f"(closed form {formula_gap:.8f})")
    if out_dir:
        write_summary_json(report, os.path.join(out_dir, "compare_lb.json"))
    return 0


def cmd_validate(args) -> int:
    results = run_all(report=print)
    if args.out:
        payload = [{"name": r.name, "passed": r.passed, "detail": r.detail,
                    "elapsed": round(r.elapsed, 2)} for r in results]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_env_flags(sub) -> None:
    sub.add_argument("--preset", choices=PRESETS, help="built-in market")
    sub.add_argument("--eps", type=float, help="example-family perturbation")
    sub.add_argument("--market", help="market text file (overrides presets)")
    sub.add_argument("--lb-j", type=int, help="lowerbound preset: bumped index")
    sub.add_argument("--lb-d", type=int, help="lowerbound preset: grid size")
    sub.add_argument("--config", help="flat key=value configuration file")


def _add_agent_flags(sub) -> None:
    sub.add_argument("--agent", choices=AGENT_KINDS, help="agent to run")
    sub.add_argument("--mode", choices=CONSTANT_MODES, help="constant schedule")
    sub.add_argument("--scale-factor", type=float, help="scaled-mode knob c")
    sub.add_argument("--epsilon", type=float, help="confidence error budget")
    sub.add_argument("--relaxation-L", dest="relaxation_l", type=float,
                     help="band multiplier in the revenue floor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairprice",
        description="Doubly fair dynamic pricing: oracle, agent, benchmarks.")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="fair-optimal policy of a market")
    _add_env_flags(solve)
    solve.add_argument("--horizon", "-T", type=int,
                       help="horizon (only the lowerbound preset needs it)")
    solve.add_argument("--out", help="write a JSON report here")
    solve.set_defaults(func=cmd_solve)

    run = subs.add_parser("run", help="simulate episodes, write traces")
    _add_env_flags(run)
    _add_agent_flags(run)
    run.add_argument("--horizon", "-T", type=int, help="rounds per episode")
    run.add_argument("--seeds", help="seed spec (count, range, or list)")
    run.add_argument("--record-every", type=int,
                     help="trace row interval (default horizon/10000)")
    run.add_argument("--emit", default="trace,summary",
                     help="comma list from {trace,summary}")
    run.add_argument("--out", help="output directory")
    run.set_defaults(func=cmd_run)

    sweep = subs.add_parser("sweep", help="horizon sweep with slope fits")
    _add_env_flags(sweep)
    _add_agent_flags(sweep)
    sweep.add_argument("--horizons", help="comma-separated horizons (>= 3)")
    sweep.add_argument("--seeds", help="seed spec (>= 5 seeds)")
    sweep.add_argument("--emit", default="summary",
                       help="comma list from {trace,summary}")
    sweep.add_argument("--out", help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    compare = subs.add_parser(
        "compare-lb", help="paired run on the indistinguishable pair")
    _add_agent_flags(compare)
    compare.add_argument("--config", help="flat key=value configuration file")
    compare.add_argument("--eps", type=float,
                         help="perturbation (else environment.eps, else 0.01)")
    compare.add_argument("--horizon", "-T", type=int, help="rounds per episode")
    compare.add_argument("--seeds", help="seed spec (default 10)")
    compare.add_argument("--out", help="output directory")
    compare.set_defaults(func=cmd_compare_lb)

    validate = subs.add_parser("validate", help="run the acceptance suite")
    validate.add_argument("--out", help="write JSON results here")
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
