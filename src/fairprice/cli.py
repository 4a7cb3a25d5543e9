"""Command-line front end: solve markets, run episodes, sweep horizons,
compare the near-indistinguishable environment pair, and run the acceptance
suite.

The CLI is a thin shell over the library: every number it prints can be
reproduced with direct calls using the configuration echoed into each output
file.  Outputs are deterministic (no timestamps, sorted JSON keys, fixed
float formatting), so identical invocations give byte-identical files.

Each setting is one row of ``SETTINGS``: its config key, its flags, its
type, its default (the agent's come from ``FpaConfig``), its help and the
values it may take.  Each command's row of ``COMMANDS`` lists the keys it
reads and the defaults it sets in place of the table's.  The parser gives a
command the flags of its keys, and the command reads each key from the
flag, else the optional flat key/value file (``--config``), else its
default.  A file key outside ``CONFIG_KEYS`` is an error, so a misspelt key
cannot fall back to its default unnoticed::

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
from .linsolve import ROUNDING_TOL
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


# One row per setting: its config key, its flags, the type that reads a
# flag's or the config file's value, its default (the agent's come from
# FpaConfig), its help, and the values it may take (None: any its type reads).
SETTINGS = (
    ("environment.preset", ("--preset",), str, "example1", "built-in market", PRESETS),
    ("environment.eps", ("--eps",), float, 0.0, "example-family perturbation", None),
    ("environment.market_file", ("--market",), str, None,
     "market text file (overrides presets)", None),
    ("environment.lb_j", ("--lb-j",), int, 1, "lowerbound preset: bumped index", None),
    ("environment.lb_d", ("--lb-d",), int, 3, "lowerbound preset: grid size", None),
    ("agent.kind", ("--agent",), str, "fpa", "agent to run", AGENT_KINDS),
    ("agent.mode", ("--mode",), str, FpaConfig.constants_mode, "constant schedule",
     CONSTANT_MODES),
    ("agent.scale_factor", ("--scale-factor",), float, FpaConfig.scale_factor,
     "scaled-mode knob c", None),
    ("agent.error_prob", ("--epsilon",), float, FpaConfig.error_prob,
     "confidence error budget", None),
    ("agent.relaxation_l", ("--relaxation-L",), float, FpaConfig.relaxation_l,
     "band multiplier in the revenue floor", None),
    ("run.horizon", ("--horizon", "-T"), int, None, "rounds per episode", None),
    ("run.seeds", ("--seeds",), parse_seed_spec, (0,), "seed spec (count, range, or list)",
     None),
    ("run.record_every", ("--record-every",), int, None,
     "trace row interval (default horizon/10000)", None),
    ("output.dir", ("--out",), str, None, "output directory", None),
    ("sweep.horizons", ("--horizons",), parse_horizons, (),
     "comma-separated horizons (>= 3)", None),
    ("sweep.seeds", ("--seeds",), parse_seed_spec, (), "seed spec (>= 5 seeds)", None),
)
CONFIG_KEYS = tuple(row[0] for row in SETTINGS)

_ENVIRONMENT = ("environment.preset", "environment.eps", "environment.market_file",
                "environment.lb_j", "environment.lb_d")
_AGENT = ("agent.kind", "agent.mode", "agent.scale_factor", "agent.error_prob",
          "agent.relaxation_l")
# One row per command that takes settings: its name, the keys it reads, and
# the (key, default) pairs that replace the table's defaults for it.  solve
# reads a horizon for the lowerbound preset; compare-lb always runs the
# example family, so eps is the one environment key it reads.
COMMANDS = (
    ("solve", _ENVIRONMENT + ("run.horizon",), ()),
    ("run", _ENVIRONMENT + _AGENT + ("run.horizon", "run.seeds", "run.record_every",
                                     "output.dir"), ()),
    ("sweep", _ENVIRONMENT + _AGENT + ("sweep.horizons", "sweep.seeds", "output.dir"), ()),
    ("compare-lb", ("environment.eps",) + _AGENT + ("run.horizon", "run.seeds", "output.dir"),
     (("environment.eps", 0.01), ("run.horizon", 100_000), ("run.seeds", tuple(range(10))))),
)


def resolve_settings(args) -> dict:
    """``{key: value}`` for each key that ``args.command`` reads
    (``COMMANDS``): the flag, else the ``--config`` file, else the
    command's default, else the key's.  A flag's or the file's value goes
    through the key's type; a value outside its set of values (an unknown
    preset, agent or mode) raises ValueError.  So does a value its type
    cannot read; for the file's, the message names file and key."""
    keys, defaults = next((keys, dict(defaults)) for name, keys, defaults in COMMANDS
                          if name == args.command)
    config = load_config_file(args.config) if args.config else {}
    settings = {}
    for key, flags, read, default, _, allowed in SETTINGS:
        if key not in keys:
            continue
        if getattr(args, key) is not None:
            value = read(getattr(args, key))
        elif key in config:
            try:
                value = read(config[key])
            except ValueError as exc:
                raise ValueError(f"{args.config}: {key}: {exc}") from None
        else:
            value = defaults.get(key, default)
        if allowed is not None and value not in allowed:
            raise ValueError(f"unknown {flags[0][2:]} {value!r}; expected one of {allowed}")
        settings[key] = value
    return settings


def _parse_emit(spec: str) -> set[str]:
    emit = {tok.strip() for tok in spec.split(",") if tok.strip()}
    unknown = emit - {"trace", "summary"}
    if unknown:
        raise ValueError(f"unknown emit kinds {sorted(unknown)}; "
                         f"expected from {{trace, summary}}")
    return emit


def _build_market(settings: dict, horizon: Optional[int]) -> MarketConfig:
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
    settings = resolve_settings(args)
    market = _build_market(settings, horizon=settings["run.horizon"])
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
        write_summary_json(report, args.out)
    return 0


def cmd_run(args) -> int:
    settings = resolve_settings(args)
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
    """Log-log slope of the means; None when some horizon's mean per round is
    at most ``ROUNDING_TOL``: a zero mean has no logarithm, and a mean of
    rounding noise (a policy's two accepted means, equal in exact
    arithmetic, can differ in the last bit) has no rate to fit."""
    if min(mean / horizon for horizon, mean in zip(horizons, means)) <= ROUNDING_TOL:
        return None
    return float(np.polyfit(np.log10(horizons), np.log10(means), 1)[0])


def _slope_text(slope: Optional[float]) -> str:
    return "n/a" if slope is None else f"{slope:.4f}"


def cmd_sweep(args) -> int:
    settings = resolve_settings(args)
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
    settings = resolve_settings(args)
    for key in load_config_file(args.config) if args.config else ():
        if key.startswith("environment.") and key != "environment.eps":
            raise ValueError(f"{args.config}: {key}: compare-lb always runs the example "
                             "family; of the environment keys it reads only environment.eps")
    eps, horizon = settings["environment.eps"], settings["run.horizon"]
    seeds = settings["run.seeds"]
    # The closed forms also check eps's range, before any episode runs.
    base, pert = closed_form_example_optimum(0.0), closed_form_example_optimum(eps)
    out_dir = settings.pop("output.dir")  # the rest is the report's config
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
        "config": settings, "horizon": horizon, "seeds": seeds, "eps": eps, "arms": arms,
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
        write_summary_json(payload, args.out)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairprice",
        description="Doubly fair dynamic pricing: oracle, agent, benchmarks.")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="fair-optimal policy of a market")
    solve.add_argument("--out", help="write a JSON report here")
    solve.set_defaults(func=cmd_solve)

    run = subs.add_parser("run", help="simulate episodes, write traces")
    run.add_argument("--emit", default="trace,summary",
                     help="comma list from {trace,summary}")
    run.set_defaults(func=cmd_run)

    sweep = subs.add_parser("sweep", help="horizon sweep with slope fits")
    sweep.add_argument("--emit", default="summary",
                       help="comma list from {trace,summary}")
    sweep.set_defaults(func=cmd_sweep)

    compare = subs.add_parser(
        "compare-lb", help="paired run on the indistinguishable pair")
    compare.set_defaults(func=cmd_compare_lb)

    for command, keys, _ in COMMANDS:
        sub = subs.choices[command]
        sub.add_argument("--config", help="flat key=value configuration file")
        for key, flags, read, _, help_text, allowed in SETTINGS:
            if key in keys:
                # A spec's flag stays text, so its error names the spec.
                sub.add_argument(*flags, dest=key, choices=allowed, help=help_text,
                                 type=read if read in (int, float) else None)

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
