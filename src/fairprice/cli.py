"""Command-line front end: solve markets, run episodes, sweep horizons,
compare the near-indistinguishable environment pair, and run the acceptance
suite.

The CLI is a thin shell over the library: every number it prints can be
reproduced with direct calls using the configuration echoed into each output
file.  Outputs are deterministic (no timestamps, sorted JSON keys, fixed
float formatting), so identical invocations give byte-identical files.

Configuration comes from an optional flat key/value file (``--config``) with
dotted keys, overridden by command-line flags::

    # experiment.cfg
    environment.preset = example-eps
    environment.eps = 0.01
    agent.mode = scaled
    agent.scale_factor = 2.0
    sweep.horizons = 10000,100000,1000000
    sweep.seeds = 10

Seed specs accept a count (``10`` means seeds 0..9), an inclusive range
(``3-7``), or an explicit list (``0,2,5``).  The environment variable
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
    DEFAULT_ERROR_PROB,
    DEFAULT_RELAXATION_L,
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
    """Parse a flat ``key = value`` file with '#' comments into a dict."""
    settings: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            settings[key.strip()] = value.strip()
    return settings


def parse_seed_spec(spec: str) -> list[int]:
    """Seed list from a count ('10'), a range ('3-7'), or a list ('0,2,5')."""
    spec = spec.strip()
    if "," in spec:
        seeds = [int(tok) for tok in spec.split(",") if tok.strip()]
    elif "-" in spec and not spec.startswith("-"):
        lo, hi = spec.split("-", 1)
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = list(range(int(spec)))
    if not seeds:
        raise ValueError(f"seed spec {spec!r} selects no seeds")
    return seeds


def parse_horizons(spec: str) -> list[int]:
    horizons = [int(tok) for tok in spec.split(",") if tok.strip()]
    if any(h < 1 for h in horizons):
        raise ValueError(f"horizons must be >= 1, got {spec!r}")
    return horizons


def _pick(cli_value, config: dict[str, str], key: str, default, cast):
    """Resolve one setting: explicit flag > config file > default."""
    if cli_value is not None:
        return cli_value
    if key in config:
        return cast(config[key])
    return default


def _parse_emit(spec: str) -> set[str]:
    emit = {tok.strip() for tok in spec.split(",") if tok.strip()}
    unknown = emit - {"trace", "summary"}
    if unknown:
        raise ValueError(f"unknown emit kinds {sorted(unknown)}; "
                         f"expected from {{trace, summary}}")
    return emit


def _resolve_env(args, config: dict[str, str]) -> dict:
    """Environment settings shared by every command that runs or solves."""
    env = {
        "preset": _pick(args.preset, config, "environment.preset", "example1", str),
        "eps": _pick(args.eps, config, "environment.eps", 0.0, float),
        "market_file": _pick(getattr(args, "market", None), config,
                             "environment.market_file", None, str),
        "lb_j": _pick(getattr(args, "lb_j", None), config, "environment.lb_j", 1, int),
        "lb_d": _pick(getattr(args, "lb_d", None), config, "environment.lb_d", 3, int),
    }
    if env["market_file"] is None and env["preset"] not in PRESETS:
        raise ValueError(f"unknown preset {env['preset']!r}; expected one of {PRESETS}")
    return env


def _build_market(env: dict, horizon: Optional[int] = None) -> MarketConfig:
    if env["market_file"] is not None:
        with open(env["market_file"], "r", encoding="utf-8") as fh:
            return market_from_text(fh.read())
    if env["preset"] == "example1":
        return example1_market()
    if env["preset"] == "example-eps":
        return example_eps_market(env["eps"])
    if horizon is None:
        raise ValueError("the lowerbound preset needs a horizon")
    return lowerbound_family_market(env["lb_j"], env["lb_d"], horizon)


def _resolve_agent(args, config: dict[str, str]) -> dict:
    agent = {
        "kind": _pick(getattr(args, "agent", None), config, "agent.kind", "fpa", str),
        "mode": _pick(args.mode, config, "agent.mode", "scaled", str),
        "scale_factor": _pick(args.scale_factor, config, "agent.scale_factor", 2.0, float),
        "error_prob": _pick(args.epsilon, config, "agent.error_prob",
                            DEFAULT_ERROR_PROB, float),
        "relaxation_l": _pick(args.relaxation_l, config, "agent.relaxation_l",
                              DEFAULT_RELAXATION_L, float),
    }
    if agent["kind"] not in AGENT_KINDS:
        raise ValueError(f"unknown agent {agent['kind']!r}; expected one of {AGENT_KINDS}")
    if agent["mode"] not in CONSTANT_MODES:
        raise ValueError(f"unknown mode {agent['mode']!r}; expected one of {CONSTANT_MODES}")
    return agent


def _make_agent(agent_cfg: dict, market: MarketConfig, horizon: int, seed: int):
    if agent_cfg["kind"] == "fpa":
        return FpaAgent(FpaConfig(
            grid=market.grid, q=market.q, horizon=horizon, seed=seed,
            error_prob=agent_cfg["error_prob"],
            relaxation_l=agent_cfg["relaxation_l"],
            constants_mode=agent_cfg["mode"],
            scale_factor=agent_cfg["scale_factor"]))
    return baseline_agent(agent_cfg["kind"], market, seed=seed)


def _auto_record_every(horizon: int) -> int:
    return max(1, horizon // 10_000)


# ---------------------------------------------------------------------------
# episode cells (run in worker processes during sweeps)
# ---------------------------------------------------------------------------

def _episode_cell(payload: dict) -> dict:
    """One (horizon, seed) episode; file writes use cell-unique names."""
    market = market_from_text(payload["market_text"])
    horizon, seed = payload["horizon"], payload["seed"]
    agent = _make_agent(payload["agent"], market, horizon, seed)
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
        summary["config"] = payload["echo"]
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
    config = load_config_file(args.config) if args.config else {}
    env = _resolve_env(args, config)
    market = _build_market(env, horizon=args.horizon)
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
    eps = env["eps"] if env["preset"] == "example-eps" else 0.0
    if (env["market_file"] is None and env["preset"] in ("example1", "example-eps")
            and 0.0 <= eps <= CLOSED_FORM_EPS_MAX):
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


def _echo(env: dict, agent: dict, extra: dict) -> dict:
    flat = {f"environment.{k}": v for k, v in env.items()}
    flat.update({f"agent.{k}": v for k, v in agent.items()})
    flat.update(extra)
    return flat


def cmd_run(args) -> int:
    config = load_config_file(args.config) if args.config else {}
    env = _resolve_env(args, config)
    agent_cfg = _resolve_agent(args, config)
    horizon = _pick(args.horizon, config, "run.horizon", None, int)
    if horizon is None:
        raise ValueError("run needs --horizon")
    seeds = parse_seed_spec(_pick(args.seeds, config, "run.seeds", "1", str))
    record_every = _pick(args.record_every, config, "run.record_every",
                         _auto_record_every(horizon), int)
    out_dir = _pick(args.out, config, "output.dir", None, str)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    market = _build_market(env, horizon=horizon)
    oracle_revenue = solve_fair_optimal(market).revenue
    emit = _parse_emit(args.emit)
    echo = _echo(env, agent_cfg, {"run.horizon": horizon, "run.seeds": seeds,
                                  "run.record_every": record_every})
    payloads = [{
        "market_text": market_to_text(market), "horizon": horizon, "seed": seed,
        "agent": agent_cfg, "record_every": record_every,
        "oracle_revenue": oracle_revenue, "out_dir": out_dir,
        "write_trace": "trace" in emit, "write_summary": "summary" in emit,
        "echo": echo,
    } for seed in seeds]
    cells = _run_cells(payloads)
    for cell in cells:
        print(f"T={cell['horizon']} seed={cell['seed']}: "
              f"regret {cell['cum_regret']:.3f}, S {cell['cum_s']:.3f}, "
              f"U {cell['cum_u']:.2e}, reward {cell['cum_reward']:.3f}")
    if out_dir:
        merged = {"config": echo, "oracle_revenue": oracle_revenue, "cells": cells}
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
    config = load_config_file(args.config) if args.config else {}
    env = _resolve_env(args, config)
    agent_cfg = _resolve_agent(args, config)
    horizons = parse_horizons(_pick(args.horizons, config, "sweep.horizons", "", str))
    seed_spec = _pick(args.seeds, config, "sweep.seeds", "", str)
    seeds = parse_seed_spec(seed_spec) if seed_spec else []
    if len(horizons) < 3:
        raise ValueError("sweep needs at least 3 horizons")
    if len(seeds) < 5:
        raise ValueError("sweep needs at least 5 seeds")
    out_dir = _pick(args.out, config, "output.dir", None, str)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    emit = _parse_emit(args.emit)
    echo = _echo(env, agent_cfg, {"sweep.horizons": horizons, "sweep.seeds": seeds})

    payloads = []
    for horizon in horizons:
        market = _build_market(env, horizon=horizon)
        oracle_revenue = solve_fair_optimal(market).revenue
        for seed in seeds:
            payloads.append({
                "market_text": market_to_text(market), "horizon": horizon,
                "seed": seed, "agent": agent_cfg,
                "record_every": max(1, horizon),  # summaries only; no row spam
                "oracle_revenue": oracle_revenue, "out_dir": out_dir,
                "write_trace": "trace" in emit,
                "write_summary": "summary" in emit,
                "echo": echo,
            })
    cells = _run_cells(payloads)

    by_horizon: dict[int, list[dict]] = {}
    for cell in cells:
        by_horizon.setdefault(cell["horizon"], []).append(cell)
    rows = []
    for horizon in horizons:
        group = sorted(by_horizon[horizon], key=lambda c: c["seed"])
        regs = np.array([c["cum_regret"] for c in group])
        ss = np.array([c["cum_s"] for c in group])
        rows.append({
            "horizon": horizon,
            "n_seeds": len(group),
            "mean_regret": float(regs.mean()),
            "stderr_regret": float(regs.std(ddof=1) / math.sqrt(len(regs))),
            "mean_s": float(ss.mean()),
            "stderr_s": float(ss.std(ddof=1) / math.sqrt(len(ss))),
        })
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
            {"config": echo, "curve": rows, "cells": cells,
             "slope_regret": slope_regret, "slope_s": slope_s},
            os.path.join(out_dir, "sweep_summary.json"))
    return 0


def cmd_compare_lb(args) -> int:
    config = load_config_file(args.config) if args.config else {}
    agent_cfg = _resolve_agent(args, config)
    eps = args.eps if args.eps is not None else 0.01
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
        payloads = [{
            "market_text": market_to_text(market), "horizon": horizon, "seed": seed,
            "agent": agent_cfg, "record_every": max(1, horizon),
            "oracle_revenue": oracle_revenue, "out_dir": None,
            "write_trace": False, "write_summary": False, "echo": {},
        } for seed in seeds]
        cells = _run_cells(payloads)
        regs = np.array([c["cum_regret"] for c in cells])
        ss = np.array([c["cum_s"] for c in cells])
        arms[label] = {
            "eps": arm_eps,
            "oracle_revenue": oracle_revenue,
            "mean_regret": float(regs.mean()),
            "stderr_regret": float(regs.std(ddof=1) / math.sqrt(len(regs)))
            if len(regs) > 1 else 0.0,
            "mean_s": float(ss.mean()),
            "stderr_s": float(ss.std(ddof=1) / math.sqrt(len(ss)))
            if len(ss) > 1 else 0.0,
            "cells": cells,
        }

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
    compare.add_argument("--eps", type=float, help="perturbation (default 0.01)")
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
