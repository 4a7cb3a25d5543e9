#!/usr/bin/env python3
"""The fairprice benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload example1-sweep --seed 0 --seconds 40 --trace 0

Runs whole rounds of the workload's operations (episodes and known-market
solves, see workloads.py) until about ``--seconds`` have passed, checks every
output against references computed here (checks.py), and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, untraced; their
times are CPU seconds of the process doing the work (see README.md).  With
``--trace 1`` the run does one round with spans around every call into the
program (tracing.py) and reports the per-layer metrics, including the
tracing overhead against an untraced pass of the same episodes.

Every run also writes a record (inputs, machine, versions, git sha, output
digests, per-operation times) to ``perfbench/results/``; traced runs add
their spans there as ``.spans.npz``.  ``--size quick`` shrinks every workload
for the smoke test (test_smoke.py).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter, perf_counter_ns, process_time

import program

fairprice = program.load()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fairprice import (  # noqa: E402
    FpaAgent,
    FpaConfig,
    LinearProgram,
    lp_maximize,
    run_episode,
    solve_fair_optimal,
    solve_relaxed_optimal,
    write_summary_json,
    write_trace_csv,
)

RESULTS = os.path.join(program.HERE, "results")
WORK = os.path.join(program.HERE, ".work")
SETUP_REPEATS = 5
LP_REPEATS = 10

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "rounds/s",
    "solve_d3_s_p50": "s",
    "solve_d4_s_p50": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sim.run_episode.self_us_per_round": "us",
    "sim.write_trace_csv.ms": "ms",
    "sim.write_summary_json.ms": "ms",
    "fpa.round_us": "us",
    "fpa.boundary_s_p50": "s",
    "fpa.boundaries": "count",
    "oracle.max_probability_policy.ms_p50": "ms",
    "oracle.max_probability_policy.calls": "count",
    "oracle.empirical_optimizer.ms_p50": "ms",
    "oracle.empirical_optimizer.calls": "count",
    "oracle.solve_fair_optimal.ms_p50": "ms",
    "oracle.solve_relaxed_optimal.ms_p50": "ms",
    "linsolve.lp_maximize.us_p50": "us",
    "bench.trace_overhead_pct": "%",
}


class Run:
    """State of one benchmark run: operation records, check failures and
    output digests."""

    def __init__(self, work: workloads.Workload, out_dir: str,
                 spans: tracing.SpanRecorder | None = None):
        self.work = work
        self.out_dir = out_dir
        self.spans = spans
        self.optima: dict[int, float] = {}
        self.ops: list[dict] = []
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.agents: list = []

    # -- set-up ---------------------------------------------------------

    def solve_setup(self) -> None:
        for market in self.work.setup_markets:
            solution = self._solve(market, 0.0)
            self.optima[id(market)] = solution.revenue
            reference = next(ep.reference for ep in self.work.episodes if ep.market is market)
            self.errors += checks.check_solution("set-up", market, solution, 0.0, reference)

    def _solve(self, market, delta: float, parent: int = tracing.NO_PARENT):
        """One solve; a traced run records a span for each call that returns."""
        t0 = perf_counter_ns()
        solution = (solve_fair_optimal(market) if delta == 0.0
                    else solve_relaxed_optimal(market, delta))
        if self.spans is not None:
            name = ("oracle.solve_fair_optimal" if delta == 0.0
                    else "oracle.solve_relaxed_optimal")
            self.spans.add(self.spans.name_id(name), t0, perf_counter_ns(), parent)
        return solution

    # -- operations -----------------------------------------------------

    def episode(self, ep: workloads.Episode, round_no: int, traced: bool) -> None:
        spans = self.spans if traced else None
        cell = spans.open("bench.episode") if spans else None
        t0, c0 = perf_counter(), process_time()
        try:
            agent = FpaAgent(FpaConfig(grid=ep.market.grid, q=ep.market.q,
                                       horizon=ep.horizon, seed=ep.seed),
                             oracle_cfg=ep.agent_oracle)
            driven = agent
            if spans:
                sim_span = spans.open("sim.run_episode", cell)
                driven = tracing.TracedAgent(agent, spans, sim_span)
            trace = run_episode(driven, ep.market, ep.horizon, seed=ep.seed,
                                record_every=ep.record_every,
                                oracle_revenue=self.optima[id(ep.market)])
            if spans:
                spans.close(sim_span)
            paths = self._write(ep, trace, cell)
        except Exception as exc:  # counted as a failed operation
            self.ops.append({"op": ep.name, "kind": "episode", "round": round_no,
                             "ok": False, "error": f"{type(exc).__name__}: {exc}"})
            return
        finally:
            if spans:
                spans.close(cell)
        seconds, cpu_s = perf_counter() - t0, process_time() - c0
        self.ops.append({"op": ep.name, "kind": "episode", "round": round_no, "ok": True,
                         "seconds": seconds, "cpu_s": cpu_s, "rounds": ep.horizon,
                         "traced": traced, "ledger_len": len(agent.ledger)})
        self.errors += checks.check_episode(ep.name, trace, agent, ep.horizon)
        for path in paths:
            key = f"{ep.name}/seed{ep.seed}/{os.path.basename(path).split('_')[0]}"
            digest = checks.file_digest(path)
            if self.digests.setdefault(key, digest) != digest:
                self.errors.append(f"{key}: output differs between two runs of one seed")
            os.remove(path)
        if traced and all(done.name != ep.name for done, _ in self.agents):
            self.agents.append((ep, agent))

    def _write(self, ep: workloads.Episode, trace, cell) -> list[str]:
        """Trace CSV and summary JSON, written as ``fairprice run`` writes them."""
        tag = f"T{ep.horizon}_seed{ep.seed}"
        csv_path = os.path.join(self.out_dir, f"trace_{tag}.csv")
        json_path = os.path.join(self.out_dir, f"summary_{tag}.json")
        spans = self.spans if cell is not None else None
        span = spans.open("sim.write_trace_csv", cell) if spans else None
        write_trace_csv(trace, csv_path)
        if spans:
            spans.close(span)
            span = spans.open("sim.write_summary_json", cell)
        summary = trace.summary()
        summary["config"] = {"market": fairprice.market_to_text(ep.market),
                             "agent.kind": "fpa", "run.horizon": ep.horizon,
                             "run.seeds": [ep.seed], "run.record_every": ep.record_every}
        write_summary_json(summary, json_path)
        if spans:
            spans.close(span)
        return [csv_path, json_path]

    def solve(self, job: workloads.Solve, round_no: int,
              parent: int = tracing.NO_PARENT) -> None:
        t0, c0 = perf_counter(), process_time()
        try:
            solution = self._solve(job.market, job.delta, parent)
        except Exception as exc:  # counted as a failed operation
            self.ops.append({"op": job.name, "kind": "solve", "round": round_no,
                             "d": job.market.grid.d, "ok": False,
                             "expected_failure": job.expect_failure,
                             "error": f"{type(exc).__name__}: {exc}"})
            return
        seconds, cpu_s = perf_counter() - t0, process_time() - c0
        self.ops.append({"op": job.name, "kind": "solve", "round": round_no,
                         "d": job.market.grid.d, "delta": job.delta, "ok": True,
                         "seconds": seconds, "cpu_s": cpu_s, "revenue": solution.revenue})
        self.errors += checks.check_solution(job.name, job.market, solution,
                                             job.delta, job.reference)

    def round(self, round_no: int, traced: bool = False,
              parent: int = tracing.NO_PARENT) -> None:
        for op in self.work.ops:
            if isinstance(op, workloads.Episode):
                self.episode(op, round_no, traced)
            else:
                self.solve(op, round_no, parent)
        by_market: dict[str, list[tuple[float, float]]] = defaultdict(list)
        for op in self.ok_ops("solve", round=round_no):
            by_market[op["op"].rsplit("/delta=", 1)[0]].append((op["delta"], op["revenue"]))
        for market_name, revenues in by_market.items():
            self.errors += checks.check_monotone(market_name, revenues)

    # -- summaries ------------------------------------------------------

    def counts(self, round_no: int | None = None) -> tuple[int, int]:
        ops = [op for op in self.ops if round_no is None or op["round"] == round_no]
        return len(ops), sum(1 for op in ops if not op["ok"])

    def ok_ops(self, kind: str, **match) -> list[dict]:
        return [op for op in self.ops if op["ok"] and op["kind"] == kind
                and all(op.get(k) == v for k, v in match.items())]


def rounds_per_s(episodes: list[dict]) -> float:
    return sum(op["rounds"] for op in episodes) / sum(op["cpu_s"] for op in episodes)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(args) -> tuple[float, dict, list]:
    """Median CPU time of fresh-interpreter set-ups (import, markets, and
    the set-up solves), each a child process that this run waits for."""
    script = os.path.join(program.HERE, "setup_probe.py")
    cmd = [sys.executable, script, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    times: dict[str, list[float]] = {"cpu_s": [], "seconds": []}
    optima = None
    for _ in range(SETUP_REPEATS):
        t0, c0 = perf_counter(), _children_cpu()
        proc = subprocess.run(cmd, cwd=program.ROOT, capture_output=True, text=True,
                              timeout=170)
        times["seconds"].append(perf_counter() - t0)
        times["cpu_s"].append(_children_cpu() - c0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr}")
        optima = json.loads(proc.stdout.strip().splitlines()[-1])
    return statistics.median(times["cpu_s"]), times, optima


def fair_lps(market) -> list[LinearProgram]:
    """The fixed-anchor doubly fair LP in 2d variables (both groups' weights):
    unit sums, equal proposed means v_r = v_s + alpha, and both accepted
    means pinned to v_s, over a grid of anchors (v_s, alpha)."""
    v, f1, f2, q = (market.grid.prices, market.accept.group1,
                    market.accept.group2, market.q)
    d, zero = v.size, np.zeros(v.size)
    lps = []
    for vs in np.linspace(v[0], v[-1], 10)[1:-1]:
        for alpha in np.linspace(0.0, v[-1] - vs, 4):
            a_eq = [np.r_[np.ones(d), zero], np.r_[zero, np.ones(d)], np.r_[v, zero],
                    np.r_[zero, v], np.r_[(v - vs) * f1, zero], np.r_[zero, (v - vs) * f2]]
            b_eq = [1.0, 1.0, vs + alpha, vs + alpha, 0.0, 0.0]
            lps.append(LinearProgram(np.r_[q * v * f1, (1.0 - q) * v * f2],
                                     a_eq=np.array(a_eq), b_eq=np.array(b_eq)))
    return lps


def time_lps(market, spans: tracing.SpanRecorder) -> list[float]:
    lp_id = spans.name_id("linsolve.lp_maximize")
    out = []
    for lp in fair_lps(market):
        for _ in range(LP_REPEATS):
            t0 = perf_counter_ns()
            lp_maximize(lp)
            t1 = perf_counter_ns()
            spans.add(lp_id, t0, t1, tracing.NO_PARENT)
            out.append((t1 - t0) / 1e3)
    return out


def end_to_end(run: Run, setup_s: float) -> dict:
    times = {d: [op["cpu_s"] for op in run.ok_ops("solve", d=d)] for d in (3, 4)}
    return {
        "setup_s": setup_s,
        "rounds_per_s": rounds_per_s(run.ok_ops("episode")),
        "solve_d3_s_p50": statistics.median(times[3]),
        "solve_d4_s_p50": statistics.median(times[4]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, untraced_rps: float, replay: list[dict], lp_us: list[float],
              proxy_ns: float) -> dict:
    spans = run.spans
    totals = tracing.layer_totals(spans)
    by_name = totals["by_name"]
    empty = np.array([], dtype=np.int64)

    def durations(name):
        return by_name.get(name, empty)

    traced = run.ok_ops("episode", traced=True)
    sim_rounds = sum(op["rounds"] for op in traced)
    boundaries = durations(tracing.BOUNDARY)
    plain_ns = (int(durations(tracing.PROPOSE).sum()) + int(durations(tracing.OBSERVE).sum())
                - totals["boundary_propose_ns"])
    replay_ms = {name: [c["ms"] for c in replay if c["call"] == name]
                 for name in ("max_probability_policy", "empirical_optimizer")}
    return {
        "sim.run_episode.self_us_per_round":
            (totals["episode_self_ns"] / sim_rounds - proxy_ns) / 1e3,
        "sim.write_trace_csv.ms": float(np.median(durations("sim.write_trace_csv"))) / 1e6,
        "sim.write_summary_json.ms": float(np.median(durations("sim.write_summary_json"))) / 1e6,
        "fpa.round_us": plain_ns / (sim_rounds - boundaries.size) / 1e3,
        "fpa.boundary_s_p50": float(np.median(boundaries)) / 1e9,
        "fpa.boundaries": int(boundaries.size),
        "oracle.max_probability_policy.ms_p50": statistics.median(
            replay_ms["max_probability_policy"]),
        "oracle.max_probability_policy.calls": len(replay_ms["max_probability_policy"]),
        "oracle.empirical_optimizer.ms_p50": statistics.median(replay_ms["empirical_optimizer"]),
        "oracle.empirical_optimizer.calls": len(replay_ms["empirical_optimizer"]),
        "oracle.solve_fair_optimal.ms_p50": float(
            np.median(durations("oracle.solve_fair_optimal"))) / 1e6,
        "oracle.solve_relaxed_optimal.ms_p50": float(
            np.median(durations("oracle.solve_relaxed_optimal"))) / 1e6,
        "linsolve.lp_maximize.us_p50": statistics.median(lp_us),
        "bench.trace_overhead_pct": 100.0 * (1.0 - rounds_per_s(traced) / untraced_rps),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--label", default="run",
                        help="tag for the record written to perfbench/results/")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = datetime.datetime.now(datetime.timezone.utc)
    stem = (f"{args.label}-{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{started:%Y%m%dT%H%M%S}-{os.getpid()}")
    out_dir = os.path.join(WORK, stem)
    os.makedirs(out_dir)
    os.makedirs(RESULTS, exist_ok=True)
    try:
        record = measure(args, out_dir, stem)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    record.update({
        "label": args.label, "workload": args.workload, "seed": args.seed,
        "size": args.size, "trace": args.trace, "seconds": args.seconds,
        "started": started.isoformat(timespec="seconds"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(), "git_sha": program.git_sha(),
        "code_digest": program.code_digest(),
    })
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(record["result"]))
    return 0


def measure(args, out_dir: str, stem: str) -> dict:
    work = workloads.build(args.workload, args.seed, args.size)
    record: dict = {}
    if args.trace == 0:
        setup_s, setup_times, child_optima = measure_setup(args)
        run = Run(work, out_dir)
        run.solve_setup()
        if child_optima != [run.optima[id(m)] for m in work.setup_markets]:
            run.errors.append(f"set-up optima differ between processes: {child_optima}")
        start, rounds = perf_counter(), 0
        while True:
            run.round(rounds)
            rounds += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / rounds > args.seconds:
                break
        metrics = end_to_end(run, setup_s)
        units = END_TO_END
        record["setup_times"] = setup_times
    else:
        spans = tracing.SpanRecorder()
        run = Run(work, out_dir, spans)
        run.solve_setup()
        # Untraced pass over each distinct episode: the overhead baseline.
        for ep in {ep.name: ep for ep in work.episodes}.values():
            run.episode(ep, 0, traced=False)
        untraced_rps = rounds_per_s(run.ok_ops("episode", traced=False))
        bench_round = spans.open("bench.round")
        run.round(1, traced=True, parent=bench_round)
        spans.close(bench_round)
        rounds = 1
        replay = []
        for ep, agent in run.agents:
            parent = spans.open("bench.oracle_replay")
            replay += [dict(c, episode=ep.name) for c in
                       tracing.replay_oracle(agent, spans, parent)]
            spans.close(parent)
        lp_us = time_lps(work.lp_market, spans)
        proxy_ns = tracing.proxy_cost_per_round()
        metrics = per_layer(run, untraced_rps, replay, lp_us, proxy_ns)
        units = PER_LAYER
        spans.save(os.path.join(RESULTS, stem + ".spans.npz"))
        record["oracle_replay"] = replay
        record["proxy_ns_per_round"] = proxy_ns
        record["spans"] = stem + ".spans.npz"
    # A traced run counts its traced round; the untraced pass is a baseline.
    attempted, failed = run.counts(None if args.trace == 0 else 1)
    record.update({
        "rounds": rounds, "operations": run.ops, "check_failures": run.errors,
        "digests": run.digests,
        "result": {
            "correct": not run.errors, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    })
    for message in run.errors:
        print(f"check failed: {message}", file=sys.stderr)
    return record


if __name__ == "__main__":
    sys.exit(main())
