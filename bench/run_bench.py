"""Time whole episodes, the trace readers and known-market solves, and write
the figures to ``BENCH_<label>.json`` at the repo root.

    PYTHONPATH=src python bench/run_bench.py BASELINE/src [--label LABEL]

Rows:

* ``episode``: one FPA episode, ``run_episode`` with the oracle revenue
  passed in and ``record_every = max(1, T // 10_000)`` (the CLI's
  thinning), on ``example1_market()`` and on
  ``lowerbound_family_market(1, 4, T)``, at T = 1e4, 1e5 and 1e6, seeds 0-2;
* ``write_trace_csv`` and ``records`` (``list(trace.records)``): one read of
  each episode's trace, with the writer's share of its episode's median;
* ``solve_fair_optimal``: the example, and the d = 4 hard family at
  T = 3,000.

Every row is timed in process CPU time (``time.process_time``), interleaved
over ``REPEATS`` rounds: round r of every row runs before round r + 1 of
any.  A round times an episode or a solve once and a trace read
``READ_TIMINGS`` times, since a read costs a tenth of its episode or less and
its median needs more timings to settle.  Each row records its median,
quartiles and number of timings.

``BASELINE/src`` is the ``src`` folder of a second checkout, whose
``fairprice`` is loaded beside the imported one.  Each timing of a row is
taken on both, back to back, the first of the two alternating by round,
and each checkout gets its own file.  On a shared machine whose speed
drifts over a run, only timings taken this close together compare, so
there is no mode that times one checkout alone.  Each file is named
after its checkout's short sha (with ``-dirty`` when its package differs
from that commit); ``--label`` names this checkout's file instead, since
uncommitted work has no sha of its own.

Each file also records ``nproc``, the CPU model, the Python and numpy
versions, and the git sha of the checkout measured, with whether its
package files differ from that commit.  The script reads only
``fairprice``'s public names.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import fairprice

ROOT = Path(__file__).resolve().parent.parent
HORIZONS = (10_000, 100_000, 1_000_000)
SEEDS = (0, 1, 2)
# Episode markets by name, each built from the package for a horizon.
MARKETS = {
    "example1": lambda fp, horizon: fp.example1_market(),
    "lowerbound(1, 4, T)": lambda fp, horizon: fp.lowerbound_family_market(1, 4, horizon),
}
SOLVE_MARKETS = {
    "example1": lambda fp: fp.example1_market(),
    "lowerbound(1, 4, 3000)": lambda fp: fp.lowerbound_family_market(1, 4, 3000),
}
# Rounds of timings: at least 5 give a median with quartiles; 7 give each
# trace read 49 timings and keep a paired run near two minutes on 2 cores.
REPEATS = 7
# Timings of each trace read per round.
READ_TIMINGS = 7


def load_package(src: str):
    """A second copy of ``fairprice``, loaded from ``src``/fairprice under
    another name, so that it and the imported one can be timed in turn."""
    folder = Path(src).resolve() / "fairprice"
    spec = importlib.util.spec_from_file_location(
        "fairprice_baseline", folder / "__init__.py", submodule_search_locations=[str(folder)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def _cpu_seconds(call) -> float:
    t0 = time.process_time()
    call()
    return time.process_time() - t0


def _episode(fp, market, horizon: int, seed: int, oracle_revenue: float):
    agent = fp.FpaAgent(fp.FpaConfig(grid=market.grid, q=market.q, horizon=horizon, seed=seed))
    return fp.run_episode(agent, market, horizon, seed=seed,
                          record_every=max(1, horizon // 10_000), oracle_revenue=oracle_revenue)


def _rows(fp, horizons, seeds, csv_path: str) -> list[tuple[dict, object, int]]:
    """(row, the call it times, timings per round) for every row, in the
    order they run, on package ``fp``."""
    rows = []
    for name, build in MARKETS.items():
        for horizon in horizons:
            market = build(fp, horizon)
            revenue = fp.solve_fair_optimal(market).revenue
            for seed in seeds:
                key = {"market": name, "horizon": horizon, "seed": seed}
                trace = _episode(fp, market, horizon, seed, revenue)
                rows += [
                    ({"kind": "episode", **key, "kept_rows": len(trace.records)},
                     lambda m=market, h=horizon, s=seed, r=revenue: _episode(fp, m, h, s, r), 1),
                    ({"kind": "write_trace_csv", **key},
                     lambda t=trace: fp.write_trace_csv(t, csv_path), READ_TIMINGS),
                    ({"kind": "records", **key}, lambda t=trace: list(t.records), READ_TIMINGS),
                ]
    rows += [({"kind": "solve_fair_optimal", "market": name},
              lambda b=build: fp.solve_fair_optimal(b(fp)), 1)
             for name, build in SOLVE_MARKETS.items()]
    return rows


def _figures(rows, samples) -> list[dict]:
    """Each row with its median, quartiles and number of timings, and a
    ``write_trace_csv`` row with its share of the episode's median."""
    out = []
    for (row, _, _), times in zip(rows, samples):
        q1, median, q3 = np.percentile(times, [25, 50, 75]).tolist()
        out.append({**row, "median_s": median, "q1_s": q1, "q3_s": q3, "timings": len(times)})
    episodes = {(r["market"], r["horizon"], r["seed"]): r["median_s"]
                for r in out if r["kind"] == "episode"}
    for r in out:
        if r["kind"] == "write_trace_csv":
            r["share_of_episode"] = r["median_s"] / episodes[r["market"], r["horizon"], r["seed"]]
    return out


def measure(packages, horizons=HORIZONS, seeds=SEEDS,
            repeats: int = REPEATS) -> list[list[dict]]:
    """Every row of each package, timed over ``repeats`` rounds, the
    packages in turn (see :func:`_figures` for what a row holds)."""
    with tempfile.TemporaryDirectory() as tmp:
        rows = [_rows(fp, horizons, seeds, os.path.join(tmp, f"trace{k}.csv"))
                for k, fp in enumerate(packages)]
        samples = [[[] for _ in rows[0]] for _ in packages]
        for r in range(repeats):
            order = range(len(packages))[::(-1) ** r]
            for i, (_, _, timings) in enumerate(rows[0]):
                for _ in range(timings):
                    for k in order:
                        samples[k][i].append(_cpu_seconds(rows[k][i][1]))
    return [_figures(r, s) for r, s in zip(rows, samples)]


def _git(package, *args: str):
    """The output of a git command run in ``package``'s folder, or None
    outside a git checkout."""
    folder = Path(package.__file__).resolve().parent
    try:
        done = subprocess.run(["git", "-C", str(folder), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def metadata(package) -> dict:
    dirty = _git(package, "status", "--porcelain", "--", ".")
    return {
        "git_sha": _git(package, "rev-parse", "HEAD"),
        "package_differs_from_commit": None if dirty is None else bool(dirty),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fairprice": package.__version__,
        "clock": "time.process_time (process CPU seconds)",
        "repeats": REPEATS,
        "read_timings_per_round": READ_TIMINGS,
    }


def _label(package, meta: dict) -> str:
    """The measured commit's short sha, with -dirty when the package
    differs from it."""
    sha = _git(package, "rev-parse", "--short", "HEAD") or "local"
    return sha + "-dirty" * bool(meta["package_differs_from_commit"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", metavar="BASELINE/src",
                        help="the src folder of a checkout to time in turn with this one")
    parser.add_argument("--label", help="names this checkout's file BENCH_<label>.json "
                        "(default: its short sha, with -dirty when the package differs)")
    args = parser.parse_args(argv)
    packages = [fairprice, load_package(args.baseline)]
    metas = [metadata(fp) for fp in packages]
    labels = [_label(fp, meta) for fp, meta in zip(packages, metas)]
    labels[0] = args.label or labels[0]
    if labels[0] == labels[1]:
        parser.error(f"both checkouts would write BENCH_{labels[0]}.json; give --label")
    t0 = time.perf_counter()
    results = measure(packages)
    wall = time.perf_counter() - t0
    for label, meta, rows in zip(labels, metas, results):
        meta.update(wall_s=wall, timed_in_turn_with=[other for other in labels if other != label])
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n")
        print(f"wrote {path.name}: {len(rows)} rows in {wall:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
