"""Smoke test of the benchmark at its quick size (about two minutes).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced, checks the printed result against
BENCHMARK.json, checks that two runs of one seed write identical outputs,
and that the benchmark refuses to run where the package is missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import digests  # noqa: E402
import program  # noqa: E402

program.load()
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
# Every workload run.py offers, including hardfamily-d4, which BENCHMARK.json
# leaves out (README.md says why).
WORKLOADS = workloads.WORKLOADS
# The quick size keeps one d = 5 market, solved at two bands; both fail today.
EXPECTED_FAILED = {"example1-sweep": 0, "hardfamily-d4": 0, "solve-markets": 2}


def run(workload, trace, seed=0, label="smoke", cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "quick", "--label", label],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_lists_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_metric(workload, trace):
    result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == EXPECTED_FAILED[workload]
    spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_two_runs_of_one_seed_write_the_same_bytes():
    results = os.path.join(HERE, "results")
    before = set(os.listdir(results)) if os.path.isdir(results) else set()
    for _ in range(2):
        result_of(run("example1-sweep", 0, seed=7, label="smoke-digest"))
    new = {os.path.join(results, f) for f in set(os.listdir(results)) - before
           if f.startswith("smoke-digest")}
    compared, problems = digests.compare(
        [r for r in digests.load_records(results) if r["path"] in new])
    assert compared == 6  # three episodes, a trace and a summary each
    assert problems == []


def test_refuses_to_run_without_the_package():
    bare = os.path.join(HERE, ".work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("solve-markets", 0, cwd=bare,
                   script=os.path.join(bare, "perfbench", "run.py"))
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
