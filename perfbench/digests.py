#!/usr/bin/env python3
"""Check that runs of the same code wrote the same bytes.

    python3 perfbench/digests.py [RESULTS_DIR]

Every run record in ``perfbench/results/`` lists the sha256 of each trace CSV
and summary JSON its episodes wrote.  Records are grouped by the digest of
the package's source, the workload, its size and its seed; within a group,
every file must have one digest.  No digest is stored in the repository, so
a deliberate change of the outputs (a new random-stream layout, say) only
needs runs of the new code to agree with each other.  Exits 1 on a mismatch.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load_records(results_dir: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        record["path"] = path
        records.append(record)
    return records


def compare(records: list[dict]) -> tuple[int, list[str]]:
    """Return (files compared across two or more runs, mismatch messages)."""
    seen: dict[tuple, dict[str, set]] = defaultdict(lambda: defaultdict(set))
    runs: dict[tuple, dict[str, set]] = defaultdict(lambda: defaultdict(set))
    for record in records:
        group = (record["code_digest"], record["workload"], record["size"], record["seed"])
        for name, digest in record.get("digests", {}).items():
            seen[group][name].add(digest)
            runs[group][name].add(record["path"])
    compared, problems = 0, []
    for group, files in sorted(seen.items()):
        for name, digests in sorted(files.items()):
            if len(runs[group][name]) > 1:
                compared += 1
            if len(digests) > 1:
                problems.append(f"{group[1]} size={group[2]} seed={group[3]} {name}: "
                                f"{len(digests)} different digests over "
                                f"{len(runs[group][name])} runs")
    return compared, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    results_dir = argv[0] if argv else os.path.join(HERE, "results")
    compared, problems = compare(load_records(results_dir))
    for line in problems:
        print(line)
    print(f"{compared} files written by two or more runs; {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
