"""Import the checkout's own ``fairprice`` from ``src/``, and describe it."""

from __future__ import annotations

import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "fairprice")


def load():
    """Put ``src/`` first on the path and import the package from it.

    Exits with status 2 when the checkout holds no package (or the import
    resolves somewhere else), so the benchmark never measures another copy.
    """
    # The workloads are single-threaded: keep numpy's BLAS from starting
    # worker threads that spin on the other cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import fairprice
    except ImportError as exc:
        print(f"benchmark: cannot import fairprice from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    where = os.path.abspath(fairprice.__file__)
    if not where.startswith(PACKAGE + os.sep):
        print(f"benchmark: fairprice resolved to {where}, not under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return fairprice


def code_digest() -> str:
    """sha256 over the package's source files (names and bytes)."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str:
    """HEAD's commit read from ``.git`` directly; "unknown" outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"
