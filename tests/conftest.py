"""Shared fixtures: the worked example market is solved once per session."""

import pytest
from hypothesis import settings

from fairprice import (
    closed_form_example_optimum,
    example1_market,
    solve_fair_optimal,
)


# Property tests draw the same examples on every run and have no deadline:
# a solve's time depends on the machine's load, not on the example.
settings.register_profile("fairprice", derandomize=True, deadline=None)
settings.load_profile("fairprice")


@pytest.fixture(scope="session")
def example_market():
    return example1_market()


@pytest.fixture(scope="session")
def example_solution(example_market):
    """Exact solution of the example market (shared by the tests that read it)."""
    return solve_fair_optimal(example_market)


@pytest.fixture(scope="session")
def example_closed_form():
    return closed_form_example_optimum(0.0)


@pytest.fixture(autouse=True)
def _single_worker(monkeypatch):
    """Keep CLI invocations inside tests single-process."""
    monkeypatch.setenv("FAIRPRICE_THREADS", "1")
