"""``bench/run_bench.py`` runs from a checkout: every row it promises, each
with its median, quartiles and number of timings, for two checkouts timed
in turn."""

import importlib.util
import sys
from pathlib import Path

import pytest

import fairprice

_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location("run_bench", _ROOT / "bench" / "run_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def second_copy(run_bench):
    """This checkout's package loaded a second time, as the script loads
    the baseline checkout's."""
    yield run_bench.load_package(str(Path(fairprice.__file__).resolve().parents[1]))
    for name in [name for name in sys.modules if name.startswith("fairprice_baseline")]:
        del sys.modules[name]


def test_every_row_has_its_figures(run_bench, second_copy):
    assert second_copy is not fairprice and second_copy.RunTrace is not fairprice.RunTrace
    both = run_bench.measure([fairprice, second_copy], horizons=(500,), seeds=(0,), repeats=2)
    markets = list(run_bench.MARKETS)
    for rows in both:
        assert [(r["kind"], r["market"]) for r in rows] == [
            (kind, market) for market in markets
            for kind in ("episode", "write_trace_csv", "records")] + [
            ("solve_fair_optimal", market) for market in run_bench.SOLVE_MARKETS]
        for r in rows:
            assert 0 <= r["q1_s"] <= r["median_s"] <= r["q3_s"]
            reads = r["kind"] in ("write_trace_csv", "records")
            assert r["timings"] == 2 * (run_bench.READ_TIMINGS if reads else 1)
        assert all(r["kept_rows"] == 500 for r in rows if r["kind"] == "episode")
        assert all(0 < r["share_of_episode"] < 1 for r in rows
                   if r["kind"] == "write_trace_csv")
