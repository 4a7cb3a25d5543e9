"""Command-line interface, driven in process through main()."""

import json

import pytest

from fairprice import MarketConfig, market_to_text
from fairprice.cli import main, parse_horizons, parse_seed_spec, worker_count
from fairprice.sim import example1_market, example_eps_market


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def test_seed_specs():
    assert parse_seed_spec("10") == list(range(10))
    assert parse_seed_spec("3-7") == [3, 4, 5, 6, 7]
    assert parse_seed_spec("0,2,5") == [0, 2, 5]
    with pytest.raises(ValueError):
        parse_seed_spec("5-3")
    with pytest.raises(ValueError):
        parse_seed_spec("two")


def test_horizon_specs():
    assert parse_horizons("1000,2000") == [1000, 2000]
    with pytest.raises(ValueError):
        parse_horizons("1000,-5")


def test_worker_count_is_validated_and_capped():
    assert worker_count(None, 30, 8) == 4        # default
    assert worker_count("", 30, 8) == 4          # empty counts as unset
    assert worker_count("6", 30, 8) == 6
    assert worker_count("64", 30, 8) == 8        # capped by the CPUs
    assert worker_count("64", 3, 8) == 3         # and by the cells
    assert worker_count("2", 1, None) == 1
    for bad in ("0", "-2", "two", "1.5"):
        with pytest.raises(ValueError, match="FAIRPRICE_THREADS"):
            worker_count(bad, 30, 8)


def test_bad_worker_setting_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("FAIRPRICE_THREADS", "0")
    assert main(["run", "--preset", "example1", "-T", "100"]) == 2
    assert "FAIRPRICE_THREADS" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_reports_the_example_optimum(tmp_path, capsys):
    out = tmp_path / "solution.json"
    assert main(["solve", "--preset", "example1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "revenue  0.510" in stdout
    assert "closed-form revenue 0.510344828" in stdout
    report = json.loads(out.read_text())
    assert report["revenue"] == pytest.approx(74.0 / 145.0, abs=1e-12)
    assert report["closed_form_gap"] < 1e-10
    assert len(report["policy_group1"]) == 3


def test_solve_accepts_the_perturbed_preset(capsys):
    assert main(["solve", "--preset", "example-eps", "--eps", "0.01"]) == 0
    assert "closed-form revenue" in capsys.readouterr().out


def test_solve_skips_the_closed_form_beyond_its_range(tmp_path, capsys):
    """The preset takes eps up to 0.45; the closed forms hold to 0.05 only."""
    out = tmp_path / "solution.json"
    assert main(["solve", "--preset", "example-eps", "--eps", "0.2", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "revenue  " in captured.out and "closed-form" not in captured.out
    assert captured.err == ""
    report = json.loads(out.read_text())
    assert "closed_form_revenue" not in report and len(report["policy_group2"]) == 3


def test_solve_reads_market_files(tmp_path, capsys):
    path = tmp_path / "market.txt"
    path.write_text(market_to_text(example_eps_market(0.02)))
    assert main(["solve", "--market", str(path)]) == 0
    # explicit market files get no closed-form comparison
    assert "closed-form" not in capsys.readouterr().out


def test_solve_rejects_missing_market_file(tmp_path, capsys):
    code = main(["solve", "--market", str(tmp_path / "nope.txt")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_lowerbound_preset_needs_a_horizon(capsys):
    assert main(["solve", "--preset", "lowerbound", "--lb-j", "1", "--lb-d", "3"]) == 2
    assert main(["solve", "--preset", "lowerbound", "--lb-j", "1", "--lb-d", "3",
                 "-T", "10000"]) == 0
    out = capsys.readouterr().out
    assert "revenue" in out


@pytest.mark.parametrize("command", ["solve", "run"])
def test_grids_past_the_lp_limit_fail_in_one_line(tmp_path, capsys, command):
    argv = [command, "--preset", "lowerbound", "--lb-d", "9", "-T", "100000"]
    if command == "run":
        argv += ["--out", str(tmp_path / "runs")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == ("error: a grid of 9 prices needs 18 LP variables; "
                   "at most 16 are supported (d <= 8)\n")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_traces_and_summaries(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--preset", "example1", "-T", "1500", "--seeds", "2",
                 "--record-every", "100", "--out", str(out)]) == 0
    for seed in (0, 1):
        assert (out / f"trace_T1500_seed{seed}.csv").exists()
        assert (out / f"summary_T1500_seed{seed}.json").exists()
    merged = json.loads((out / "run_summary.json").read_text())
    assert merged["config"]["run.horizon"] == 1500
    assert len(merged["cells"]) == 2
    assert merged["oracle_revenue"] == pytest.approx(74.0 / 145.0, abs=1e-12)
    per_seed = json.loads((out / "summary_T1500_seed0.json").read_text())
    assert per_seed["config"]["environment.preset"] == "example1"
    assert per_seed["cum_u"] <= 1e-9
    assert "fhat_history" in per_seed["agent"]
    stdout = capsys.readouterr().out
    assert "T=1500 seed=0" in stdout and "T=1500 seed=1" in stdout


def test_run_is_bit_reproducible(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b")]
    for d in dirs:
        assert main(["run", "--preset", "example1", "-T", "1200", "--seeds", "1",
                     "--record-every", "200", "--out", str(d)]) == 0
    for name in ("trace_T1200_seed0.csv", "summary_T1200_seed0.json",
                 "run_summary.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_run_respects_the_emit_selection(tmp_path):
    out = tmp_path / "summaries-only"
    assert main(["run", "--preset", "example1", "-T", "900", "--seeds", "1",
                 "--emit", "summary", "--out", str(out)]) == 0
    assert (out / "summary_T900_seed0.json").exists()
    assert not (out / "trace_T900_seed0.csv").exists()


def test_run_with_baseline_agent(tmp_path):
    out = tmp_path / "baseline"
    assert main(["run", "--preset", "example1", "--agent", "best_fixed",
                 "-T", "700", "--seeds", "1", "--out", str(out)]) == 0
    cell = json.loads((out / "summary_T700_seed0.json").read_text())
    merged = json.loads((out / "run_summary.json").read_text())
    # a fixed price at expected revenue 0.5 pays a constant rate against
    # whatever oracle value the run was scored with
    rate = merged["oracle_revenue"] - 0.5
    assert cell["cum_regret"] == pytest.approx(700 * rate, abs=1e-9)
    assert cell["cum_u"] == 0.0


def _rare_group_market(path):
    """The worked example with q = 0.002: a short warmup sees no group-1
    buyer, so the agent cannot start."""
    base = example1_market()
    path.write_text(market_to_text(MarketConfig(base.grid, base.accept, q=0.002)))
    return str(path)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_agent_errors_are_one_line(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("FAIRPRICE_THREADS", threads)  # "2": from a worker process
    monkeypatch.setattr("fairprice.cli.os.cpu_count", lambda: 2)  # even on one CPU
    market = _rare_group_market(tmp_path / "rare.txt")
    assert main(["run", "--market", market, "-T", "2000", "--seeds", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: episode T=2000 seed=0: group 1 saw 0 arrivals")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert main(["sweep", "--market", market, "--horizons", "2000,3000,4000",
                 "--seeds", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: episode T=2000 seed=0:") and err.count("\n") == 1


def test_run_usage_errors(tmp_path, capsys):
    assert main(["run", "--preset", "example1"]) == 2          # no horizon
    assert "error:" in capsys.readouterr().err
    assert main(["run", "--preset", "example1", "-T", "100",
                 "--emit", "trace,plots"]) == 2                # unknown emit token
    assert main(["run", "--preset", "example1", "-T", "100",
                 "--seeds", "x"]) == 2


def test_config_file_fills_in_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "environment.preset = example1\n"
        "run.horizon = 500\n"
        "run.seeds = 1\n"
        "run.record_every = 100\n"
        f"output.dir = {tmp_path / 'from-config'}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "from-config" / "trace_T500_seed0.csv").exists()
    # the flag beats the file
    assert main(["run", "--config", str(cfg), "-T", "800"]) == 0
    assert (tmp_path / "from-config" / "trace_T800_seed0.csv").exists()


def test_config_file_syntax_errors_are_reported(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("run.horizon 500\n")      # missing '='
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "broken.cfg:1" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_fits_slopes_over_the_grid(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--preset", "example1",
                 "--horizons", "300,600,1200", "--seeds", "5",
                 "--out", str(out)]) == 0
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == "horizon,n_seeds,mean_regret,stderr_regret,mean_s,stderr_s"
    assert len(curve) == 4
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert {"slope_regret", "slope_s", "curve", "cells", "config"} <= set(summary)
    assert len(summary["cells"]) == 15
    assert "slope" in capsys.readouterr().out


def test_sweep_rejects_thin_grids(capsys):
    assert main(["sweep", "--preset", "example1",
                 "--horizons", "300,600", "--seeds", "5"]) == 2
    assert main(["sweep", "--preset", "example1",
                 "--horizons", "300,600,1200", "--seeds", "3"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["sweep", "--preset", "example1", "--horizons", "300,600,1200"]) == 2
    assert capsys.readouterr().err == "error: sweep needs at least 5 seeds\n"


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_sweep_writes_no_slope_for_a_zero_mean(tmp_path, capsys):
    """On the flat-profile family every seed's S is 0 at T = 9000, so S has
    no log-log slope: it is null in the summary and n/a on stdout."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--preset", "lowerbound", "--lb-d", "3",
                 "--horizons", "3000,6000,9000", "--seeds", "5", "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["curve"][-1]["mean_s"] == 0.0
    assert summary["slope_s"] is None and summary["slope_regret"] > 0.0
    assert "log-log slopes: regret 0.4857, S n/a" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# paired comparison on the perturbed family
# ---------------------------------------------------------------------------

def test_compare_lb_reports_the_oracle_gap(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare-lb", "--eps", "0.01", "-T", "1200", "--seeds", "2",
                 "--out", str(out)]) == 0
    report = json.loads((out / "compare_lb.json").read_text())
    gap = 360.0 * 0.01 / (29.0 * (29.0 - 10.0 * 0.01))
    assert report["oracle_proposed_mean_gap"] == pytest.approx(gap, abs=1e-12)
    assert report["proposed_mean_gap_closed_form"] == pytest.approx(gap, abs=1e-12)
    assert report["seeds"] == [0, 1]
    arms = report["arms"]
    assert set(arms) == {"base", "perturbed"}
    assert arms["base"]["eps"] == 0.0 and arms["perturbed"]["eps"] == 0.01
    for arm in arms.values():
        assert len(arm["cells"]) == 2
        assert "mean_regret" in arm and "mean_s" in arm
    assert "proposed means differ" in capsys.readouterr().out


def test_compare_lb_checks_eps_before_any_episode(monkeypatch, capsys):
    def no_cells(payloads):
        raise AssertionError("episodes ran before eps was checked")

    monkeypatch.setattr("fairprice.cli._run_cells", no_cells)
    assert main(["compare-lb", "--eps", "0.1", "-T", "2000", "--seeds", "2"]) == 2
    assert "eps must lie in [0, 0.05]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# top-level parser behavior
# ---------------------------------------------------------------------------

def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()
