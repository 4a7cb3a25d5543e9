"""Command-line interface, driven in process through main()."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import fairprice
from fairprice import MarketConfig, market_from_text, market_to_text, solve_fair_optimal
from fairprice.cli import (
    COMMANDS,
    CONFIG_KEYS,
    SETTINGS,
    build_parser,
    main,
    parse_horizons,
    parse_seed_spec,
    worker_count,
)
from fairprice.linsolve import ROUNDING_TOL
from fairprice.sim import example1_market, example_eps_market, lowerbound_family_market
from fairprice.validation import CheckResult


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def test_seed_specs():
    assert parse_seed_spec("10") == list(range(10))
    assert parse_seed_spec("3-7") == [3, 4, 5, 6, 7]
    assert parse_seed_spec("0,2,5") == [0, 2, 5]
    with pytest.raises(ValueError):
        parse_seed_spec("5-3")
    with pytest.raises(ValueError, match="seed spec 'two'"):
        parse_seed_spec("two")
    with pytest.raises(ValueError, match=r"^seed spec '1,1,2,1' repeats a seed$"):
        parse_seed_spec("1,1,2,1")


def test_horizon_specs():
    assert parse_horizons("1000,2000") == [1000, 2000]
    with pytest.raises(ValueError):
        parse_horizons("1000,-5")
    with pytest.raises(ValueError, match="horizons '1000,x'"):
        parse_horizons("1000,x")
    with pytest.raises(ValueError, match=r"^horizons '300,300,1000' repeat a horizon$"):
        parse_horizons("300,300,1000")


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


def test_solve_reads_the_horizon_from_the_config_file(tmp_path):
    """The lowerbound preset's horizon comes from the file like any other
    setting."""
    cfg = tmp_path / "lb.cfg"
    cfg.write_text("environment.preset = lowerbound\nenvironment.lb_d = 4\n"
                   "run.horizon = 10000\n")
    report = tmp_path / "solve.json"
    assert main(["solve", "--config", str(cfg), "--out", str(report)]) == 0
    market = market_to_text(lowerbound_family_market(1, 4, 10000))
    assert json.loads(report.read_text())["market"] == market


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


@pytest.mark.parametrize("flag, value, field", [
    ("--scale-factor", "inf", "scale_factor"), ("--scale-factor", "nan", "scale_factor"),
    ("--epsilon", "1e-320", "error_prob"),
    ("--relaxation-L", "nan", "relaxation_l"), ("--relaxation-L", "inf", "relaxation_l"),
])
def test_agent_settings_without_a_schedule_are_one_line(tmp_path, capsys, flag, value, field):
    """Settings whose schedule cannot be computed stop before the first
    round, with one line naming the setting."""
    argv = ["run", "--preset", "example1", "-T", "2000", flag, value, "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_run_usage_errors(tmp_path, capsys):
    assert main(["run", "--preset", "example1"]) == 2          # no horizon
    assert "error:" in capsys.readouterr().err
    assert main(["run", "--preset", "example1", "-T", "100",
                 "--emit", "trace,plots"]) == 2                # unknown emit token
    assert "unknown emit kinds ['plots']" in capsys.readouterr().err
    assert main(["run", "--preset", "example1", "-T", "100",
                 "--seeds", "x"]) == 2                      # names the spec
    assert capsys.readouterr().err == ("error: seed spec 'x': "
                                       "invalid literal for int() with base 10: 'x'\n")


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


def test_repeated_keys_are_errors(tmp_path, capsys):
    """A key given twice stops the command instead of the last one silently
    winning, in a config file and in a market file."""
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("run.horizon = 1000\n# again\nrun.horizon = 2000\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:3: repeated key 'run.horizon'\n"
    market, text = tmp_path / "market.txt", market_to_text(example_eps_market(0.02))
    for key in ("q", "prices"):
        line = next(ln for ln in text.splitlines() if ln.startswith(key + " "))
        market.write_text(text + line + "\n")
        assert main(["solve", "--market", str(market)]) == 2
        assert capsys.readouterr().err == f"error: {market}:8: repeated key '{key}'\n"


def test_config_file_unknown_keys_are_errors(tmp_path, capsys):
    """A misspelt key stops the command instead of leaving its setting at the
    default."""
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("run.horizon = 500\nagent.scale_facter = 3\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "typo.cfg" in err[0] and "'agent.scale_facter'" in err[0]
    assert not out.exists()
    for command in (["solve"], ["sweep"], ["compare-lb"]):
        assert main(command + ["--config", str(cfg)]) == 2
        assert "'agent.scale_facter'" in capsys.readouterr().err


def test_every_config_key_is_read_from_the_file(tmp_path):
    """Each key, set only in the file and to a value other than its default,
    reaches the command: in the echoed config, where files go, and which
    market is solved."""
    market = tmp_path / "market.txt"
    market.write_text(market_to_text(example_eps_market(0.03)))
    out = tmp_path / "out"
    in_file = {
        "environment.preset": "example-eps", "environment.eps": "0.02",
        "environment.market_file": str(market), "environment.lb_j": "2",
        "environment.lb_d": "4", "agent.kind": "best_fixed", "agent.mode": "theory",
        "agent.scale_factor": "1.5", "agent.error_prob": "0.1",
        "agent.relaxation_l": "0.3", "run.horizon": "300", "run.seeds": "2-3",
        "run.record_every": "50", "output.dir": str(out),
        "sweep.horizons": "300,600,900", "sweep.seeds": "1-5",
    }
    assert sorted(in_file) == sorted(CONFIG_KEYS) and len(CONFIG_KEYS) == 16
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in in_file.items()))
    shared = {
        "environment.preset": "example-eps", "environment.eps": 0.02,
        "environment.market_file": str(market), "environment.lb_j": 2,
        "environment.lb_d": 4, "agent.kind": "best_fixed", "agent.mode": "theory",
        "agent.scale_factor": 1.5, "agent.error_prob": 0.1, "agent.relaxation_l": 0.3,
    }
    revenue = solve_fair_optimal(market_from_text(market.read_text())).revenue
    assert revenue != solve_fair_optimal(example_eps_market(0.02)).revenue

    assert main(["run", "--config", str(cfg)]) == 0
    run = json.loads((out / "run_summary.json").read_text())
    assert run["config"] == {**shared, "run.horizon": 300, "run.seeds": [2, 3],
                             "run.record_every": 50}
    assert run["oracle_revenue"] == revenue
    assert len((out / "trace_T300_seed3.csv").read_text().splitlines()) == 1 + 7

    assert main(["sweep", "--config", str(cfg)]) == 0
    sweep = json.loads((out / "sweep_summary.json").read_text())
    assert sweep["config"] == {**shared, "sweep.horizons": [300, 600, 900],
                               "sweep.seeds": [1, 2, 3, 4, 5]}

    report = tmp_path / "solve.json"
    assert main(["solve", "--config", str(cfg), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["market"] == market.read_text()


def test_config_values_of_the_wrong_type_name_the_file_and_key(tmp_path, capsys):
    cfg = tmp_path / "typed.cfg"
    cfg.write_text("run.horizon = 500\nagent.scale_factor = two\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"error: {cfg}: agent.scale_factor: "
                                       "could not convert string to float: 'two'\n")
    cfg.write_text("sweep.horizons = 300,600,900\nsweep.seeds = 0-x\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"error: {cfg}: sweep.seeds: seed spec '0-x': "
                                       "invalid literal for int() with base 10: 'x'\n")


@pytest.mark.parametrize("line,message", [
    ("agent.kind = greedy", "unknown agent 'greedy'; expected one of "
     "('fpa', 'best_fixed', 'ucb_fixed', 'fair_oracle', 'group_oracle')"),
    ("agent.mode = fast", "unknown mode 'fast'; expected one of ('scaled', 'theory')"),
    ("environment.preset = example2", "unknown preset 'example2'; expected one of "
     "('example1', 'example-eps', 'lowerbound')"),
    # a market file replaces the preset's market, but not the preset's check
    ("environment.market_file = m.txt\nenvironment.preset = bogus",
     "unknown preset 'bogus'; expected one of ('example1', 'example-eps', 'lowerbound')"),
])
def test_config_values_outside_their_sets_are_errors(tmp_path, monkeypatch, capsys,
                                                     line, message):
    """The flags' choices do not guard the file; the resolver does, before
    any episode runs."""
    def no_cells(payloads):
        raise AssertionError("episodes ran before the config was checked")

    monkeypatch.setattr("fairprice.cli._run_cells", no_cells)
    cfg = tmp_path / "choices.cfg"
    cfg.write_text(f"run.horizon = 500\n{line}\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
    # a repeat would count one episode twice toward those minimums
    assert main(["sweep", "--preset", "example1",
                 "--horizons", "300,300,1000", "--seeds", "5"]) == 2
    assert capsys.readouterr().err == "error: horizons '300,300,1000' repeat a horizon\n"
    assert main(["sweep", "--preset", "example1",
                 "--horizons", "300,600,1200", "--seeds", "1,1,1,1,1"]) == 2
    assert capsys.readouterr().err == "error: seed spec '1,1,1,1,1' repeats a seed\n"


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("flags, slopes", [
    # The flat-profile family: every seed's S is exactly 0 at T = 9000.
    (["--preset", "lowerbound", "--lb-d", "3", "--horizons", "3000,6000,9000"],
     "regret 0.4857, S n/a"),
    # Agents that only play policies with equal accepted means: S is
    # rounding noise, not a rate (mean S of 4.2e-14 to 1.6e-13 for
    # ucb_fixed, 3.3e-14 to 3.3e-12 for fair_oracle).
    (["--agent", "ucb_fixed", "--horizons", "1000,2000,4000"], "regret 0.9399, S n/a"),
    (["--agent", "fair_oracle", "--horizons", "100,1000,10000"], "regret n/a, S n/a"),
], ids=["lowerbound", "ucb_fixed", "fair_oracle"])
def test_sweep_writes_no_slope_for_a_zero_mean(tmp_path, capsys, flags, slopes):
    """Where some horizon's mean S per round is at most ROUNDING_TOL, S has
    no log-log slope: it is null in the summary and n/a on stdout."""
    out = tmp_path / "sweep"
    assert main(["sweep", *flags, "--seeds", "5", "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert min(row["mean_s"] / row["horizon"] for row in summary["curve"]) <= ROUNDING_TOL
    if "lowerbound" in flags:
        assert summary["curve"][-1]["mean_s"] == 0.0
    assert summary["slope_s"] is None
    assert f"log-log slopes: {slopes}" in capsys.readouterr().out


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


@pytest.mark.parametrize("flags,in_file,eps", [
    ([], "", 0.01), ([], "environment.eps = 0.03\n", 0.03),
    (["--eps", "0.02"], "environment.eps = 0.03\n", 0.02)])
def test_compare_lb_takes_eps_from_the_flag_then_the_file(tmp_path, monkeypatch, capsys,
                                                          flags, in_file, eps):
    markets = []

    def cells(payloads):
        markets.append(payloads[0]["market_text"])
        return [{"cum_regret": 1.0, "cum_s": 0.0} for _ in payloads]

    monkeypatch.setattr("fairprice.cli._run_cells", cells)
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text(in_file)
    assert main(["compare-lb", "--config", str(cfg), "-T", "100", "--seeds", "1",
                 *flags]) == 0
    assert f"perturbed (eps={eps})" in capsys.readouterr().out
    assert markets == [market_to_text(example_eps_market(e)) for e in (0.0, eps)]


def test_compare_lb_takes_its_run_settings_from_the_file_then_the_flags(tmp_path):
    """run.horizon, run.seeds and output.dir come from the file unless a
    flag sets them."""
    out = tmp_path / "from-file"
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text(f"run.horizon = 600\nrun.seeds = 3-4\noutput.dir = {out}\n")
    assert main(["compare-lb", "--config", str(cfg)]) == 0
    report = json.loads((out / "compare_lb.json").read_text())
    assert report["horizon"] == 600 and report["seeds"] == [3, 4]
    assert [cell["seed"] for cell in report["arms"]["perturbed"]["cells"]] == [3, 4]
    flagged = tmp_path / "from-flags"
    assert main(["compare-lb", "--config", str(cfg), "-T", "500", "--seeds", "1",
                 "--out", str(flagged)]) == 0
    report = json.loads((flagged / "compare_lb.json").read_text())
    assert report["horizon"] == 500 and report["seeds"] == [0]
    assert report["arms"]["base"]["cells"][0]["horizon"] == 500


def test_compare_lb_echoes_the_settings_it_ran_with(tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare-lb", "--eps", "0.02", "-T", "800", "--seeds", "2",
                 "--scale-factor", "3", "--epsilon", "0.1", "--relaxation-L", "0.3",
                 "--mode", "theory", "--out", str(out)]) == 0
    assert json.loads((out / "compare_lb.json").read_text())["config"] == {
        "environment.eps": 0.02, "agent.kind": "fpa", "agent.mode": "theory",
        "agent.scale_factor": 3.0, "agent.error_prob": 0.1, "agent.relaxation_l": 0.3,
        "run.horizon": 800, "run.seeds": [0, 1]}


@pytest.mark.parametrize("line", [
    "environment.preset = example1", "environment.market_file = m.txt",
    "environment.lb_j = 2", "environment.lb_d = 4"])
def test_compare_lb_refuses_environment_keys_other_than_eps(tmp_path, monkeypatch, capsys,
                                                            line):
    """compare-lb always runs the example family, so a file that names
    another market is an error, not a setting left unread."""
    def no_cells(payloads):
        raise AssertionError("episodes ran before the config was checked")

    monkeypatch.setattr("fairprice.cli._run_cells", no_cells)
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text(f"environment.eps = 0.03\n{line}\n")
    assert main(["compare-lb", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    key = line.split(" = ")[0]
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}: {key}: ")
    cfg.write_text("environment.eps = small\n")
    assert main(["compare-lb", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"error: {cfg}: environment.eps: "
                                       "could not convert string to float: 'small'\n")


# ---------------------------------------------------------------------------
# top-level parser behavior
# ---------------------------------------------------------------------------

def table_drift(settings, commands, parser) -> list[str]:
    """Where the settings tables and the parser disagree: for each command of
    ``commands``, each key whose flags (the options whose dest is a key of
    ``settings``) the parser gives it otherwise than ``settings`` declares
    them, gives it without the command listing the key, or leaves out; each
    flag two of the command's keys share; and each key no command reads."""
    flags = {row[0]: tuple(row[1]) for row in settings}
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = []
    for command, keys, _ in commands:
        given = {action.dest: tuple(action.option_strings)
                 for action in subs.choices[command]._actions if action.dest in flags}
        listed = {key: flags[key] for key in keys}
        found += [f"{command}: {key} has flags {given.get(key)}, the table {listed.get(key)}"
                  for key in sorted(set(given) | set(listed))
                  if given.get(key) != listed.get(key)]
        declared = [flag for key in keys for flag in flags[key]]
        found += [f"{command}: two keys on {flag}" for flag in sorted(set(declared))
                  if declared.count(flag) > 1]
    read = {key for _, keys, _ in commands for key in keys}
    return found + [f"{key}: read by no command" for key in flags if key not in read]


def test_the_check_catches_a_drift_between_the_tables_and_the_parser():
    settings = (("a.x", ("--x",)), ("a.y", ("--y", "-Y")), ("b.x", ("--x",)),
                ("c.z", ("--z",)))
    commands = (("one", ("a.x", "a.y"), ()), ("two", ("a.x", "b.x"), ()))
    parser = argparse.ArgumentParser()
    subs = parser.add_subparsers(dest="command")
    one, two = subs.add_parser("one"), subs.add_parser("two")
    one.add_argument("--x", dest="a.x")
    one.add_argument("--y", dest="a.y")          # without -Y
    one.add_argument("--z", dest="c.z")          # a key the command does not list
    one.add_argument("--out")                    # not a setting
    two.add_argument("--x", dest="b.x")          # a.x left out
    assert table_drift(settings, commands, parser) == [
        "one: a.y has flags ('--y',), the table ('--y', '-Y')",
        "one: c.z has flags ('--z',), the table None",
        "two: a.x has flags None, the table ('--x',)",
        "two: two keys on --x",
        "c.z: read by no command"]


def test_the_parser_gives_each_command_the_flags_of_its_keys():
    assert table_drift(SETTINGS, COMMANDS, build_parser()) == []


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# validate, and the module entry point
# ---------------------------------------------------------------------------

def test_validate_reports_every_check(tmp_path, monkeypatch, capsys):
    checks = (lambda: CheckResult("fake-pass", True, "as expected", 0.123),
              lambda: CheckResult("fake-fail", False, "expected 1, got 2", 1.0))
    monkeypatch.setattr("fairprice.validation.ALL_CHECKS", checks)
    out = tmp_path / "results.json"
    assert main(["validate", "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] fake-pass (0.1s): as expected",
        "[FAIL] fake-fail (1.0s): expected 1, got 2",
        "1/2 checks passed",
    ]
    assert json.loads(out.read_text()) == [
        {"name": "fake-pass", "passed": True, "detail": "as expected", "elapsed": 0.12},
        {"name": "fake-fail", "passed": False, "detail": "expected 1, got 2",
         "elapsed": 1.0},
    ]


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fairprice.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "fairprice", "solve", "--preset", "example1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "revenue  0.510344828\n" in done.stdout
