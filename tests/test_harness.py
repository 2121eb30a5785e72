import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import per_point_csv, per_point_time_series, runner_result
from _oracles import stability_errors as dense_stability_errors

from contilab import experiments, sweep
from contilab import infotheory as it
from contilab.agents import _AGENT_KINDS, IdbdAgent, LmsAgent, OptimisticQAgent
from contilab.cli import main
from contilab.core import TrajectorySummary
from contilab.envs import _ENV_KINDS, Ar1ScalarEnv, GoalMdpEnv
from contilab.errors import ConfigurationError
from contilab.experiments import list_experiments, resolve_params, run_experiment
from contilab.output import write_line_plot, write_results_csv

EXPECTED_NAMES = [
    "fig2_lms_sweep",
    "fig7_errors_vs_alpha",
    "fig8_optimal_alpha",
    "fig9_idbd",
    "fig13_ps_vs_ts_time",
    "fig14_ps_vs_ts_eta",
    "fig15_mdp_alpha",
    "fig16_mdp_boost",
    "logit_regret",
    "bitflip_demo",
    "coinswap_belief",
]

FAST_OVERRIDES = {
    "fig2_lms_sweep": {"trials": "2", "horizon": "200", "alphas": "[0.2, 0.4]"},
    "fig7_errors_vs_alpha": {"grid_points": "4", "etas": "[0.9]"},
    "fig8_optimal_alpha": {"alpha_step": "0.2", "etas": "[0.5]", "capacities": "[1.0]",
                           "deltas": "[0.0, 0.2]"},
    "fig9_idbd": {"trials": "2", "horizon": "500"},
    "fig13_ps_vs_ts_time": {"trials": "4", "horizon": "50"},
    "fig14_ps_vs_ts_eta": {"trials": "4", "horizon": "50", "etas": "[0.3, 0.9]"},
    "fig15_mdp_alpha": {"trials": "1", "horizon": "300", "alphas": "[0.2]",
                        "boosts": "[0.0002]", "resample_etas": "[0.001]"},
    "fig16_mdp_boost": {"trials": "1", "horizon": "300", "alphas": "[0.2]",
                        "boosts": "[0.0002]", "resample_etas": "[0.001]"},
    "logit_regret": {"episodes": "5", "horizons": "[10]"},
    "bitflip_demo": {"trials": "4", "horizon": "100", "priors": '[["fixed", 0.9]]'},
    "coinswap_belief": {"grid_size": "201", "trials": "2", "horizon": "200",
                        "q2s": "[0.5]", "gamma": "0.9"},
}


def test_every_env_and_agent_setting_is_set_by_some_experiment():
    # A kind no experiment builds, or a constructor parameter no experiment
    # sets, is code that only tests reach: a setting with one value in use
    # belongs in the code as a constant. The cells are read from each
    # runner's one yield, not run.
    cells = [cfg for name in list_experiments()
             for cfg in next(experiments._get(name).runner(
                 resolve_params(name, FAST_OVERRIDES[name])))]
    for side, kinds in (("env", _ENV_KINDS), ("agent", _AGENT_KINDS)):
        for kind, cls in kinds.items():
            specs = [getattr(cfg, side) for cfg in cells if getattr(cfg, side)["kind"] == kind]
            assert specs, f"no experiment builds {side} kind {kind!r}"
            unset = set(inspect.signature(cls.__init__).parameters) - {"self"} - set().union(*specs)
            assert not unset, f"no experiment sets {sorted(unset)} of {side} kind {kind!r}"


# Each simulated experiment's payloads at its defaults with 2 workers, as
# {(kernel or "scalar", trials in the payload): payloads}. Byte checks cannot
# see a pool that drops to the scalar path; this table can.
_ROUTE = {(Ar1ScalarEnv, LmsAgent): "lms", (Ar1ScalarEnv, IdbdAgent): "idbd",
          (GoalMdpEnv, OptimisticQAgent): "goal", None: "scalar"}
_ROUTES = {
    "fig2_lms_sweep": ({}, {("lms", 254): 5, ("lms", 253): 10}),
    "fig9_idbd": ({}, {("idbd", 20): 2}),
    "fig13_ps_vs_ts_time": ({}, {("scalar", 250): 16}),
    "fig14_ps_vs_ts_eta": ({}, {("scalar", 250): 80}),
    "fig15_mdp_alpha": ({}, {("goal", 126): 2}),
    "fig16_mdp_boost": ({}, {("goal", 126): 2}),
    "logit_regret": ({}, {("scalar", 250): 16}),
    "bitflip_demo": ({}, {("scalar", 125): 24}),
    "coinswap_belief": ({"grid_size": "11"}, {("scalar", 1): 32}),
}


class _Planned(Exception):
    """Raised with the payloads of the first run_trials call, before any runs."""


@pytest.mark.parametrize("name", _ROUTES)
def test_default_runs_route_their_cells_as_pinned(tmp_path, monkeypatch, name):
    assert sorted([*_ROUTES, "fig7_errors_vs_alpha", "fig8_optimal_alpha"]) == sorted(
        list_experiments())
    plan = sweep._plan

    def stop(cells, workers):
        raise _Planned(plan(cells, workers)[0])

    monkeypatch.delenv("CONTILAB_THREADS", raising=False)
    monkeypatch.setattr(sweep, "_plan", stop)
    overrides, routes = _ROUTES[name]
    with pytest.raises(_Planned) as planned:
        run_experiment(name, overrides, tmp_path, workers=2)
    assert Counter((_ROUTE[pair], len(trials))
                   for pair, _, trials, _ in planned.value.args[0]) == routes


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_every_runner_is_sent_the_table_of_its_own_cells(tmp_path, monkeypatch, name):
    # One protocol: each runner yields its cells once and is sent a SweepTable
    # of their rows, series cells (fig9, fig13) included.
    exp, seen = experiments._get(name), []

    def spy(params):
        runner = exp.runner(params)
        cells = next(runner)
        table = yield cells
        seen.append((cells, table))
        try:
            runner.send(table)
        except StopIteration as done:
            return done.value

    monkeypatch.setitem(experiments._REGISTRY, name, replace(exp, runner=spy))
    run_experiment(name, FAST_OVERRIDES[name], tmp_path, workers=1)
    [(cells, table)] = seen
    assert type(table) is sweep.SweepTable
    assert table.rows == [row for cfg, results in zip(cells, sweep.run_trials(cells, workers=1))
                          for row in sweep.cell_rows(cfg, results)]
    assert any(type(row) is sweep.SeriesRow for row in table.rows) == (name in (
        "fig9_idbd", "fig13_ps_vs_ts_time"))


def test_registry_names_and_uniqueness():
    names = list_experiments()
    assert names == EXPECTED_NAMES
    assert len(set(names)) == 11


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_dry_run_plans_the_cells_the_real_run_executes(tmp_path, capsys, monkeypatch, name):
    # At its defaults every experiment passes --dry-run, which plans the same
    # cells (series requests included) that the real run hands to sweep._plan;
    # the real run is stopped there, before any trial runs.
    plan, planned = sweep._plan, []

    def record(cells, workers):
        planned.append((list(cells), workers))
        return plan(cells, workers)

    def stop(*args):
        record(*args)
        raise _Planned()

    monkeypatch.delenv("CONTILAB_THREADS", raising=False)
    monkeypatch.setattr(experiments, "_plan", record)
    assert main(["run", name, "--dry-run", "--workers", "2", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{name}: config ok\n"
    monkeypatch.setattr(sweep, "_plan", stop)
    with pytest.raises(_Planned):
        run_experiment(name, out_dir=tmp_path, workers=2)
    assert len(planned) == 2 and planned[0] == planned[1]
    assert not any(tmp_path.iterdir())


def test_unknown_experiment_and_override_errors():
    with pytest.raises(ConfigurationError, match="unknown experiment"):
        run_experiment("fig99_nope", dry_run=True)
    with pytest.raises(ConfigurationError, match="valid keys"):
        run_experiment("fig2_lms_sweep", {"not_a_key": "1"}, dry_run=True)


def test_override_coercion():
    params = resolve_params("fig2_lms_sweep", {"trials": "7", "env.eta": "0.5",
                                               "alphas": "[0.1, 0.2]"})
    assert params["trials"] == 7
    assert params["env.eta"] == 0.5
    assert params["alphas"] == [0.1, 0.2]
    with pytest.raises(ConfigurationError, match="JSON"):
        resolve_params("fig2_lms_sweep", {"alphas": "0.1;0.2"})


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_experiment_writes_outputs(tmp_path, name):
    out = tmp_path / name
    paths = run_experiment(name, FAST_OVERRIDES[name], out, plot=True, workers=1)
    wrote = {p.name for p in paths}
    assert "results.csv" in wrote and "config.resolved" in wrote
    text = (out / "results.csv").read_text()
    header, columns = text.splitlines()[0:3:2], text.splitlines()[3]
    assert text.splitlines()[0] == f"# experiment: {name}"
    assert text.splitlines()[1].startswith("# seed: ")
    assert text.splitlines()[2].startswith("# contilab-version: ")
    assert columns.endswith("metric,mean,std,ci95,trials,error")
    resolved = (out / "config.resolved").read_text()
    assert "seed=" in resolved


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment("bitflip_demo", FAST_OVERRIDES["bitflip_demo"], a)
    run_experiment("bitflip_demo", FAST_OVERRIDES["bitflip_demo"], b)
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "config.resolved").read_bytes() == (b / "config.resolved").read_bytes()


# Small overrides of every registered experiment for the workers test, at
# which each simulated one plans at least two payloads at 2 workers. fig2's:
# one lockstep payload of 57 trials against two of about 28, each crossing
# two chunk seams of the ar1 x lms kernel.
_WORKERS_OVERRIDES = {
    **FAST_OVERRIDES,
    "fig2_lms_sweep": {"trials": "3", "horizon": "600"},
    "fig15_mdp_alpha": {**FAST_OVERRIDES["fig15_mdp_alpha"], "trials": "2"},
    "fig16_mdp_boost": {**FAST_OVERRIDES["fig16_mdp_boost"], "trials": "2"},
    "logit_regret": {"episodes": "12", "horizons": "[10, 30]"},
}


@pytest.mark.parametrize("name", list_experiments())
def test_bytes_do_not_depend_on_workers(tmp_path, monkeypatch, name):
    # Every file a run writes, plot included, is byte-equal at 1 and 2
    # workers; a 2-worker run that planned one payload would run serially
    # and prove nothing, so each simulated experiment must plan two or more.
    assert sorted(_WORKERS_OVERRIDES) == sorted(list_experiments())
    plan, planned = sweep._plan, []

    def record(cells, workers):
        payloads = plan(cells, workers)
        planned.append((workers, len(payloads[0])))
        return payloads

    monkeypatch.delenv("CONTILAB_THREADS", raising=False)
    monkeypatch.setattr(sweep, "_plan", record)
    outs = [tmp_path / f"w{workers}" for workers in (1, 2)]
    for workers, out in zip((1, 2), outs):
        run_experiment(name, _WORKERS_OVERRIDES[name], out, plot=True, workers=workers)
    if name not in ("fig7_errors_vs_alpha", "fig8_optimal_alpha"):
        pooled = [n for workers, n in planned if workers == 2]
        assert pooled and min(pooled) >= 2
    files = sorted(p.name for p in outs[0].iterdir())
    assert {"results.csv", "config.resolved"} <= set(files)
    assert files == sorted(p.name for p in outs[1].iterdir())
    for file in files:
        assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes(), file


def test_csv_values_have_12_significant_digits(tmp_path):
    out = tmp_path / "sig"
    run_experiment("logit_regret", FAST_OVERRIDES["logit_regret"], out)
    data_line = (out / "results.csv").read_text().splitlines()[4]
    mean_field = data_line.split(",")[2]
    mantissa = mean_field.lstrip("-0.").replace(".", "").replace("e-", "").replace("e", "")
    assert 10 <= len(mantissa) <= 13


def test_plot_flag_controls_svg(tmp_path):
    out = tmp_path / "p"
    paths = run_experiment("fig7_errors_vs_alpha", FAST_OVERRIDES["fig7_errors_vs_alpha"],
                           out, plot=False)
    assert not (out / "plot.svg").exists()
    paths = run_experiment("fig7_errors_vs_alpha", FAST_OVERRIDES["fig7_errors_vs_alpha"],
                           out, plot=True)
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[0] for line in out] == EXPECTED_NAMES
    assert [line.split(maxsplit=1)[1] for line in out] == [
        experiments._get(name).summary for name in EXPECTED_NAMES]


def test_cli_run_with_overrides(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(["run", "logit_regret", "--out", str(out), "--episodes=5",
                 "--horizons=[10]", "--seed=123"])
    assert code == 0
    assert (out / "results.csv").exists()
    assert "# seed: 123" in (out / "results.csv").read_text()
    assert "seed=123" in (out / "config.resolved").read_text()


def test_cli_error_codes(tmp_path, capsys):
    assert main(["run", "no_such_experiment", "--out", str(tmp_path)]) == 2
    assert main(["run", "logit_regret", "--bogus_key=3", "--out", str(tmp_path)]) == 2
    for workers in ("0", "-2"):  # also where no trial would run
        for argv in (["fig8_optimal_alpha"], ["fig8_optimal_alpha", "--dry-run"]):
            assert main(["run", *argv, "--workers", workers, "--out", str(tmp_path)]) == 2
    assert "workers must be >= 1, got -2" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()
    with pytest.raises(SystemExit):
        main(["run", "logit_regret", "positional_junk"])


_INVALID_CELL_ARGV = ["fig2_lms_sweep", "--trials=2", "--horizon=50", "--alphas=[0.2, 1.5]"]


def test_cli_invalid_cell_parameter_exits_2_without_csv(tmp_path, capsys):
    out = tmp_path / "bad"
    code = main(["run", *_INVALID_CELL_ARGV, "--out", str(out)])
    assert code == 2
    assert "alpha must lie in [0, 1]" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


_BAD_BANDIT = [
    ("--eta=1.5", "eta must lie in [0, 1], got 1.5"),
    ("--eta=-0.5", "eta must lie in [0, 1], got -0.5"),
    ("--sigma=-1", "sigma must be finite and nonnegative, got -1.0"),
    ("--sigma=nan", "sigma must be finite and nonnegative, got nan"),
    # the env takes noiseless observations; the samplers' 1/sigma^2 does not
    ("--sigma=0", "bad parameters for agent 'ts': sigma must be finite and positive, got 0.0"),
]


@pytest.mark.parametrize("override, message", _BAD_BANDIT)
def test_cli_bad_bandit_drift_or_noise_exits_2_without_csv(tmp_path, capsys, override, message):
    out = tmp_path / "bad"
    assert main(["run", "fig13_ps_vs_ts_time", "--trials=2", "--horizon=10", override,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.csv").exists()


_NON_FINITE_TRACKING_ENV = ["--env.sigma=nan", "--env.zeta=inf", "--env.sigma0=nan",
                            "--env.mu0=inf"]


@pytest.mark.parametrize("override", _NON_FINITE_TRACKING_ENV)
def test_cli_non_finite_tracking_env_exits_2_without_csv(tmp_path, capsys, override):
    out = tmp_path / "bad"
    assert main(["run", "fig2_lms_sweep", "--trials=2", "--horizon=10", "--alphas=[0.2]", override,
                 "--out", str(out)]) == 2
    assert "bad parameters for env 'ar1'" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


_BAD_CLOSED_FORM = [
    (["fig9_idbd", "--capacity=-1"], "capacity must be positive"),
    (["fig9_idbd", "--eta=1.5"], "eta must lie in (0, 1)"),
    (["fig7_errors_vs_alpha", "--capacity=-1"], "capacity must be positive"),
    (["fig8_optimal_alpha", "--sigma=0"], "sigma must be positive"),
    (["fig7_errors_vs_alpha", "--sigma=-0.5"], "noise scales must be nonnegative"),
    (["fig8_optimal_alpha", "--deltas=[-1]"], "noise scales must be nonnegative"),
    (["fig9_idbd", "--sigma=1e200", "--trials=1", "--horizon=10"],
     "bad parameters for optimal_alpha"),
    (["fig15_mdp_alpha", "--n_actions=0", "--trials=1"], "need at least one state and one action"),
    # sigma**2 underflows to zero, and to a subnormal whose inverse overflows.
    (["fig8_optimal_alpha", "--sigma=1e-200"], "bad parameters for optimal_alpha"),
    (["fig8_optimal_alpha", "--sigma=1e-160"], "bad parameters for optimal_alpha: non-finite result"),
    (["fig7_errors_vs_alpha", "--grid_points=-1"], "grid_points must be nonnegative, got -1"),
    (["coinswap_belief", "--grid_size=1"], "belief grid needs at least 2 points, got 1"),
    (["coinswap_belief", "--gamma=1.0"], "discount must lie in (0, 1), got 1.0"),
]


@pytest.mark.parametrize("argv, message", _BAD_CLOSED_FORM)
def test_cli_invalid_closed_form_parameter_exits_2_without_csv(tmp_path, capsys, argv, message):
    out = tmp_path / "bad"
    assert main(["run", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.csv").exists()


_BAD_PRIOR = [
    (["bitflip_demo", '--priors=[["beta", 0, 1]]'],
     "a beta prior needs two finite, positive parameters"),
    (["bitflip_demo", '--priors=[["beta", 0, 0]]'],
     "a beta prior needs two finite, positive parameters"),
    (["coinswap_belief", "--p1=1.5", "--grid_size=11"],
     "a fixed prior takes one probability in [0, 1]"),
    (["coinswap_belief", "--q2s=[0.5, 1.5]", "--grid_size=11"],
     "swap probability must lie in [0, 1]"),
]


@pytest.mark.parametrize("argv, message", _BAD_PRIOR)
def test_cli_bad_prior_exits_2_without_csv(tmp_path, capsys, monkeypatch, argv, message):
    def plan(*args):
        raise AssertionError("a bad config reached the planner")

    monkeypatch.setattr(experiments, "belief_policy_iteration", plan)
    out = tmp_path / "bad"
    assert main(["run", *argv, "--trials=2", "--horizon=10", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.csv").exists()


_COINSWAP_BAD_COUNT = [
    (["--policy_stride=0"], "policy_stride must be >= 1, got 0"),
    (["--policy_stride=-3"], "policy_stride must be >= 1, got -3"),
    (["--trials=0"], "trials must be >= 1, got 0"),
    (["--horizon=0"], "horizon must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv, message", _COINSWAP_BAD_COUNT)
def test_cli_coinswap_bad_count_exits_2_before_planning(tmp_path, capsys, monkeypatch, argv,
                                                        message):
    def plan(*args):
        raise AssertionError("a bad config reached the planner")

    monkeypatch.setattr(experiments, "belief_policy_iteration", plan)
    out = tmp_path / "bad"
    assert main(["run", "coinswap_belief", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.csv").exists()


class _GridNumpy:
    """numpy as experiments sees it, except that its arange and linspace
    raise, before allocating anything, on a grid of more than 10,000 points."""

    def __getattr__(self, name):
        return getattr(np, name)

    def arange(self, start, stop, step):
        if (stop - start) / step > 10_000:
            raise AssertionError(f"np.arange of {(stop - start) / step:g} points")
        return np.arange(start, stop, step)

    def linspace(self, start, stop, num):
        if num > 10_000:
            raise AssertionError(f"np.linspace of {num} points")
        return np.linspace(start, stop, num)


def test_fig8_finest_alpha_step_under_the_grid_bound_passes_the_dry_run(capsys):
    # 1e-4 makes 9,999 grid points, the most any step makes under the bound.
    assert main(["run", "fig8_optimal_alpha", "--alpha_step=1e-4", "--dry-run"]) == 0
    assert capsys.readouterr().out == "fig8_optimal_alpha: config ok\n"


# Every bad config above, and one per experiment that passed --dry-run while
# its real run exited 2 when --dry-run only resolved the parameters (fig9's
# and coinswap's are in the tables above).
_ONE_PATH = [
    (["fig2_lms_sweep", "--env.eta=1.5"], "bad parameters for env 'ar1': eta must lie in [0, 1]"),
    (["fig7_errors_vs_alpha", "--sigma=-1"],
     "bad parameters for stability_errors: noise scales must be nonnegative"),
    (["fig8_optimal_alpha", "--alpha_step=0"], "alpha_step must lie in (0, 1), got 0.0"),
    # alpha grids of more than 10,000 points (_GridNumpy keeps them from being allocated)
    (["fig8_optimal_alpha", "--alpha_step=1e-9"],
     "alpha_step 1e-09 makes more than 10000 grid points"),
    (["fig8_optimal_alpha", "--alpha_step=9.999e-5"],
     "alpha_step 9.999e-05 makes more than 10000 grid points"),
    (["fig7_errors_vs_alpha", "--grid_points=1000000000"],
     "grid_points must be at most 10000, got 1000000000"),
    # Var(U) * Var(Y) overflows from sigma of about 1e77: fig8's real run failed from
    # there and fig7's from 1e154, while both dry runs passed
    *[(["fig8_optimal_alpha", f"--sigma={sigma}", *argv],
       "bad parameters for total_stability_error: noise scales too large")
      for sigma, argv in (("1e78", ["--alpha_step=0.2"]), ("1e78", []), ("1e150", []))],
    (["fig7_errors_vs_alpha", "--sigma=1e154"],
     "bad parameters for stability_errors: noise scales too large"),
    (["fig13_ps_vs_ts_time", "--eta=1.5"], "bad parameters for env 'ar1_bandit': eta must lie"),
    (["fig14_ps_vs_ts_eta", "--sigma=0"], "bad parameters for agent 'ts': sigma must be finite"),
    (["fig15_mdp_alpha", "--n_states=0"], "need at least one state and one action, got 0 x 3"),
    (["fig16_mdp_boost", "--discount=1.5"], "planning discount must lie in (0, 1), got 1.5"),
    (["logit_regret", "--grid_size=1"], "bad parameters for agent 'logit_predictor'"),
    (["bitflip_demo", '--priors=[["beta", 0, 1]]'], "a beta prior needs two finite, positive"),
    (_INVALID_CELL_ARGV, "alpha must lie in [0, 1]"),
    *[(["fig13_ps_vs_ts_time", "--trials=2", "--horizon=10", override], message)
      for override, message in _BAD_BANDIT],
    *[(["fig2_lms_sweep", "--trials=2", "--horizon=10", "--alphas=[0.2]", override],
       "bad parameters for env 'ar1'") for override in _NON_FINITE_TRACKING_ENV],
    *_BAD_CLOSED_FORM,
    *[([*argv, "--trials=2", "--horizon=10"], message) for argv, message in _BAD_PRIOR],
    *[(["coinswap_belief", *argv], message) for argv, message in _COINSWAP_BAD_COUNT],
    # trials and seed are overrides like any other: one type check, one key check
    (["fig2_lms_sweep", "--trials=2.5"], "override 'trials' must be int"),
    (["fig2_lms_sweep", "--seed=1e3"], "override 'seed' must be int"),
    (["fig7_errors_vs_alpha", "--trials=3"], "unknown override 'trials' for fig7_errors_vs_alpha"),
    (["fig2_lms_sweep", "--tri=3"], "unknown override 'tri'"),
]


@pytest.mark.parametrize("argv, message", _ONE_PATH,
                         ids=[" ".join(argv) for argv, _ in _ONE_PATH])
def test_bad_config_fails_the_dry_run_as_the_real_run(tmp_path, capsys, monkeypatch, argv,
                                                      message):
    # A dry run checks what the real run checks: both exit 2 with the same
    # message and write no CSV, and neither starts a payload or evaluates a
    # stability error.
    def refuse(*args, **kwargs):
        raise AssertionError("a bad config reached a payload or a stability error")

    monkeypatch.setattr(sweep, "_run_batch", refuse)
    monkeypatch.setattr(it, "stability_errors", refuse)
    monkeypatch.setattr(it, "total_stability_error", refuse)
    monkeypatch.setattr(experiments, "np", _GridNumpy())
    errors = []
    for dry_run in ([], ["--dry-run"]):
        out = tmp_path / f"out{len(dry_run)}"
        assert main(["run", *argv, *dry_run, "--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
        assert not (out / "results.csv").exists()
    assert errors[0] == errors[1]
    assert message in errors[0]


def test_cli_bitflip_dyadic_prior_predicts_the_likelier_bit(tmp_path):
    # A dyadic prior's bias is 1 with probability q, so its mean is q.
    out = tmp_path / "dyadic"
    assert main(["run", "bitflip_demo", '--priors=[["dyadic", 0.25]]', "--trials=4",
                 "--horizon=50", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[4:]]
    assert ["dyadic-0.25", "theory_accuracy", "0.75", "0", "0", "0", ""] in rows


@pytest.mark.parametrize("alpha_step", ["0", "-0.1", "1", "1.5", "nan"])
def test_cli_fig8_alpha_step_outside_unit_interval_exits_2(tmp_path, capsys, alpha_step):
    out = tmp_path / "bad"
    assert main(["run", "fig8_optimal_alpha", f"--alpha_step={alpha_step}",
                 "--out", str(out)]) == 2
    assert "alpha_step must lie in (0, 1)" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("sigma, row", [
    # 1 - alpha* is about 1e-200 here: 1 is the correctly rounded alpha*.
    ("1e-100", "eta,0.5,,,alpha_star_closed_form,1,0,0,0,"),
    ("1e-4", "eta,0.05,,,alpha_star_closed_form,0.999999999499,0,0,0,"),
], ids=["1e-100", "1e-4"])
def test_cli_fig8_tiny_sigma_writes_alpha_star_near_one(tmp_path, sigma, row):
    out = tmp_path / "tiny"
    assert main(["run", "fig8_optimal_alpha", f"--sigma={sigma}", "--etas=[0.05, 0.5]",
                 "--alpha_step=0.2", "--capacities=[1.0]", "--deltas=[0.0]",
                 "--out", str(out)]) == 0
    assert row in (out / "results.csv").read_text().splitlines()


@pytest.mark.parametrize("name, key", [
    (name, key) for name in list_experiments()
    for key, value in experiments._get(name).defaults.items()
    if isinstance(value, (int, float))])
def test_unparsable_numeric_override_is_a_configuration_error(name, key):
    with pytest.raises(ConfigurationError, match=f"override '{re.escape(key)}' must be"):
        resolve_params(name, {key: "abc"})


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
@pytest.mark.parametrize("argv, message", [
    (["fig7_errors_vs_alpha", "--grid_points=2.5"], "override 'grid_points' must be int"),
    (["fig2_lms_sweep", "--env.eta=abc"], "override 'env.eta' must be float"),
    (["fig2_lms_sweep", "--horizon=1e3"], "override 'horizon' must be int"),
    (["fig8_optimal_alpha", '--deltas=["x"]'], "override 'deltas' must be a JSON list of numbers"),
    (["fig7_errors_vs_alpha", "--etas=[null]"], "override 'etas' must be a JSON list of numbers"),
    (["fig14_ps_vs_ts_eta", '--etas=["a"]'], "override 'etas' must be a JSON list of numbers"),
    (["fig2_lms_sweep", "--alphas=[true]"], "override 'alphas' must be a JSON list of numbers"),
    (["logit_regret", "--horizons=[10.5]"], "override 'horizons' must be a JSON list of ints"),
    (["logit_regret", "--horizons=[true]"], "override 'horizons' must be a JSON list of ints"),
])
def test_cli_unparsable_numeric_override_exits_2(tmp_path, capsys, argv, message, dry_run):
    out = tmp_path / "bad"
    assert main(["run", *argv, *dry_run, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("name, overrides, message", [
    ("fig2_lms_sweep", {"alphas": [True], "trials": 2, "horizon": 10},
     "override 'alphas' must be a JSON list of numbers"),
    ("fig7_errors_vs_alpha", {"grid_points": 20.0}, "override 'grid_points' must be int"),
    ("fig7_errors_vs_alpha", {"grid_points": np.int64(20)}, "override 'grid_points' must be int"),
    ("fig2_lms_sweep", {"env.eta": True}, "override 'env.eta' must be float"),
    ("logit_regret", {"horizons": [10.5]}, "override 'horizons' must be a JSON list of ints"),
], ids=["alphas-bool", "grid_points-float", "grid_points-numpy", "env.eta-bool", "horizons-float"])
def test_library_override_of_a_wrong_type_is_a_configuration_error(tmp_path, name, overrides,
                                                                    message):
    out = tmp_path / "bad"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        run_experiment(name, overrides, out)
    assert not (out / "results.csv").exists()


def test_library_overrides_are_kept_as_given():
    # The benchmark passes these; an int for a float default stays an int.
    for name, overrides in (("fig2_lms_sweep", {"trials": 4, "horizon": 40_000, "seed": 7}),
                            ("fig7_errors_vs_alpha", {"grid_points": 20}),
                            ("fig8_optimal_alpha", {"alpha_step": 0.02, "sigma": 1,
                                                    "deltas": [0, 0.2]})):
        params = resolve_params(name, overrides)
        assert all(params[key] is value for key, value in overrides.items())


@pytest.mark.parametrize("argv, metric, cells", [
    (["fig13_ps_vs_ts_time", "--trials=4", "--sigma=1e308"], "cum_avg_reward", 2),
    (["fig14_ps_vs_ts_eta", "--trials=4", "--sigma=1e308"], "average_reward", 10),
    (["fig9_idbd", "--trials=2", "--horizon=100", "--zeta_meta=1e308"], "final_alpha", 2),
    # Some trials here have finite rewards whose sum overflows.
    (["fig14_ps_vs_ts_eta", "--trials=4", "--sigma=1e308", "--horizon=20"], "average_reward", 10),
])
def test_cli_every_trial_failing_exits_2_with_nan_rows(tmp_path, capsys, argv, metric, cells):
    out = tmp_path / "failed"
    assert main(["run", *argv, "--out", str(out)]) == 2
    assert f"every cell of {argv[0]} failed" in capsys.readouterr().err
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[4:]]
    failed = [row for row in rows if row[-1]]
    assert len(failed) == cells
    for row in failed:
        assert row[-6:-1] == [metric, "nan", "nan", "nan", "0"]
        assert "trials failed (NumericError: " in row[-1]


def test_cli_fig13_with_one_cell_failed_exits_0(tmp_path):
    # At this seed every ps trial fails and one ts trial does not.
    out = tmp_path / "ps_failed"
    assert main(["run", "fig13_ps_vs_ts_time", "--trials=4", "--horizon=20", "--sigma=1e308",
                 "--eta=0.7", "--seed=8", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[4:]]
    assert [row for row in rows if row[0] == "ps"] == [
        ["ps", "", "cum_avg_reward", "nan", "nan", "nan", "0",
         "4/4 trials failed (NumericError: non-finite reward inf at step 1)"]]
    ts = [row for row in rows if row[0] == "ts"]
    assert [row[1] for row in ts] == [str(t) for t in range(1, 21)] * 2
    assert all(math.isfinite(float(row[3])) for row in ts)
    assert all(row[-2:] == ["0", "3/4 trials failed (NumericError: reward sum nan is not finite "
                                 "after 20 steps)"] for row in ts)


def test_cli_fig13_with_one_cell_failed_and_one_clean_exits_0(tmp_path):
    # At this seed both ps trials fail at their first step and neither ts trial does:
    # the ts cell's series rows carry no failure note and still count as data.
    # The plot holds one point, the ts running average near 7.8e307.
    out = tmp_path / "ps_failed_ts_clean"
    assert main(["run", "fig13_ps_vs_ts_time", "--trials=2", "--horizon=1", "--sigma=1e308",
                 "--eta=0.7", "--seed=44", "--plot", "--out", str(out)]) == 0
    assert "polyline" in (out / "plot.svg").read_text()
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[4:]]
    assert [row for row in rows if row[0] == "ps"] == [
        ["ps", "", "cum_avg_reward", "nan", "nan", "nan", "0",
         "2/2 trials failed (NumericError: non-finite reward inf at step 0)"]]
    ts = [row for row in rows if row[0] == "ts"]
    assert [row[2] for row in ts] == ["cum_avg_reward", "greedy_rate"]
    assert all(math.isfinite(float(row[3])) and row[-2:] == ["0", ""] for row in ts)


def test_results_csv_is_written_row_by_row(tmp_path):
    # Two series rows shaped like fig9's at bench size (two variants of 2,000
    # recorded steps), 4,000 lines. Written line by line the traced peak is
    # about 30 KB; building the whole text first held it three times over,
    # about 1,080 KB.
    rows = [sweep.SeriesRow({"variant": variant}, "mean_alpha", list(range(25, 50_001, 25)),
                            array("d", [0.1 + i * 1e-7 for i in range(2_000)]))
            for variant in ("capacity", "standard")]
    path = tmp_path / "results.csv"
    tracemalloc.start()
    try:
        write_results_csv(path, "fig9_idbd", 20_240_902, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    lines = path.read_text().splitlines()
    assert len(lines) == 4 + 4_000
    assert lines[3:5] == ["variant,t,metric,mean,std,ci95,trials,error",
                          "capacity,25,mean_alpha,0.1,0,0,0,"]
    assert lines[-1] == "standard,50000,mean_alpha,0.1001999,0,0,0,"


_MEANS = st.lists(st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
                            st.floats()), min_size=1, max_size=5)
_NOTES = st.sampled_from([None, "1/3 trials failed (NumericError: boom)",
                          "4/5 trials failed (DegenerateMdpError: stuck)"])
_COORDS = st.dictionaries(st.sampled_from(["a", "b", "c"]),
                          st.one_of(st.integers(-3, 3), st.floats(), st.sampled_from(["x", "yz"])),
                          max_size=3)


@st.composite
def _series_row(draw):
    means = draw(_MEANS)
    stride = draw(st.integers(1, 50))
    coords = draw(_COORDS)
    coords.update(draw(st.dictionaries(st.just("g"), st.sampled_from([1, 2.5, "p"]),
                                       min_size=1)))  # "g" at any position
    return sweep.SeriesRow(dict(draw(st.permutations(list(coords.items())))),
                           draw(st.sampled_from(["s", "u"])),
                           list(range(stride, stride * (len(means) + 1), stride)),
                           array("d", means), draw(_NOTES))


_SCALAR_ROW = st.builds(sweep.SweepRow, _COORDS, st.sampled_from(["m", "s"]), st.floats(),
                        st.floats(), st.floats(), st.integers(0, 9), _NOTES)


@settings(max_examples=150, deadline=None)
@given(rows=st.tuples(_SCALAR_ROW, st.lists(st.one_of(_SCALAR_ROW, _series_row()), max_size=5),
                      _series_row(), _SCALAR_ROW).map(lambda r: [r[0], *r[1], r[2], r[3]]))
def test_series_rows_write_and_plot_the_bytes_of_one_row_per_step(tmp_path_factory, rows):
    # A SeriesRow stands for one row per recorded step with the step in "t":
    # the CSV and the plot built from it equal those of the per-step rows.
    out = tmp_path_factory.mktemp("series")
    got = write_results_csv(out / "got.csv", "x", 3, rows).read_bytes()
    assert got == per_point_csv(out / "want.csv", "x", 3, rows).read_bytes()
    for metric in ("s", "u"):
        series = experiments._time_series(rows, "g", metric, "{} run")
        want = per_point_time_series(rows, "g", metric, "{} run")
        assert repr(series) == repr(want)  # repr: NaN equals NaN, -0.0 differs from 0.0
        assert (write_line_plot(out / "got.svg", "t", "x", "y", series).read_bytes()
                == write_line_plot(out / "want.svg", "t", "x", "y", want).read_bytes())


def test_series_rows_of_a_fig9_shaped_sweep_stay_small(tmp_path):
    # 2 cells x 4 trials x 2,000 recorded steps, through cell_rows and the
    # CSV: about 250 KB. One SweepRow and coords dict a step took 1.6 MB.
    horizon, steps = 50_000, 2_000
    cells = [sweep.ExperimentConfig({"kind": "ar1"}, {"kind": "idbd"}, horizon, trials=4,
                                    coords={"variant": v}, metrics=("final_alpha",),
                                    series=(("mean_alpha", "alpha"),))
             for v in ("capacity", "standard")]
    results = [[sweep.TrialResult(i, TrajectorySummary(
        horizon, array("d", [0.0] * steps),
        {"alpha": array("d", [0.1 + (c + i) * 1e-3 + k * 1e-7 for k in range(steps)])},
        {"average_reward": -1.0, "final_alpha": 0.1 + i * 1e-3})) for i in range(4)]
        for c in range(2)]
    path = tmp_path / "results.csv"
    tracemalloc.start()
    try:
        rows = [row for cfg, res in zip(cells, results) for row in sweep.cell_rows(cfg, res)]
        write_results_csv(path, "fig9_idbd", 0, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 400 * 1024
    assert [type(row) for row in rows] == [sweep.SeriesRow, sweep.SweepRow] * 2
    lines = path.read_text().splitlines()
    assert len(lines) == 4 + 2 * steps + 2
    assert lines[4:6] == ["capacity,25,mean_alpha,0.1015,0,0,0,",
                          "capacity,50,mean_alpha,0.1015001,0,0,0,"]
    assert lines[4 + steps] == "capacity,,final_alpha,0.1015,0.00129099444874,0.00126515131188,4,"


@pytest.mark.parametrize("value", [7.8e307, 1.7976931348623157e308, -1.7976931348623157e308,
                                   -2.0**53, 5e15, 1e16, 0.0, 5.0])
def test_plot_of_a_constant_series_has_finite_ticks(tmp_path, value):
    # An empty range is widened to a positive, finite width, also where
    # adding 1 cannot move the value, and the ticks stop where the step is
    # below the resolution of the values or they would overflow.
    path = write_line_plot(tmp_path / "plot.svg", "t", "x", "y", [("a", [value], [value])])
    labels = re.findall(r'text-anchor="end">([^<]*)<', path.read_text())
    assert labels and all(math.isfinite(float(v)) for v in labels)


@pytest.mark.parametrize("ys, ticks", [
    # 1e308 - (-1e308) overflows; widths, tick steps and pixel maps are
    # taken on halved values.
    ([-1e308, 1e308], ["-1e+308", "0", "1e+308"]),
    # A quarter width that is 0 or subnormal has no tick step; such a range
    # is widened like an empty one.
    ([0, 5e-324], ["0", "0.5", "1"]),
    ([0, 2e-323], ["0", "0.5", "1"]),
])
def test_plot_of_extreme_spans_has_finite_coordinates(tmp_path, ys, ticks):
    svg = write_line_plot(tmp_path / "plot.svg", "t", "x", "y", [("a", [0, 1], ys)]).read_text()
    coords = re.findall(r' (?:x|y|x1|x2|y1|y2)="([^"]*)"', svg)
    coords += [v for pts in re.findall(r'points="([^"]*)"', svg) for p in pts.split()
               for v in p.split(",")]
    assert len(coords) > 20 and all(math.isfinite(float(v)) for v in coords)
    assert re.findall(r'text-anchor="end">([^<]*)<', svg) == ticks


@pytest.mark.parametrize("argv", [
    ["fig13_ps_vs_ts_time", "--trials=4", "--horizon=20", "--sigma=3e307", "--eta=0.7",
     "--seed=3"],
    ["fig9_idbd", "--trials=4", "--horizon=100", "--sigma=6e152"],
])
def test_cli_series_rows_carry_partial_failure_notes(tmp_path, argv):
    # Some trials of every cell overflow their reward sum and some do not.
    out = tmp_path / "partial"
    assert main(["run", *argv, "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[4:]]
    rows = [row for row in rows if row[0] != "reference"]
    assert rows
    for row in rows:
        assert math.isfinite(float(row[-5]))
        note = re.fullmatch(r"([123])/4 trials failed \(NumericError: reward sum .+\)", row[-1])
        assert note
        if row[-6] == "final_alpha":
            assert int(note[1]) + int(row[-2]) == 4


def test_cli_fig7_empty_grid_writes_no_rows(tmp_path):
    out = tmp_path / "empty"
    assert main(["run", "fig7_errors_vs_alpha", "--out", str(out), "--grid_points=0"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert [line for line in lines if not line.startswith("#")] == [
        "metric,mean,std,ci95,trials,error"]


def test_cli_dry_run(capsys):
    assert main(["run", "fig2_lms_sweep", "--dry-run", "--trials=3"]) == 0
    assert "config ok" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--trials", "3"], ["--seed", "123"]])
def test_cli_space_separated_override_exits_2_with_the_key_value_hint(tmp_path, capsys, argv):
    out = tmp_path / "bad"
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig2_lms_sweep", *argv, "--out", str(out)])
    assert exc.value.code == 2
    assert "overrides look like --key=value" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_fig7_rows_are_analytic(tmp_path):
    out = tmp_path / "f7"
    run_experiment("fig7_errors_vs_alpha", FAST_OVERRIDES["fig7_errors_vs_alpha"], out)
    lines = (out / "results.csv").read_text().splitlines()[4:]
    assert all(line.split(",")[-2] == "0" for line in lines)  # no Monte Carlo trials
    metrics = {line.split(",")[2] for line in lines}
    assert metrics == {"forgetting", "implasticity", "total"}


def _per_point_stability_errors(alpha, eta, sigma, delta, future=None):
    """``it.stability_errors`` on a grid, one point at a time on the dense oracle."""
    alphas, deltas = np.broadcast_arrays(np.atleast_1d(alpha), np.atleast_1d(delta))
    pairs = [dense_stability_errors(a, eta, sigma, d, future) for a, d in zip(alphas, deltas)]
    return np.array([f for f, _ in pairs]), np.array([i for _, i in pairs])


def _per_point_total_stability_error(alpha, eta, sigma, delta, future=None):
    """``it.total_stability_error`` on a grid as the dense oracle's f + i per point."""
    forgetting, implasticity = _per_point_stability_errors(alpha, eta, sigma, delta, future)
    return forgetting + implasticity


# The engine each analytic study calls, and its per-point dense stand-in.
_ANALYTIC_ENGINES = {
    "fig7_errors_vs_alpha": ("stability_errors", _per_point_stability_errors),
    "fig8_optimal_alpha": ("total_stability_error", _per_point_total_stability_error),
}


@pytest.mark.parametrize("name, overrides, engine_calls", [
    # one engine call per eta
    ("fig7_errors_vs_alpha", {"grid_points": "6", "etas": "[0.5, 0.9]"}, 2),
    # one engine call per capacity and one per fixed delta
    ("fig8_optimal_alpha", {"alpha_step": "0.1", "etas": "[0.5]", "capacities": "[0.5, 2.0]",
                            "deltas": "[0.0, 0.3]"}, 4),
])
def test_analytic_rows_equal_the_per_point_oracle(monkeypatch, name, overrides, engine_calls):
    # The experiments look their engine up on `it` at call time with the
    # positional signature the benchmark's tracer wraps.
    engine_name, per_point = _ANALYTIC_ENGINES[name]
    engine, calls = getattr(it, engine_name), []

    def counted(alpha, eta, sigma, delta, future=None):
        calls.append(eta)
        return engine(alpha, eta, sigma, delta, future)

    params = resolve_params(name, overrides)
    monkeypatch.setattr(it, engine_name, counted)
    rows = runner_result(name, params).rows
    assert len(calls) == engine_calls
    monkeypatch.setattr(it, engine_name, per_point)
    assert runner_result(name, params).rows == rows


@pytest.mark.parametrize("size, alpha_step", [("full", "0.02"), ("smoke", "0.1")])
def test_fig8_bytes_equal_the_benchmark_reference(tmp_path, size, alpha_step):
    # The benchmark's analytic workload runs fig8 at these sizes and checks
    # its bytes against these files.
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / size / "analytic"
    run_experiment("fig8_optimal_alpha", {"alpha_step": alpha_step}, tmp_path, plot=False)
    assert (tmp_path / "results.csv").read_bytes() == \
        (reference / "fig8_optimal_alpha.csv").read_bytes()


def test_fig7_bytes_equal_the_benchmark_reference(tmp_path):
    # fig7's bytes follow the OpenBLAS thread count, which is read when numpy
    # loads, so the run gets a fresh interpreter with the count the benchmark
    # runs at on a 2-core machine.
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv.pop(1)); from contilab.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), "run", "fig7_errors_vs_alpha",
         "--grid_points=3", "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "2"},
        timeout=120)
    assert done.returncode == 0, done.stderr
    reference = root / "bench" / "reference" / "smoke" / "analytic" / "fig7_errors_vs_alpha.csv"
    assert (tmp_path / "results.csv").read_bytes() == reference.read_bytes()


def test_fig8_argmins_minimize_the_dense_total_error():
    overrides = {"alpha_step": "0.1", "etas": "[0.5]", "capacities": "[0.5, 2.0]",
                 "deltas": "[0.0, 0.3]"}
    params = resolve_params("fig8_optimal_alpha", overrides)
    rows = runner_result("fig8_optimal_alpha", params).rows
    got = {(r.coords.get("capacity"), r.coords.get("delta"), r.metric): r.mean for r in rows}
    alphas = np.arange(0.1, 1.0, 0.1)

    def argmin(deltas):
        totals = [sum(dense_stability_errors(a, 0.9, 0.5, d)) for a, d in zip(alphas, deltas)]
        return float(alphas[int(np.argmin(totals))])

    for cap in (0.5, 2.0):
        deltas = [math.sqrt(it.delta_star(a, 0.9, 0.5, cap)) for a in alphas]
        assert got[(cap, None, "alpha_argmin")] == argmin(deltas)
    for delta in (0.0, 0.3):
        assert got[(None, delta, "alpha_tilde")] == argmin([delta] * len(alphas))


def test_bench_tracing_patches_only_names_that_exist():
    # bench/tracing.py replaces module attributes of contilab by name (e.g.
    # experiments.monte_carlo_sweep, sweep.run_trajectory, envs.goal_reward_scale,
    # agents.delta_star), reading each first; a rename would break only traced
    # benchmark runs.
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import tracing; "
            "tracing._install(tracing.Tracer(), tracing._Recorder(), proxies=True)")
    done = subprocess.run([sys.executable, "-c", code, str(root / "bench"), str(root / "src")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
