import math
from pathlib import Path

import numpy as np
import pytest
from _oracles import stability_errors as dense_stability_errors

from contilab import experiments
from contilab import infotheory as it
from contilab.cli import main
from contilab.errors import ConfigurationError
from contilab.experiments import list_experiments, resolve_params, run_experiment

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


def test_registry_names_and_uniqueness():
    names = list_experiments()
    assert names == EXPECTED_NAMES
    assert len(set(names)) == 11


def test_every_experiment_passes_dry_run_validation():
    for name in list_experiments():
        assert run_experiment(name, dry_run=True) == []


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
    assert out == EXPECTED_NAMES


def test_cli_run_with_overrides(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(["run", "logit_regret", "--out", str(out), "--episodes=5",
                 "--horizons=[10]", "--seed", "123"])
    assert code == 0
    assert (out / "results.csv").exists()
    assert "# seed: 123" in (out / "results.csv").read_text()
    assert "seed=123" in (out / "config.resolved").read_text()


def test_cli_error_codes(tmp_path, capsys):
    assert main(["run", "no_such_experiment", "--out", str(tmp_path)]) == 2
    assert main(["run", "logit_regret", "--bogus_key=3", "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit):
        main(["run", "logit_regret", "positional_junk"])


def test_cli_invalid_cell_parameter_exits_2_without_csv(tmp_path, capsys):
    out = tmp_path / "bad"
    code = main(["run", "fig2_lms_sweep", "--out", str(out), "--trials=2", "--horizon=50",
                 "--alphas=[0.2, 1.5]"])
    assert code == 2
    assert "alpha must lie in [0, 1]" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["fig9_idbd", "--capacity=-1"], "capacity must be positive"),
    (["fig9_idbd", "--eta=1.5"], "eta must lie in (0, 1)"),
    (["fig7_errors_vs_alpha", "--capacity=-1"], "capacity must be positive"),
    (["fig8_optimal_alpha", "--sigma=0"], "sigma must be positive"),
    (["fig7_errors_vs_alpha", "--sigma=-0.5"], "noise scales must be nonnegative"),
    (["fig8_optimal_alpha", "--deltas=[-1]"], "noise scales must be nonnegative"),
])
def test_cli_invalid_closed_form_parameter_exits_2_without_csv(tmp_path, capsys, argv, message):
    out = tmp_path / "bad"
    assert main(["run", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_cli_fig7_empty_grid_writes_no_rows(tmp_path):
    out = tmp_path / "empty"
    assert main(["run", "fig7_errors_vs_alpha", "--out", str(out), "--grid_points=0"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert [line for line in lines if not line.startswith("#")] == [
        "metric,mean,std,ci95,trials,error"]


def test_cli_dry_run(capsys):
    assert main(["run", "fig2_lms_sweep", "--dry-run", "--trials", "3"]) == 0
    assert "config ok" in capsys.readouterr().out


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


@pytest.mark.parametrize("name, overrides, engine_calls", [
    # one engine call per eta
    ("fig7_errors_vs_alpha", {"grid_points": "6", "etas": "[0.5, 0.9]"}, 2),
    # one engine call per capacity and one per fixed delta
    ("fig8_optimal_alpha", {"alpha_step": "0.1", "etas": "[0.5]", "capacities": "[0.5, 2.0]",
                            "deltas": "[0.0, 0.3]"}, 4),
])
def test_analytic_rows_equal_the_per_point_oracle(monkeypatch, name, overrides, engine_calls):
    # The experiments look it.stability_errors up at call time with the
    # positional signature the benchmark's tracer wraps.
    engine, calls = it.stability_errors, []

    def counted(alpha, eta, sigma, delta, future=None):
        calls.append(eta)
        return engine(alpha, eta, sigma, delta, future)

    params = resolve_params(name, overrides)
    runner = experiments._get(name).runner
    monkeypatch.setattr(it, "stability_errors", counted)
    rows = runner(params, None).rows
    assert len(calls) == engine_calls
    monkeypatch.setattr(it, "stability_errors", _per_point_stability_errors)
    assert runner(params, None).rows == rows


def test_fig8_argmins_minimize_the_dense_total_error():
    overrides = {"alpha_step": "0.1", "etas": "[0.5]", "capacities": "[0.5, 2.0]",
                 "deltas": "[0.0, 0.3]"}
    rows = experiments._get("fig8_optimal_alpha").runner(
        resolve_params("fig8_optimal_alpha", overrides), None).rows
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
