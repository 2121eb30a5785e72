"""Experiment registry: each entry reproduces one quantitative study as a
seeded, deterministic CSV (plus an optional SVG).

Each runner is a generator on the resolved parameters. It makes every check
and builds every cell, each saying which rows it reports, before its one
yield of the cells; it is sent their ``monte_carlo_sweep`` table and only
aggregates after it. :func:`run_experiment` alone runs trials, and a dry run
plans the cells and runs none. fig7 and fig8 yield no cells, before any
stability error is evaluated.

Trial counts default to desk scale; the larger published-scale counts are
available through overrides (e.g. ``--trials``, ``--horizon``). Analytic
experiments (fig7, fig8) emit closed-form values with no Monte Carlo, shown
as rows with zero trials. Every simulated trajectory runs through
``sweep.run_trials``; logit_regret too, with one cell per horizon whose
reward (``LogitEnv``) is the log-loss gap to the predictor that knows the
latent logit, so its regret is minus the average reward.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Generator, Sequence

import numpy as np

from . import infotheory as it
from .envs import build_env, prior_mean
from .errors import ConfigurationError
from .mdp_tools import belief_policy_iteration
from .output import write_config_resolved, write_line_plot, write_results_csv
from .sweep import (ExperimentConfig, SeriesRow, SweepRow, SweepTable, _plan, monte_carlo_sweep,
                    resolve_workers)
from .sweep import run_trials  # noqa: F401 -- only for bench/tracing.py's wrap (ROADMAP item 18)


@dataclass
class ExperimentResult:
    rows: list[SweepRow | SeriesRow]
    plot: tuple[str, str, str, list] | None = None  # (title, xlabel, ylabel, series)


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    summary: str
    defaults: dict
    runner: Callable[[dict], Generator[Sequence[ExperimentConfig], SweepTable, ExperimentResult]]


_REGISTRY: dict[str, ExperimentDef] = {}
_MAX_GRID = 10_000  # most points of an analytic alpha grid (fig7, fig8)


def _register(name, summary, defaults):
    def deco(fn):
        _REGISTRY[name] = ExperimentDef(name, summary, defaults, fn)
        return fn

    return deco


def list_experiments() -> list[str]:
    """Registered experiment names."""
    return list(_REGISTRY)


def _get(name: str) -> ExperimentDef:
    if name not in _REGISTRY:
        raise ConfigurationError(f"unknown experiment {name!r}; known: {', '.join(_REGISTRY)}")
    return _REGISTRY[name]


def _numbers(kinds: set) -> tuple[set, str]:
    """The types a number whose default is of ``kinds`` may take, and their
    name: an int default takes only ints, a float one ints and floats; a bool
    is never a number."""
    return ({int}, "ints") if kinds == {int} else ({int, float}, "numbers")


def _coerce(key: str, default, raw):
    """The override ``raw`` of the parameter whose default is ``default``.

    A string is parsed as the CLI passes it; any other value is a library
    caller's and is kept as given, unconverted. Either way a number, and each
    element of a list of numbers, must be of a type :func:`_numbers` allows.
    """
    if isinstance(default, (int, float)):
        if isinstance(raw, str):
            try:
                return type(default)(raw)
            except ValueError:
                pass
        elif type(raw) in _numbers({type(default)})[0]:
            return raw
        raise ConfigurationError(f"override {key!r} must be {type(default).__name__}, got {raw!r}")
    if isinstance(default, (list, tuple)):
        value = raw
        if isinstance(raw, str):
            try:
                value = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"override {key!r} must be a JSON list, got {raw!r}") from exc
        if not isinstance(value, list):
            raise ConfigurationError(f"override {key!r} must be a JSON list, got {raw!r}")
        kinds = {type(v) for v in default}
        if kinds <= {int, float}:  # numbers, kept as parsed: an int is part of a cell key
            allowed, name = _numbers(kinds)
            if any(type(v) not in allowed for v in value):  # bool, str, null, list
                raise ConfigurationError(
                    f"override {key!r} must be a JSON list of {name}, got {raw!r}")
        return value
    return raw


def resolve_params(name: str, overrides: dict | None = None) -> dict:
    exp = _get(name)
    params = dict(exp.defaults)
    for key, raw in (overrides or {}).items():
        if key not in params:
            valid = ", ".join(sorted(params))
            raise ConfigurationError(f"unknown override {key!r} for {name}; valid keys: {valid}")
        params[key] = _coerce(key, params[key], raw)
    return params


def run_experiment(name: str, overrides: dict | None = None, out_dir=None, *,
                   plot: bool = False, workers: int | None = None,
                   dry_run: bool = False) -> list[Path]:
    """Run a registered experiment and write results.csv / config.resolved
    (and plot.svg with ``plot=True``) under ``out_dir``; returns the paths.
    A dry run checks the config and plans its cells, runs none, returns []."""
    params = resolve_params(name, overrides)
    workers = resolve_workers(workers)  # a bad count fails here, analytic runs included
    runner = _get(name).runner(params)
    cells = next(runner)
    if dry_run:
        _plan(cells, workers)
        return []
    table = monte_carlo_sweep(cells, workers=workers)  # the benchmark's tracer wraps this name
    try:
        runner.send(table)
    except StopIteration as done:
        result = done.value
    out = Path(out_dir) if out_dir is not None else Path("runs") / name
    out.mkdir(parents=True, exist_ok=True)
    paths = [write_results_csv(out / "results.csv", name, params.get("seed", ""), result.rows),
             write_config_resolved(out / "config.resolved", params)]
    if plot and result.plot is not None:
        title, xl, yl, series = result.plot
        paths.append(write_line_plot(out / "plot.svg", title, xl, yl, series))
    if table.rows and all(isinstance(r, SweepRow) and r.error and math.isnan(r.mean)
                          for r in table.rows):
        raise ConfigurationError(f"every cell of {name} failed; see {paths[0]}")
    return paths


@contextmanager
def _bad_parameters(name: str):
    """A ValueError, OverflowError or ZeroDivisionError inside is a bad config of ``name``."""
    try:
        yield
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"bad parameters for {name}: {exc}") from exc


def _closed_form(fn, *args):
    """``fn(*args)`` under :func:`_bad_parameters`; a non-finite value in its
    result is a bad config too."""
    with _bad_parameters(fn.__name__):
        out = fn(*args)
    if not np.isfinite(out).all():
        raise ConfigurationError(f"bad parameters for {fn.__name__}: non-finite result")
    return out


def _analytic_row(coords, metric, value) -> SweepRow:
    return SweepRow(dict(coords), metric, float(value), 0.0, 0.0, 0)


def _xy(pts) -> tuple[list, list]:
    """The x and the y values of a plot series given as (x, y) points."""
    return [p[0] for p in pts], [p[1] for p in pts]


def _time_series(rows, key: str, metric: str, label: str = "{}") -> list:
    """Plot series of ``metric``'s series rows: one per value of
    ``coords[key]``, in row order, named ``label.format(value)``, joining the
    steps and means of the rows that share it."""
    rows = [r for r in rows if r.metric == metric and isinstance(r, SeriesRow)]
    return [(label.format(v), [t for r in rows if r.coords[key] == v for t in r.steps],
             [m for r in rows if r.coords[key] == v for m in r.means])
            for v in dict.fromkeys(r.coords[key] for r in rows)]


# --------------------------------------------------------------------------
# tracking stepsize sweep
# --------------------------------------------------------------------------

_ALPHA_GRID_19 = [round(0.05 * k, 2) for k in range(1, 20)]


@_register(
    "fig2_lms_sweep",
    "average reward of the shrinkage tracking filter vs stepsize on a drifting scalar",
    {
        "env.eta": 0.9, "env.zeta": 0.5, "env.sigma": 1.0, "env.mu0": 0.0, "env.sigma0": 1.0,
        "agent.eta": 0.9, "alphas": _ALPHA_GRID_19,
        "horizon": 10_000, "trials": 200, "seed": 20_240_601,
    },
)
def _run_fig2(params):
    env = {"kind": "ar1", "eta": params["env.eta"], "zeta": params["env.zeta"],
           "sigma": params["env.sigma"], "mu0": params["env.mu0"], "sigma0": params["env.sigma0"]}
    cells = [ExperimentConfig(env, {"kind": "lms", "alpha": alpha, "eta": params["agent.eta"],
                                    "mode": "shrinkage"},
                              horizon=params["horizon"], trials=params["trials"],
                              seed=params["seed"], coords={"agent.alpha": alpha})
             for alpha in params["alphas"]]
    rows = (yield cells).rows
    pts = sorted((r.coords["agent.alpha"], r.mean) for r in rows if r.metric == "average_reward")
    plot = ("average reward vs stepsize", "stepsize", "average reward",
            [("tracking filter", *_xy(pts))])
    return ExperimentResult(rows, plot)


# --------------------------------------------------------------------------
# analytic stability/plasticity curves
# --------------------------------------------------------------------------

@_register(
    "fig7_errors_vs_alpha",
    "closed-form forgetting and implasticity errors vs stepsize at fixed capacity",
    {"sigma": 0.5, "capacity": 2.0, "etas": [0.9, 0.95, 0.99], "grid_points": 50, "seed": 0},
)
def _run_fig7(params):
    n = params["grid_points"]
    if n < 0:
        raise ConfigurationError(f"grid_points must be nonnegative, got {n}")
    if n > _MAX_GRID:
        raise ConfigurationError(f"grid_points must be at most {_MAX_GRID}, got {n}")
    alphas = np.linspace(0.02, 0.98, n)
    grids = []
    for eta in params["etas"]:
        # delta_star stays a per-alpha scalar call: its math.exp is not np.exp.
        grids.append(np.array([math.sqrt(_closed_form(it.delta_star, alpha, eta, params["sigma"],
                                                      params["capacity"]))
                               for alpha in alphas]))
        with _bad_parameters("stability_errors"):  # the engine's own check; no error evaluated
            it._grid(alphas, eta, params["sigma"], grids[-1], None)
    yield ()
    rows = []
    series = []
    for eta, deltas in zip(params["etas"], grids):
        forg, impl = _closed_form(it.stability_errors, alphas, eta, params["sigma"], deltas)
        forg, impl = forg.tolist(), impl.tolist()
        for alpha, f, i in zip(alphas, forg, impl):
            coords = {"eta": eta, "alpha": round(float(alpha), 10)}
            rows.append(_analytic_row(coords, "forgetting", f))
            rows.append(_analytic_row(coords, "implasticity", i))
            rows.append(_analytic_row(coords, "total", f + i))
        series.append((f"forgetting eta={eta}", list(alphas), forg))
        series.append((f"implasticity eta={eta}", list(alphas), impl))
    plot = ("stability vs plasticity errors", "stepsize", "error (nats)", series)
    return ExperimentResult(rows, plot)


@_register(
    "fig8_optimal_alpha",
    "optimal stepsize vs drift rate, capacity, and fixed quantization noise",
    {
        "sigma": 0.5, "eta": 0.9,
        "etas": [round(0.05 * k, 2) for k in range(1, 20)],
        "capacities": [0.5, 1.0, 2.0, 4.0],
        "deltas": [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5],
        "alpha_step": 0.01, "seed": 0,
    },
)
def _run_fig8(params):
    sigma = params["sigma"]
    eta = params["eta"]
    step = params["alpha_step"]
    if not 0.0 < step < 1.0:
        raise ConfigurationError(f"alpha_step must lie in (0, 1), got {step}")
    if math.ceil((1.0 - step) / step) > _MAX_GRID:  # np.arange's length, before any array
        raise ConfigurationError(f"alpha_step {step} makes more than {_MAX_GRID} grid points")
    alphas = np.arange(step, 1.0, step)
    rows = []

    for e in params["etas"]:
        rows.append(_analytic_row({"panel": "eta", "eta": e}, "alpha_star_closed_form",
                                  _closed_form(it.optimal_alpha, e, sigma)))

    def argmin_alpha(deltas):
        total = _closed_form(it.total_stability_error, alphas, eta, sigma, deltas)
        return float(alphas[int(np.argmin(total))])

    star = _closed_form(it.optimal_alpha, eta, sigma)
    grids = [np.array([math.sqrt(_closed_form(it.delta_star, a, eta, sigma, cap))
                       for a in alphas.tolist()])
             for cap in params["capacities"]]
    with _bad_parameters("total_stability_error"):  # the engine's own check; no error evaluated
        for deltas in [*grids, *params["deltas"]]:
            it._grid(alphas, eta, sigma, deltas, None)
    yield ()
    cap_pts = []
    for cap, deltas in zip(params["capacities"], grids):
        best = argmin_alpha(deltas)
        coords = {"panel": "capacity", "capacity": cap}
        rows.append(_analytic_row(coords, "alpha_argmin", best))
        rows.append(_analytic_row(coords, "alpha_star_closed_form", star))
        cap_pts.append((cap, best))

    delta_pts = []
    for delta in params["deltas"]:
        best = argmin_alpha(delta)
        rows.append(_analytic_row({"panel": "delta", "delta": delta}, "alpha_tilde", best))
        delta_pts.append((delta, best))

    plot = ("optimal stepsize vs capacity and noise", "capacity / noise std", "stepsize",
            [("argmin vs capacity", *_xy(cap_pts)), ("argmin vs delta", *_xy(delta_pts))])
    return ExperimentResult(rows, plot)


# --------------------------------------------------------------------------
# capacity-aware stepsize adaptation
# --------------------------------------------------------------------------

@_register(
    "fig9_idbd",
    "stepsize adaptation with and without the capacity-matched noise penalty",
    {
        "eta": 0.95, "sigma": 0.5, "capacity": 0.5, "zeta_meta": 0.01, "alpha0": 0.1,
        "horizon": 200_000, "trials": 20, "seed": 20_240_902,
    },
)
def _run_fig9(params):
    eta, sigma, cap = params["eta"], params["sigma"], params["capacity"]
    star = _closed_form(it.optimal_alpha, eta, sigma)
    delta_at_star = math.sqrt(_closed_form(it.delta_star, star, eta, sigma, cap))
    env = {"kind": "ar1", "eta": eta, "zeta": math.sqrt(1.0 - eta * eta), "sigma": sigma,
           "mu0": 0.0, "sigma0": 1.0}
    variants = {
        "capacity": {"kind": "idbd", "zeta_meta": params["zeta_meta"], "mode": "capacity",
                     "eta": eta, "sigma": sigma, "capacity": cap, "alpha0": params["alpha0"]},
        "standard": {"kind": "idbd", "zeta_meta": params["zeta_meta"], "mode": "standard",
                     "delta": delta_at_star, "alpha0": params["alpha0"]},
    }
    cells = [ExperimentConfig(env, agent, horizon=params["horizon"], trials=params["trials"],
                              seed=params["seed"], coords={"variant": variant},
                              metrics=("final_alpha",), series=(("mean_alpha", "alpha"),))
             for variant, agent in variants.items()]
    rows = [_analytic_row({"variant": "reference"}, "alpha_star", star), *(yield cells).rows]
    series = _time_series(rows, "variant", "mean_alpha")
    series.append(("optimal", [0, params["horizon"]], [star, star]))
    return ExperimentResult(rows, ("adapted stepsize", "step", "stepsize", series))


# --------------------------------------------------------------------------
# posterior sampling vs shrunk posterior sampling on drifting bandits
# --------------------------------------------------------------------------

def _bandit_cells(etas, agents, sigma, horizon, trials, seed):
    cells = []
    for eta in etas:
        zeta = math.sqrt(max(0.0, 1.0 - eta * eta))
        for kind in agents:
            cells.append(ExperimentConfig(
                env={"kind": "ar1_bandit", "arms": 2, "eta": eta, "sigma": sigma},
                agent={"kind": kind, "arms": 2, "eta": eta, "zeta": zeta, "sigma": sigma},
                horizon=horizon, trials=trials, seed=seed,
                coords={"eta": eta, "agent": kind},
            ))
    return cells


@_register(
    "fig13_ps_vs_ts_time",
    "running reward and greedy-pull rate over time for the two bandit samplers",
    {"eta": 0.9, "sigma": 1.0, "horizon": 200, "trials": 2000, "seed": 20_240_913},
)
def _run_fig13(params):
    cells = [replace(cfg, coords={"agent": cfg.coords["agent"]}, metrics=(),
                     series=(("cum_avg_reward", None), ("greedy_rate", "greedy_rate")))
             for cfg in _bandit_cells([params["eta"]], ["ts", "ps"], params["sigma"],
                                      params["horizon"], params["trials"], params["seed"])]
    rows = (yield cells).rows
    series = _time_series(rows, "agent", "cum_avg_reward", "{} reward")
    return ExperimentResult(rows, ("running average reward", "step", "reward", series))


@_register(
    "fig14_ps_vs_ts_eta",
    "final reward and greedy-pull frequency vs drift rate for the two samplers",
    {"etas": [0.1, 0.3, 0.5, 0.7, 0.9], "sigma": 1.0, "horizon": 200, "trials": 2000,
     "seed": 20_240_914},
)
def _run_fig14(params):
    cells = _bandit_cells(params["etas"], ["ts", "ps"], params["sigma"], params["horizon"],
                          params["trials"], params["seed"])
    table = yield cells
    series = []
    for kind in ("ts", "ps"):
        pts = sorted((r.coords["eta"], r.mean) for r in table.select("average_reward", agent=kind))
        series.append((kind, *_xy(pts)))
    return ExperimentResult(table.rows, ("reward vs drift rate", "eta", "average reward", series))


# --------------------------------------------------------------------------
# optimistic Q-learning in a drifting goal MDP
# --------------------------------------------------------------------------

_MDP_DEFAULTS = {
    "resample_etas": [1e-4, 1e-3],
    "alphas": [0.025, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8],
    "boosts": [0.00001, 0.00005, 0.0001, 0.0002, 0.0004, 0.0006, 0.010],
    "discount": 0.9, "n_states": 10, "n_actions": 3,
    "horizon": 50_000, "trials": 2, "seed": 2,
}


def _mdp_cells(params):
    cells = []
    for resample_eta in params["resample_etas"]:
        for alpha in params["alphas"]:
            for boost in params["boosts"]:
                cells.append(ExperimentConfig(
                    env={"kind": "goal_mdp", "n_states": params["n_states"],
                         "n_actions": params["n_actions"], "resample_prob": resample_eta,
                         "plan_gamma": params["discount"]},
                    agent={"kind": "optimistic_q", "n_states": params["n_states"],
                           "n_actions": params["n_actions"], "stepsize": alpha,
                           "discount": params["discount"], "boost": boost},
                    horizon=params["horizon"], trials=params["trials"], seed=params["seed"],
                    coords={"resample_eta": resample_eta, "alpha": alpha, "boost": boost},
                ))
    return cells


def _mdp_best_rows(table, params, outer: str, inner: str):
    """Best mean reward over the inner axis, per (resample_eta, outer value)."""
    rows = []
    for resample_eta in params["resample_etas"]:
        for value in params[outer + "s"]:
            try:
                best = table.best_row("average_reward", resample_eta=resample_eta,
                                      **{outer: value})
            except ValueError:  # no finite cell
                continue
            rows.append(SweepRow({"resample_eta": resample_eta, outer: value},
                                 f"best_avg_reward_over_{inner}", best.mean, best.std,
                                 best.ci95, best.trials))
    return rows


def _run_mdp(outer: str, inner: str, label: str, params):
    """Reward vs the ``outer`` axis (best over ``inner``), then every sweep cell."""
    table = yield _mdp_cells(params)
    best = _mdp_best_rows(table, params, outer, inner)
    series = []
    for resample_eta in params["resample_etas"]:
        pts = [(r.coords[outer], r.mean) for r in best if r.coords["resample_eta"] == resample_eta]
        series.append((f"resample={resample_eta:g}", *_xy(pts)))
    return ExperimentResult(best + table.rows,
                            (f"reward vs {label}", label, "average reward", series))


_register("fig15_mdp_alpha",
          "reward vs Q-learning stepsize (best boost) in slow and fast drifting MDPs",
          dict(_MDP_DEFAULTS))(partial(_run_mdp, "alpha", "boost", "stepsize"))
_register("fig16_mdp_boost",
          "reward vs optimistic boost (best stepsize) in slow and fast drifting MDPs",
          dict(_MDP_DEFAULTS))(partial(_run_mdp, "boost", "alpha", "boost"))


# --------------------------------------------------------------------------
# regret of the exact logit predictor vs its rate-distortion bound
# --------------------------------------------------------------------------

def _logit_cells(params):
    """One cell per horizon; a trial's average reward is minus its regret
    against the predictor that knows the latent logit (``LogitEnv``)."""
    return [ExperimentConfig({"kind": "logit"},
                             {"kind": "logit_predictor", "grid_size": params["grid_size"]},
                             horizon=T, trials=params["episodes"], seed=params["seed"],
                             coords={"horizon": T})
            for T in params["horizons"]]


@_register(
    "logit_regret",
    "simulated regret of the exact logit predictor against its analytic bound",
    {"horizons": [10, 100], "episodes": 2000, "grid_size": 513, "seed": 20_240_908},
)
def _run_logit_regret(params):
    rows = []
    pts_mc, pts_bound = [], []
    for row in (yield _logit_cells(params)).select("average_reward"):
        T = row.coords["horizon"]
        bound = it.regret_bound_logit(T)
        rows.append(replace(row, metric="mc_regret", mean=-row.mean))
        rows.append(_analytic_row({"horizon": T}, "bound", bound))
        pts_mc.append((T, -row.mean))
        pts_bound.append((T, bound))
    plot = ("regret vs bound", "horizon", "average regret",
            [("simulated", *_xy(pts_mc)), ("bound", *_xy(pts_bound))])
    return ExperimentResult(rows, plot)


# --------------------------------------------------------------------------
# one-bit prediction of a flipping stream
# --------------------------------------------------------------------------

@_register(
    "bitflip_demo",
    "reward of the one-bit flip predictor vs its analytic accuracy",
    {"priors": [["beta", 2, 1], ["beta", 1, 3], ["fixed", 0.9]],
     "horizon": 1000, "trials": 1000, "seed": 20_240_909},
)
def _run_bitflip(params):
    cells, theory = [], []
    for prior in params["priors"]:
        build_env({"kind": "bit_flip", "prior": prior})  # a bad prior fails here, not below
        mean_p = prior_mean(prior)
        coords = {"prior": "-".join(str(p) for p in prior)}
        cells.append(ExperimentConfig(
            env={"kind": "bit_flip", "prior": list(prior)},
            agent={"kind": "bit_flip", "mean_p": mean_p},
            horizon=params["horizon"], trials=params["trials"], seed=params["seed"],
            coords=coords,
        ))
        theory.append(_analytic_row(coords, "theory_accuracy", max(mean_p, 1.0 - mean_p)))
    return ExperimentResult((yield cells).rows + theory)


# --------------------------------------------------------------------------
# planner for the replaceable-coin game
# --------------------------------------------------------------------------

@_register(
    "coinswap_belief",
    "belief-grid plan for the replaceable-coin game plus simulated play",
    {"p1": 0.8, "q2s": [0.999, 0.001], "gamma": 0.999, "grid_size": 2001,
     "horizon": 20_000, "trials": 8, "seed": 20_240_910, "policy_stride": 20},
)
def _run_coinswap(params):
    for key in ("trials", "horizon", "policy_stride"):  # before any planning
        if params[key] < 1:
            raise ConfigurationError(f"{key} must be >= 1, got {params[key]}")
    p1 = params["p1"]
    envs = [{"kind": "coin_swap", "arms": [{"prior": ["fixed", p1], "swap_prob": 0.0},
                                           {"prior": ["dyadic", 0.5], "swap_prob": q2}]}
            for q2 in params["q2s"]]
    for env in envs:  # a bad p1 or q2 fails here, before any planning
        build_env(env)
    rows = []
    sim_cells = []
    for q2, env in zip(params["q2s"], envs):
        with _bad_parameters("belief_policy_iteration"):  # a bad gamma or grid_size fails
            plan = belief_policy_iteration(p1, q2, params["gamma"], params["grid_size"])
        for i in range(0, len(plan.beliefs), params["policy_stride"]):
            coords = {"q2": q2, "belief": round(float(plan.beliefs[i]), 10)}
            rows.append(_analytic_row(coords, "policy_action", int(plan.actions[i])))
            rows.append(_analytic_row(coords, "value", float(plan.values[i])))
        reach = plan.reachable_actions()
        rows.append(_analytic_row({"q2": q2}, "reachable_coin2_fraction", float(np.mean(reach))))
        rows.append(_analytic_row({"q2": q2}, "start_action", plan.action_at(0.5)))
        for label, actions in (("planner", [int(a) for a in plan.actions]), ("coin1_only", [0, 0])):
            sim_cells.append(ExperimentConfig(
                env=env,
                agent={"kind": "coin_belief", "p1": p1, "q2": q2, "policy_actions": actions},
                horizon=params["horizon"], trials=params["trials"], seed=params["seed"],
                coords={"q2": q2, "policy": label},
            ))
    return ExperimentResult(rows + (yield sim_cells).rows)
