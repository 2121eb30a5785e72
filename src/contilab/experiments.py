"""Experiment registry: each entry reproduces one quantitative study as a
seeded, deterministic CSV (plus an optional SVG).

Trial counts default to desk scale; the larger published-scale counts are
available through overrides (e.g. ``--trials``, ``--horizon``). Analytic
experiments (fig7, fig8) emit closed-form values with no Monte Carlo, shown
as rows with zero trials.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import infotheory as it
from .agents import LogitPredictorAgent
from .envs import LogitEnv
from .errors import ConfigurationError
from .mdp_tools import belief_value_iteration
from .output import write_config_resolved, write_line_plot, write_results_csv
from .rng import RngStream
from .sweep import ExperimentConfig, SweepRow, aggregate, monte_carlo_sweep, run_trials


@dataclass
class ExperimentResult:
    rows: list[SweepRow]
    plot: tuple[str, str, str, list] | None = None  # (title, xlabel, ylabel, series)

    def all_failed(self) -> bool:
        data = [r for r in self.rows if r.trials > 0 or r.error]
        return bool(data) and all(r.error and r.trials == 0 for r in data)


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    summary: str
    defaults: dict
    runner: Callable[[dict, int | None], ExperimentResult]


_REGISTRY: dict[str, ExperimentDef] = {}


def _register(name, summary, defaults):
    def deco(fn):
        _REGISTRY[name] = ExperimentDef(name, summary, defaults, fn)
        return fn

    return deco


def list_experiments() -> list[str]:
    """Registered experiment names."""
    return list(_REGISTRY)


def experiment_defaults(name: str) -> dict:
    return dict(_get(name).defaults)


def _get(name: str) -> ExperimentDef:
    if name not in _REGISTRY:
        raise ConfigurationError(f"unknown experiment {name!r}; known: {', '.join(_REGISTRY)}")
    return _REGISTRY[name]


def _coerce(default, raw):
    if not isinstance(raw, str):
        return raw
    if isinstance(default, bool):
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ConfigurationError(f"cannot parse boolean from {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, (list, tuple)):
        try:
            value = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"list overrides must be JSON, got {raw!r}") from exc
        if not isinstance(value, list):
            raise ConfigurationError(f"expected a JSON list, got {raw!r}")
        return value
    return raw


def resolve_params(name: str, overrides: dict | None = None) -> dict:
    exp = _get(name)
    params = dict(exp.defaults)
    for key, raw in (overrides or {}).items():
        if key not in params:
            valid = ", ".join(sorted(params))
            raise ConfigurationError(f"unknown override {key!r} for {name}; valid keys: {valid}")
        params[key] = _coerce(params[key], raw)
    return params


def run_experiment(name: str, overrides: dict | None = None, out_dir=None, *,
                   plot: bool = False, workers: int | None = None,
                   dry_run: bool = False) -> list[Path]:
    """Run a registered experiment and write results.csv / config.resolved
    (and plot.svg with ``plot=True``) under ``out_dir``; returns the paths."""
    exp = _get(name)
    params = resolve_params(name, overrides)
    if dry_run:
        return []
    result = exp.runner(params, workers)
    out = Path(out_dir) if out_dir is not None else Path("runs") / name
    out.mkdir(parents=True, exist_ok=True)
    paths = [
        write_results_csv(out / "results.csv", name, params.get("seed", ""), result.rows),
        write_config_resolved(out / "config.resolved", params),
    ]
    if plot and result.plot is not None:
        title, xl, yl, series = result.plot
        paths.append(write_line_plot(out / "plot.svg", title, xl, yl, series))
    if result.all_failed():
        raise ConfigurationError(f"every cell of {name} failed; see {paths[0]}")
    return paths


def _closed_form(fn, *args):
    """``fn(*args)`` for a closed form on user parameters: its ValueError is a bad config."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigurationError(f"bad parameters: {exc}") from exc


def _analytic_row(coords, metric, value) -> SweepRow:
    return SweepRow(dict(coords), metric, float(value), 0.0, 0.0, 0)


def _mean_series(results, diagnostic=None):
    """Stepwise mean over successful trials of the thinned running-reward
    series, or of the agent diagnostic named ``diagnostic``."""
    series = [r.summary.reward_series if diagnostic is None else r.summary.diagnostics[diagnostic]
              for r in results if r.summary is not None]
    steps = [t for t, _ in series[0]]
    return steps, np.array([[v for _, v in s] for s in series]).mean(axis=0)


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
def _run_fig2(params, workers):
    base = ExperimentConfig(
        "fig2_lms_sweep",
        env={"kind": "ar1", "eta": params["env.eta"], "zeta": params["env.zeta"],
             "sigma": params["env.sigma"], "mu0": params["env.mu0"], "sigma0": params["env.sigma0"]},
        agent={"kind": "lms", "alpha": 0.0, "eta": params["agent.eta"], "mode": "shrinkage"},
        horizon=params["horizon"], trials=params["trials"], seed=params["seed"],
        sweep={"agent.alpha": params["alphas"]},
    )
    table = monte_carlo_sweep(base.expand(), workers=workers)
    rows = table.rows
    pts = sorted((r.coords["agent.alpha"], r.mean) for r in rows if r.metric == "average_reward")
    plot = ("average reward vs stepsize", "stepsize", "average reward",
            [("tracking filter", [p[0] for p in pts], [p[1] for p in pts])])
    return ExperimentResult(rows, plot)


# --------------------------------------------------------------------------
# analytic stability/plasticity curves
# --------------------------------------------------------------------------

@_register(
    "fig7_errors_vs_alpha",
    "closed-form forgetting and implasticity errors vs stepsize at fixed capacity",
    {"sigma": 0.5, "capacity": 2.0, "etas": [0.9, 0.95, 0.99], "grid_points": 50, "seed": 0},
)
def _run_fig7(params, workers):
    alphas = np.linspace(0.02, 0.98, params["grid_points"])
    rows = []
    series = []
    for eta in params["etas"]:
        # delta_star stays a per-alpha scalar call: its math.exp is not np.exp.
        deltas = [math.sqrt(_closed_form(it.delta_star, alpha, eta, params["sigma"],
                                         params["capacity"]))
                  for alpha in alphas]
        forg, impl = _closed_form(it.stability_errors, alphas, eta, params["sigma"],
                                  np.array(deltas))
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
def _run_fig8(params, workers):
    sigma = params["sigma"]
    eta = params["eta"]
    alphas = np.arange(params["alpha_step"], 1.0, params["alpha_step"])
    rows = []

    for e in params["etas"]:
        rows.append(_analytic_row({"panel": "eta", "eta": e}, "alpha_star_closed_form",
                                  _closed_form(it.optimal_alpha, e, sigma)))

    def argmin_alpha(deltas):
        forg, impl = _closed_form(it.stability_errors, alphas, eta, sigma, deltas)
        return float(alphas[int(np.argmin(forg + impl))])

    star = _closed_form(it.optimal_alpha, eta, sigma)
    cap_pts = []
    for cap in params["capacities"]:
        best = argmin_alpha(np.array([math.sqrt(_closed_form(it.delta_star, a, eta, sigma, cap))
                                      for a in alphas.tolist()]))
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
            [("argmin vs capacity", [p[0] for p in cap_pts], [p[1] for p in cap_pts]),
             ("argmin vs delta", [p[0] for p in delta_pts], [p[1] for p in delta_pts])])
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
def _run_fig9(params, workers):
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
    cells = [ExperimentConfig("fig9_idbd", env=env, agent=agent, horizon=params["horizon"],
                              trials=params["trials"], seed=params["seed"])
             for agent in variants.values()]
    rows = [_analytic_row({"variant": "reference"}, "alpha_star", star)]
    series = []
    for variant, results in zip(variants, run_trials(cells, workers=workers, record_series=True)):
        steps, mean_alpha = _mean_series(results, "alpha")
        for t, m in zip(steps, mean_alpha):
            rows.append(_analytic_row({"variant": variant, "t": t}, "mean_alpha", m))
        finals = [r.summary.metrics["final_alpha"] for r in results if r.summary]
        rows.append(SweepRow({"variant": variant}, "final_alpha", *aggregate(finals), len(finals)))
        series.append((variant, list(steps), list(mean_alpha)))
    series.append(("optimal", [0, params["horizon"]], [star, star]))
    return ExperimentResult(rows, ("adapted stepsize", "step", "stepsize", series))


# --------------------------------------------------------------------------
# posterior sampling vs shrunk posterior sampling on drifting bandits
# --------------------------------------------------------------------------

def _bandit_cells(name, etas, agents, sigma, horizon, trials, seed):
    cells = []
    for eta in etas:
        zeta = math.sqrt(max(0.0, 1.0 - eta * eta))
        for kind in agents:
            cells.append(ExperimentConfig(
                name,
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
def _run_fig13(params, workers):
    cells = _bandit_cells("fig13_ps_vs_ts_time", [params["eta"]], ["ts", "ps"],
                          params["sigma"], params["horizon"], params["trials"], params["seed"])
    rows = []
    series = []
    for cfg, results in zip(cells, run_trials(cells, workers=workers, record_series=True)):
        kind = cfg.coords["agent"]
        steps, mean_reward = _mean_series(results)
        g_steps, mean_greedy = _mean_series(results, "greedy_rate")
        for t, m in zip(steps, mean_reward):
            rows.append(_analytic_row({"agent": kind, "t": t}, "cum_avg_reward", m))
        for t, m in zip(g_steps, mean_greedy):
            rows.append(_analytic_row({"agent": kind, "t": t}, "greedy_rate", m))
        series.append((f"{kind} reward", list(steps), list(mean_reward)))
    return ExperimentResult(rows, ("running average reward", "step", "reward", series))


@_register(
    "fig14_ps_vs_ts_eta",
    "final reward and greedy-pull frequency vs drift rate for the two samplers",
    {"etas": [0.1, 0.3, 0.5, 0.7, 0.9], "sigma": 1.0, "horizon": 200, "trials": 2000,
     "seed": 20_240_914},
)
def _run_fig14(params, workers):
    cells = _bandit_cells("fig14_ps_vs_ts_eta", params["etas"], ["ts", "ps"],
                          params["sigma"], params["horizon"], params["trials"], params["seed"])
    table = monte_carlo_sweep(cells, workers=workers)
    series = []
    for kind in ("ts", "ps"):
        pts = sorted((r.coords["eta"], r.mean) for r in table.select("average_reward", agent=kind))
        series.append((kind, [p[0] for p in pts], [p[1] for p in pts]))
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


def _mdp_sweep(name, params, workers):
    cells = []
    for resample_eta in params["resample_etas"]:
        for alpha in params["alphas"]:
            for boost in params["boosts"]:
                cells.append(ExperimentConfig(
                    name,
                    env={"kind": "goal_mdp", "n_states": params["n_states"],
                         "n_actions": params["n_actions"], "resample_prob": resample_eta,
                         "plan_gamma": params["discount"]},
                    agent={"kind": "optimistic_q", "n_states": params["n_states"],
                           "n_actions": params["n_actions"], "stepsize": alpha,
                           "discount": params["discount"], "boost": boost},
                    horizon=params["horizon"], trials=params["trials"], seed=params["seed"],
                    coords={"resample_eta": resample_eta, "alpha": alpha, "boost": boost},
                ))
    return monte_carlo_sweep(cells, workers=workers)


def _mdp_best_rows(table, params, outer: str, inner: str):
    """Best mean reward over the inner axis, per (resample_eta, outer value)."""
    rows = []
    for resample_eta in params["resample_etas"]:
        for value in params[outer + "s"]:
            cand = [r for r in table.select("average_reward", resample_eta=resample_eta)
                    if r.coords[outer] == value and math.isfinite(r.mean)]
            if not cand:
                continue
            best = max(cand, key=lambda r: r.mean)
            rows.append(SweepRow({"resample_eta": resample_eta, outer: value},
                                 f"best_avg_reward_over_{inner}", best.mean, best.std,
                                 best.ci95, best.trials))
    return rows


def _run_mdp(name, outer: str, inner: str, label: str, params, workers):
    """Reward vs the ``outer`` axis (best over ``inner``), then every sweep cell."""
    table = _mdp_sweep(name, params, workers)
    best = _mdp_best_rows(table, params, outer, inner)
    series = []
    for resample_eta in params["resample_etas"]:
        pts = [(r.coords[outer], r.mean) for r in best if r.coords["resample_eta"] == resample_eta]
        series.append((f"resample={resample_eta:g}", [p[0] for p in pts], [p[1] for p in pts]))
    return ExperimentResult(best + table.rows,
                            (f"reward vs {label}", label, "average reward", series))


_register("fig15_mdp_alpha",
          "reward vs Q-learning stepsize (best boost) in slow and fast drifting MDPs",
          dict(_MDP_DEFAULTS))(partial(_run_mdp, "fig15_mdp_alpha", "alpha", "boost", "stepsize"))
_register("fig16_mdp_boost",
          "reward vs optimistic boost (best stepsize) in slow and fast drifting MDPs",
          dict(_MDP_DEFAULTS))(partial(_run_mdp, "fig16_mdp_boost", "boost", "alpha", "boost"))


# --------------------------------------------------------------------------
# regret of the exact logit predictor vs its rate-distortion bound
# --------------------------------------------------------------------------

def logit_regret_episodes(horizon: int, episodes: int, seed: int, grid_size: int = 513):
    """Per-episode average regret of the exact predictor against a target that
    knows the latent logit."""
    regrets = []
    for ep in range(episodes):
        stream = RngStream(seed).child("episode", ep)
        env = LogitEnv()
        agent = LogitPredictorAgent(grid_size=grid_size)
        env.reset(stream.child("env-noise"))
        agent.reset(stream.child("agent-noise"))
        p_true = 1.0 / (1.0 + math.exp(-env.theta))
        total = 0.0
        for _ in range(horizon):
            p = agent.predict()
            o = env.step(p)
            if o == 1:
                total += math.log(p_true) - math.log(p)
            else:
                total += math.log(1.0 - p_true) - math.log(1.0 - p)
            agent.update(p, o, 0.0)
        regrets.append(total / horizon)
    return regrets


@_register(
    "logit_regret",
    "simulated regret of the exact logit predictor against its analytic bound",
    {"horizons": [10, 100], "episodes": 2000, "grid_size": 513, "seed": 20_240_908},
)
def _run_logit_regret(params, workers):
    rows = []
    pts_mc, pts_bound = [], []
    for T in params["horizons"]:
        regrets = logit_regret_episodes(T, params["episodes"], params["seed"], params["grid_size"])
        mean, std, ci = aggregate(regrets)
        bound = it.regret_bound_logit(T)
        rows.append(SweepRow({"horizon": T}, "mc_regret", mean, std, ci, len(regrets)))
        rows.append(_analytic_row({"horizon": T}, "bound", bound))
        pts_mc.append((T, mean))
        pts_bound.append((T, bound))
    plot = ("regret vs bound", "horizon", "average regret",
            [("simulated", [p[0] for p in pts_mc], [p[1] for p in pts_mc]),
             ("bound", [p[0] for p in pts_bound], [p[1] for p in pts_bound])])
    return ExperimentResult(rows, plot)


# --------------------------------------------------------------------------
# one-bit prediction of a flipping stream
# --------------------------------------------------------------------------

def _prior_mean(prior) -> float:
    kind = prior[0]
    if kind == "beta":
        return prior[1] / (prior[1] + prior[2])
    if kind == "fixed":
        return float(prior[1])
    if kind == "uniform":
        return 0.5
    raise ConfigurationError(f"unknown prior {prior!r}")


@_register(
    "bitflip_demo",
    "reward of the one-bit flip predictor vs its analytic accuracy",
    {"priors": [["beta", 2, 1], ["beta", 1, 3], ["fixed", 0.9]],
     "horizon": 1000, "trials": 1000, "seed": 20_240_909},
)
def _run_bitflip(params, workers):
    cells = []
    for prior in params["priors"]:
        mean_p = _prior_mean(prior)
        cells.append(ExperimentConfig(
            "bitflip_demo",
            env={"kind": "bit_flip", "prior": list(prior)},
            agent={"kind": "bit_flip", "mean_p": mean_p},
            horizon=params["horizon"], trials=params["trials"], seed=params["seed"],
            coords={"prior": "-".join(str(p) for p in prior)},
        ))
    table = monte_carlo_sweep(cells, workers=workers)
    rows = list(table.rows)
    for prior in params["priors"]:
        mean_p = _prior_mean(prior)
        rows.append(_analytic_row({"prior": "-".join(str(p) for p in prior)},
                                  "theory_accuracy", max(mean_p, 1.0 - mean_p)))
    return ExperimentResult(rows)


# --------------------------------------------------------------------------
# planner for the replaceable-coin game
# --------------------------------------------------------------------------

@_register(
    "coinswap_belief",
    "belief-grid plan for the replaceable-coin game plus simulated play",
    {"p1": 0.8, "q2s": [0.999, 0.001], "gamma": 0.999, "grid_size": 2001,
     "horizon": 20_000, "trials": 8, "seed": 20_240_910, "policy_stride": 20},
)
def _run_coinswap(params, workers):
    rows = []
    sim_cells = []
    for q2 in params["q2s"]:
        plan = belief_value_iteration(params["p1"], q2, params["gamma"], params["grid_size"])
        stride = max(1, params["policy_stride"])
        for i in range(0, len(plan.beliefs), stride):
            coords = {"q2": q2, "belief": round(float(plan.beliefs[i]), 10)}
            rows.append(_analytic_row(coords, "policy_action", int(plan.actions[i])))
            rows.append(_analytic_row(coords, "value", float(plan.values[i])))
        reach = plan.reachable_actions()
        rows.append(_analytic_row({"q2": q2}, "reachable_coin2_fraction", float(np.mean(reach))))
        rows.append(_analytic_row({"q2": q2}, "start_action", plan.action_at(0.5)))
        for label, actions in (("planner", [int(a) for a in plan.actions]), ("coin1_only", [0, 0])):
            sim_cells.append(ExperimentConfig(
                "coinswap_belief",
                env={"kind": "coin_swap",
                     "arms": [{"prior": ["fixed", params["p1"]], "swap_prob": 0.0},
                              {"prior": ["dyadic", 0.5], "swap_prob": q2}]},
                agent={"kind": "coin_belief", "p1": params["p1"], "q2": q2,
                       "policy_actions": actions},
                horizon=params["horizon"], trials=params["trials"], seed=params["seed"],
                coords={"q2": q2, "policy": label},
            ))
    table = monte_carlo_sweep(sim_cells, workers=workers)
    return ExperimentResult(rows + table.rows)
