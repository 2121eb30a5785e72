import math
import re
from array import array
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass, replace
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contilab import mdp_tools, sweep
from contilab.agents import _AGENT_KINDS, IdbdAgent, LmsAgent, OptimisticQAgent, build_agent
from contilab.core import TrajectorySummary, run_idbd_trials, run_trajectory, series_steps
from contilab.envs import _ENV_KINDS, Ar1ScalarEnv, GoalMdpEnv, build_env
from contilab.errors import ConfigurationError, DegenerateMdpError, NumericError
from contilab.rng import RngStream
from contilab.sweep import (ExperimentConfig, SeriesRow, SweepRow, TrialResult, aggregate,
                            cell_rows, monte_carlo_sweep, resolve_workers, run_trials)


def _coin_config(**kw):
    base = dict(
        env={"kind": "bit_flip", "prior": ["fixed", 0.7]},
        agent={"kind": "bit_flip", "mean_p": 0.7},
        horizon=500,
        trials=4,
        seed=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_single_trial_equals_run_trajectory():
    cfg = _coin_config(trials=1)
    table = monte_carlo_sweep([cfg], workers=1)
    row = table.select("average_reward")[0]
    from contilab.agents import build_agent
    from contilab.envs import build_env

    stream = RngStream(cfg.seed).child("trial", cfg.canonical_key(), 0)
    summary = run_trajectory(build_env(cfg.env), build_agent(cfg.agent), cfg.horizon, stream)
    assert row.mean == summary.metrics["average_reward"]
    assert row.trials == 1 and row.std == 0.0 and row.ci95 == 0.0


def _mean_p_cells(values, **kw):
    return [_coin_config(agent={"kind": "bit_flip", "mean_p": p}, coords={"agent.mean_p": p}, **kw)
            for p in values]


def test_grid_permutation_invariance():
    cells = _mean_p_cells([0.6, 0.7, 0.8])
    t1 = monte_carlo_sweep(cells, workers=1)
    t2 = monte_carlo_sweep(list(reversed(cells)), workers=1)
    by_coord = lambda t: {tuple(r.coords.items()): r.mean for r in t.rows if r.metric == "average_reward"}
    assert by_coord(t1) == by_coord(t2)


def test_worker_count_invariance():
    cells = _mean_p_cells([0.6, 0.8], trials=6)
    t1 = monte_carlo_sweep(cells, workers=1)
    t2 = monte_carlo_sweep(cells, workers=2)
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1.coords == r2.coords and r1.metric == r2.metric
        assert r1.mean == r2.mean and r1.std == r2.std


def test_aggregate_statistics():
    cfg = _coin_config(trials=8)
    values = [r.summary.metrics["average_reward"] for r in run_trials([cfg], workers=1)[0]]
    mean, std, ci95 = aggregate(values)
    assert mean == pytest.approx(np.mean(values), abs=1e-15)
    assert std == pytest.approx(np.std(values, ddof=1), rel=1e-12)
    assert ci95 == pytest.approx(1.959963984540054 * std / math.sqrt(8), rel=1e-12)
    assert aggregate([0.25]) == (0.25, 0.0, 0.0)
    row = monte_carlo_sweep([cfg], workers=1).select("average_reward")[0]
    assert (row.mean, row.std, row.ci95, row.trials) == (mean, std, ci95, 8)


class _FlakyEnv:
    """Fails deterministically on a fixed subset of trial streams."""

    action_space = ("discrete", 2)
    observation_space = ("discrete", 2)

    def reset(self, stream):
        self._rng = stream.buffer()
        if self._rng.uniform() < 0.5:
            raise NumericError("synthetic trial failure")

    def step(self, action):
        return 0

    def reward(self, action, observation):
        return 1.0


class _DoomedEnv(_FlakyEnv):
    def reset(self, stream):
        raise NumericError("always fails")


class _BuggyEnv(_FlakyEnv):
    def reset(self, stream):
        raise RuntimeError("a bug, not a modelled failure")


def test_trial_failures_recorded(monkeypatch):
    monkeypatch.setitem(_ENV_KINDS, "flaky", _FlakyEnv)
    monkeypatch.setitem(_ENV_KINDS, "doomed", _DoomedEnv)
    cfg = _coin_config(env={"kind": "flaky"}, agent={"kind": "bit_flip", "mean_p": 0.5},
                       trials=16)
    table = monte_carlo_sweep([cfg], workers=1)
    row = table.select("average_reward")[0]
    assert row.error is not None and "failed" in row.error
    assert 0 < row.trials < 16
    assert row.mean == 1.0

    cfg = _coin_config(env={"kind": "doomed"}, agent={"kind": "bit_flip", "mean_p": 0.5})
    table = monte_carlo_sweep([cfg], workers=1)
    row = table.rows[0]
    assert math.isnan(row.mean) and row.trials == 0


def _trial(i, rewards, alphas, final_alpha):
    summary = TrajectorySummary(len(rewards), array("d", rewards), {"alpha": array("d", alphas)},
                                {"average_reward": rewards[-1], "final_alpha": final_alpha})
    return TrialResult(i, summary)


# Dyadic values, so every mean below is exact.
_OK_TRIALS = [_trial(0, [1.0, 0.5, 0.25], [0.125, 0.25, 0.5], 0.5),
              _trial(1, [3.0, 1.5, 0.75], [0.375, 0.5, 0.75], 0.75)]
_FAILED_TRIAL = TrialResult(2, None, "NumericError: boom")


@pytest.mark.parametrize("results, note", [
    (_OK_TRIALS, None),
    (_OK_TRIALS + [_FAILED_TRIAL], "1/3 trials failed (NumericError: boom)"),
], ids=["all-ok", "partly-failed"])
def test_cell_rows_of_successful_trials(results, note):
    coords = {"x": 1}
    cfg = _coin_config(coords=coords)
    rows = cell_rows(cfg, results)
    assert rows == [SweepRow(coords, "average_reward", *aggregate([0.25, 0.75]), 2, note),
                    SweepRow(coords, "final_alpha", *aggregate([0.5, 0.75]), 2, note)]
    assert all(row.coords is not coords for row in rows)

    rows = cell_rows(replace(cfg, metrics=("final_alpha",),
                             series=(("reward", None), ("mean_alpha", "alpha"))), results)
    steps = series_steps(3)
    assert steps == [1, 2, 3]
    assert rows == [SeriesRow(coords, "reward", steps, array("d", [2.0, 1.0, 0.5]), note),
                    SeriesRow(coords, "mean_alpha", steps, array("d", [0.25, 0.375, 0.625]), note),
                    SweepRow(coords, "final_alpha", *aggregate([0.5, 0.75]), 2, note)]
    assert [type(row.means) for row in rows[:2]] == [array, array]
    assert all(row.means.typecode == "d" for row in rows[:2])
    assert type(rows[2].mean) is float
    assert all(row.coords is not coords for row in rows)
    assert cell_rows(replace(cfg, metrics=(), series=(("reward", None),)),
                     results)[-1].metric == "reward"


@pytest.mark.parametrize("metrics, series, name", [
    (None, (), "average_reward"),
    (("final_alpha",), (("mean_alpha", "alpha"),), "final_alpha"),
    ((), (("cum_avg_reward", None), ("greedy_rate", "greedy_rate")), "cum_avg_reward"),
], ids=["per-metric", "series-and-metric", "series-only"])
def test_cell_rows_of_a_cell_with_no_successful_trial(metrics, series, name):
    results = [_FAILED_TRIAL, TrialResult(3, None, "DegenerateMdpError: stuck")]
    [row] = cell_rows(_coin_config(coords={"x": 1}, metrics=metrics, series=series), results)
    assert (row.coords, row.metric, row.trials) == ({"x": 1}, name, 0)
    assert row.error == "2/2 trials failed (NumericError: boom)"
    assert all(math.isnan(v) for v in (row.mean, row.std, row.ci95))


def test_a_cell_that_reports_nothing_is_refused():
    with pytest.raises(ConfigurationError, match="reports no metric and no series"):
        _coin_config(coords={"x": 1}, metrics=(), series=())
    _coin_config(metrics=None, series=())  # None: every metric


def test_a_cell_with_series_has_no_t_coord():
    # Its series lines put their steps in column "t", where the coord would go.
    with pytest.raises(ConfigurationError, match="reports a series, so it has no coord 't'"):
        _coin_config(horizon=3, trials=2, coords={"t": 5}, series=(("r", None),))
    _coin_config(horizon=3, trials=2, coords={"t": 5})  # without series "t" is a coord


@pytest.mark.parametrize("spec, unknown", [
    ({"metrics": ("avg_reward",)}, "'avg_reward'"),
    ({"metrics": (), "series": (("x", "nope"),)}, "'nope'"),
], ids=["metric", "diagnostic"])
def test_an_unreported_metric_or_diagnostic_is_refused(spec, unknown):
    # Named against what the first successful trial reports, not a bare KeyError.
    cfg = _coin_config(coords={"x": 1}, trials=2, **spec)
    with pytest.raises(ConfigurationError) as err:
        monte_carlo_sweep([cfg], workers=1)
    assert str(err.value) == (f"cell {{'x': 1}} asks for {unknown}; its trials report metrics "
                              "['average_reward'] and diagnostics []")


@pytest.mark.parametrize("workers", [1, 2])
def test_unmodelled_trial_failure_aborts(monkeypatch, workers):
    monkeypatch.setitem(_ENV_KINDS, "buggy", _BuggyEnv)
    cells = [_coin_config(trials=4),
             _coin_config(env={"kind": "buggy"}, agent={"kind": "bit_flip", "mean_p": 0.5})]
    with pytest.raises(RuntimeError, match="not a modelled failure"):
        monte_carlo_sweep(cells, workers=workers)


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.setenv("CONTILAB_THREADS", "1")
    assert resolve_workers(8) == 1
    monkeypatch.delenv("CONTILAB_THREADS")
    assert resolve_workers(3) == 3
    with mock.patch("os.cpu_count", return_value=5):
        assert resolve_workers(None) == resolve_workers() == 5
    for requested in (0, -2):
        with pytest.raises(ConfigurationError, match=f"workers must be >= 1, got {requested}"):
            resolve_workers(requested)
    for cap in ("abc", "1.5", "0", "-1"):
        monkeypatch.setenv("CONTILAB_THREADS", cap)
        with pytest.raises(ConfigurationError, match="CONTILAB_THREADS"):
            resolve_workers(2)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        _coin_config(horizon=0)
    with pytest.raises(ConfigurationError):
        _coin_config(trials=0)


@pytest.mark.parametrize("name, value", [
    ("horizon", 500.0), ("horizon", 1e3), ("horizon", True), ("horizon", np.int64(500)),
    ("trials", 4.0), ("trials", True), ("trials", "4"),
])
def test_config_counts_must_be_ints(name, value):
    # A float or bool count from a library caller fails when the cell is
    # made, not in a worker's range() or the cell key's JSON.
    with pytest.raises(ConfigurationError, match=re.escape(f"{name} must be an int, got {value!r}")):
        _coin_config(**{name: value})


@pytest.mark.parametrize("seed", [1.5, "7", None, np.int64(3), True])
def test_config_seed_must_be_an_int(seed):
    # These used to fail in a worker's RngStream, after a dry run had passed
    # the cell, or (True) to run as seed 1.
    with pytest.raises(ConfigurationError, match=re.escape(f"seed must be an int, got {seed!r}")):
        _coin_config(seed=seed)


def test_a_negative_seed_runs():
    # RngStream masks the seed to 64 bits, so -1 is a seed like any other.
    [results] = run_trials([_coin_config(seed=-1, trials=2)], workers=1)
    assert [r.error for r in results] == [None, None]
    assert results != run_trials([_coin_config(seed=1, trials=2)], workers=1)[0]


# Every trial draws from its own (seed, cell, trial) stream, so how trials are
# grouped into calls, ordered, or spread over workers cannot change a number.
_bit_flip_cells = st.lists(
    st.builds(
        lambda p, mean_p, horizon, trials, seed: _coin_config(
            env={"kind": "bit_flip", "prior": ["fixed", p]},
            agent={"kind": "bit_flip", "mean_p": mean_p},
            horizon=horizon, trials=trials, seed=seed),
        p=st.sampled_from([0.1, 0.5, 0.9]),
        mean_p=st.sampled_from([0.2, 0.5, 0.7]),
        horizon=st.integers(1, 200),
        trials=st.integers(1, 4),
        seed=st.integers(0, 3),
    ),
    min_size=2, max_size=3,
)


@settings(max_examples=15, deadline=None)
@given(_bit_flip_cells)
def test_run_trials_cells_are_independent(cells):
    a, b = _with_series(cells[:2])
    together = run_trials([a, b], workers=1)
    assert together == [run_trials([a], workers=1)[0], run_trials([b], workers=1)[0]]
    assert [[r.index for r in results] for results in together] == [
        list(range(a.trials)), list(range(b.trials))]


@settings(max_examples=15, deadline=None)
@given(_bit_flip_cells)
def test_run_trials_cell_order_only_reorders(cells):
    assert run_trials(cells[::-1], workers=1) == run_trials(cells, workers=1)[::-1]


@settings(max_examples=8, deadline=None)
@given(_bit_flip_cells)
def test_run_trials_worker_count_invariance(cells):
    metrics = lambda w: [[r.summary.metrics for r in results]
                         for results in run_trials(cells, workers=w)]
    assert metrics(1) == metrics(2)


# Kernel parity: every trial a kernel runs must equal run_trajectory's
# outcome (summary or failure text), trial by trial. _PARITY holds one entry
# per kernel, under the (env class, agent class) of its sweep._KERNELS keys;
# each test below runs over all of them.
def _ar1_config(eta=0.9, zeta=0.5, sigma=1.0, mu0=0.0, sigma0=1.0, alpha=0.3,
                agent_eta=0.9, mode="shrinkage", **kw):
    return ExperimentConfig({"kind": "ar1", "eta": eta, "zeta": zeta, "sigma": sigma,
                             "mu0": mu0, "sigma0": sigma0},
                            {"kind": "lms", "alpha": alpha, "eta": agent_eta, "mode": mode},
                            **{"horizon": 300, "trials": 3, "seed": 7, **kw})


def _goal_config(n_states=4, n_actions=2, resample_prob=1e-3, stepsize=0.3, discount=0.9,
                 boost=1e-3, **kw):
    return ExperimentConfig({"kind": "goal_mdp", "n_states": n_states, "n_actions": n_actions,
                             "resample_prob": resample_prob},
                            {"kind": "optimistic_q", "n_states": n_states,
                             "n_actions": n_actions, "stepsize": stepsize, "discount": discount,
                             "boost": boost},
                            **{"horizon": 300, "trials": 2, "seed": 5, **kw})


def _idbd_config(mode="capacity", eta=0.95, sigma=0.5, capacity=0.5, zeta_meta=0.01,
                 alpha0=0.1, delta=0.2, agent_eta=None, agent_sigma=None, **kw):
    agent = {"kind": "idbd", "zeta_meta": zeta_meta, "mode": mode, "alpha0": alpha0}
    if mode == "capacity":
        agent.update(eta=eta if agent_eta is None else agent_eta,
                     sigma=sigma if agent_sigma is None else agent_sigma, capacity=capacity)
    else:
        agent.update(delta=delta)
    return ExperimentConfig({"kind": "ar1", "eta": eta, "zeta": math.sqrt(1.0 - eta * eta),
                             "sigma": sigma},
                            agent, **{"horizon": 600, "trials": 2, "seed": 9, **kw})


def _idbd_overflowing_noise_config(**kw):
    """A capacity-mode cell whose delta_star overflows mid-trial: a drift of
    3e152 a step lifts alpha to 1, where delta^2 is past the float range."""
    return replace(_idbd_config(capacity=0.05, agent_eta=0.9, agent_sigma=1e154, alpha0=1e-3,
                                **kw),
                   env={"kind": "ar1", "eta": 0.0, "zeta": 3e152, "sigma": 0.5})


class _ShiftedAr1Env(Ar1ScalarEnv):
    def step(self, action):
        return super().step(action) + 0.25


class _LazyGoalMdpEnv(GoalMdpEnv):
    def reward(self, action, observation):
        return 0.5 * super().reward(action, observation)


class _DoubleStepIdbdAgent(IdbdAgent):
    def update(self, action, observation, reward):
        super().update(action, observation, reward)
        super().update(action, observation, reward)


@dataclass
class _Entry:
    """What the parity suite runs for one kernel."""

    cell: Callable  # keyword overrides -> one cell of the kernel's pair
    cells: st.SearchStrategy  # cell lists for the equals-run_trajectory property
    max_examples: int
    gate: list  # cells that must never reach run_trajectory
    subclasses: list  # (kind table, kind, subclass) whose trials must skip the kernel
    non_finite: list  # (cell, failure text) of trials the kernel must hand back


_unit = st.floats(0.0, 1.0)
_DIVERGED = "NumericError: log-stepsize diverged at step "

def _pair_id(pair):
    return "-".join(cls.__name__ for cls in pair)


def _series(pair):
    """Whether the kernel of ``pair`` also runs the cells that report series."""
    return (*pair, True) in sweep._KERNELS


_PARITY = {
    (Ar1ScalarEnv, LmsAgent): _Entry(
        cell=_ar1_config,
        cells=st.lists(st.builds(
            _ar1_config,
            eta=_unit, zeta=st.floats(0.0, 2.0), sigma=st.floats(0.0, 2.0),
            mu0=st.floats(-3.0, 3.0), sigma0=st.floats(0.0, 4.0), alpha=_unit, agent_eta=_unit,
            mode=st.sampled_from(["shrinkage", "plain"]),
            horizon=st.one_of(st.sampled_from([1, 255, 256, 257, 511, 512, 513]),
                              st.integers(1, 40)),
            trials=st.integers(1, 3), seed=st.integers(0, 3),
        ), min_size=1, max_size=8),
        max_examples=15,
        gate=[_ar1_config(alpha=alpha, trials=15, horizon=1_100, seed=3)
              for alpha in (0.1, 0.35, 0.8)]
        + [_ar1_config(alpha=0.5, mode="plain", trials=15, horizon=1_100, seed=3)],
        subclasses=[(_ENV_KINDS, "ar1", _ShiftedAr1Env)],
        non_finite=[(_ar1_config(zeta=1e200, trials=3), "NumericError: non-finite reward")],
    ),
    (GoalMdpEnv, OptimisticQAgent): _Entry(
        cell=_goal_config,
        cells=st.lists(st.builds(
            lambda shape, **kw: _goal_config(*shape, **kw),
            shape=st.sampled_from([(1, 1), (2, 1), (2, 3), (3, 2), (5, 3)]),
            resample_prob=st.sampled_from([0.0, 1e-4, 1e-3, 0.05]),
            stepsize=st.sampled_from([0.0, 0.5, 1.0]),
            discount=st.sampled_from([0.5, 0.9]),
            boost=st.sampled_from([0.0, 1e-3]),
            horizon=st.one_of(st.sampled_from([1, 511, 512, 513, 1023, 1024, 1025]),
                              st.integers(1, 40)),
            trials=st.integers(1, 3), seed=st.integers(0, 3),
        ), min_size=1, max_size=6),
        max_examples=12,
        gate=[_goal_config(resample_prob=p, stepsize=a, boost=b, n_states=6, n_actions=3,
                           trials=5, horizon=1_100, seed=3)
              for p in (1e-4, 1e-3) for a in (0.0, 0.2, 1.0) for b in (0.0, 1e-3)],
        subclasses=[(_ENV_KINDS, "goal_mdp", _LazyGoalMdpEnv)],
        # an overflowing boost makes Q NaN
        non_finite=[(_goal_config(n_states=3, n_actions=2, boost=1e306, trials=3),
                     "NumericError: no greedy action")],
    ),
    (Ar1ScalarEnv, IdbdAgent): _Entry(
        cell=_idbd_config,
        cells=st.lists(st.builds(
            _idbd_config,
            mode=st.sampled_from(["capacity", "standard"]),
            eta=st.floats(0.0, 0.99), sigma=st.floats(0.05, 2.0), capacity=st.floats(0.01, 5.0),
            zeta_meta=st.one_of(st.just(0.0), st.floats(0.0, 0.5)), alpha0=st.floats(1e-3, 1.0),
            delta=st.floats(0.0, 2.0), agent_eta=st.one_of(st.none(), st.floats(0.0, 0.99)),
            horizon=st.one_of(st.sampled_from([1, 511, 512, 513, 1025]), st.integers(1, 3000)),
            trials=st.integers(1, 3), seed=st.integers(0, 3),
        ), min_size=1, max_size=4),
        max_examples=25,
        # fig9's cells; T = 2,501 records every 2nd step and the last one
        gate=[_idbd_config(mode=mode, trials=3, horizon=2_501)
              for mode in ("capacity", "standard")],
        subclasses=[(_ENV_KINDS, "ar1", _ShiftedAr1Env),
                    (_AGENT_KINDS, "idbd", _DoubleStepIdbdAgent)],
        non_finite=[
            # capacity mode: the noise-growth penalty overflows at alpha = 1, step 0
            (_idbd_config(zeta_meta=1.0, agent_sigma=1.3e154, alpha0=1.0, trials=2), _DIVERGED),
            # standard mode: zeta_meta * err * h overflows a few steps in, to +inf,
            # -inf or NaN across these six trials
            (_idbd_config(mode="standard", zeta_meta=1e308, trials=3, seed=1), _DIVERGED),
            (_idbd_config(mode="standard", zeta_meta=1e308, trials=3, seed=2), _DIVERGED),
            # +inf on the last step, where nothing later could reveal a clamped +inf
            (_idbd_config(mode="standard", zeta_meta=1e308, trials=1, seed=20, horizon=2),
             _DIVERGED + "1"),
            # the reward overflows while the log-stepsize stays finite
            (_idbd_config(mode="standard", sigma=1e200, zeta_meta=0.0, trials=2),
             "NumericError: non-finite reward"),
            # delta^2 overflows (its gradient does not) once a huge drift lifts
            # alpha: the state leaves the float range and a later reward is -inf
            (_idbd_overflowing_noise_config(horizon=50), "NumericError: non-finite reward"),
        ],
    ),
}


def _scalar_outcomes(cfg, record_series=False):
    """Each trial's summary, or its failure text, from run_trajectory alone."""
    out = []
    for i in range(cfg.trials):
        stream = RngStream(cfg.seed).child("trial", cfg.canonical_key(), i)
        try:
            out.append(run_trajectory(build_env(cfg.env), build_agent(cfg.agent), cfg.horizon,
                                      stream, record_series=record_series))
        except (NumericError, DegenerateMdpError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def _outcomes(results):
    assert [r.index for r in results] == list(range(len(results)))
    return [r.summary if r.error is None else r.error for r in results]


def _python_float_rewards(outcomes):
    """Whether every successful trial's average_reward is a Python float
    (``==`` alone would let an np.float64 through)."""
    return all(type(o.metrics["average_reward"]) is float
               for o in outcomes if not isinstance(o, str))


def _on_kernels(wrap=lambda run: run):
    """Every kernel ``run`` of sweep._KERNELS replaced by ``wrap(run)``."""
    return mock.patch.dict(sweep._KERNELS,
                           {key: wrap(run) for key, run in sweep._KERNELS.items()})


@contextmanager
def _scalar_calls():
    """The run_trajectory calls sweep makes in this process."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run_trajectory(*args, **kwargs)

    with mock.patch.object(sweep, "run_trajectory", counted):
        yield calls


def _refuse(*args, **kwargs):
    raise AssertionError("must not be called")


def _with_series(cells, on=True):
    """``cells``, each reporting a reward series if ``on``."""
    return [replace(cfg, series=(("cum_avg_reward", None),)) if on else cfg for cfg in cells]


def test_parity_table_covers_every_kernel():
    assert _PARITY.keys() == {key[:2] for key in sweep._KERNELS}


@pytest.mark.parametrize("pair", _PARITY, ids=_pair_id)
def test_kernel_equals_scalar_path(pair):
    entry = _PARITY[pair]

    @settings(max_examples=entry.max_examples, deadline=None)
    @given(entry.cells, st.booleans() if _series(pair) else st.just(False))
    def check(cells, record_series):
        cells = _with_series(cells, record_series)
        expected = [_scalar_outcomes(cfg, record_series) for cfg in cells]
        failed = sum(isinstance(o, str) for outcomes in expected for o in outcomes)
        run = lambda workers: [_outcomes(results) for results in run_trials(
            cells, workers=workers)]
        with _on_kernels():
            with _scalar_calls() as calls:
                got = run(1)
            assert run(2) == got == expected
        assert len(calls) <= failed  # the kernel ran every trial that succeeds
        assert all(_python_float_rewards(outcomes) for outcomes in got + expected)

    check()


@pytest.mark.parametrize("pair", _PARITY, ids=_pair_id)
def test_kernel_gate_never_calls_run_trajectory(pair):
    series = _series(pair)
    cells = _with_series(_PARITY[pair].gate, series)
    expected = [_scalar_outcomes(cfg, series) for cfg in cells]
    with _scalar_calls() as calls:
        got = [_outcomes(results) for results in run_trials(cells, workers=1)]
    assert got == expected
    assert calls == []
    assert all(_python_float_rewards(outcomes) for outcomes in got)
    if series:
        assert {len(points) for outcomes in got for o in outcomes
                for points in (o.reward_series, *o.diagnostics.values())} == {1_251}


@pytest.mark.parametrize("pair, table, kind, cls", [
    pytest.param(pair, table, kind, cls, id=f"{_pair_id(pair)}-{cls.__name__.lstrip('_')}")
    for pair, entry in _PARITY.items() for table, kind, cls in entry.subclasses])
def test_kernel_skips_subclasses(monkeypatch, pair, table, kind, cls):
    series = _series(pair)
    [cfg] = _with_series([_PARITY[pair].cell(trials=3)], series)
    plain = _scalar_outcomes(cfg, series)
    monkeypatch.setitem(table, kind, cls)
    changed = _scalar_outcomes(cfg, series)
    assert changed != plain
    with _on_kernels(), _scalar_calls() as calls:
        assert _outcomes(run_trials([cfg], workers=1)[0]) == changed
    assert len(calls) == cfg.trials


class _Delegate:
    """Forwards every attribute to the object it wraps, as the benchmark's
    per-layer proxies do; not a subclass of the kernel's classes."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _wrap_builds(monkeypatch):
    """Wrap every build in a _Delegate, as a hook around the builders does."""
    monkeypatch.setattr(sweep, "build_env", lambda spec: _Delegate(build_env(spec)))
    monkeypatch.setattr(sweep, "build_agent", lambda spec: _Delegate(build_agent(spec)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("pair", _PARITY, ids=_pair_id)
def test_kernel_skips_wrapped_builds(monkeypatch, pair, workers):
    # A hook that wraps a cell's builds hides the kernel's classes from the
    # planner: the whole cell runs on run_trajectory, in trial order, and no
    # wrapped object reaches a kernel.
    series = _series(pair)
    [cfg] = _with_series([_PARITY[pair].cell(trials=5)], series)
    expected = _scalar_outcomes(cfg, series)
    _wrap_builds(monkeypatch)
    with _on_kernels(lambda run: _refuse), _scalar_calls() as calls:
        assert _outcomes(run_trials([cfg], workers=workers)[0]) == expected
    if workers == 1:  # a pool's calls happen in its workers
        assert [stream for *_, stream in calls] == [
            RngStream(cfg.seed).child("trial", cfg.canonical_key(), i) for i in range(cfg.trials)]
        assert all(isinstance(env, _Delegate) and isinstance(agent, _Delegate)
                   for env, agent, *_ in calls)


def test_plan_names_no_kernel_for_wrapped_builds(monkeypatch):
    # Pools are keyed by the built classes: the cells that reach every kernel
    # name none once their builds are wrapped.
    cells = [entry.cell(trials=64) for entry in _PARITY.values()]
    keys = lambda: [key for key, *_ in sweep._plan(cells, 2)[0]]
    assert set(keys()) == {(*pair, False) for pair in _PARITY}
    _wrap_builds(monkeypatch)
    assert keys() == [None] * 8 * len(cells)


def _mismatched_spaces():
    cfg = _goal_config()
    cfg.agent["n_actions"] = 3
    return cfg


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bad, message", [
    (_mismatched_spaces(), r"action spaces differ: env=\('discrete', 2\) agent=\('discrete', 3\)"),
    (_goal_config(n_actions=0), "bad parameters for env 'goal_mdp'"),
    # fig9's capacity cell at a capacity whose exp(-2C) rounds to 1
    (_idbd_config(capacity=1e-17), "bad parameters for agent 'idbd': capacity must be positive with"),
], ids=["spaces", "spec", "tiny-capacity"])
def test_a_bad_last_cell_fails_before_any_trial_runs(workers, bad, message):
    # The planner builds every cell before any payload runs: with cells of
    # every kernel and of the scalar path ahead of it, the bad last cell
    # raises with no kernel call, no run_trajectory call and no pool.
    cells = [entry.cell(trials=8) for entry in _PARITY.values()] + [_coin_config(), bad]
    with (_on_kernels(lambda run: _refuse), mock.patch.object(sweep, "run_trajectory", _refuse),
          mock.patch.object(sweep, "ProcessPoolExecutor", _refuse),
          pytest.raises(ConfigurationError, match=message)):
        run_trials(cells, workers=workers)


@pytest.mark.parametrize("pair, cfg, message", [
    pytest.param(pair, cfg, message, id=f"{_pair_id(pair)}-{k}")
    for pair, entry in _PARITY.items() for k, (cfg, message) in enumerate(entry.non_finite)])
def test_kernel_hands_back_non_finite_trials(pair, cfg, message):
    cells = [cfg, _PARITY[pair].cell(trials=2)]
    handed_back = []

    def recorded(run):
        def kernel(*args, **kwargs):
            results = run(*args, **kwargs)
            handed_back.extend(r is None for r in results)
            return results
        return kernel

    with np.errstate(all="ignore"):
        expected = [_scalar_outcomes(c) for c in cells]
        with _on_kernels(recorded):
            got = [_outcomes(results) for results in run_trials(cells, workers=1)]
    assert all(o.startswith(message) for o in expected[0])
    assert got == expected
    assert handed_back == [True] * cfg.trials + [False] * 2


def test_cell_is_frozen_after_its_checks():
    # ExperimentConfig's own checks are the only ones a cell's horizon gets.
    cfg = _coin_config()
    with pytest.raises(FrozenInstanceError):
        cfg.horizon = 0


# The idbd kernel alone, without sweep's handback: a trial it returns is the
# scalar path's summary; a trial the scalar path fails on may come back None.
@settings(max_examples=25, deadline=None)
@given(_PARITY[(Ar1ScalarEnv, IdbdAgent)].cells, st.booleans())
def test_idbd_trials_equal_scalar_path(cells, record_series):
    cells = _with_series(cells, record_series)
    expected = [_scalar_outcomes(cfg, record_series) for cfg in cells]
    got = [_outcomes(results) for results in run_trials(cells, workers=1)]
    assert got == expected
    for cfg, outcomes in zip(cells, expected):
        streams = [RngStream(cfg.seed).child("trial", cfg.canonical_key(), i)
                   for i in range(cfg.trials)]
        direct = run_idbd_trials([build_env(cfg.env) for _ in streams],
                                 [build_agent(cfg.agent) for _ in streams],
                                 cfg.horizon, streams, record_series)
        assert [d if d is not None else o for d, o in zip(direct, outcomes)] == outcomes
        assert all(d is not None for d, o in zip(direct, outcomes) if not isinstance(o, str))


def test_idbd_overflowing_noise_on_the_last_step_is_no_failure():
    # One trial's delta^2 overflows at its last update, after its last
    # reward: both trials succeed, on the kernel as on run_trajectory.
    cfg = _idbd_overflowing_noise_config(zeta_meta=1.0, horizon=2)
    expected = _scalar_outcomes(cfg)
    assert all(isinstance(o, TrajectorySummary) for o in expected)
    with _on_kernels(), _scalar_calls() as calls:
        assert _outcomes(run_trials([cfg], workers=1)[0]) == expected
    assert calls == []


def test_idbd_fig9_cells_worker_count_invariance():
    cells = [_idbd_config(mode=mode, trials=3, horizon=700) for mode in ("capacity", "standard")]
    for record_series in (False, True):
        series_cells = _with_series(cells, record_series)
        assert run_trials(series_cells, workers=2) == run_trials(series_cells, workers=1)


def test_series_cells_reach_only_kernels_that_record_series():
    pairs = [pair for pair in _PARITY if not _series(pair)]
    cells = _with_series([_PARITY[pair].cell(trials=8) for pair in pairs])
    refused = {(*pair, False): _refuse for pair in pairs}
    with mock.patch.dict(sweep._KERNELS, refused):
        got = [_outcomes(results) for results in run_trials(cells, workers=1)]
    assert got == [_scalar_outcomes(cfg, record_series=True) for cfg in cells]


def test_no_cells_start_no_pool():
    # fig7 and fig8 yield no cells; their empty request runs serially.
    with mock.patch.object(sweep, "ProcessPoolExecutor", _refuse):
        assert run_trials([], workers=2) == []
        assert monte_carlo_sweep([], workers=2).rows == []


@pytest.mark.parametrize("record_series", [False, True])
def test_plan_splits_kernel_and_scalar_pools_by_their_own_rules(record_series):
    # A kernel pool of n trials makes max(workers, ceil(n / 256)) round-robin
    # payloads; every other pool makes 4 * workers payloads per cell. Cells
    # pool by (pool key, horizon, env spaces), so each group below is one pool.
    workers = 2
    goal = (GoalMdpEnv, OptimisticQAgent, False)
    lms = [_ar1_config(alpha=a, trials=300, horizon=50) for a in (0.2, 0.6)]
    expected = [  # (cells of one pool, the key its payloads name, payload count)
        # lms has no series kernel
        (lms, None, 16) if record_series else (lms, (Ar1ScalarEnv, LmsAgent, False), 3),
        ([_idbd_config(mode=m, trials=400, horizon=40) for m in ("capacity", "standard")],
         (Ar1ScalarEnv, IdbdAgent, record_series), 4),
        # however small, a pool reaches its kernel: 2 payloads of 8 and 7 trials
        ([_goal_config(trials=15)], *((None, 8) if record_series else (goal, 2))),
        # goal cells of two more shapes: one pool per (n_states, n_actions)
        *[([_goal_config(n_states=n_states, n_actions=n_actions, trials=40)],
           *((None, 8) if record_series else (goal, 2)))
          for n_states, n_actions in ((3, 2), (5, 3))],
        ([_coin_config(trials=16)], None, 8),  # no kernel
        ([_coin_config(trials=8, horizon=80), _coin_config(trials=16, horizon=80, seed=3)],
         None, 16),
    ]
    cells = _with_series([cfg for group, _, _ in expected for cfg in group], record_series)
    payloads, owners = sweep._plan(cells, workers)
    assert len(payloads) == sum(count for _, _, count in expected)
    first = 0
    for group, route, count in expected:
        members = range(first, first + len(group))
        first += len(group)
        mine = [(p, o) for p, o in zip(payloads, owners) if o[0] in members]
        assert len(mine) == count
        seen = []
        for (got_route, horizon, trials, series), cell_of in mine:
            assert got_route == route and horizon == group[0].horizon and series == record_series
            assert len(trials) == len(cell_of) and set(cell_of) <= set(members)
            for c, (env, agent, key, seed, i) in zip(cell_of, trials):
                assert (env, agent, key, seed) == (cells[c].env, cells[c].agent,
                                                   cells[c].canonical_key(), cells[c].seed)
                seen.append((c, i))
        assert sorted(seen) == [(c, i) for c in members for i in range(cells[c].trials)]


def _mixed_series_cells():
    """A series cell and a plain cell of every kernel's pair, then of a pair
    with no kernel."""
    return [cfg for cell in [*(entry.cell for entry in _PARITY.values()), _coin_config]
            for on in (True, False) for cfg in _with_series([cell(trials=5)], on)]


@pytest.mark.parametrize("workers", [1, 2])
def test_one_call_records_series_for_exactly_the_cells_that_ask(workers):
    # Series are per cell: in one call a series cell gets its series and a
    # plain cell none, and each equals that cell run alone.
    cells = _mixed_series_cells()
    got = run_trials(cells, workers=workers)
    assert got == [run_trials([cfg], workers=1)[0] for cfg in cells]
    assert [_outcomes(results) for results in got] == [
        _scalar_outcomes(cfg, bool(cfg.series)) for cfg in cells]


def test_plan_pools_series_and_plain_cells_apart():
    # Series idbd cells stay on their kernel; series lms and goal cells go to
    # the scalar path, as the cells with no kernel do; plain cells keep theirs.
    lms, goal, idbd = ((Ar1ScalarEnv, LmsAgent), (GoalMdpEnv, OptimisticQAgent),
                       (Ar1ScalarEnv, IdbdAgent))
    cells = _mixed_series_cells()
    payloads, owners = sweep._plan(cells, 2)
    routes = [set() for _ in cells]
    for (key, _, _, series), cell_of in zip(payloads, owners):
        assert {bool(cells[c].series) for c in cell_of} == {series}
        for c in cell_of:
            routes[c].add((key, series))
    assert routes == [{(None, True)}, {((*lms, False), False)}, {(None, True)},
                      {((*goal, False), False)}, {((*idbd, True), True)},
                      {((*idbd, False), False)}, {(None, True)}, {(None, False)}]


def test_mixed_lockstep_and_scalar_cells_keep_trial_order():
    cells = [_ar1_config(trials=5), _coin_config(trials=3), _ar1_config(alpha=0.6, horizon=50),
             _coin_config(trials=6, horizon=80), _ar1_config(mode="plain", trials=2)]
    alone = [run_trials([cfg], workers=1)[0] for cfg in cells]
    for workers in (1, 2):
        with _on_kernels():
            together = run_trials(cells, workers=workers)
        assert together == alone
        assert [[r.index for r in results] for results in together] == [
            list(range(cfg.trials)) for cfg in cells]


@pytest.mark.parametrize("failing_call", [1, 4])
def test_goal_lockstep_degenerate_rescale_matches_scalar_error(monkeypatch, failing_call):
    # failing_call 1 is the reset's rescale, 4 a rescale after a row event.
    # Both paths rescale through mdp_tools.goal_reward_scales, looked up at
    # call time; the forced goal mass names the rescale it was forced on.
    cfg = _goal_config(n_states=3, resample_prob=0.05, trials=1, horizon=200)
    engine = mdp_tools.goal_reward_scales
    calls, fail_at = [0], [0]

    def fails_once(*args):
        mass, q = engine(*args)
        for i in range(len(mass)):
            calls[0] += 1
            if calls[0] >= fail_at[0] > 0:  # and every rescale after it
                mass[i] = calls[0] * 1e-12
        return mass, q

    monkeypatch.setattr(mdp_tools, "goal_reward_scales", fails_once)
    assert isinstance(_scalar_outcomes(cfg)[0], sweep.TrajectorySummary)
    assert calls[0] > 4  # the trial rescales past the failing call
    calls[0], fail_at[0] = 0, failing_call
    expected = _scalar_outcomes(cfg)
    assert expected == [f"DegenerateMdpError: goal state 0 has stationary mass "
                        f"{failing_call}.000e-12 under the greedy policy"]
    calls[0] = 0
    monkeypatch.setattr(sweep, "run_trajectory", _refuse)
    with _on_kernels():
        assert _outcomes(run_trials([cfg], workers=1)[0]) == expected


def test_goal_lockstep_unsettled_rescale_matches_scalar_error(monkeypatch):
    # With one policy-iteration round most rescales are still moving: both
    # paths fail those trials with goal_reward's text.
    monkeypatch.setattr(mdp_tools, "_PI_ROUNDS", 1)
    cfg = _goal_config(n_states=3, resample_prob=0.05, trials=6, horizon=200)
    expected = _scalar_outcomes(cfg)
    assert "DegenerateMdpError: policy iteration did not settle in 1 rounds" in expected
    monkeypatch.setattr(sweep, "run_trajectory", _refuse)
    with _on_kernels():
        assert _outcomes(run_trials([cfg], workers=1)[0]) == expected


def test_goal_lockstep_trials_with_events_at_the_same_step():
    # At T = 1 every row event falls on step 0, so a trial's first event step
    # is the previous trial's last: each trial must still be rescaled in the
    # round of its own events.
    cells = [_goal_config(n_states=3, resample_prob=0.5, trials=8, horizon=T, seed=seed)
             for T in (1, 2) for seed in (0, 1)]
    expected = [_scalar_outcomes(cfg) for cfg in cells]
    with _on_kernels():
        with _scalar_calls() as calls:
            got = [_outcomes(results) for results in run_trials(cells, workers=1)]
    assert got == expected and not calls
