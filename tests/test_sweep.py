import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contilab import mdp_tools, sweep
from contilab.agents import build_agent
from contilab.core import run_trajectory
from contilab.envs import _ENV_KINDS, Ar1ScalarEnv, GoalMdpEnv, build_env
from contilab.errors import ConfigurationError, DegenerateMdpError, NumericError
from contilab.rng import RngStream
from contilab.sweep import (ExperimentConfig, aggregate, monte_carlo_sweep, resolve_workers,
                            run_trials)


def _coin_config(**kw):
    base = dict(
        experiment_name="t",
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
    assert row.mean == summary.average_reward
    assert row.trials == 1 and row.std == 0.0 and row.ci95 == 0.0


def test_grid_permutation_invariance():
    cfg = _coin_config(sweep={"agent.mean_p": [0.6, 0.7, 0.8]})
    cells = cfg.expand()
    t1 = monte_carlo_sweep(cells, workers=1)
    t2 = monte_carlo_sweep(list(reversed(cells)), workers=1)
    by_coord = lambda t: {tuple(r.coords.items()): r.mean for r in t.rows if r.metric == "average_reward"}
    assert by_coord(t1) == by_coord(t2)


def test_worker_count_invariance():
    cfg = _coin_config(trials=6, sweep={"agent.mean_p": [0.6, 0.8]})
    t1 = monte_carlo_sweep(cfg.expand(), workers=1)
    t2 = monte_carlo_sweep(cfg.expand(), workers=2)
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1.coords == r2.coords and r1.metric == r2.metric
        assert r1.mean == r2.mean and r1.std == r2.std


def test_sweep_axis_must_exist():
    with pytest.raises(ConfigurationError, match="sweep axis"):
        _coin_config(sweep={"agent.nonexistent": [1, 2]}).expand()


def test_aggregate_statistics():
    cfg = _coin_config(trials=8)
    values = [r.summary.average_reward for r in run_trials([cfg], workers=1)[0]]
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


def test_config_validation():
    with pytest.raises(ConfigurationError):
        _coin_config(horizon=0)
    with pytest.raises(ConfigurationError):
        _coin_config(trials=0)


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
    a, b = cells[:2]
    together = run_trials([a, b], workers=1, record_series=True)
    assert together == [run_trials([a], workers=1, record_series=True)[0],
                        run_trials([b], workers=1, record_series=True)[0]]
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


# ar1 x lms cells run on the lockstep kernel; every summary must equal the
# scalar path's, trial by trial.
def _ar1_config(eta=0.9, zeta=0.5, sigma=1.0, mu0=0.0, sigma0=1.0, alpha=0.3,
                agent_eta=0.9, mode="shrinkage", **kw):
    base = dict(
        experiment_name="t",
        env={"kind": "ar1", "eta": eta, "zeta": zeta, "sigma": sigma, "mu0": mu0, "sigma0": sigma0},
        agent={"kind": "lms", "alpha": alpha, "eta": agent_eta, "mode": mode},
        horizon=300, trials=3, seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _scalar_outcomes(cfg):
    """Each trial's summary, or its failure text, from run_trajectory alone."""
    out = []
    for i in range(cfg.trials):
        stream = RngStream(cfg.seed).child("trial", cfg.canonical_key(), i)
        try:
            out.append(run_trajectory(build_env(cfg.env), build_agent(cfg.agent), cfg.horizon,
                                      stream, record_series=False))
        except (NumericError, DegenerateMdpError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def _on_kernels():
    """Let every lockstep pool reach its kernel, however few trials a payload gets."""
    return mock.patch.dict(sweep._KERNELS, {
        pair: (kernel, 1) for pair, (kernel, _) in sweep._KERNELS.items()})


def _outcomes(results):
    assert [r.index for r in results] == list(range(len(results)))
    return [r.summary if r.error is None else r.error for r in results]


_unit = st.floats(0.0, 1.0)
_ar1_lms_cells = st.lists(
    st.builds(
        _ar1_config,
        eta=_unit, zeta=st.floats(0.0, 2.0), sigma=st.floats(0.0, 2.0),
        mu0=st.floats(-3.0, 3.0), sigma0=st.floats(0.0, 4.0), alpha=_unit, agent_eta=_unit,
        mode=st.sampled_from(["shrinkage", "plain"]),
        horizon=st.one_of(st.sampled_from([1, 255, 256, 257, 511, 512, 513]), st.integers(1, 40)),
        trials=st.integers(1, 3), seed=st.integers(0, 3),
    ),
    min_size=1, max_size=8,
)


@settings(max_examples=15, deadline=None)
@given(_ar1_lms_cells)
def test_lockstep_equals_scalar_path(cells):
    expected = [_scalar_outcomes(cfg) for cfg in cells]
    with _on_kernels():
        for workers in (1, 2):
            assert [_outcomes(results) for results in run_trials(cells, workers=workers)] == expected


def test_lockstep_fifty_trials_equal_scalar_path_without_calling_it(monkeypatch):
    cells = [_ar1_config(alpha=alpha, trials=15, horizon=1_100, seed=3) for alpha in (0.1, 0.35, 0.8)]
    cells.append(_ar1_config(alpha=0.5, mode="plain", trials=15, horizon=1_100, seed=3))
    expected = [_scalar_outcomes(cfg) for cfg in cells]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run_trajectory(*args, **kwargs)

    monkeypatch.setattr(sweep, "run_trajectory", counted)
    assert [_outcomes(results) for results in run_trials(cells, workers=1)] == expected
    assert calls == []


def test_lockstep_overflow_falls_back_to_scalar_error():
    cells = [_ar1_config(trials=4), _ar1_config(zeta=1e200, trials=3), _ar1_config(alpha=0.7)]
    expected = [_scalar_outcomes(cfg) for cfg in cells]
    assert all(isinstance(o, str) and o.startswith("NumericError: non-finite reward")
               for o in expected[1])
    assert [_outcomes(results) for results in run_trials(cells, workers=1)] == expected


class _ShiftedAr1Env(Ar1ScalarEnv):
    def step(self, action):
        return super().step(action) + 0.25


def test_lockstep_leaves_subclasses_to_the_scalar_path(monkeypatch):
    cfg = _ar1_config(trials=4)
    plain = _scalar_outcomes(cfg)
    monkeypatch.setitem(_ENV_KINDS, "ar1", _ShiftedAr1Env)
    shifted = _scalar_outcomes(cfg)
    assert shifted != plain
    with _on_kernels():
        assert _outcomes(run_trials([cfg], workers=1)[0]) == shifted


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


def _refuse_kernel(*args):
    raise AssertionError("lockstep kernel called")


def test_small_lockstep_pool_stays_on_the_scalar_path():
    # 2 trials at 2 workers make 1-trial payloads, where the kernel's fixed
    # cost per step makes it slower than run_trajectory.
    cfg = _ar1_config(trials=2, horizon=400)
    assert cfg.trials // 2 < sweep._AR1_LMS_MIN_TRIALS
    refused = {("ar1", "lms"): (_refuse_kernel, sweep._AR1_LMS_MIN_TRIALS)}
    with mock.patch.dict(sweep._KERNELS, refused):
        assert _outcomes(run_trials([cfg], workers=2)[0]) == _scalar_outcomes(cfg)


# goal_mdp x optimistic_q cells run on run_goal_lockstep.
def _goal_config(n_states=4, n_actions=2, resample_prob=1e-3, stepsize=0.3, discount=0.9,
                 boost=1e-3, **kw):
    base = dict(
        experiment_name="t",
        env={"kind": "goal_mdp", "n_states": n_states, "n_actions": n_actions,
             "resample_prob": resample_prob},
        agent={"kind": "optimistic_q", "n_states": n_states, "n_actions": n_actions,
               "stepsize": stepsize, "discount": discount, "boost": boost},
        horizon=300, trials=2, seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


_goal_q_cells = st.lists(
    st.builds(
        lambda shape, **kw: _goal_config(*shape, **kw),
        shape=st.sampled_from([(1, 1), (2, 1), (2, 3), (3, 2), (5, 3)]),
        resample_prob=st.sampled_from([0.0, 1e-4, 1e-3, 0.05]),
        stepsize=st.sampled_from([0.0, 0.5, 1.0]),
        discount=st.sampled_from([0.5, 0.9]),
        boost=st.sampled_from([0.0, 1e-3]),
        horizon=st.one_of(st.sampled_from([1, 511, 512, 513, 1023, 1024, 1025]),
                          st.integers(1, 40)),
        trials=st.integers(1, 3), seed=st.integers(0, 3),
    ),
    min_size=1, max_size=6,
)


def _python_float_rewards(outcomes):
    """Whether every successful trial's average_reward is a Python float
    (``==`` alone would let an np.float64 through)."""
    return all(type(o.average_reward) is float for o in outcomes if not isinstance(o, str))


@settings(max_examples=12, deadline=None)
@given(_goal_q_cells)
def test_goal_lockstep_equals_scalar_path(cells):
    expected = [_scalar_outcomes(cfg) for cfg in cells]
    assert all(_python_float_rewards(outcomes) for outcomes in expected)
    with _on_kernels():
        for workers in (1, 2):
            got = [_outcomes(results) for results in run_trials(cells, workers=workers)]
            assert got == expected
            assert all(_python_float_rewards(outcomes) for outcomes in got)


def test_goal_lockstep_sixty_trials_equal_scalar_path_without_calling_it(monkeypatch):
    cells = [_goal_config(resample_prob=p, stepsize=a, boost=b, n_states=6, n_actions=3,
                          trials=5, horizon=1_100, seed=3)
             for p in (1e-4, 1e-3) for a in (0.0, 0.2, 1.0) for b in (0.0, 1e-3)]
    expected = [_scalar_outcomes(cfg) for cfg in cells]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run_trajectory(*args, **kwargs)

    monkeypatch.setattr(sweep, "run_trajectory", counted)
    assert sum(cfg.trials for cfg in cells) >= 60
    got = [_outcomes(results) for results in run_trials(cells, workers=1)]
    assert got == expected
    assert calls == []
    assert all(_python_float_rewards(outcomes) for outcomes in got + expected)


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
            if calls[0] == fail_at[0]:
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
    monkeypatch.setattr(sweep, "run_trajectory", _refuse_kernel)
    with _on_kernels():
        assert _outcomes(run_trials([cfg], workers=1)[0]) == expected


def test_goal_lockstep_hands_nan_q_trials_to_the_scalar_error(monkeypatch):
    # An overflowing boost makes Q NaN: the kernel returns those trials, and
    # run_trajectory's NumericError becomes their failed-trial rows.
    cfg = _goal_config(n_states=3, n_actions=2, boost=1e306, trials=3, horizon=300)
    with np.errstate(all="ignore"):
        expected = _scalar_outcomes(cfg)
    assert all(o.startswith("NumericError: no greedy action") for o in expected)
    kernel, handed_back = sweep.run_goal_lockstep, []

    def recorded(*args):
        results = kernel(*args)
        handed_back.extend(r is None for r in results)
        return results

    monkeypatch.setitem(sweep._KERNELS, ("goal_mdp", "optimistic_q"), (recorded, 1))
    with np.errstate(all="ignore"):
        assert _outcomes(run_trials([cfg], workers=1)[0]) == expected
    assert handed_back == [True] * cfg.trials


class _LazyGoalMdpEnv(GoalMdpEnv):
    def reward(self, action, observation):
        return 0.5 * super().reward(action, observation)


def test_goal_lockstep_leaves_subclasses_to_the_scalar_path(monkeypatch):
    cfg = _goal_config(trials=4)
    plain = _scalar_outcomes(cfg)
    monkeypatch.setitem(_ENV_KINDS, "goal_mdp", _LazyGoalMdpEnv)
    halved = _scalar_outcomes(cfg)
    assert halved != plain
    with _on_kernels():
        assert _outcomes(run_trials([cfg], workers=1)[0]) == halved
