import math
import pickle
from array import array

import numpy as np
import pytest
from _oracles import average_reward

from contilab.core import TrajectorySummary, run_trajectory, series_steps
from contilab.errors import ConfigurationError, NumericError
from contilab.rng import DRAW_BLOCK, RngStream, reset_blocks


class ConstantRewardEnv:
    action_space = ("discrete", 2)
    observation_space = ("discrete", 2)

    def reset(self, stream):
        pass

    def step(self, action):
        return 0

    def reward(self, action, observation):
        return 1.0


class FairCoinEnv:
    """Coin prediction: observation is a fair bit, reward is 1 on a match."""

    action_space = ("discrete", 2)
    observation_space = ("discrete", 2)

    def reset(self, stream):
        self._rng = stream.buffer()

    def step(self, action):
        return 1 if self._rng.uniform() < 0.5 else 0

    def reward(self, action, observation):
        return 1.0 if action == observation else 0.0


class AlwaysOneAgent:
    action_space = ("discrete", 2)
    observation_space = ("discrete", 2)

    def reset(self, stream):
        pass

    def act(self):
        return 1

    def update(self, action, observation, reward):
        pass


class RealActionAgent(AlwaysOneAgent):
    action_space = ("real",)


class ExplodingRewardEnv(ConstantRewardEnv):
    def __init__(self, bad_step):
        self.bad_step = bad_step
        self._t = 0

    def reward(self, action, observation):
        r = math.inf if self._t == self.bad_step else 1.0
        self._t += 1
        return r


def test_average_reward_basic():
    assert average_reward([1, 0, 1, 0]) == 0.5
    assert average_reward([2.5] * 17) == 2.5


def test_average_reward_errors():
    with pytest.raises(ValueError):
        average_reward([])
    with pytest.raises(ValueError):
        average_reward([1.0, math.nan])


def test_constant_reward_is_exactly_one():
    summary = run_trajectory(ConstantRewardEnv(), AlwaysOneAgent(), 100, RngStream(0))
    assert summary.metrics["average_reward"] == 1.0


def test_fair_coin_prediction_near_half():
    summary = run_trajectory(FairCoinEnv(), AlwaysOneAgent(), 100_000, RngStream(3))
    stderr = math.sqrt(0.25 / 100_000)
    assert abs(summary.metrics["average_reward"] - 0.5) < 3 * stderr


def test_determinism_bit_identical():
    a = run_trajectory(FairCoinEnv(), AlwaysOneAgent(), 5_000, RngStream(42, 7))
    b = run_trajectory(FairCoinEnv(), AlwaysOneAgent(), 5_000, RngStream(42, 7))
    assert a.metrics["average_reward"] == b.metrics["average_reward"]
    assert a.reward_series == b.reward_series
    c = run_trajectory(FairCoinEnv(), AlwaysOneAgent(), 5_000, RngStream(42, 8))
    assert c.metrics["average_reward"] != a.metrics["average_reward"]


def test_reward_accounting_matches_step_records():
    summary = run_trajectory(FairCoinEnv(), AlwaysOneAgent(), 20_000, RngStream(5),
                             record_steps=True)
    replayed = math.fsum(s.reward for s in summary.steps) / len(summary.steps)
    assert summary.metrics["average_reward"] == replayed
    assert [s.t for s in summary.steps] == list(range(20_000))


class CountingAgent(AlwaysOneAgent):
    """Reports the number of updates so far as its diagnostic."""

    def reset(self, stream):
        self.updates = 0

    def update(self, action, observation, reward):
        self.updates += 1

    def diagnostics(self):
        return {"updates": float(self.updates)}


def test_series_thinning():
    summary = run_trajectory(ConstantRewardEnv(), AlwaysOneAgent(), 4_000, RngStream(1))
    # stride = ceil(4000 / 2000) = 2
    assert isinstance(summary.reward_series, array) and summary.reward_series.typecode == "d"
    assert len(summary.reward_series) == 2_000
    assert series_steps(4_000)[-1] == 4_000
    assert summary.reward_series[-1] == 1.0
    short = run_trajectory(ConstantRewardEnv(), AlwaysOneAgent(), 7, RngStream(1))
    assert series_steps(7) == list(range(1, 8))
    assert len(short.reward_series) == 7


@pytest.mark.parametrize("T", [1, 7, 1999, 2000, 2001, 4001])
def test_series_steps_are_the_recorded_steps(T):
    summary = run_trajectory(ConstantRewardEnv(), CountingAgent(), T, RngStream(2))
    steps = series_steps(T)
    stride = -(-T // 2000)
    assert steps[0] == stride and steps[-1] == T
    assert steps == sorted(set(steps))
    # the agent has made t updates when step t records
    assert summary.diagnostics["updates"].tolist() == [float(t) for t in steps]
    assert summary.reward_series.tolist() == [1.0] * len(steps)
    assert run_trajectory(ConstantRewardEnv(), CountingAgent(), T, RngStream(2),
                          record_series=False).reward_series is None


def test_series_summary_pickles_compactly():
    summary = run_trajectory(FairCoinEnv(), CountingAgent(), 4_000, RngStream(3))
    values = len(summary.reward_series) + len(summary.diagnostics["updates"])
    assert values == 4_000
    data = pickle.dumps(summary)
    assert pickle.loads(data) == summary
    assert isinstance(pickle.loads(data), TrajectorySummary)
    assert len(data) <= 8 * values + 1_024


def test_non_finite_reward_reports_step():
    with pytest.raises(NumericError, match="step 3"):
        run_trajectory(ExplodingRewardEnv(bad_step=3), AlwaysOneAgent(), 10, RngStream(0))


class HugeRewardEnv(ConstantRewardEnv):
    def reward(self, action, observation):
        return 1e308


def test_overflowed_reward_sum_is_a_numeric_error():
    # Every reward is finite, but their sum is not: no NaN average may pass.
    with pytest.raises(NumericError, match="reward sum nan is not finite after 3 steps"):
        run_trajectory(HugeRewardEnv(), AlwaysOneAgent(), 3, RngStream(0))
    summary = run_trajectory(HugeRewardEnv(), AlwaysOneAgent(), 1, RngStream(0))
    assert summary.metrics["average_reward"] == 1e308


def test_incompatible_spaces_rejected():
    with pytest.raises(ConfigurationError, match="action spaces"):
        run_trajectory(ConstantRewardEnv(), RealActionAgent(), 5, RngStream(0))


def test_horizon_valided():
    with pytest.raises(ValueError):
        run_trajectory(ConstantRewardEnv(), AlwaysOneAgent(), 0, RngStream(0))


def test_rng_stream_children_differ():
    base = RngStream(123)
    a = base.child("env-noise").generator().random(8)
    b = base.child("agent-noise").generator().random(8)
    c = base.child("env-noise").generator().random(8)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)
    assert base.child("x", 1) != base.child("x", 2)


def test_draw_buffer_refills_consistently():
    # Past two refills of each kind, interleaved the same way twice.
    n = 2 * DRAW_BLOCK + 40
    buf = RngStream(9).buffer()
    first = [(buf.normal(), buf.uniform()) for _ in range(n)]
    buf2 = RngStream(9).buffer()
    assert first == [(buf2.normal(), buf2.uniform()) for _ in range(n)]
    idx = [RngStream(9).child("i").buffer().index(3) for _ in range(50)]
    assert set(idx) <= {0, 1, 2}


def test_draw_buffer_layout_on_the_generator():
    # The trial kernels read draws in this layout: reset_blocks' normal
    # block, then its uniform block, then refills of normals only.
    stream = RngStream(31, 4)
    buf = stream.buffer()
    drawn = np.array([buf.normal() for _ in range(3 * 512)])
    g = stream.generator()
    first = g.standard_normal(512)
    g.random(512)
    assert np.array_equal(drawn, np.concatenate([first, g.standard_normal(1024)]))
    norm, unif = reset_blocks(stream.generator())
    fresh = stream.buffer()
    assert np.array_equal(norm, first)
    assert unif.tolist() == [fresh.uniform() for _ in range(512)]
