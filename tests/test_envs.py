import math
from bisect import bisect_right

import numpy as np
import pytest
from _oracles import greedy_policy, redraw_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contilab import envs
from contilab.envs import (
    Ar1ScalarEnv,
    BitFlipEnv,
    CoinSwapEnv,
    GaussianAr1BanditEnv,
    GoalMdpEnv,
    LogitEnv,
    build_env,
)
from contilab.errors import ConfigurationError
from contilab.rng import RngStream


def _stderr(x):
    return np.std(x, ddof=1) / math.sqrt(len(x))


def test_ar1_noiseless_geometric_decay():
    env = Ar1ScalarEnv(eta=0.9, zeta=0.0, sigma=0.0, mu0=1.0, sigma0=0.0)
    env.reset(RngStream(0))
    obs = [env.step(0.0) for _ in range(4)]
    assert obs == pytest.approx([0.9, 0.81, 0.729, 0.6561], abs=1e-12)


def test_ar1_frozen_latent_observation_variance():
    env = Ar1ScalarEnv(eta=1.0, zeta=0.0, sigma=0.7, mu0=0.0, sigma0=0.0)
    env.reset(RngStream(1))
    ys = np.array([env.step(0.0) for _ in range(100_000)])
    assert env.theta == 0.0
    var = np.var(ys)
    se = np.std(ys**2, ddof=1) / math.sqrt(len(ys))
    assert abs(var - 0.49) < 4 * se


def test_ar1_stationary_parameterization():
    eta = 0.8
    env = Ar1ScalarEnv(eta=eta, zeta=math.sqrt(1 - eta * eta), sigma=0.0, mu0=0.0, sigma0=1.0)
    env.reset(RngStream(2))
    thetas = []
    for _ in range(100_000):
        env.step(0.0)
        thetas.append(env.theta)
    thetas = np.array(thetas)
    # batch-mean stderr to respect autocorrelation
    batches = np.array([b.mean() for b in np.split(thetas**2, 100)])
    assert abs(np.var(thetas) - 1.0) < 4 * batches.std(ddof=1) / 10


def test_ar1_reward_is_negative_squared_error():
    env = Ar1ScalarEnv(eta=0.9, zeta=0.5, sigma=1.0)
    assert env.reward(0.5, 2.0) == -2.25


def test_coin_fixed_bias_head_rate():
    env = CoinSwapEnv([{"prior": ["fixed", 0.8], "swap_prob": 0.0},
                       {"prior": ["fixed", 0.3], "swap_prob": 0.0}])
    env.reset(RngStream(3))
    tosses = np.array([env.step(0) for _ in range(100_000)])
    assert abs(tosses.mean() - 0.8) < 4 * _stderr(tosses)


def test_coin_fast_replacement_heads_near_half():
    env = CoinSwapEnv([{"prior": ["dyadic", 0.5], "swap_prob": 0.999}])
    env.reset(RngStream(4))
    tosses = np.array([env.step(0) for _ in range(100_000)])
    assert abs(tosses.mean() - 0.5) < 4 * _stderr(tosses)


def test_coin_full_replacement_uncorrelated():
    env = CoinSwapEnv([{"prior": ["dyadic", 0.5], "swap_prob": 1.0}])
    env.reset(RngStream(5))
    tosses = np.array([env.step(0) for _ in range(100_000)], dtype=float)
    x, y = tosses[:-1] - tosses.mean(), tosses[1:] - tosses.mean()
    lag1 = (x * y).mean() / tosses.var()
    assert abs(lag1) < 4 / math.sqrt(len(tosses))


def test_coin_invalid_arm():
    env = CoinSwapEnv([{"prior": ["fixed", 0.5], "swap_prob": 0.0}])
    env.reset(RngStream(0))
    with pytest.raises(ValueError):
        env.step(3)


def test_bandit_frozen_latent_mean():
    env = GaussianAr1BanditEnv(arms=2, eta=1.0, sigma=1.0)
    assert env.zeta == 0.0
    env.reset(RngStream(6))
    theta0 = env.thetas[0]
    rewards = np.array([env.step(0) for _ in range(100_000)])
    assert abs(rewards.mean() - theta0) < 4 * _stderr(rewards)


def test_bandit_iid_variance():
    env = GaussianAr1BanditEnv(arms=1, eta=0.0, sigma=0.5)
    assert env.zeta == 1.0
    env.reset(RngStream(7))
    rewards = np.array([env.step(0) for _ in range(100_000)])
    se = np.std(rewards**2, ddof=1) / math.sqrt(len(rewards))
    assert abs(np.var(rewards) - 1.25) < 4 * se


def test_bandit_latent_autocovariance():
    eta = 0.8
    env = GaussianAr1BanditEnv(arms=2, eta=eta, sigma=1.0)  # zeta = sqrt(1 - eta^2): stationary
    env.reset(RngStream(8))
    thetas = []
    for _ in range(100_000):
        env.step(0)
        thetas.append(env.thetas[1])  # unpulled arm advances identically
    th = np.array(thetas)
    for k in (1, 3):
        prod = th[:-k] * th[k:]
        batches = np.array([b.mean() for b in np.array_split(prod, 100)])
        se = batches.std(ddof=1) / 10
        assert abs(prod.mean() - eta**k) < 4 * se


def test_bitflip_flip_rate_and_fair_start():
    env = BitFlipEnv(prior=["fixed", 0.3])
    firsts = []
    for seed in range(2_000):
        env.reset(RngStream(seed))
        firsts.append(env.step(0))
    assert abs(np.mean(firsts) - 0.5) < 4 * math.sqrt(0.25 / 2_000)

    env.reset(RngStream(77))
    bits = np.array([env.step(0) for _ in range(50_000)])
    flips = (bits[1:] != bits[:-1]).astype(float)
    assert abs(flips.mean() - 0.3) < 4 * _stderr(flips)


def test_logit_env_rate_matches_latent():
    env = LogitEnv()
    env.reset(RngStream(9))
    p = 1.0 / (1.0 + math.exp(-env.theta))
    obs = np.array([env.step(0.5) for _ in range(50_000)])
    assert abs(obs.mean() - p) < 4 * _stderr(obs)
    assert env.reward(0.25, 1) == pytest.approx(math.log(0.25) - math.log(p))
    assert env.reward(0.25, 0) == pytest.approx(math.log(0.75) - math.log(1.0 - p))


def test_logit_env_reward_is_zero_for_the_theta_knowing_prediction():
    env = LogitEnv()
    env.reset(RngStream(9))
    assert env.reward(env._p1, 1) == 0.0
    assert env.reward(env._p1, 0) == 0.0


def test_goal_mdp_rows_stay_stochastic():
    env = GoalMdpEnv(resample_prob=0.05)
    env.reset(RngStream(10))
    for _ in range(500):
        env.step(0)
    assert env.resample_events > 0
    sums = env.P.sum(axis=2)
    assert np.all(np.abs(sums - 1.0) < 1e-12)
    assert np.all(env.P >= 0.0)


def test_goal_mdp_resample_rate():
    env = GoalMdpEnv(resample_prob=1e-3)
    env.reset(RngStream(11))
    steps = 100_000
    for _ in range(steps):
        env.step(0)
    expected = 30 * 1e-3 * steps
    sd = math.sqrt(steps * 30 * 1e-3 * (1 - 1e-3))
    assert abs(env.resample_events - expected) < 4 * sd


def test_goal_mdp_greedy_policy_earns_target():
    # frozen MDP: the scaled goal reward makes the greedy plan earn ~0.5/step
    from contilab.mdp_tools import goal_reward_scale

    env = GoalMdpEnv(resample_prob=0.0)
    env.reset(RngStream(12))
    r_goal, q_star = goal_reward_scale(env.P, envs._GOAL_STATE, 0.9)
    assert r_goal == env.goal_reward
    policy = greedy_policy(q_star)
    g = RngStream(13).generator()
    state, total, steps = 0, 0.0, 300_000
    cum = np.cumsum(env.P, axis=2)
    for _ in range(steps):
        nxt = int(np.searchsorted(cum[state, policy[state]], g.random()))
        nxt = min(nxt, env.n_states - 1)
        if nxt == envs._GOAL_STATE:
            total += r_goal
        state = nxt
    assert abs(total / steps - 0.5) < 0.02


def test_goal_mdp_reward_paid_on_arrival():
    env = GoalMdpEnv(resample_prob=0.0)
    env.reset(RngStream(14))
    nxt = env.step(1)
    expected = env.goal_reward if nxt == envs._GOAL_STATE else 0.0
    assert env.reward(1, nxt) == expected


@pytest.mark.parametrize("horizon", [511, 512, 513, 4095, 4096, 4097, 4609])
def test_goal_mdp_event_block_does_not_change_trajectories(monkeypatch, horizon):
    # random((k, S*A)) is one row-major Philox stream, so the row events do
    # not depend on how many steps of them are drawn at once.
    from contilab.agents import OptimisticQAgent
    from contilab.core import run_trajectory

    def run():
        out = []
        for seed, prob in ((15, 1e-3), (16, 3e-2)):
            env = GoalMdpEnv(n_states=5, n_actions=2, resample_prob=prob)
            agent = OptimisticQAgent(5, 2, stepsize=0.3, discount=0.9, boost=1e-3)
            summary = run_trajectory(env, agent, horizon, RngStream(seed), record_steps=True)
            out.append((summary, env.resample_events, env.P.tolist()))
        return out

    assert envs.DRAW_BLOCK == 512
    drawn_by_512 = run()
    monkeypatch.setattr(envs, "DRAW_BLOCK", 4096)
    assert run() == drawn_by_512
    assert all(events > 0 for _, events, _ in drawn_by_512)


class _ScriptedGamma:
    """Generator stub whose ``gamma`` hands out candidate rows of one stream,
    each drawn as ``gamma(1/S, 1, size=S)`` from a real generator, except
    that the candidates at ``zeros`` are all zero. It counts the candidates
    it handed out, whatever the call shapes."""

    def __init__(self, seed, zeros=()):
        self._gen = np.random.default_rng(seed)
        self._zeros = set(zeros)
        self.drawn = 0

    def gamma(self, shape, scale, size):
        m, S = (1, size) if np.isscalar(size) else size
        rows = []
        for _ in range(m):
            row = self._gen.gamma(shape, scale, size=S)
            rows.append(np.zeros(S) if self.drawn in self._zeros else row)
            self.drawn += 1
        return rows[0] if np.isscalar(size) else np.array(rows)


def _row_by_row(gen, m, S):
    P = np.empty((m, 1, S))
    redraw_rows(gen, P, range(m))
    return P.reshape(m, S)


@pytest.mark.parametrize("zeros", [(0,), (3,), (6,), (2, 3), (3, 7), (6, 7, 8), (0, 1, 2, 3, 4, 5, 6)])
def test_dirichlet_rows_skip_zero_sum_candidates(zeros):
    # 7 rows from candidates 0, 1, ...: a zero-sum candidate is skipped and
    # the next candidate takes its place, drawn further if needed, also when
    # a further candidate (7, 8) is itself zero. That is the order of the
    # row-by-row `while total <= 0` loop.
    bulk_gen, loop_gen = _ScriptedGamma(21, zeros), _ScriptedGamma(21, zeros)
    bulk = envs._dirichlet_rows(bulk_gen, 7, 4)
    assert np.array_equal(bulk, _row_by_row(loop_gen, 7, 4))
    assert bulk_gen.drawn == loop_gen.drawn == 7 + len(zeros)
    assert np.all(bulk.sum(axis=1) > 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_dirichlet_rows_equal_the_row_by_row_draws(S, m, seed):
    bulk_gen, loop_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    bulk = envs._dirichlet_rows(bulk_gen, m, S)
    assert bulk.shape == (m, S) and np.array_equal(bulk, _row_by_row(loop_gen, m, S))
    assert bulk_gen.random() == loop_gen.random()  # both left the stream at the same place


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 600),
       st.sampled_from([1e-4, 1e-2, 0.2]), st.integers(0, 2**32 - 1))
def test_row_events_equal_the_two_dimensional_layout(S, A, steps, prob, seed):
    # The events of `steps` steps are those of random((steps, S*A)) by step
    # then row, and their rows are the row generator's next Dirichlet rows.
    at, flats, rows = envs._row_events(np.random.default_rng(seed), np.random.default_rng(seed + 1),
                                       steps, S, A, prob)
    ref_at, ref_flats = np.nonzero(np.random.default_rng(seed).random((steps, S * A)) < prob)
    assert np.array_equal(at, ref_at) and np.array_equal(flats, ref_flats)
    assert np.array_equal(rows, _row_by_row(np.random.default_rng(seed + 1), len(at), S))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=40), st.integers(0, 2**32 - 1))
def test_by_step_equals_a_loop_grouping(steps, seed):
    at = np.array(sorted(steps), dtype=np.intp)
    values = np.random.default_rng(seed).random((len(at), 3))
    labels = [f"e{i}" for i in range(len(at))]
    expected: dict = {}
    for t, value, label in zip(at.tolist(), values, labels):
        rows, names = expected.setdefault(t, ([], []))
        rows.append(value)
        names.append(label)
    got = envs._by_step(at, values, labels)
    assert list(got) == list(expected)
    for t, (rows, names) in expected.items():
        assert np.array_equal(got[t][0], np.array(rows).reshape(-1, 3)) and got[t][1] == names
    assert envs._by_step(np.array([], dtype=np.intp), values[:0]) == {}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), st.booleans(),
       st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([None, -1, 0, 1, 2]))
@example([0.1] * 10, False, 0.0, 0)  # sums to 1 - 2**-53: u = cum[-1] passes every entry
@example([0.1] * 10, False, 0.0, 1)
def test_cum_rows_pick_the_clamped_bisect_state(weights, normalize, u, ulps_from_end):
    # The +inf last entry stands for the old clamp of bisect_right to S - 1,
    # also where the row's sum rounds below 1 and u is at or above it.
    row = np.array(weights)
    if normalize and row.sum() > 0.0:
        row = row / row.sum()
    S, end = len(row), float(np.cumsum(row)[-1])
    if ulps_from_end is not None:  # u near the row's sum instead
        u = end
        for _ in range(abs(ulps_from_end)):
            u = math.nextafter(u, math.copysign(math.inf, ulps_from_end))
    assert bisect_right(envs._cum_rows(row).tolist(), u) == min(
        bisect_right(list(np.cumsum(row)), u), S - 1)


@pytest.mark.parametrize("horizon", [1, 512, 1300])
def test_goal_mdp_resample_events_equal_the_planned_rows(horizon):
    # resample_events (read by the benchmark's tracer) counts exactly the
    # event rows that _row_events plans for the trial's horizon, chunk by
    # chunk as the goal kernel plans them.
    from contilab.agents import OptimisticQAgent
    from contilab.core import run_trajectory
    from contilab.rng import DRAW_BLOCK

    S, A, prob = 5, 2, 3e-2
    stream = RngStream(17)
    env = GoalMdpEnv(n_states=S, n_actions=A, resample_prob=prob)
    run_trajectory(env, OptimisticQAgent(S, A, stepsize=0.3, discount=0.9, boost=1e-3),
                   horizon, stream)
    es = stream.child("env-noise")
    mask_gen, row_gen = es.child("row-events").generator(), es.child("row-draws").generator()
    row_gen.gamma(1.0 / S, 1.0, size=(S * A, S))  # the reset rows
    planned = sum(len(envs._row_events(mask_gen, row_gen, min(DRAW_BLOCK, horizon - start),
                                       S, A, prob)[0])
                  for start in range(0, horizon, DRAW_BLOCK))
    assert env.resample_events == planned
    assert planned > 0 or horizon == 1


def test_build_env_unknown_kind():
    with pytest.raises(ConfigurationError, match="unknown env kind"):
        build_env({"kind": "warp_drive"})
    with pytest.raises(ConfigurationError, match="bad parameters"):
        build_env({"kind": "ar1", "eta": 0.5, "zeta": 0.1, "sigma": 0.1, "bogus": 1})
    with pytest.raises(ConfigurationError, match="bad parameters"):
        build_env({"kind": "ar1", "eta": 1.5, "zeta": 0.1, "sigma": 0.1})
    with pytest.raises(ConfigurationError, match="bad parameters.*vi_tol"):
        build_env({"kind": "goal_mdp", "vi_tol": 1e-8})  # rescales are exact: no tolerance
    with pytest.raises(ConfigurationError, match="bad parameters.*target_reward"):
        build_env({"kind": "goal_mdp", "target_reward": math.nan})  # the target is fixed at 0.5
    for shape in ({"n_states": 0}, {"n_actions": 0}):
        with pytest.raises(ConfigurationError, match="need at least one state and one action"):
            build_env({"kind": "goal_mdp", **shape})


@pytest.mark.parametrize("spec, message", [
    ({"kind": "bit_flip", "prior": ["beta", 0, 1]}, "two finite, positive parameters"),
    ({"kind": "bit_flip", "prior": ["beta", 0, 0]}, "two finite, positive parameters"),
    ({"kind": "bit_flip", "prior": ["beta", 1, math.inf]}, "two finite, positive parameters"),
    ({"kind": "bit_flip", "prior": ["beta", math.nan, 1]}, "two finite, positive parameters"),
    ({"kind": "bit_flip", "prior": ["beta", 2]}, "two finite, positive parameters"),
    ({"kind": "bit_flip", "prior": ["gamma", 1, 1]}, "unknown bias prior"),
    ({"kind": "coin_swap", "arms": [{"prior": ["fixed", 0.5]}, {"prior": ["beta", -1, 2]}]},
     "two finite, positive parameters"),
    ({"kind": "bit_flip", "prior": ["fixed", 1.5]}, r"a fixed prior takes one probability in \[0, 1\]"),
    ({"kind": "bit_flip", "prior": ["fixed", math.nan]}, "a fixed prior takes one probability"),
    ({"kind": "bit_flip", "prior": ["fixed"]}, "a fixed prior takes one probability"),
    ({"kind": "bit_flip", "prior": ["dyadic", -0.1]}, "a dyadic prior takes one probability"),
    ({"kind": "bit_flip", "prior": ["dyadic"]}, "a dyadic prior takes one probability"),
    ({"kind": "coin_swap", "arms": [{"prior": ["fixed", math.inf]}, {"prior": ["dyadic", 0.5]}]},
     "a fixed prior takes one probability"),
    ({"kind": "coin_swap", "arms": [{"prior": ["fixed", 0.8]}, {"prior": ["dyadic", 2.0]}]},
     "a dyadic prior takes one probability"),
])
def test_build_env_rejects_bad_priors(spec, message):
    # Checked when the env is built, not at the first trial's draw.
    with pytest.raises(ConfigurationError, match=f"bad parameters.*{message}"):
        build_env(spec)


@pytest.mark.parametrize("plan_gamma", [1.0, 1.5, 0.0, -0.5, math.nan])
def test_goal_mdp_rejects_planning_discount_outside_unit_interval(plan_gamma):
    with pytest.raises(ValueError, match="planning discount must lie in"):
        GoalMdpEnv(plan_gamma=plan_gamma)
    with pytest.raises(ConfigurationError, match="bad parameters.*planning discount"):
        build_env({"kind": "goal_mdp", "plan_gamma": plan_gamma})


@pytest.mark.parametrize("params, message", [
    ({"eta": 1.5}, r"eta must lie in \[0, 1\]"),
    ({"eta": -0.5}, r"eta must lie in \[0, 1\]"),
    ({"sigma": -1.0}, "sigma must be finite and nonnegative"),
    ({"sigma": math.inf}, "sigma must be finite and nonnegative"),
    ({"sigma": math.nan}, "sigma must be finite and nonnegative"),
])
def test_bandit_env_rejects_drift_and_noise_outside_its_range(params, message):
    with pytest.raises(ValueError, match=message):
        GaussianAr1BanditEnv(**{"arms": 2, "eta": 0.9, "sigma": 1.0, **params})


def test_env_param_validation():
    with pytest.raises(ValueError):
        Ar1ScalarEnv(eta=1.5, zeta=0.1, sigma=0.1)
    with pytest.raises(ValueError):
        GoalMdpEnv(resample_prob=-0.1)
    with pytest.raises(ValueError):
        CoinSwapEnv([])
