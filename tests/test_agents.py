import math

import numpy as np
import pytest

from contilab.agents import (
    BitFlipAgent,
    DyadicCoinBeliefAgent,
    IdbdAgent,
    LmsAgent,
    LogitPredictorAgent,
    OptimisticQAgent,
    PsAgent,
    TsAgent,
    build_agent,
)
from contilab.errors import ConfigurationError, NumericError
from contilab.infotheory import delta_star
from contilab.rng import RngStream


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _observe(agent, y):
    """One ``update`` of an agent that reads only the observation."""
    agent.update(None, y, 0.0)


def _learn(agent, s, a, r, s_next):
    """One TD update of an ``OptimisticQAgent`` from state ``s``."""
    agent.state = s
    agent.update(a, s_next, r)


# -- tracking filters ---------------------------------------------------------

def test_lms_plain_zero_stepsize_frozen():
    ag = LmsAgent(alpha=0.0, eta=1.0, mode="plain")
    ag.reset(RngStream(0))
    ag.mu = 0.4
    for y in (1.0, -3.0, 7.0):
        _observe(ag, y)
    assert ag.mu == 0.4


def test_lms_shrinkage_full_stepsize_tracks():
    ag = LmsAgent(alpha=1.0, eta=0.9, mode="shrinkage")
    ag.reset(RngStream(0))
    _observe(ag, 2.5)
    assert ag.mu == 2.5


def test_lms_shrinkage_hand_value():
    ag = LmsAgent(alpha=0.35, eta=0.9, mode="shrinkage")
    ag.reset(RngStream(0))
    assert ag.mu == 0.0
    _observe(ag, 1.0)
    assert ag.mu == pytest.approx(0.35)
    assert ag.act() == pytest.approx(0.9 * 0.35)
    assert ag.act() == pytest.approx(0.315)


# IdbdAgent with a frozen log-stepsize (zeta_meta=0) is the capacity LMS:
# u <- u + alpha*(y - u) + N(0, delta^2), with delta fixed ("standard") or
# pinned by the capacity ("capacity").

def test_capacity_lms_zero_noise_equals_plain_lms():
    cap = IdbdAgent(zeta_meta=0.0, mode="standard", delta=0.0, alpha0=0.3)
    plain = LmsAgent(alpha=cap.alpha, mode="plain")
    cap.reset(RngStream(1))
    plain.reset(RngStream(1))
    ys = RngStream(2).generator().standard_normal(200)
    for y in ys:
        _observe(cap, float(y))
        _observe(plain, float(y))
        assert cap.alpha == plain.alpha
    assert cap.u == pytest.approx(plain.mu, abs=0.0)


def test_capacity_lms_huge_capacity_matches_noiseless():
    a = IdbdAgent(zeta_meta=0.0, mode="capacity", eta=0.9, sigma=0.5, capacity=50.0, alpha0=0.4)
    b = IdbdAgent(zeta_meta=0.0, mode="standard", delta=0.0, alpha0=0.4)
    a.reset(RngStream(3))
    b.reset(RngStream(3))
    ys = RngStream(4).generator().standard_normal(500)
    for y in ys:
        _observe(a, float(y))
        _observe(b, float(y))
    assert a.alpha == b.alpha
    assert math.sqrt(delta_star(a.alpha, 0.9, 0.5, 50.0)) < 1e-20
    assert a.u == pytest.approx(b.u, abs=1e-15)


def test_capacity_lms_noise_variance():
    delta = 0.35
    ag = IdbdAgent(zeta_meta=0.0, mode="standard", delta=delta, alpha0=0.5)
    ag.reset(RngStream(5))
    assert ag.alpha == 0.5
    qs = []
    for _ in range(100_000):
        prev = ag.u
        _observe(ag, 0.0)
        qs.append(ag.u - (1.0 - 0.5) * prev)
    assert ag.alpha == 0.5
    qs = np.array(qs)
    se = np.std(qs**2, ddof=1) / math.sqrt(len(qs))
    assert abs(np.var(qs) - delta**2) < 4 * se


def test_capacity_lms_requires_noise_spec():
    with pytest.raises(ConfigurationError):
        IdbdAgent(zeta_meta=0.0, mode="standard", alpha0=0.5)
    with pytest.raises(ConfigurationError):
        IdbdAgent(zeta_meta=0.0, mode="capacity", capacity=1.0, alpha0=0.5)


@pytest.mark.parametrize("build, message", [
    (lambda: IdbdAgent(zeta_meta=0.0, mode="standard", delta=math.nan), "delta must be finite"),
    (lambda: IdbdAgent(zeta_meta=math.inf, mode="standard", delta=0.1), "zeta_meta must be finite"),
    (lambda: OptimisticQAgent(3, 2, stepsize=0.1, discount=0.9, boost=math.inf),
     "boost must be nonnegative and finite"),
], ids=["idbd-delta-nan", "idbd-zeta_meta-inf", "optimistic_q-boost-inf"])
def test_agents_reject_non_finite_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_capacity_lms_kind_is_gone():
    with pytest.raises(ConfigurationError, match="unknown agent kind 'capacity_lms'"):
        build_agent({"kind": "capacity_lms", "alpha": 0.5, "delta": 0.1})


# -- stepsize adaptation ------------------------------------------------------

def test_idbd_frozen_meta_matches_capacity_lms():
    eta, sigma, cap, alpha0 = 0.9, 0.5, 1.0, 0.25
    idbd = IdbdAgent(zeta_meta=0.0, mode="capacity", eta=eta, sigma=sigma,
                     capacity=cap, alpha0=alpha0)
    idbd.reset(RngStream(6))
    noise = RngStream(6).buffer()  # the agent's own noise draws
    delta = math.sqrt(delta_star(alpha0, eta, sigma, cap))
    u = 0.0
    ys = RngStream(7).generator().standard_normal(300)
    for y in ys:
        _observe(idbd, float(y))
        u = u + alpha0 * (float(y) - u) + delta * noise.normal()
        assert idbd.alpha == alpha0
    assert idbd.u == pytest.approx(u, abs=0.0)


@pytest.mark.parametrize("params, message", [
    ({"capacity": 0.0}, "capacity must be positive"),
    ({"capacity": -1.0}, "capacity must be positive"),
    ({"capacity": 1e-17}, r"capacity must be positive with exp\(-2C\) < 1, got 1e-17"),
    ({"eta": 1.0}, r"eta must lie in \[0, 1\)"),
    ({"eta": -0.1}, r"eta must lie in \[0, 1\)"),
    # sigma**2 overflows: the noise-growth penalty could not be evaluated
    ({"sigma": 1e200}, r"sigma\*\*2 must be finite"),
    ({"sigma": math.inf}, r"sigma\*\*2 must be finite"),
])
def test_idbd_capacity_mode_rejects_bad_closed_form_parameters(params, message):
    spec = {"kind": "idbd", "zeta_meta": 0.01, "mode": "capacity", "eta": 0.9, "sigma": 0.5,
            "capacity": 0.5, **params}
    with pytest.raises(ConfigurationError, match=message):
        build_agent(spec)


def test_idbd_numeric_divergence_reports_step():
    ag = IdbdAgent(zeta_meta=1.0, mode="standard", delta=0.0, alpha0=0.5)
    ag.reset(RngStream(8))
    _observe(ag, 1e200)
    with pytest.raises(NumericError, match="step 1"):
        _observe(ag, -1e200)


def test_idbd_alpha_clamped():
    ag = IdbdAgent(zeta_meta=0.5, mode="standard", delta=0.0, alpha0=1.0)
    ag.reset(RngStream(9))
    for y in RngStream(10).generator().standard_normal(500):
        _observe(ag, float(y) * 10)
        assert 0.0 < ag.alpha <= 1.0


# -- posterior-sampling bandits ----------------------------------------------

def test_ts_update_conjugate_averaging():
    ag = TsAgent(arms=2, eta=1.0, zeta=0.0, sigma=2.0)
    ag.reset(RngStream(11))
    ag.mus, ag.sigmas = [1.0, 1.0], [4.0, 4.0]
    ag.update(0, 3.0, 3.0)
    # prior Sigma = sigma^2: posterior halves, mean averages
    assert ag.sigmas[0] == pytest.approx(2.0)
    assert ag.mus[0] == pytest.approx((1.0 + 3.0) / 2.0)
    assert ag.mus[1] == 1.0 and ag.sigmas[1] == 4.0


def test_ts_update_hand_value():
    ag = TsAgent(arms=1, eta=0.9, zeta=math.sqrt(0.19), sigma=1.0)
    ag.reset(RngStream(12))
    assert ag.mus == [0.0] and ag.sigmas == [1.0]  # the N(0, 1) prior
    ag.update(0, 1.0, 1.0)
    assert ag.sigmas[0] == pytest.approx(0.5)
    assert ag.mus[0] == pytest.approx(0.5)


def test_ts_variance_recursion_ignores_observations():
    a = TsAgent(arms=2, eta=0.8, zeta=0.5, sigma=1.0)
    b = TsAgent(arms=2, eta=0.8, zeta=0.5, sigma=1.0)
    a.reset(RngStream(13))
    b.reset(RngStream(13))
    g = RngStream(14).generator()
    for t in range(50):
        arm = t % 2
        y = float(g.standard_normal())
        a.update(arm, y, y)
        y = float(g.standard_normal()) * 5.0
        b.update(arm, y, y)
        assert a.sigmas == pytest.approx(b.sigmas, abs=0.0)
        assert min(a.sigmas) > 0.0


def test_ts_act_degenerate_argmax():
    ag = TsAgent(arms=3, eta=1.0, zeta=0.0, sigma=1.0)
    ag.reset(RngStream(15))
    ag.mus, ag.sigmas = [0.1, 0.9, -2.0], [0.0, 0.0, 0.0]
    assert all(ag.act() == 1 for _ in range(20))


def test_ts_act_symmetric_arms_split_evenly():
    ag = TsAgent(arms=2, eta=1.0, zeta=0.0, sigma=1.0)
    ag.reset(RngStream(16))
    pulls = np.array([ag.act() for _ in range(100_000)])
    assert abs(pulls.mean() - 0.5) < 4 * math.sqrt(0.25 / len(pulls))


def test_ts_act_gaussian_difference_probability():
    # P(pick arm 0) = Phi((mu0 - mu1) / sqrt(S0 + S1))
    ag = TsAgent(arms=2, eta=1.0, zeta=0.0, sigma=1.0)
    ag.reset(RngStream(17))
    ag.mus, ag.sigmas = [0.5, 0.0], [0.25, 0.25]
    pulls = np.array([ag.act() for _ in range(100_000)])
    p = _phi(0.5 / math.sqrt(0.5))
    assert abs((pulls == 0).mean() - p) < 4 * math.sqrt(p * (1 - p) / len(pulls))

    tight = TsAgent(arms=2, eta=1.0, zeta=0.0, sigma=1.0)
    tight.reset(RngStream(18))
    tight.mus, tight.sigmas = [1.0, 0.0], [0.01, 0.01]
    pulls = np.array([tight.act() for _ in range(20_000)])
    assert (pulls == 0).mean() == pytest.approx(_phi(1.0 / math.sqrt(0.02)), abs=1e-3)


def test_ps_x_star_and_sampling_variance_hand_values():
    ag = PsAgent(arms=1, eta=0.9, zeta=math.sqrt(0.19), sigma=1.0)
    x_star = 0.5 * (0.38 + math.sqrt(0.38**2 + 4 * 0.81 * 0.19))
    assert ag.x_star == pytest.approx(x_star, rel=1e-12)
    assert ag.x_star == pytest.approx(0.6258898, abs=1e-6)
    ag.sigmas = [1.0]
    _, var = ag.sampling_params(0)
    assert var == pytest.approx(0.81 / (0.81 + x_star), rel=1e-12)
    assert var == pytest.approx(0.5641, abs=1e-4)


def test_ps_limits_match_ts_and_greedy():
    stat = PsAgent(arms=2, eta=1.0, zeta=0.0, sigma=1.0)
    stat.sigmas = [0.7, 0.3]
    assert stat.sampling_params(0)[1] == pytest.approx(0.7)
    assert stat.sampling_params(1)[1] == pytest.approx(0.3)

    jump = PsAgent(arms=2, eta=0.0, zeta=1.0, sigma=1.0)
    jump.sigmas = [0.7, 0.3]
    assert jump.sampling_params(0)[1] == 0.0
    jump.reset(RngStream(19))
    jump.mus = [0.2, -0.1]
    assert all(jump.act() == 0 for _ in range(10))


def test_ps_variance_ratio_monotone_in_eta():
    ratios = []
    for eta in np.linspace(0.0, 1.0, 41):
        ag = PsAgent(arms=1, eta=float(eta), zeta=math.sqrt(1 - eta * eta), sigma=1.0)
        ag.sigmas = [1.0]
        ratios.append(ag.sampling_params(0)[1])
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] == 0.0 and ratios[-1] == pytest.approx(1.0)


# -- optimistic Q-learning ----------------------------------------------------

def test_optq_single_update_hand_values():
    ag = OptimisticQAgent(4, 2, stepsize=1.0, discount=0.5, boost=0.0)
    ag.reset(RngStream(20))
    _learn(ag, 0, 1, 1.0, 2)
    assert ag.state == 2
    q = ag.q_table
    assert q[0][1] == 1.0 and q[0][0] == 0.0

    ag = OptimisticQAgent(3, 3, stepsize=0.0, discount=0.9, boost=0.01)
    ag.reset(RngStream(21))
    for _ in range(5):
        _learn(ag, 0, 0, 1.0, 1)
    assert np.allclose(ag.q_table, 0.05)


def test_optq_boost_plus_td_hand_value():
    ag = OptimisticQAgent(5, 3, stepsize=0.2, discount=0.9, boost=0.0001)
    ag.reset(RngStream(22))
    _learn(ag, 2, 1, 5.0, 4)
    q = np.array(ag.q_table)
    assert q[2][1] == pytest.approx(1.0001)
    mask = np.ones((5, 3), bool)
    mask[2][1] = False
    assert np.allclose(q[mask], 0.0001)


def test_optq_uniform_tie_breaking():
    ag = OptimisticQAgent(2, 3, stepsize=0.1, discount=0.9, boost=0.0)
    ag.reset(RngStream(23))
    acts = np.array([ag.act() for _ in range(60_000)])
    for a in range(3):
        assert abs((acts == a).mean() - 1 / 3) < 4 * math.sqrt((1 / 3) * (2 / 3) / len(acts))


def test_optq_action_distribution_shift_invariant():
    # a pure boost offset never changes the greedy distribution
    a = OptimisticQAgent(2, 3, stepsize=0.0, discount=0.9, boost=0.5)
    b = OptimisticQAgent(2, 3, stepsize=0.0, discount=0.9, boost=0.0)
    a.reset(RngStream(24))
    b.reset(RngStream(24))
    for _ in range(7):
        _learn(a, 0, 0, 1.0, 1)
    a.state = 0
    assert [a.act() for _ in range(50)] == [b.act() for _ in range(50)]


def test_optq_nan_q_row_is_a_numeric_error():
    # boost=1e306 overflows the offset; the TD update then turns Q into NaN,
    # which leaves no greedy action to tie-break among.
    from contilab.core import run_trajectory
    from contilab.envs import GoalMdpEnv

    env = GoalMdpEnv(n_states=3, n_actions=2)
    agent = OptimisticQAgent(3, 2, stepsize=0.3, discount=0.9, boost=1e306)
    with pytest.raises(NumericError, match="no greedy action: Q row of state [0-2] holds NaN"):
        with np.errstate(all="ignore"):
            run_trajectory(env, agent, 300, RngStream(0), record_series=False)


# -- belief filter, logit predictor, one-bit predictor -------------------------

# Action 1 tosses the replaceable coin; action 0 tosses the fixed coin,
# whose outcome tells nothing about the replaceable one.

def test_coin_belief_sticky_when_no_replacement():
    ag = DyadicCoinBeliefAgent(p1=0.8, q2=0.0, policy_actions=[0])
    assert ag.b == 0.5
    ag.update(1, 1, 1.0)
    for o in (0, 1) * 25:
        ag.update(0, o, float(o))
        assert ag.b == 1.0


def test_coin_belief_full_replacement_pins_half():
    ag = DyadicCoinBeliefAgent(p1=0.8, q2=1.0, policy_actions=[0])
    ag.update(1, 1, 1.0)
    assert ag.b == 0.5
    ag.update(1, 0, 0.0)
    assert ag.b == 0.5


def test_coin_belief_geometric_decay():
    ag = DyadicCoinBeliefAgent(p1=0.8, q2=0.001, policy_actions=[0])
    ag.update(1, 1, 1.0)
    for _ in range(99):
        ag.update(0, 1, 1.0)
    # 100 replacement relaxations after the revealing toss
    assert ag.b == pytest.approx(0.5 + 0.5 * 0.999**100, rel=1e-12)
    assert ag.b == pytest.approx(0.9523961, abs=1e-6)


def test_coin_belief_stays_in_unit_interval():
    ag = DyadicCoinBeliefAgent(p1=0.8, q2=0.37, policy_actions=[0])
    g = RngStream(25).generator()
    for _ in range(500):
        o = int(g.random() < 0.5)
        ag.update(int(g.random() < 0.5), o, float(o))
        assert 0.0 <= ag.b <= 1.0


def test_coin_belief_acts_from_its_policy_table():
    # The belief picks the nearest of the table's uniform grid points 0, 1/2, 1.
    ag = DyadicCoinBeliefAgent(p1=0.8, q2=0.0, policy_actions=[0, 1, 0])
    ag.reset(RngStream(0))
    assert ag.act() == 1
    ag.update(1, 0, 0.0)
    assert ag.b == 0.0 and ag.act() == 0


def test_logit_prior_prediction_exactly_half():
    ag = LogitPredictorAgent()
    ag.reset(RngStream(26))
    assert ag.act() == pytest.approx(0.5, abs=1e-15)
    ag._sig = np.ones_like(ag._sig)  # act() then returns the sum of the posterior weights
    assert ag.act() == pytest.approx(1.0, abs=1e-12)


def test_logit_posterior_concentration():
    ag = LogitPredictorAgent()
    ag.reset(RngStream(27))
    p = 1.0 / (1.0 + math.exp(-2.0))
    g = RngStream(28).generator()
    for o in (g.random(10_000) < p).astype(int):
        ag.update(None, int(o), 0.0)
    assert abs(ag.act() - p) < 0.01


def test_logit_grid_refinement_stable():
    coarse, fine = LogitPredictorAgent(grid_size=513), LogitPredictorAgent(grid_size=1025)
    g = RngStream(29).generator()
    for _ in range(5):
        coarse.reset(RngStream(0))
        fine.reset(RngStream(0))
        theta = g.standard_normal()
        p = 1.0 / (1.0 + math.exp(-theta))
        for o in (g.random(100) < p).astype(int):
            coarse.update(None, int(o), 0.0)
            fine.update(None, int(o), 0.0)
        assert abs(coarse.act() - fine.act()) < 1e-8


def test_bitflip_decision_rule():
    ag = BitFlipAgent(mean_p=0.7)
    ag.reset(RngStream(30))
    assert ag.act() == 1  # fair first bit, tie resolved to 1
    ag.update(1, 1, 1.0)
    assert ag.act() == 0  # flip likely
    ag2 = BitFlipAgent(mean_p=0.2)
    ag2.reset(RngStream(31))
    ag2.update(1, 1, 1.0)
    assert ag2.act() == 1  # stay likely


def test_bitflip_long_run_accuracy_matches_prior_mean():
    # with E[p] = 2/3 > 1/2 the agent always predicts a flip, so per-step
    # accuracy averages to E[p] across episodes
    from contilab.core import run_trajectory
    from contilab.envs import BitFlipEnv

    rewards = []
    for ep in range(1_000):
        env = BitFlipEnv(prior=["beta", 2.0, 1.0])
        ag = BitFlipAgent(mean_p=2.0 / 3.0)
        s = run_trajectory(env, ag, 1_000, RngStream(32).child("ep", ep), record_series=False)
        rewards.append(s.metrics["average_reward"])
    mean = np.mean(rewards)
    se = np.std(rewards, ddof=1) / math.sqrt(len(rewards))
    assert abs(mean - 2.0 / 3.0) < 4 * se


def test_optq_boost_keeps_every_pair_visited():
    # with a positive boost, every (state, action) pair recurs in every
    # window of the drifting goal MDP
    from contilab.core import run_trajectory
    from contilab.envs import GoalMdpEnv

    env = GoalMdpEnv(resample_prob=1e-3)
    ag = OptimisticQAgent(10, 3, stepsize=0.2, discount=0.9, boost=2e-4)

    class Spy(OptimisticQAgent):
        def __init__(self):
            self.__dict__.update(ag.__dict__)
            self.windows = [set()]
            self.steps = 0

        def update(self, action, observation, reward):
            self.windows[-1].add((self.state, action))
            self.steps += 1
            if self.steps % 250_000 == 0:
                self.windows.append(set())
            OptimisticQAgent.update(self, action, observation, reward)

    spy = Spy()
    run_trajectory(env, spy, 500_000, RngStream(33), record_series=False)
    for window in spy.windows[:2]:
        assert len(window) == 30


def test_build_agent_errors():
    with pytest.raises(ConfigurationError, match="unknown agent kind"):
        build_agent({"kind": "oracle"})
    with pytest.raises(ConfigurationError, match="bad parameters"):
        build_agent({"kind": "lms", "alpha": 0.5, "bogus": 2})
    with pytest.raises(ConfigurationError, match="bad parameters"):
        build_agent({"kind": "lms", "alpha": 1.5})
    for shape in ({"n_states": 0}, {"n_actions": 0}):
        with pytest.raises(ConfigurationError, match="need at least one state and one action"):
            build_agent({"kind": "optimistic_q", "n_states": 3, "n_actions": 2, "stepsize": 0.1,
                         "discount": 0.9, **shape})
    with pytest.raises(ConfigurationError, match="bad parameters"):  # one drift model for all arms
        build_agent({"kind": "ts", "arms": 2, "eta": [0.9, 0.5], "zeta": 0.4, "sigma": 1.0})


@pytest.mark.parametrize("cls", [TsAgent, PsAgent])
@pytest.mark.parametrize("params, message", [
    ({"eta": 1.5}, r"eta must lie in \[0, 1\]"),
    ({"eta": -0.1}, r"eta must lie in \[0, 1\]"),
    ({"eta": math.nan}, r"eta must lie in \[0, 1\]"),
    ({"zeta": -0.1}, "zeta must be nonnegative"),
    ({"zeta": math.nan}, "zeta must be nonnegative"),
    ({"zeta": math.inf}, "zeta must be nonnegative and finite"),
    ({"sigma": 0.0}, "sigma must be finite and positive"),
    ({"sigma": -1.0}, "sigma must be finite and positive"),
    ({"sigma": math.inf}, "sigma must be finite and positive"),
    ({"sigma": math.nan}, "sigma must be finite and positive"),
])
def test_bandit_samplers_reject_drift_and_noise_outside_their_range(cls, params, message):
    with pytest.raises(ValueError, match=message):
        cls(**{"arms": 2, "eta": 0.9, "zeta": 0.4, "sigma": 1.0, **params})


def test_plain_lms_is_shrinkage_lms_at_eta_one():
    plain = LmsAgent(alpha=0.3, eta=0.7, mode="plain")
    assert plain.eta == 1.0
    plain.mu = 0.4
    assert plain.act() == 0.4
