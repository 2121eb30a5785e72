import math

import numpy as np
import pytest
from _oracles import goal_mass_and_q
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contilab import mdp_tools
from contilab.errors import DegenerateMdpError
from contilab.mdp_tools import (
    TabularMdp,
    bellman_backup,
    belief_value_iteration,
    goal_mdp,
    goal_reward,
    goal_reward_scale,
    goal_reward_scales,
    greedy_policy,
    greedy_stationary_distribution,
    scale_goal_reward,
    value_iteration,
)


def random_mdp(gen, n_states=6, n_actions=3, gamma=0.9):
    g = gen.gamma(0.5, 1.0, size=(n_states, n_actions, n_states)) + 1e-12
    P = g / g.sum(axis=2, keepdims=True)
    r = gen.standard_normal((n_states, n_actions, n_states))
    return TabularMdp(P, r, gamma)


def test_single_state_geometric_series():
    mdp = TabularMdp(np.ones((1, 1, 1)), np.ones((1, 1, 1)), 0.9)
    Q = value_iteration(mdp, tol=1e-10)
    assert Q[0, 0] == pytest.approx(10.0, abs=1e-8)


def test_two_state_chain_hand_solved():
    # deterministic: action 0 stays, action 1 moves; reward 1 on entering state 1
    P = np.zeros((2, 2, 2))
    P[0, 0, 0] = P[0, 1, 1] = 1.0
    P[1, 0, 1] = P[1, 1, 0] = 1.0
    r = np.zeros((2, 2, 2))
    r[:, :, 1] = 1.0
    gamma = 0.9
    Q = value_iteration(TabularMdp(P, r, gamma), tol=1e-12)
    # optimal: bounce between states; V0 = 1/(1-g^2)... solved by hand:
    # Q*(0,1) = 1 + g*V1, Q*(1,1) = 0 + g*V0, V0 = Q*(0,1), V1 = max(1+g*V1, g*V0)
    v1 = 1.0 / (1.0 - gamma)  # staying in state 1 re-enters it forever
    v0 = 1.0 + gamma * v1
    expected = np.array([[gamma * v0, 1.0 + gamma * v1], [1.0 + gamma * v1, gamma * v0]])
    assert np.allclose(Q, expected, atol=1e-9)


def test_bellman_residual_below_tolerance():
    gen = np.random.default_rng(0)
    for _ in range(5):
        mdp = random_mdp(gen)
        Q = value_iteration(mdp, tol=1e-8)
        assert np.max(np.abs(bellman_backup(mdp, Q) - Q)) < 1e-8


def test_value_iteration_is_contraction():
    gen = np.random.default_rng(1)
    mdp = random_mdp(gen)
    q = np.zeros((mdp.n_states, mdp.n_actions))
    gaps = []
    for _ in range(25):
        q_next = bellman_backup(mdp, q)
        gaps.append(np.max(np.abs(q_next - q)))
        q = q_next
    for a, b in zip(gaps, gaps[1:]):
        assert b <= mdp.gamma * a + 1e-12


def test_value_iteration_warm_start_same_fixed_point():
    gen = np.random.default_rng(2)
    mdp = random_mdp(gen)
    cold = value_iteration(mdp, tol=1e-10)
    warm = value_iteration(mdp, tol=1e-10, q0=cold + gen.standard_normal(cold.shape))
    assert np.allclose(cold, warm, atol=1e-8)


def test_invalid_transitions_rejected():
    P = np.ones((2, 1, 2))  # rows sum to 2
    with pytest.raises(ValueError):
        TabularMdp(P, np.zeros_like(P), 0.9)
    with pytest.raises(ValueError):
        value_iteration(goal_mdp(np.full((2, 1, 2), 0.5), 0), tol=0.0)


def test_stationary_distribution_two_state_cycle():
    P = np.zeros((2, 1, 2))
    P[0, 0, 1] = P[1, 0, 0] = 1.0
    mdp = goal_mdp(P, 0)
    d = greedy_stationary_distribution(mdp, np.zeros((2, 1)))
    assert d == pytest.approx([0.5, 0.5], abs=1e-8)


def test_stationary_distribution_identity_chain():
    P = np.zeros((4, 1, 4))
    for s in range(4):
        P[s, 0, s] = 1.0
    d = greedy_stationary_distribution(goal_mdp(P, 0), np.zeros((4, 1)))
    assert d == pytest.approx([0.25] * 4, abs=1e-9)


def test_stationary_distribution_matches_eigenvector():
    gen = np.random.default_rng(3)
    g = gen.gamma(1.0, 1.0, size=(10, 1, 10)) + 1e-3
    P = g / g.sum(axis=2, keepdims=True)
    mdp = goal_mdp(P, 0)
    d = greedy_stationary_distribution(mdp, np.zeros((10, 1)))
    w, v = np.linalg.eig(P[:, 0, :].T)
    lead = np.real(v[:, np.argmax(np.real(w))])
    lead = lead / lead.sum()
    assert np.max(np.abs(d - lead)) < 1e-8
    assert d.sum() == pytest.approx(1.0, abs=1e-10)


def test_scale_goal_reward_cycle_arithmetic():
    # 10-state forced cycle: greedy stationary mass of any state is 0.1
    n = 10
    P = np.zeros((n, 1, n))
    for s in range(n):
        P[s, 0, (s + 1) % n] = 1.0
    mdp = goal_mdp(P, 0)
    assert scale_goal_reward(mdp, 0) == pytest.approx(5.0, abs=1e-6)


def test_scale_goal_reward_unit_reward_invariance():
    gen = np.random.default_rng(4)
    g = gen.gamma(0.1, 1.0, size=(10, 3, 10)) + 1e-12
    P = g / g.sum(axis=2, keepdims=True)
    mdp = goal_mdp(P, 0)
    assert scale_goal_reward(mdp, 0, unit_reward=1.0) == pytest.approx(
        scale_goal_reward(mdp, 0, unit_reward=2.0), rel=1e-9
    )


def test_scale_goal_reward_label_permutation_invariance():
    gen = np.random.default_rng(5)
    g = gen.gamma(0.1, 1.0, size=(8, 3, 8)) + 1e-12
    P = g / g.sum(axis=2, keepdims=True)
    base = scale_goal_reward(goal_mdp(P, 0), 0)
    perm = np.concatenate(([0], 1 + gen.permutation(7)))
    P_perm = P[np.ix_(perm, np.arange(3), perm)]
    assert scale_goal_reward(goal_mdp(P_perm, 0), 0) == pytest.approx(base, rel=1e-8)


def test_scale_goal_reward_degenerate_goal():
    # no transition ever reaches state 0
    P = np.zeros((3, 2, 3))
    P[:, :, 1] = 0.5
    P[:, :, 2] = 0.5
    with pytest.raises(DegenerateMdpError):
        scale_goal_reward(goal_mdp(P, 0), 0)


def test_policy_iteration_path_matches_value_iteration():
    gen = np.random.default_rng(6)
    for _ in range(4):
        g = gen.gamma(0.1, 1.0, size=(10, 3, 10)) + 1e-12
        P = g / g.sum(axis=2, keepdims=True)
        _, q_exact = goal_reward_scale(P, 0, 0.9)
        q_vi = value_iteration(goal_mdp(P, 0), tol=1e-10)
        assert np.max(np.abs(q_exact - q_vi)) < 1e-8
        assert np.array_equal(greedy_policy(q_exact), greedy_policy(q_vi))


def _goal_mdps(seed, n, S, A, concentration, warm):
    """n Dirichlet goal MDPs with per-MDP goal, discount and target, and a
    cold (None) or warm (noisy Q-like) start."""
    gen = np.random.default_rng(seed)
    g = gen.gamma(concentration, 1.0, size=(n, S, A, S))
    g[g.sum(axis=3) == 0.0] = 1.0
    P = g / g.sum(axis=3, keepdims=True)
    goals = gen.integers(0, S, size=n)
    gammas = gen.choice([0.5, 0.9, 0.99], size=n)
    targets = gen.uniform(0.1, 2.0, size=n)
    q0 = 5.0 * gen.standard_normal((n, S, A)) if warm else None
    return P, goals, gammas, targets, q0


_stacks = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
                    st.integers(1, 3), st.sampled_from([0.05, 0.3, 1.0]), st.booleans())


@settings(max_examples=60, deadline=None)
@given(_stacks)
@example((0, 1, 1, 1, 1.0, False))  # S = 1, A = 1, N = 1, cold
@example((1, 5, 1, 3, 0.3, True))  # S = 1, warm
@example((2, 4, 4, 1, 0.05, True))  # A = 1, warm
def test_goal_reward_scales_equal_the_one_mdp_reference(case):
    # Slice k of the stacked engine is == to the per-MDP arithmetic, and the
    # N = 1 call (goal_reward_scale) to the reward that slice implies.
    P, goals, gammas, targets, q0 = _goal_mdps(*case)
    mass, Q = goal_reward_scales(P, goals, gammas, q0)
    assert mass.shape == (len(P),) and Q.shape == P.shape[:3]
    for k in range(len(P)):
        q0_k = None if q0 is None else q0[k]
        m_ref, q_ref = goal_mass_and_q(P[k], goals[k], float(gammas[k]), q0_k)
        assert mass[k] == m_ref and np.array_equal(Q[k], q_ref)
        if m_ref < 1e-9:
            with pytest.raises(DegenerateMdpError):
                goal_reward_scale(P[k], goals[k], float(gammas[k]), float(targets[k]), q0_k)
            continue
        scale, q_one = goal_reward_scale(P[k], goals[k], float(gammas[k]), float(targets[k]), q0_k)
        assert scale == float(targets[k]) / m_ref and np.array_equal(q_one, q_ref)


def test_goal_reward_scales_fall_back_to_value_iteration_per_mdp(monkeypatch):
    # With one policy-iteration round, the MDPs whose policy has not repeated
    # go to value iteration on their own; the others keep their exact Q*.
    # Half the MDPs start from their own Q*, so their policy repeats at once.
    P, goals, gammas, _, q0 = _goal_mdps(7, 12, 6, 3, 0.3, True)
    q0[::2] = goal_reward_scales(P, goals, gammas)[1][::2]
    monkeypatch.setattr(mdp_tools, "_PI_ROUNDS", 1)
    mass, Q = goal_reward_scales(P, goals, gammas, q0)
    fell_back = 0
    for k in range(len(P)):
        m_ref, q_ref = goal_mass_and_q(P[k], goals[k], float(gammas[k]), q0[k], rounds=1)
        assert mass[k] == m_ref and np.array_equal(Q[k], q_ref)
        q_vi = value_iteration(goal_mdp(P[k], goals[k], gamma=float(gammas[k])), tol=1e-10, q0=q0[k])
        fell_back += np.array_equal(Q[k], q_vi)
    assert 0 < fell_back < len(P)


def test_goal_reward_degenerate_text():
    assert goal_reward(0.25, 3, 0.5) == 2.0
    assert type(goal_reward(np.float64(0.25), 3, 0.5)) is float
    with pytest.raises(DegenerateMdpError,
                       match=r"^goal state 3 has stationary mass 5\.000e-10 under the greedy policy$"):
        goal_reward(5e-10, 3, 0.5)


def test_belief_plan_fast_replacement_prefers_known_coin():
    plan = belief_value_iteration(p1=0.8, q2=0.999, gamma=0.999, grid_size=2001)
    assert np.all(plan.reachable_actions() == 0)
    assert plan.action_at(0.5) == 0


def test_belief_plan_slow_replacement_explores():
    plan = belief_value_iteration(p1=0.8, q2=0.001, gamma=0.999, grid_size=2001)
    assert plan.actions.max() == 1
    # play from the uninformed belief eventually reaches the explore region
    assert np.any(plan.reachable_actions() == 1)


def test_belief_plan_dominant_known_coin():
    for q2 in (0.001, 0.5, 0.999):
        plan = belief_value_iteration(p1=1.0, q2=q2, gamma=0.99, grid_size=501)
        assert np.all(plan.actions == 0)


def test_belief_plan_validation():
    with pytest.raises(ValueError):
        belief_value_iteration(0.8, 0.5, 0.99, grid_size=1)
    with pytest.raises(ValueError):
        belief_value_iteration(0.8, 0.5, 1.0)
