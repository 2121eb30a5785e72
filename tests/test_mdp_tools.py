import math

import mpmath
import numpy as np
import pytest
from _oracles import (
    TabularMdp,
    belief_grid,
    belief_q,
    belief_value_iteration,
    bellman_backup,
    goal_mass_and_q,
    goal_mdp,
    greedy_policy,
    greedy_stationary_distribution,
    scale_goal_reward,
    value_iteration,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contilab import mdp_tools
from contilab.errors import DegenerateMdpError
from contilab.mdp_tools import (
    belief_policy_iteration,
    goal_reward,
    goal_reward_scale,
    goal_reward_scales,
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


def _cycle(n):
    P = np.zeros((n, 1, n))
    P[np.arange(n), 0, (np.arange(n) + 1) % n] = 1.0
    return P


@pytest.mark.parametrize("P, scale", [
    (_cycle(2), 1.0),  # periodic: goal mass 1/2
    (np.eye(4)[:, None, :], 2.0),  # reducible, every state absorbing: goal mass 1/4
    (_cycle(10), 5.0),  # periodic: goal mass 1/10
    # period 2, not doubly stochastic: from uniform, state 0 holds 1/6 and 1/3
    # on alternate steps, so its Cesaro mass is 1/4
    (np.array([[[0, 1, 0]], [[0.5, 0, 0.5]], [[0, 1, 0]]], dtype=float), 2.0),
    # reducible, transient middle state: from uniform, 0 and 2 each absorb 1/2
    (np.array([[[1, 0, 0]], [[0.5, 0, 0.5]], [[0, 0, 1]]], dtype=float), 1.0),
])
def test_goal_reward_scale_on_periodic_and_reducible_chains(P, scale):
    # The engine's Cesaro occupancy on the chains power iteration cannot settle.
    assert goal_reward_scale(P, 0, 0.9, 0.5)[0] == pytest.approx(scale, rel=1e-8)


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


def test_goal_reward_scales_unsettled_mdps_fail_after_the_round_cap(monkeypatch):
    # With one policy-iteration round, the MDPs where some state still moves
    # get goal mass NaN, which goal_reward_scale raises as DegenerateMdpError;
    # the others keep the exact Q* of the one-MDP reference. Half the MDPs
    # start from their own Q*, so no state of theirs moves.
    P, goals, gammas, _, q0 = _goal_mdps(7, 12, 6, 3, 0.3, True)
    q0[::2] = goal_reward_scales(P, goals, gammas)[1][::2]
    monkeypatch.setattr(mdp_tools, "_PI_ROUNDS", 1)
    mass, Q = goal_reward_scales(P, goals, gammas, q0)
    for k in range(len(P)):
        m_ref, q_ref = goal_mass_and_q(P[k], goals[k], float(gammas[k]), q0[k], rounds=1)
        assert np.array_equal(Q[k], q_ref) and np.isnan(mass[k]) == math.isnan(m_ref)
        if math.isnan(m_ref):
            with pytest.raises(DegenerateMdpError,
                               match=r"^policy iteration did not settle in 1 rounds$"):
                goal_reward_scale(P[k], goals[k], float(gammas[k]), 0.5, q0[k])
        else:
            assert mass[k] == m_ref
    assert not np.isnan(mass[::2]).any()
    assert 0 < np.isnan(mass).sum() < len(P)


def _near_tied_mdps(seed, n, S, A, rows, start):
    """n goal MDPs whose actions nearly tie: every action row past the first
    copies an earlier action's row, exactly ("copy"), with its largest entry
    moved by one ulp ("ulp"), or with all rows one-hot ("deterministic").
    The start is cold (None), 5-sigma noise, or 0/1 noise full of ties."""
    gen = np.random.default_rng(seed)
    if rows == "deterministic":
        P = np.eye(S)[gen.integers(0, S, size=(n, S, A))]
    else:
        g = gen.gamma(0.3, 1.0, size=(n, S, A, S))
        g[g.sum(axis=3) == 0.0] = 1.0
        P = g / g.sum(axis=3, keepdims=True)
        for a in range(1, A):
            P[:, :, a] = P[:, :, gen.integers(0, a)]
            if rows == "ulp":
                k, s = np.indices((n, S))
                top = P[:, :, a].argmax(axis=2)
                P[k, s, a, top] = np.nextafter(P[k, s, a, top], gen.choice([-np.inf, np.inf], (n, S)))
    goals = gen.integers(0, S, size=n)
    q0 = {"cold": None, "noise": 5.0 * gen.standard_normal((n, S, A)),
          "ties": gen.integers(0, 2, size=(n, S, A)).astype(float)}[start]
    return P, goals, q0


_near_ties = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 6),
                       st.integers(2, 4), st.sampled_from(["copy", "ulp", "deterministic"]),
                       st.sampled_from(["cold", "noise", "ties"]))


@settings(max_examples=60, deadline=None)
@given(_near_ties, st.sampled_from([0.5, 0.9, 0.99]))
@example((0, 3, 5, 3, "ulp", "cold"), 0.99)
@example((1, 3, 4, 4, "deterministic", "ties"), 0.9)
@example((2, 2, 6, 2, "copy", "noise"), 0.5)
def test_policy_iteration_settles_on_near_tied_mdps(case, gamma):
    # Keep-unless-strictly-better settles every near tie well inside 20
    # rounds, on Q* within 1e-8 of value iteration. Value iteration stops at
    # a step below tol, so it is within gamma * tol / (1 - gamma) <= 1e-9 of Q*.
    P, goals, q0 = _near_tied_mdps(*case)
    gammas = np.full(len(P), gamma)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp_tools, "_PI_ROUNDS", 20)
        mass, Q = goal_reward_scales(P, goals, gammas, q0)
    assert not np.isnan(mass).any()
    for k in range(len(P)):
        q_vi = value_iteration(goal_mdp(P[k], goals[k], gamma=gamma), tol=1e-9 * (1.0 - gamma))
        assert np.max(np.abs(Q[k] - q_vi)) < 1e-8


def test_goal_reward_degenerate_text():
    assert goal_reward(0.25, 3, 0.5) == 2.0
    assert type(goal_reward(np.float64(0.25), 3, 0.5)) is float
    with pytest.raises(DegenerateMdpError,
                       match=r"^goal state 3 has stationary mass 5\.000e-10 under the greedy policy$"):
        goal_reward(5e-10, 3, 0.5)


def test_belief_plan_fast_replacement_prefers_known_coin():
    plan = belief_policy_iteration(p1=0.8, q2=0.999, gamma=0.999, grid_size=2001)
    assert np.all(plan.reachable_actions() == 0)
    assert plan.action_at(0.5) == 0


def test_belief_plan_slow_replacement_explores():
    plan = belief_policy_iteration(p1=0.8, q2=0.001, gamma=0.999, grid_size=2001)
    assert plan.actions.max() == 1
    # play from the uninformed belief eventually reaches the explore region
    assert np.any(plan.reachable_actions() == 1)


def test_belief_plan_dominant_known_coin():
    for q2 in (0.001, 0.5, 0.999):
        plan = belief_policy_iteration(p1=1.0, q2=q2, gamma=0.99, grid_size=501)
        assert np.all(plan.actions == 0)


def test_belief_plan_validation():
    with pytest.raises(ValueError):
        belief_policy_iteration(0.8, 0.5, 0.99, grid_size=1)
    with pytest.raises(ValueError):
        belief_policy_iteration(0.8, 0.5, 1.0)


@pytest.mark.parametrize("p1, q2", [(0.8, 2.5), (0.8, -0.001), (1.5, 0.5), (-0.2, 0.5),
                                    (math.nan, 0.5), (0.8, math.nan)])
def test_belief_plan_rejects_probabilities_outside_unit_interval(p1, q2):
    # Evaluating states nearest the grid centre first needs q2 <= 1.
    with pytest.raises(ValueError, match=r"^p1 and q2 must lie in \[0, 1\]"):
        belief_policy_iteration(p1, q2, 0.9, 11)


def test_belief_plan_exact_tie_keeps_known_coin():
    # At belief p1 both coins are worth the same; value iteration's rounding
    # left q_swap 1.1e-13 above q_known there and took the swap.
    plan = belief_policy_iteration(p1=0.8, q2=0.3, gamma=0.999, grid_size=11)
    q_known, q_swap = belief_q(0.8, 0.999, belief_grid(0.3, 11), plan.values)
    assert q_known[8] == q_swap[8]
    assert plan.action_at(0.8) == 0


_belief_cases = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                          st.sampled_from([0.5, 0.9, 0.99]), st.integers(2, 60))


@settings(max_examples=40, deadline=None)
@given(_belief_cases)
@example((0.8, 0.3, 0.999, 11))  # the exact tie above
@example((0.8, 1.0, 0.9, 12))
@example((1.0, 0.0, 0.9, 2))
def test_belief_plan_is_greedy_on_its_values_with_ties_to_known_coin(case):
    p1, q2, gamma, grid_size = case
    plan = belief_policy_iteration(p1, q2, gamma, grid_size)
    q_known, q_swap = belief_q(p1, gamma, belief_grid(q2, grid_size), plan.values)
    swap = plan.actions == 1
    assert np.all(q_swap[swap] > q_known[swap])
    gain = q_swap - q_known
    assert np.all(gain[~swap] <= mdp_tools._PI_MARGIN * (1.0 + np.abs(q_known[~swap])))
    # the values are the policy's own: V = Q(b, pi(b)) up to rounding
    assert plan.values == pytest.approx(np.where(swap, q_swap, q_known), rel=1e-14, abs=1e-14)


def _policy_values_40_digits(p1, q2, gamma, actions):
    """Values of the belief policy ``actions``: (I - gamma * P) V = r solved
    densely in 40-digit arithmetic on the planner's projected grid."""
    n = len(actions)
    beliefs, idx_stay, i_heads, i_tails = belief_grid(q2, n)
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        A, r = mpmath.eye(n), mpmath.matrix(n, 1)
        for i in range(n):
            b = mpmath.mpf(beliefs[i])
            if actions[i]:
                r[i] = b
                A[i, i_heads] -= g * b
                A[i, i_tails] -= g * (1 - b)
            else:
                r[i] = mpmath.mpf(p1)
                A[i, idx_stay[i]] -= g
        return [float(v) for v in mpmath.lu_solve(A, r)]


@pytest.mark.parametrize("grid_size", [11, 12])
@pytest.mark.parametrize("q2", [0.0, 0.3, 0.999, 1.0])
def test_belief_plan_values_match_40_digit_evaluation(grid_size, q2):
    plan = belief_policy_iteration(0.8, q2, 0.999, grid_size)
    exact = _policy_values_40_digits(0.8, q2, 0.999, plan.actions)
    assert plan.values == pytest.approx(exact, rel=1e-14, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(_belief_cases)
@example((0.8, 0.3, 0.999, 11))  # the exact tie above
@example((0.8, 0.001, 0.99, 60))
@example((0.8, 1.0, 0.5, 12))
def test_belief_plan_agrees_with_value_iteration(case):
    # Value iteration stops within 5e-10 of the fixed point, so it can pick
    # either coin where its two action values are within 1e-9.
    p1, q2, gamma, grid_size = case
    plan = belief_policy_iteration(p1, q2, gamma, grid_size)
    V, q_known, q_swap = belief_value_iteration(p1, q2, gamma, grid_size)
    assert np.max(np.abs(plan.values - V)) < 1e-9
    clear = np.abs(q_swap - q_known) > 1e-9
    assert np.array_equal(plan.actions[clear], (q_swap > q_known)[clear])
