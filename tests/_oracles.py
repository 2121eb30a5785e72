"""Shared independent oracles for the test suite: a direct simulation of the
quantized tracker on the standardized AR(1) process, batch-mean standard
errors that respect autocorrelation, and the one-MDP-at-a-time goal-reward
rescale that the stacked engine must reproduce bit for bit."""

import math

import numpy as np

from contilab.mdp_tools import TabularMdp, value_iteration
from contilab.rng import RngStream


def simulate_tracker(alpha, eta, sigma, delta, n, seed, burn=20_000):
    gen = RngStream(seed).child("oracle").generator()
    zeta = math.sqrt(max(0.0, 1.0 - eta * eta))
    total = burn + n
    V = gen.standard_normal(total) * zeta
    W = gen.standard_normal(total) * sigma
    Q = gen.standard_normal(total) * delta
    theta = gen.standard_normal()
    u = gen.standard_normal()
    ys = np.empty(total)
    us = np.empty(total)
    ac = 1.0 - alpha
    for i in range(total):
        theta = eta * theta + V[i]
        y = theta + W[i]
        u = ac * u + alpha * y + Q[i]
        ys[i] = y
        us[i] = u
    return ys[burn:], us[burn:]


def batch_stderr(x, n_batches=100):
    means = np.array([b.mean() for b in np.array_split(x, n_batches)])
    return means.std(ddof=1) / math.sqrt(n_batches)


def goal_mass_and_q(P, goal_state, gamma, q0=None, rounds=200):
    """One goal MDP at a time, the arithmetic that ``mdp_tools.goal_reward_scales``
    stacks: policy iteration on the unit goal reward (value iteration if the
    policy has not repeated after ``rounds`` evaluations), then the goal's
    Cesaro occupancy under the greedy policy. Returns (goal mass, Q*)."""
    S, A = P.shape[0], P.shape[1]
    P2 = P.reshape(S * A, S)
    r_next = np.zeros(S)
    r_next[goal_state] = 1.0
    er = (P2 @ r_next).reshape(S, A)
    eye = np.eye(S)
    idx = np.arange(S)
    policy = np.argmax(er if q0 is None else q0, axis=1)
    for _ in range(rounds):
        P_pi = P[idx, policy, :]
        v = np.linalg.solve(eye - gamma * P_pi, er[idx, policy])
        Q = er + gamma * (P2 @ v).reshape(S, A)
        nxt = np.argmax(Q, axis=1)
        if np.array_equal(nxt, policy):
            break
        policy = nxt
    else:
        mdp = TabularMdp(P, np.broadcast_to(r_next, P.shape).copy(), gamma)
        Q = value_iteration(mdp, tol=1e-10, q0=q0)
    P_pi = P[idx, np.argmax(Q, axis=1), :]
    occ = np.linalg.solve(eye - (1.0 - 1e-9) * P_pi.T, np.full(S, 1.0 / S))
    occ = np.maximum(occ, 0.0)
    return (occ / occ.sum())[goal_state], Q
