"""Exact tabular MDP solvers: goal-reward scaling and a discretized
belief-space planner for the two-coin replacement game.

Goal-reward rescales have one engine, :func:`goal_reward_scales`: stacked
policy iteration plus a stacked Cesaro occupancy over N MDPs at once.
:func:`goal_reward_scale` is its N = 1 call, used by ``GoalMdpEnv``; the
goal-MDP lockstep kernel calls the engine once per planning round over all
the trials it advances. :func:`goal_reward` holds the one degeneracy check.

Both planners, :func:`goal_reward_scales` and :func:`belief_policy_iteration`,
share one policy-iteration contract (Howard 1960; Puterman 1994, section 6.4).
Each round evaluates the policy exactly; a state then moves to its greedy
action a' only if Q(s, a') - Q(s, pi(s)) > ``_PI_MARGIN`` * (1 + |Q(s, pi(s))|).
Such a move raises the policy's value by more than the margin, so the loop
ends on one of finitely many policies. The belief planner also sends a
swapping state back to the known coin as soon as swapping gains nothing, so
ties keep the known coin; such a move lowers the value by rounding at most,
far less than the margin a move forward gains, so it cannot feed a cycle.
Without the margin, rounding noise can make near-tied actions (equal rows,
rows one ulp apart) trade places forever: the plain argmax cycles with period
2 to 5 on such MDPs. A policy still moving after ``_PI_ROUNDS`` rounds gets
goal mass NaN in the goal planner and raises NumericError in the belief
planner."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMdpError, NumericError

_CESARO_BETA = 1.0 - 1e-9
_PI_ROUNDS = 200  # loop bound of policy iteration; an MDP still moving after it gets goal mass NaN
_PI_MARGIN = 1e-12  # relative gain a state's greedy action needs over its current one to move


def _greedy_occupancy(P: np.ndarray, actions: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Cesaro-limit state distributions (N, S) of the chains P[k, s, actions[k, s], :]
    from a uniform start: the averaged occupancy (1 - b) * mu0 * (I - b * P_pi)^-1
    at b = 1 - 1e-9, renormalized, which also handles periodic and reducible
    chains that plain power iteration cannot."""
    n, S = actions.shape
    P_pi = P[np.arange(n)[:, None], np.arange(S), actions]
    occ = np.linalg.solve(eye - _CESARO_BETA * P_pi.transpose(0, 2, 1), np.full((n, S, 1), 1.0 / S))
    occ = np.maximum(occ[..., 0], 0.0)
    return occ / occ.sum(axis=1, keepdims=True)


def goal_reward_scales(P: np.ndarray, goal_states, gammas,
                       q0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Greedy goal mass (N,) and exact Q* (N, S, A) of N unit-goal-reward MDPs.

    ``P`` has shape (N, S, A, S). MDP k moves by P[k], pays 1 on every
    arrival at ``goal_states[k]`` and discounts by ``gammas[k]``. Q* comes
    from policy iteration (Howard 1960), which for the small MDPs used here
    lands on the fixed point in a few exact policy evaluations, started from
    the greedy policy of ``q0[k]`` (or of the one-step reward). Each round
    makes one stacked ``np.linalg.solve`` and one stacked ``matmul`` over the
    MDPs still moving, so every slice equals the same computation run on that
    MDP alone. States move by the module docstring's rule; an MDP leaves the
    stack with that round's Q when no state moves. An MDP still moving after
    ``_PI_ROUNDS`` rounds gets goal mass NaN, which :func:`goal_reward`
    reports. The goal mass is the goal state's Cesaro occupancy under the
    greedy policy of Q*; :func:`goal_reward` turns it into the reward scale.
    """
    P = np.asarray(P, dtype=float)
    n, S, A = P.shape[:3]
    goal = np.asarray(goal_states, dtype=np.intp)
    gamma = np.asarray(gammas, dtype=float)[:, None, None]
    # P[..., goal] is the expected one-step reward P @ onehot(goal) exactly:
    # the other terms of that sum are exact zeros.
    er = P[np.arange(n), :, :, goal]
    eye = np.eye(S)
    states = np.arange(S)
    Q = np.empty((n, S, A))
    todo = np.arange(n)
    Pt, ert, gt = P, er, gamma
    policy = np.argmax(er if q0 is None else q0, axis=2)
    for _ in range(_PI_ROUNDS):
        m = len(todo)
        rows = np.arange(m)[:, None]
        v = np.linalg.solve(eye - gt * Pt[rows, states, policy], ert[rows, states, policy][..., None])
        Qt = ert + gt * (Pt.reshape(m, S * A, S) @ v).reshape(m, S, A)
        Q[todo] = Qt
        q_pi = Qt[rows, states, policy]
        move = Qt.max(axis=2) - q_pi > _PI_MARGIN * (1.0 + np.abs(q_pi))
        left = move.any(axis=1)
        todo = todo[left]
        if not len(todo):
            break
        policy = np.where(move, np.argmax(Qt, axis=2), policy)[left]
        Pt, ert, gt = Pt[left], ert[left], gt[left]
    occ = _greedy_occupancy(P, np.argmax(Q, axis=2), eye)
    mass = occ[np.arange(n), goal]
    mass[todo] = np.nan
    return mass, Q


def goal_reward(mass: float, goal_state: int, target: float) -> float:
    """Goal reward ``target / mass`` that makes the greedy policy earn ``target``
    per step on average. Raises DegenerateMdpError when the goal is
    unreachable under the greedy policy (mass < 1e-9) or when policy
    iteration did not settle (mass NaN); callers resample the MDP in that
    case. The reward is a Python float, so per-step reward and Q arithmetic
    on the scalar path stays off numpy scalars."""
    if math.isnan(mass):
        raise DegenerateMdpError(f"policy iteration did not settle in {_PI_ROUNDS} rounds")
    if mass < 1e-9:
        raise DegenerateMdpError(
            f"goal state {goal_state} has stationary mass {mass:.3e} under the greedy policy"
        )
    return float(target / mass)


def goal_reward_scale(P: np.ndarray, goal_state: int, gamma: float = 0.9, target: float = 0.5,
                      q0: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """(goal reward, Q*) of one goal MDP: :func:`goal_reward_scales` at N = 1,
    then :func:`goal_reward` of its goal mass."""
    mass, Q = goal_reward_scales(np.asarray(P, dtype=float)[None], [goal_state], [gamma],
                                 None if q0 is None else np.asarray(q0)[None])
    return goal_reward(mass[0], goal_state, target), Q[0]


@dataclass
class BeliefPlan:
    """Discounted plan over a discretized belief for the two-coin game.

    ``beliefs`` is the uniform grid over [0, 1], ``actions[i]`` is 0 for the
    known coin and 1 for the replaceable coin, ``values[i]`` the discounted
    value at belief ``beliefs[i]``.
    """

    beliefs: np.ndarray
    actions: np.ndarray
    values: np.ndarray
    q2: float

    def action_at(self, belief: float) -> int:
        i = int(round(belief * (len(self.beliefs) - 1)))
        return int(self.actions[min(max(i, 0), len(self.beliefs) - 1)])

    def reachable_actions(self) -> np.ndarray:
        # Decision-time beliefs contract toward 0.5 by factor (1 - q2) per step,
        # so play starting at 0.5 stays inside [T(0), T(1)].
        lo, hi = self.q2 * 0.5, (1.0 - self.q2) + self.q2 * 0.5
        mask = (self.beliefs >= lo - 1e-12) & (self.beliefs <= hi + 1e-12)
        return self.actions[mask]


def belief_policy_iteration(p1: float, q2: float, gamma: float,
                            grid_size: int = 2001) -> BeliefPlan:
    """Optimal policy over the belief that the replaceable coin has bias 1.

    Belief dynamics follow the replacement filter: after any step the
    decision-time belief moves to T(b) = (1 - q2) * b + q2 / 2; tossing the
    replaceable coin reveals its current bias, so heads leads to T(1) and
    tails to T(0). Transitions are projected to the nearest grid point.

    Policy iteration starts from the known coin everywhere and, past the
    shared contract, sends a swapping state back to the known coin once
    swapping gains nothing, so ties keep the known coin. A known state's
    value is p1 / (1 - gamma) where stay, the projection of T(b), is the
    state itself, and p1 + gamma * V(stay) otherwise; then stay is a fixed
    point or nearer the grid centre, so taking states nearest the centre
    first reaches stay before the state.
    Each value is then affine in the anchors V(T(1)) and V(T(0)), which one
    2x2 solve gives.
    """
    if grid_size < 2:
        raise ValueError(f"belief grid needs at least 2 points, got {grid_size}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"discount must lie in (0, 1), got {gamma}")
    if not (0.0 <= p1 <= 1.0 and 0.0 <= q2 <= 1.0):
        raise ValueError(f"p1 and q2 must lie in [0, 1], got p1={p1}, q2={q2}")
    beliefs = np.linspace(0.0, 1.0, grid_size)
    stay_beliefs = (1.0 - q2) * beliefs + q2 * 0.5
    idx_stay = np.clip(np.rint(stay_beliefs * (grid_size - 1)).astype(int), 0, grid_size - 1)
    anchors = idx_stay[[-1, 0]].tolist()  # T(1) and T(0): beliefs[-1] is 1 and beliefs[0] is 0
    fixed = idx_stay == np.arange(grid_size)
    order = np.argsort(np.abs(2 * np.arange(grid_size) - (grid_size - 1)), kind="stable")
    steps = [(i, s) for i, s in zip(order.tolist(), idx_stay[order].tolist()) if s != i]
    # Row i holds (c, d, e) of V[i] = c + d * V(T(1)) + e * V(T(0)).
    swap_rows = np.stack([beliefs, gamma * beliefs, gamma * (1.0 - beliefs)], axis=1)
    swap = np.zeros(grid_size, dtype=bool)
    for _ in range(_PI_ROUNDS):
        rows = np.where((fixed & ~swap)[:, None], [p1 / (1 - gamma), 0, 0], swap_rows).tolist()
        for i, s in steps:
            if not swap[i]:
                rows[i] = [p1 + gamma * rows[s][0], gamma * rows[s][1], gamma * rows[s][2]]
        rows = np.array(rows)
        v_anchor = np.linalg.solve(np.eye(2) - rows[anchors, 1:], rows[anchors, 0])
        V = rows[:, 0] + rows[:, 1:] @ v_anchor
        q_known = p1 + gamma * V[idx_stay]
        q_swap = beliefs + gamma * (beliefs * V[anchors[0]] + (1.0 - beliefs) * V[anchors[1]])
        gain = q_swap - q_known
        move = np.where(swap, gain <= 0.0, gain > _PI_MARGIN * (1.0 + np.abs(q_known)))
        if not move.any():
            break
        swap ^= move
    else:
        raise NumericError(f"belief policy iteration did not settle in {_PI_ROUNDS} rounds")
    return BeliefPlan(beliefs=beliefs, actions=swap.astype(int), values=V, q2=q2)
