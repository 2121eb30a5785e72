"""Exact tabular MDP solvers: value iteration, greedy stationary distributions,
goal-reward scaling, and a discretized belief-space planner for the two-coin
replacement game.

Goal-reward rescales have one engine, :func:`goal_reward_scales`: stacked
policy iteration plus a stacked Cesaro occupancy over N MDPs at once.
:func:`goal_reward_scale` is its N = 1 call, used by ``GoalMdpEnv``; the
goal-MDP lockstep kernel calls the engine once per planning round over all
the trials it advances. :func:`goal_reward` holds the one degeneracy check."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMdpError

_ROW_TOL = 1e-12
_CESARO_BETA = 1.0 - 1e-9
_PI_ROUNDS = 200  # policy-iteration rounds before an MDP falls back to value iteration


@dataclass
class TabularMdp:
    """Finite MDP with transition tensor P[s, a, s'] and rewards r[s, a, s']."""

    P: np.ndarray
    r: np.ndarray
    gamma: float = 0.9

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        if self.P.ndim != 3 or self.P.shape[0] != self.P.shape[2]:
            raise ValueError(f"transition tensor must have shape (S, A, S), got {self.P.shape}")
        if self.r.shape != self.P.shape:
            raise ValueError("reward tensor must match transition tensor shape")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"discount must lie in (0, 1), got {self.gamma}")
        row_sums = self.P.sum(axis=2)
        if np.any(self.P < 0.0) or np.any(np.abs(row_sums - 1.0) > _ROW_TOL):
            raise ValueError("transition rows must be nonnegative and sum to 1 within 1e-12")

    @property
    def n_states(self) -> int:
        return self.P.shape[0]

    @property
    def n_actions(self) -> int:
        return self.P.shape[1]


def goal_mdp(P: np.ndarray, goal_state: int, goal_reward: float = 1.0, gamma: float = 0.9) -> TabularMdp:
    """MDP paying ``goal_reward`` on every arrival at ``goal_state``, 0 elsewhere."""
    P = np.asarray(P, dtype=float)
    r = np.zeros_like(P)
    r[:, :, goal_state] = goal_reward
    return TabularMdp(P, r, gamma)


def bellman_backup(mdp: TabularMdp, Q: np.ndarray) -> np.ndarray:
    """One application of the Bellman optimality operator."""
    v = Q.max(axis=1)
    expected_r = np.einsum("sat,sat->sa", mdp.P, mdp.r)
    return expected_r + mdp.gamma * (mdp.P @ v)


def value_iteration(mdp: TabularMdp, tol: float = 1e-8, q0: np.ndarray | None = None,
                    max_iter: int = 100_000) -> np.ndarray:
    """Optimal action values with sup-norm Bellman residual below ``tol``.

    ``q0`` warm-starts the iteration (useful when only a few transition rows
    changed since the last solve); the fixed point does not depend on it.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    expected_r = np.einsum("sat,sat->sa", mdp.P, mdp.r)
    P = mdp.P
    gamma = mdp.gamma
    Q = np.zeros((mdp.n_states, mdp.n_actions)) if q0 is None else np.array(q0, dtype=float)
    # Stopping at ||Q_{k+1} - Q_k|| < tol leaves a residual below gamma * tol.
    for _ in range(max_iter):
        Q_next = expected_r + gamma * (P @ Q.max(axis=1))
        gap = np.max(np.abs(Q_next - Q))
        Q = Q_next
        if gap < tol:
            return Q
    raise RuntimeError(f"value iteration did not reach tol {tol} in {max_iter} iterations")


def greedy_policy(Q: np.ndarray) -> np.ndarray:
    """Greedy action per state, ties broken toward the lowest action index."""
    return np.argmax(Q, axis=1)


def greedy_stationary_distribution(mdp: TabularMdp, Q: np.ndarray) -> np.ndarray:
    """Long-run state distribution of the greedy-policy chain from a uniform start.

    Computed as the averaged-occupancy (Cesaro) limit via the resolvent
    (1 - b) * mu0 * (I - b * P_pi)^-1 at b = 1 - 1e-9, then renormalized; this
    handles periodic and reducible chains that plain power iteration cannot.
    """
    return _greedy_occupancy(mdp.P[None], greedy_policy(Q)[None], np.eye(mdp.n_states))[0]


def _greedy_occupancy(P: np.ndarray, actions: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Cesaro-limit state distributions (N, S) of the chains P[k, s, actions[k, s], :]
    from a uniform start (see :func:`greedy_stationary_distribution`)."""
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
    MDPs whose policy has not yet repeated, so every slice equals the same
    computation run on that MDP alone. An MDP whose policies still cycle
    after ``_PI_ROUNDS`` rounds falls back, on its own, to value iteration.
    The goal mass is the goal state's Cesaro occupancy under the greedy
    policy of Q*; :func:`goal_reward` turns it into the reward scale.
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
        # An MDP keeps the Q of the round its policy repeated.
        Q[todo] = Qt
        nxt = np.argmax(Qt, axis=2)
        left = (nxt != policy).any(axis=1)
        if not left.any():
            break
        todo, Pt, ert, gt, policy = todo[left], Pt[left], ert[left], gt[left], nxt[left]
    else:
        for k in todo:
            r = np.zeros_like(P[k])
            r[:, :, goal[k]] = 1.0
            Q[k] = value_iteration(TabularMdp(P[k], r, float(gamma[k, 0, 0])), tol=1e-10,
                                   q0=None if q0 is None else q0[k])
    occ = _greedy_occupancy(P, np.argmax(Q, axis=2), eye)
    return occ[np.arange(n), goal], Q


def goal_reward(mass: float, goal_state: int, target: float) -> float:
    """Goal reward ``target / mass`` that makes the greedy policy earn ``target``
    per step on average. Raises DegenerateMdpError when the goal is
    unreachable under the greedy policy (mass < 1e-9); callers resample the
    MDP in that case. The reward is a Python float, so per-step reward and Q
    arithmetic on the scalar path stays off numpy scalars."""
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


def scale_goal_reward(mdp: TabularMdp, goal_state: int, target: float = 0.5,
                      tol: float = 1e-8, unit_reward: float = 1.0) -> float:
    """Scaled arrival reward for ``goal_state`` (see :func:`goal_reward_scale`),
    solved by value iteration to ``tol``.

    ``unit_reward`` sets the placeholder reward used while solving for the
    greedy policy; the returned scale is invariant to it.
    """
    if not 0 <= goal_state < mdp.n_states:
        raise ValueError(f"goal state {goal_state} out of range")
    unit = goal_mdp(mdp.P, goal_state, unit_reward, mdp.gamma)
    Q = value_iteration(unit, tol=tol)
    return goal_reward(greedy_stationary_distribution(unit, Q)[goal_state], goal_state, target)


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
    p1: float
    gamma: float

    reachable_lo: float = field(init=False)
    reachable_hi: float = field(init=False)

    def __post_init__(self):
        # Decision-time beliefs contract toward 0.5 by factor (1 - q2) per step,
        # so play starting at 0.5 stays inside [T(0), T(1)].
        self.reachable_lo = (1.0 - self.q2) * 0.0 + self.q2 * 0.5
        self.reachable_hi = (1.0 - self.q2) * 1.0 + self.q2 * 0.5

    def action_at(self, belief: float) -> int:
        i = int(round(belief * (len(self.beliefs) - 1)))
        return int(self.actions[min(max(i, 0), len(self.beliefs) - 1)])

    def reachable_actions(self) -> np.ndarray:
        mask = (self.beliefs >= self.reachable_lo - 1e-12) & (self.beliefs <= self.reachable_hi + 1e-12)
        return self.actions[mask]


def belief_value_iteration(p1: float, q2: float, gamma: float, grid_size: int = 2001,
                           tol: float = 1e-9, max_iter: int = 2_000_000) -> BeliefPlan:
    """Eps-optimal policy over the belief that the replaceable coin has bias 1.

    Belief dynamics follow the replacement filter: after any step the
    decision-time belief moves to T(b) = (1 - q2) * b + q2 / 2; tossing the
    replaceable coin reveals its current bias, so heads leads to T(1) and
    tails to T(0). Transitions are projected to the nearest grid point.
    """
    if grid_size < 2:
        raise ValueError(f"belief grid needs at least 2 points, got {grid_size}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"discount must lie in (0, 1), got {gamma}")
    beliefs = np.linspace(0.0, 1.0, grid_size)

    def project(b: np.ndarray | float) -> np.ndarray:
        return np.clip(np.rint(np.asarray(b) * (grid_size - 1)).astype(int), 0, grid_size - 1)

    idx_stay = project((1.0 - q2) * beliefs + q2 * 0.5)
    i_heads = int(project((1.0 - q2) * 1.0 + q2 * 0.5))
    i_tails = int(project(q2 * 0.5))

    V = np.zeros(grid_size)
    stop = tol * (1.0 - gamma) / (2.0 * gamma)
    for _ in range(max_iter):
        q_known = p1 + gamma * V[idx_stay]
        q_swap = beliefs + gamma * (beliefs * V[i_heads] + (1.0 - beliefs) * V[i_tails])
        V_next = np.maximum(q_known, q_swap)
        if np.max(np.abs(V_next - V)) < stop:
            V = V_next
            break
        V = V_next
    else:
        raise RuntimeError("belief value iteration did not converge")

    q_known = p1 + gamma * V[idx_stay]
    q_swap = beliefs + gamma * (beliefs * V[i_heads] + (1.0 - beliefs) * V[i_tails])
    # Ties (e.g. p1 = 1 at belief 1) resolve to the known coin.
    actions = (q_swap > q_known).astype(int)
    return BeliefPlan(beliefs=beliefs, actions=actions, values=V, q2=q2, p1=p1, gamma=gamma)
