"""Shared independent oracles for the test suite.

- Simulation: a direct simulation of the quantized tracker on the
  standardized AR(1) process, and batch-mean standard errors that respect
  autocorrelation.
- One-at-a-time evaluations that the stacked engines must reproduce bit for
  bit: the goal-reward rescale of one MDP, the Dirichlet rows of a goal MDP
  drawn row by row, and the stability errors of one stepsize on its dense
  joint.
- The dense Gaussian references for the scalar filters of ``infotheory``:
  conditional MI on a joint covariance (through the block function that
  ``stability_errors`` uses), the general-lag moments E[U_{t+k} Y_t] and
  E[Y_t Y_{t+k}] with their merged-roots branch, the dense observation
  block, the dense joint of the state and its recent observations, the
  unrolled finite-horizon joint and its lag decomposition, the next-step
  information missing from the state on a long past window, and the
  hand-expanded steady-state prediction law.
- The goal-MDP tools only tests use: a tabular MDP, value iteration, goal
  MDPs, Bellman backups, greedy stationary distributions, and the
  value-iteration goal-reward scale.
- The belief grid of the two-coin planner, its action values, and value
  iteration on it.
- The exact mean of a reward sequence, and the entropy regret bound.
- A registered runner's result without files, its one yield answered as
  ``run_experiment`` answers it.
- Series rows as they were written and plotted before ``SeriesRow``: one
  ``SweepRow`` per recorded step with the step in ``coords["t"]``, the
  per-line CSV writer, and the plot series gathered from those rows.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import contilab
from contilab import experiments, mdp_tools, sweep
from contilab.infotheory import (LagDecomposition, LmsSteadyCovariance, _cond_mi_blocks,
                                 default_future_horizon)
from contilab.mdp_tools import goal_reward
from contilab.output import fmt_value
from contilab.rng import RngStream


def simulate_tracker(alpha, eta, sigma, delta, n, seed, burn=20_000):
    """The last ``n`` of ``burn + n`` steps (y, u) of theta_i = eta*theta_{i-1} +
    zeta*v_i, y_i = theta_i + sigma*w_i and u_i = (1 - alpha)*u_{i-1} +
    alpha*y_i + delta*q_i. Both recursions run as first-order IIR filters:
    theta's adds are the recursion's, and u's filter adds alpha*y_i + delta*q_i
    before (1 - alpha)*u_{i-1}."""
    from scipy.signal import lfilter  # about 1.5 s to import; only this oracle needs it

    gen = RngStream(seed).child("oracle").generator()
    zeta = math.sqrt(max(0.0, 1.0 - eta * eta))
    total = burn + n
    V = gen.standard_normal(total) * zeta
    W = gen.standard_normal(total) * sigma
    Q = gen.standard_normal(total) * delta
    theta = gen.standard_normal()
    u = gen.standard_normal()
    ac = 1.0 - alpha
    ys = lfilter([1.0], [1.0, -eta], V, zi=[eta * theta])[0] + W
    us = lfilter([1.0], [1.0, -ac], alpha * ys + Q, zi=[ac * u])[0]
    return ys[burn:], us[burn:]


def batch_stderr(x, n_batches=100):
    means = np.array([b.mean() for b in np.array_split(x, n_batches)])
    return means.std(ddof=1) / math.sqrt(n_batches)


_ROW_TOL = 1e-12


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


def value_iteration(mdp, tol=1e-8, q0=None, max_iter=100_000):
    """Optimal action values with sup-norm Bellman residual below ``tol``: the
    independent reference for the policy-iteration engine. ``q0`` warm-starts
    the iteration; the fixed point does not depend on it."""
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    expected_r = np.einsum("sat,sat->sa", mdp.P, mdp.r)
    Q = np.zeros((mdp.n_states, mdp.n_actions)) if q0 is None else np.array(q0, dtype=float)
    # Stopping at ||Q_{k+1} - Q_k|| < tol leaves a residual below gamma * tol.
    for _ in range(max_iter):
        Q_next = expected_r + mdp.gamma * (mdp.P @ Q.max(axis=1))
        gap = np.max(np.abs(Q_next - Q))
        Q = Q_next
        if gap < tol:
            return Q
    raise RuntimeError(f"value iteration did not reach tol {tol} in {max_iter} iterations")


def goal_mdp(P, goal_state, goal_reward=1.0, gamma=0.9):
    """MDP paying ``goal_reward`` on every arrival at ``goal_state``, 0 elsewhere."""
    P = np.asarray(P, dtype=float)
    r = np.zeros_like(P)
    r[:, :, goal_state] = goal_reward
    return TabularMdp(P, r, gamma)


def bellman_backup(mdp, Q):
    """One application of the Bellman optimality operator."""
    v = Q.max(axis=1)
    expected_r = np.einsum("sat,sat->sa", mdp.P, mdp.r)
    return expected_r + mdp.gamma * (mdp.P @ v)


def greedy_policy(Q):
    """Greedy action per state, ties broken toward the lowest action index."""
    return np.argmax(Q, axis=1)


def greedy_stationary_distribution(mdp, Q):
    """Long-run state distribution of the greedy-policy chain from a uniform start:
    the engine's Cesaro occupancy (``mdp_tools._greedy_occupancy``) of one MDP,
    which handles periodic and reducible chains."""
    return mdp_tools._greedy_occupancy(mdp.P[None], greedy_policy(Q)[None], np.eye(mdp.n_states))[0]


def scale_goal_reward(mdp, goal_state, target=0.5, tol=1e-8, unit_reward=1.0):
    """Scaled arrival reward for ``goal_state`` (``mdp_tools.goal_reward_scale``),
    solved by value iteration to ``tol``: the independent check of the
    policy-iteration engine. ``unit_reward`` sets the placeholder reward used
    while solving for the greedy policy; the returned scale is invariant to it.
    """
    if not 0 <= goal_state < mdp.n_states:
        raise ValueError(f"goal state {goal_state} out of range")
    unit = goal_mdp(mdp.P, goal_state, unit_reward, mdp.gamma)
    Q = value_iteration(unit, tol=tol)
    return goal_reward(greedy_stationary_distribution(unit, Q)[goal_state], goal_state, target)


def goal_mass_and_q(P, goal_state, gamma, q0=None, rounds=200):
    """One goal MDP at a time, the arithmetic that ``mdp_tools.goal_reward_scales``
    stacks: policy iteration on the unit goal reward, where a state moves to
    its greedy action only on a gain above 1e-12 relative, then the goal's
    Cesaro occupancy under the greedy policy. Returns (goal mass, Q*); the
    mass is NaN, and Q that of the last round, if some state still moves
    after ``rounds`` evaluations."""
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
        q_pi = Q[idx, policy]
        move = Q.max(axis=1) - q_pi > 1e-12 * (1.0 + np.abs(q_pi))
        if not move.any():
            break
        policy = np.where(move, np.argmax(Q, axis=1), policy)
    else:
        return math.nan, Q
    P_pi = P[idx, np.argmax(Q, axis=1), :]
    occ = np.linalg.solve(eye - (1.0 - 1e-9) * P_pi.T, np.full(S, 1.0 / S))
    occ = np.maximum(occ, 0.0)
    return (occ / occ.sum())[goal_state], Q


def belief_grid(q2, grid_size):
    """The belief grid of ``mdp_tools.belief_policy_iteration`` and its
    projected moves: (beliefs, idx_stay, i_heads, i_tails), where after any
    step belief b moves to T(b) = (1 - q2) * b + q2 / 2, and tossing the
    replaceable coin moves it to T(1) on heads and T(0) on tails."""
    beliefs = np.linspace(0.0, 1.0, grid_size)

    def project(b):
        return np.clip(np.rint(np.asarray(b) * (grid_size - 1)).astype(int), 0, grid_size - 1)

    return (beliefs, project((1.0 - q2) * beliefs + q2 * 0.5),
            int(project((1.0 - q2) * 1.0 + q2 * 0.5)), int(project(q2 * 0.5)))


def belief_q(p1, gamma, grid, V):
    """(q_known, q_swap): the two action values under values V on ``grid``,
    a :func:`belief_grid`."""
    beliefs, idx_stay, i_heads, i_tails = grid
    q_known = p1 + gamma * V[idx_stay]
    q_swap = beliefs + gamma * (beliefs * V[i_heads] + (1.0 - beliefs) * V[i_tails])
    return q_known, q_swap


def belief_value_iteration(p1, q2, gamma, grid_size):
    """Value iteration on the belief grid, the two-coin planner's solver before
    policy iteration: the reference its values and actions are checked
    against. It sweeps until the largest change is below
    1e-9 * (1 - gamma) / (2 * gamma), so its values lie within 5e-10 of the
    fixed point. Returns (values, q_known, q_swap), the action values
    recomputed from the final values."""
    grid = belief_grid(q2, grid_size)
    V = np.zeros(grid_size)
    stop = 1e-9 * (1.0 - gamma) / (2.0 * gamma)
    for _ in range(2_000_000):
        V_next = np.maximum(*belief_q(p1, gamma, grid, V))
        gap = np.max(np.abs(V_next - V))
        V = V_next
        if gap < stop:
            return (V, *belief_q(p1, gamma, grid, V))
    raise RuntimeError("belief value iteration did not converge")


def redraw_rows(gen, P, flats):
    """Redraw the rows ``flats`` (s * A + a) of P[s, a, :] in place, in order,
    from Dirichlet(1/S, ..., 1/S), one ``gamma`` call per candidate row: the
    row-by-row loop that ``envs._dirichlet_rows`` draws in one call. A
    candidate whose sum is not positive is redrawn."""
    A, S = P.shape[1], P.shape[2]
    for flat in flats:
        s, a = divmod(flat, A)
        g = gen.gamma(1.0 / S, 1.0, size=S)
        total = g.sum()
        while total <= 0.0:
            g = gen.gamma(1.0 / S, 1.0, size=S)
            total = g.sum()
        P[s, a] = g / total


def gaussian_cond_mi(cov, x, z, d=()):
    """Conditional mutual information I(X; Z | D) of a zero-mean Gaussian.

    ``cov`` is a joint covariance matrix and x, z, d are disjoint index sets;
    empty d gives the unconditional MI. The value is
    0.5 * ln(det S_xd * det S_zd / (det S_xzd * det S_d)), evaluated by the
    block function of ``infotheory.stability_errors``.
    """
    x, z, d = list(x), list(z), list(d)
    if set(x) & set(z) or set(x) & set(d) or set(z) & set(d):
        raise ValueError("index sets must be disjoint")
    w = z + d
    return _cond_mi_blocks(cov[np.ix_(x, x)], cov[np.ix_(x, w)], cov[np.ix_(w, w)],
                           list(range(len(z))), list(range(len(z), len(w))))


_MERGE_TOL = 1e-9  # |eta - alpha_c| below this uses the limit branch


def _geom_ratio(eta, alpha_c, i):
    """(eta^i - alpha_c^i) / (eta - alpha_c), with the i*eta^(i-1) limit branch."""
    i = np.asarray(i, dtype=float)
    if abs(eta - alpha_c) < _MERGE_TOL:
        out = np.where(i == 0.0, 0.0, i * np.power(np.maximum(eta, 1e-300), np.maximum(i - 1.0, 0.0)))
    else:
        out = (np.power(eta, i) - np.power(alpha_c, i)) / (eta - alpha_c)
    return out if out.ndim else float(out)


def y_autocov(self: LmsSteadyCovariance, k):
    """E[Y_t Y_{t+k}] for k >= 1."""
    return self.eta ** np.asarray(k, dtype=float) if np.ndim(k) else self.eta ** k


def u_y_back(self: LmsSteadyCovariance, k):
    """E[U_{t+k} Y_t] for k >= 0; at k = 0 equal bit for bit to ``u_y()``."""
    a, ac, eta = self.alpha, self.alpha_c, self.eta
    k = np.asarray(k, dtype=float)
    val = a * self.sigma**2 * np.power(ac, k) + (a / self._A) * (
        _geom_ratio(eta, ac, k + 1.0) - eta**2 * ac * _geom_ratio(eta, ac, k)
    )
    return val if val.ndim else float(val)


def y_block(self: LmsSteadyCovariance, ks: np.ndarray) -> np.ndarray:
    """Dense covariance of (Y_{t+k} for k in ``ks``): eta^|k - k'| off the
    diagonal, Var(Y) on it."""
    lag = np.abs(ks[:, None] - ks[None, :]).astype(float)
    block = np.power(self.eta, lag)
    np.fill_diagonal(block, self.y_var())
    return block


def stability_joint(self: LmsSteadyCovariance, future: int) -> np.ndarray:
    """Joint over (U_{t-1}, U_t, Y_t, Y_{t+1}, ..., Y_{t+future})."""
    if future < 1:
        raise ValueError("need at least one future coordinate")
    m = future + 3
    cov = np.empty((m, m))
    ks = np.arange(1, future + 1, dtype=float)
    cov[0, 0] = self.u_var()
    cov[0, 1] = cov[1, 0] = self.u_autocov1()
    cov[1, 1] = self.u_var()
    cov[0, 2] = cov[2, 0] = self.u_y_fwd(1)          # E[U_{t-1} Y_t]
    cov[1, 2] = cov[2, 1] = u_y_back(self, 0)        # E[U_t Y_t]
    cov[0, 3:] = cov[3:, 0] = self.u_y_fwd(ks + 1.0)  # E[U_{t-1} Y_{t+k}]
    cov[1, 3:] = cov[3:, 1] = self.u_y_fwd(ks)       # E[U_t Y_{t+k}]
    yk = np.concatenate(([0.0], ks))
    cov[2:, 2:] = y_block(self, yk)
    return cov


def capacity_joint(self: LmsSteadyCovariance, n: int) -> np.ndarray:
    """Joint over (U_t, Y_{t-n+1}, ..., Y_t): index 0 is U, then oldest first."""
    if n < 1:
        raise ValueError("need at least one observation coordinate")
    cov = np.empty((n + 1, n + 1))
    cov[0, 0] = self.u_var()
    back = u_y_back(self, np.arange(n - 1, -1, -1, dtype=float))
    cov[0, 1:] = back
    cov[1:, 0] = back
    cov[1:, 1:] = y_block(self, np.arange(n))
    return cov


def posterior_pred_params(alpha, eta, sigma, delta):
    """Steady-state (slope, variance) of Y_{t+1} | U_t, hand-expanded:
        slope = a*eta*(1 - a_c^2) / (a^2 s^2 A + a^2 B + d^2 A)
        var   = 1 + s^2 - a^2 eta^2 (1 - a_c^2) / (a^2 s^2 A^2 + a^2 (1 - a_c^2 eta^2) + d^2 A^2)
    where A = 1 - a_c*eta, B = 1 + a_c*eta, a_c = 1 - alpha.
    """
    ac = 1.0 - alpha
    A = 1.0 - ac * eta
    B = 1.0 + ac * eta
    a2, d2, s2 = alpha * alpha, delta * delta, sigma * sigma
    slope = alpha * eta * (1.0 - ac * ac) / (a2 * s2 * A + a2 * B + d2 * A)
    var = 1.0 + s2 - a2 * eta * eta * (1.0 - ac * ac) / (
        a2 * s2 * A * A + a2 * (1.0 - ac * ac * eta * eta) + d2 * A * A
    )
    return slope, var


def stability_errors(alpha, eta, sigma, delta, future=None):
    """(forgetting, implasticity) of one stepsize from its dense joint: the
    per-point evaluation that ``infotheory.stability_errors`` stacks."""
    K = default_future_horizon(eta) if future is None else future
    joint = stability_joint(LmsSteadyCovariance(eta, sigma, alpha, delta), K)
    future_idx = range(3, K + 3)
    forgetting = gaussian_cond_mi(joint, future_idx, [0], [1, 2])
    implasticity = gaussian_cond_mi(joint, future_idx, [2], [1])
    return forgetting, implasticity


def informational_error(alpha, eta, sigma, delta, past):
    """I(Y_{t+1}; Y_{t-past+1:t} | U_t): next-step information missing from state.

    Equals the steady-state total of forgetting and implasticity as the past
    and future horizons grow.
    """
    sc = LmsSteadyCovariance(eta, sigma, alpha, delta)
    m = past + 2
    cov = np.empty((m, m))
    cov[: past + 1, : past + 1] = capacity_joint(sc, past)
    cov[0, past + 1] = cov[past + 1, 0] = sc.u_y_fwd(1)
    fwd_lag = (past - np.arange(past)).astype(float)
    cov[1 : past + 1, past + 1] = cov[past + 1, 1 : past + 1] = np.power(eta, fwd_lag)
    cov[past + 1, past + 1] = sc.y_var()
    return gaussian_cond_mi(cov, [past + 1], list(range(1, past + 1)), [0])


def lag_joint(alpha, eta, sigma, delta, t):
    """Joint covariance over (U_0..U_t, Y_1..Y_{t+1}), in that order, by
    unrolling the recursions from theta_0 ~ N(0,1), U_0 ~ N(0,1)."""
    zeta = math.sqrt(max(0.0, 1.0 - eta * eta))
    ac = 1.0 - alpha
    n_steps = t + 1
    # Source order: theta0, u0, V_1..V_{t+1}, W_1..W_{t+1}, Q_1..Q_t.
    n_src = 2 + n_steps + n_steps + t
    theta = np.zeros(n_src)
    theta[0] = 1.0
    u_rows = np.zeros((t + 1, n_src))
    u_rows[0, 1] = 1.0
    y_rows = np.zeros((n_steps, n_src))
    for j in range(1, n_steps + 1):
        theta = eta * theta
        theta[2 + (j - 1)] += zeta
        y = theta.copy()
        y[2 + n_steps + (j - 1)] += sigma
        y_rows[j - 1] = y
        if j <= t:
            u = ac * u_rows[j - 1] + alpha * y
            u[2 + 2 * n_steps + (j - 1)] += delta
            u_rows[j] = u
    R = np.vstack([u_rows, y_rows])
    return R @ R.T


def lag_decomposition(alpha, eta, sigma, delta, t):
    """``infotheory.lag_decomposition`` by conditional MI on the dense joint of
    :func:`lag_joint`: for each lag k, with j = t - k, the forgetting term
    I(Y_{t+1}; U_{j-1} | U_j, Y_{j:t}) and the implasticity term
    I(Y_{t+1}; Y_j | U_j, Y_{j+1:t}), and I(Y_{t+1}; Y_{1:t} | U_t)."""
    cov = lag_joint(alpha, eta, sigma, delta, t)
    target = [2 * t + 1]  # U_j at j, Y_j at t + j
    terms = []
    for j in range(t, 0, -1):
        ys = [t + m for m in range(j + 1, t + 1)]
        terms.append((gaussian_cond_mi(cov, target, [j - 1], [j, t + j] + ys),
                      gaussian_cond_mi(cov, target, [t + j], [j] + ys)))
    terms.append((0.0, 0.0))  # U_{-1} and Y_0 are empty at the base lag
    absent = gaussian_cond_mi(cov, target, range(t + 1, 2 * t + 1), [t]) if t >= 1 else 0.0
    return LagDecomposition(terms=terms, absent_info=absent)


def average_reward(rewards) -> float:
    """Arithmetic mean of a nonempty sequence of finite rewards."""
    rewards = list(rewards)
    if not rewards:
        raise ValueError("average_reward requires a nonempty reward sequence")
    for r in rewards:
        if not math.isfinite(r):
            raise ValueError(f"average_reward requires finite rewards, got {r!r}")
    return math.fsum(rewards) / len(rewards)


def regret_bound_entropy(target_entropy: float, horizon: int) -> float:
    """Average-regret bound H / T for a finite-entropy learning target."""
    if target_entropy < 0.0:
        raise ValueError(f"entropy must be nonnegative, got {target_entropy}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return target_entropy / horizon


def runner_result(name, params, workers=None):
    """The ExperimentResult of the registered runner ``name`` on resolved
    ``params``, written nowhere: its one yield is answered as
    ``run_experiment`` answers it, with ``monte_carlo_sweep`` of the cells."""
    runner = experiments._get(name).runner(params)
    cells = next(runner)
    with pytest.raises(StopIteration) as done:  # a runner yields once
        runner.send(sweep.monte_carlo_sweep(cells, workers=workers))
    return done.value.value


def per_point_rows(rows) -> list:
    """``rows`` with each ``SeriesRow`` expanded into one ``SweepRow`` a step."""
    out = []
    for row in rows:
        if isinstance(row, sweep.SeriesRow):
            out += [sweep.SweepRow({**row.coords, "t": t}, row.metric, m, 0.0, 0.0, 0, row.error)
                    for t, m in zip(row.steps, row.means)]
        else:
            out.append(row)
    return out


def per_point_csv(path, experiment: str, seed, rows):
    """results.csv of ``per_point_rows(rows)``, written one row at a time."""
    rows = per_point_rows(rows)
    coord_keys = []
    for row in rows:
        for key in row.coords:
            if key not in coord_keys:
                coord_keys.append(key)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# experiment: {experiment}\n# seed: {seed}\n"
                f"# contilab-version: {contilab.__version__}\n")
        f.write(",".join(coord_keys + ["metric", "mean", "std", "ci95", "trials", "error"]) + "\n")
        for row in rows:
            cells = [fmt_value(row.coords[k]) if k in row.coords else "" for k in coord_keys]
            cells += [row.metric, fmt_value(row.mean), fmt_value(row.std), fmt_value(row.ci95),
                      str(row.trials), row.error or ""]
            f.write(",".join(cells) + "\n")
    return path


def per_point_time_series(rows, key: str, metric: str, label: str = "{}") -> list:
    """Plot series of ``metric``'s per-step rows: one per value of
    ``coords[key]``, in row order, named ``label.format(value)``."""
    pts = [(r.coords[key], r.coords["t"], r.mean) for r in per_point_rows(rows)
           if r.metric == metric and "t" in r.coords]
    return [(label.format(v), [t for k, t, _ in pts if k == v], [m for k, _, m in pts if k == v])
            for v in dict.fromkeys(k for k, _, _ in pts)]
