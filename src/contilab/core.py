"""Agent-environment simulation contract and reward accounting.

A trajectory alternates agent actions and environment observations: at each
step t the agent emits an action, the environment emits an observation and a
reward, and the agent updates its internal state. All randomness flows through
child streams of a single :class:`~contilab.rng.RngStream`, which makes every
trajectory bit-reproducible and safe to farm out to worker processes.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import mdp_tools
from .errors import ConfigurationError, DegenerateMdpError, NumericError
from .rng import DRAW_BLOCK, RngStream, reset_blocks

SERIES_POINTS = 2000
_LOCKSTEP_STEPS = DRAW_BLOCK // 2  # steps per chunk of (DRAW_BLOCK, N) normals


@dataclass(frozen=True)
class StepRecord:
    """One simulated step: action taken, observation received, reward earned."""

    t: int
    action: Any
    observation: Any
    reward: float


@dataclass
class TrajectorySummary:
    """Aggregated outputs of a single simulated trajectory.

    ``metrics`` holds per-trajectory scalars, always including
    ``average_reward``: the exact finite-horizon mean (compensated summation,
    no thinning). ``reward_series`` holds the running average reward at each
    step of ``series_steps(horizon)``, as an ``array('d')`` (8 bytes a value,
    also when pickled). ``diagnostics`` holds the agent's named diagnostics
    at the same steps, one ``array('d')`` each.
    """

    horizon: int
    reward_series: array | None
    diagnostics: dict[str, array] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    steps: list[StepRecord] | None = None


def series_steps(T: int) -> list[int]:
    """Steps (1-based) at which a ``T``-step trajectory records its thinned
    series: every ceil(T / SERIES_POINTS)-th step, and step T."""
    stride = -(-T // SERIES_POINTS)
    return [*range(stride, T, stride), T]


def check_spaces(env, agent) -> None:
    """Raise ``ConfigurationError`` unless ``env`` and ``agent`` agree on their
    action and observation spaces; a side without a space agrees with any."""
    for name in ("action", "observation"):
        e, a = getattr(env, f"{name}_space", None), getattr(agent, f"{name}_space", None)
        if e is not None and a is not None and e != a:
            raise ConfigurationError(f"{name} spaces differ: env={e!r} agent={a!r}")


def run_trajectory(
    env,
    agent,
    T: int,
    rng: RngStream,
    *,
    record_series: bool = True,
    record_steps: bool = False,
) -> TrajectorySummary:
    """Simulate ``T`` interaction steps of ``agent`` in ``env``.

    The environment draws only from the "env-noise" child of ``rng`` and the
    agent only from the "agent-noise" child (agents split off a "tie-break"
    child internally for action randomization), so reruns with the same stream
    are bit-identical and trials can run on any worker in any order.

    With ``record_series``, the summary holds the running average reward and
    the agent's ``diagnostics()`` at each step of ``series_steps(T)``.
    """
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    check_spaces(env, agent)

    env.reset(rng.child("env-noise"))
    agent.reset(rng.child("agent-noise"))
    if hasattr(env, "initial_observation") and hasattr(agent, "set_initial_observation"):
        agent.set_initial_observation(env.initial_observation())

    marks = iter(series_steps(T) if record_series else ())
    mark = next(marks, 0)  # next step that records a series point
    series = array("d") if record_series else None
    diag_series: dict[str, array] = {}
    steps: list[StepRecord] | None = [] if record_steps else None
    probe = agent.diagnostics if (record_series and hasattr(agent, "diagnostics")) else None

    env_step = env.step
    env_reward = env.reward
    agent_act = agent.act
    agent_update = agent.update
    isfinite = math.isfinite

    # Kahan-compensated running sum keeps 1e5..1e6-step averages exact.
    total = 0.0
    comp = 0.0
    for t in range(T):
        a = agent_act()
        o = env_step(a)
        r = env_reward(a, o)
        if not isfinite(r):
            raise NumericError(f"non-finite reward {r!r} at step {t}")
        agent_update(a, o, r)

        y = r - comp
        s = total + y
        comp = (s - total) - y
        total = s

        if steps is not None:
            steps.append(StepRecord(t, a, o, r))
        if t + 1 == mark:
            series.append(total / mark)
            if probe is not None:
                for name, value in probe().items():
                    column = diag_series.get(name)
                    if column is None:
                        column = diag_series[name] = array("d")
                    column.append(value)
            mark = next(marks, 0)

    if not isfinite(total):  # finite rewards whose sum overflowed
        raise NumericError(f"reward sum {total!r} is not finite after {T} steps")
    metrics = {"average_reward": total / T}
    if hasattr(agent, "trajectory_metrics"):
        metrics.update(agent.trajectory_metrics())
    return TrajectorySummary(
        horizon=T,
        reward_series=series,
        diagnostics=diag_series,
        metrics=metrics,
        steps=steps,
    )


def _summary(total: float, T: int) -> TrajectorySummary:
    return TrajectorySummary(horizon=T, reward_series=None, diagnostics={},
                             metrics={"average_reward": total / T})


def run_lockstep(envs, agents, T: int, streams) -> list[TrajectorySummary | None]:
    """``run_trajectory(envs[j], agents[j], T, streams[j], record_series=False)``
    for every j of ``Ar1ScalarEnv`` x ``LmsAgent``, with the trials advanced
    together as float64 arrays.

    Each step applies the env's and agent's float operations to the same
    operands, and each trial reads its own "env-noise" normals in DrawBuffer's
    layout, so the summaries are equal field for field. The env's theta runs
    one chunk ahead, in the agent's ufunc calls on 2N lanes, and its add
    becomes zeta*e1 + eta*theta: IEEE addition commutes. Entry j is None where
    trial j's total is not finite (the scalar path then raises its own
    ``NumericError`` or returns its own result).
    """
    n, L = len(envs), _LOCKSTEP_STEPS
    gens = [stream.child("env-noise").generator() for stream in streams]

    # Lane map: rows of E = [err | theta] and D = [a | zeta*e1], theta one chunk
    # ahead. Before step t, row t of E holds mu and the next chunk's theta of
    # step t - 1; step t writes err over mu, then row t + 1 as D + coef*E =
    # [a + alpha*err | zeta*e1 + eta*theta]. Theta lanes past the next chunk's
    # end run on stale zeta*e1, and nothing reads them.
    E = np.empty((L + 1, 2 * n))
    D = np.zeros((L, 2 * n))
    obs, rew, m = np.empty((L, n)), np.empty((L, n)), np.empty(2 * n)
    th, ze = E[:, n:], D[:, n:]
    rows = list(zip(E[:-1, :n], E[:-1], E[1:], D[:, :n], D, obs))
    rew_rows = list(rew)

    # Time-major draws: rows 2t and 2t+1 of a chunk feed its step t. The
    # reset's normal block sets theta and opens chunk 0, and one more draw
    # completes it; ar1 never reads the uniform block drawn after it.
    z = np.empty((2 * L, n))
    for k, (env, gen) in enumerate(zip(envs, gens)):
        head, _ = reset_blocks(gen)
        th[0, k] = env.mu0 + math.sqrt(env.sigma0) * float(head[0])
        z[:DRAW_BLOCK - 1, k] = head[1:]
        z[DRAW_BLOCK - 1:, k] = gen.standard_normal(2 * L - DRAW_BLOCK + 1)
    eta = np.array([env.eta for env in envs], dtype=float)
    zeta = np.array([env.zeta for env in envs], dtype=float)
    sigma = np.array([env.sigma for env in envs], dtype=float)
    scale = np.array([a.eta for a in agents], dtype=float)
    coef = np.concatenate(([a.alpha for a in agents], eta))
    last = min(L, T)
    E[last, :n] = 0.0  # mu of every agent

    total, comp, s, y = (np.zeros(n) for _ in range(4))
    mul, add, sub = np.multiply, np.add, np.subtract
    with np.errstate(all="ignore"):
        mul(z[0:2 * last:2], zeta, ze[:last])
        for t in range(last):  # chunk 0's theta = eta*theta + zeta*e1, as the env
            mul(eta, th[t], th[t + 1])
            add(th[t + 1], ze[t], th[t + 1])
        for start in range(0, T, L):
            steps = min(L, T - start)
            e2 = z[1:2 * steps:2]
            mul(e2, sigma, e2)
            add(th[1:steps + 1], e2, obs[:steps])  # o = theta + sigma*e2
            ahead = min(L, T - start - L)
            if ahead > 0:  # the next chunk's normals and zeta*e1
                for k, gen in enumerate(gens):
                    z[:2 * ahead, k] = gen.standard_normal(2 * ahead)
                mul(z[0:2 * ahead:2], zeta, ze[:ahead])
            E[0] = E[last]  # mu and theta carried over
            last = steps
            for mu, e, nxt, a, d, o in rows[:steps]:
                mul(scale, mu, a)  # a = scale*mu
                sub(o, a, mu)  # err = o - a
                mul(coef, e, m)  # [alpha*err | eta*theta]
                add(d, m, nxt)  # [mu = a + alpha*err | theta = zeta*e1 + eta*theta]
            mul(E[:steps, :n], E[:steps, :n], rew[:steps])  # r = -(err*err)
            np.negative(rew, rew)
            for r in rew_rows[:steps]:  # Kahan, as in run_trajectory
                sub(r, comp, y)
                add(total, y, s)
                sub(s, total, comp)
                sub(comp, y, comp)
                total, s = s, total

    return [_summary(tot, T) if math.isfinite(tot) else None for tot in total.tolist()]


def run_idbd_trials(envs, agents, T: int, streams,
                    record_series: bool = False) -> list[TrajectorySummary | None]:
    """``run_trajectory(envs[j], agents[j], T, streams[j], record_series=record_series)``
    for every j of ``Ar1ScalarEnv`` x ``IdbdAgent``, one trial at a time.

    Each trial is one loop over Python floats that applies the env's and the
    agent's operations in their order, with ``delta_star`` and
    ``delta_star_sq_grad`` inlined in their operation order and their
    per-trial constants computed once. Its "env-noise" and "agent-noise"
    normals are read in DrawBuffer's layout, a chunk at a time, so the
    summaries, series and ``final_alpha`` are equal field for field: with
    ``record_series``, the running average reward and the "alpha" diagnostic
    at each step of ``series_steps(T)``. Entry j
    is None where trial j's log-stepsize or total is not finite (the scalar
    path then raises its own ``NumericError`` or returns its own result).
    """
    return [_idbd_trial(env, agent, T, stream, record_series)
            for env, agent, stream in zip(envs, agents, streams)]


def _normals(gen, rest, n: int):
    """The next ``n`` normals of a stream whose drawn, unread normals are
    ``rest``, and the new ``rest``."""
    if len(rest) < n:
        rest = np.concatenate((rest, gen.standard_normal(n - len(rest))))
    return rest[:n], rest[n:]


def _idbd_trial(env, agent, T: int, stream: RngStream, record_series: bool):
    """One trial of :func:`run_idbd_trials`: its summary, or None."""
    from .agents import _BETA_MAX, _BETA_MIN

    # Each generator where a DrawBuffer's reset leaves it; neither reads
    # uniforms. The env's first normal sets theta.
    env_gen = stream.child("env-noise").generator()
    env_rest, _ = reset_blocks(env_gen)
    agent_gen = stream.child("agent-noise").generator()
    agent_rest, _ = reset_blocks(agent_gen)
    theta = env.mu0 + math.sqrt(env.sigma0) * float(env_rest[0])
    env_rest = env_rest[1:]
    env_eta, zeta, sigma = env.eta, env.zeta, env.sigma

    u, beta, h = 0.0, agent.beta0, 0.0
    alpha = math.exp(beta)
    zm = agent.zeta_meta
    capacity = agent.mode == "capacity"
    if capacity:
        eta = agent.eta
        s2 = agent.sigma**2
        damp = math.exp(-2.0 * agent.capacity)
        one_m_damp = 1.0 - damp
        two_kappa = 2.0 * (damp / one_m_damp)
        half_zm = 0.5 * zm
        ac = 1.0 - alpha  # A and B of delta_star_sq_grad at the current alpha
        A = 1.0 - ac * eta
        B = 1.0 + ac * eta
    else:
        sd = math.sqrt(agent.delta * agent.delta)

    marks = iter(series_steps(T) if record_series else ())
    mark = next(marks, 0)  # next step that records a series point
    series, alphas = array("d"), array("d")
    exp, sqrt, inf = math.exp, math.sqrt, math.inf
    total = 0.0
    comp = 0.0
    for start in range(0, T, DRAW_BLOCK):
        steps = min(DRAW_BLOCK, T - start)
        e, env_rest = _normals(env_gen, env_rest, 2 * steps)
        d, agent_rest = _normals(agent_gen, agent_rest, steps)
        noise = d.tolist() if capacity else (sd * d).tolist()
        for t, z1, z2, n in zip(range(start + 1, start + steps + 1),
                                (zeta * e[0::2]).tolist(), (sigma * e[1::2]).tolist(), noise):
            theta = env_eta * theta + z1
            err = theta + z2 - u
            r = -(err * err)
            # A non-finite reward makes the total non-finite for good, and the
            # trial goes back to run_trajectory at the end.
            beta = beta + zm * err * h
            if capacity:
                beta -= half_zm * alpha * (two_kappa * alpha * (s2 + B / A - eta * alpha / (A * A)))
            if not -inf < beta < inf:
                return None
            if beta > _BETA_MAX:
                beta = _BETA_MAX
            elif beta < _BETA_MIN:
                beta = _BETA_MIN
            alpha = exp(beta)
            ae = alpha * err
            if capacity:
                ac = 1.0 - alpha
                A = 1.0 - ac * eta
                B = 1.0 + ac * eta
                n = sqrt(alpha**2 * (s2 * A + B) / A * damp / one_m_damp) * n
            u = u + ae + n
            h = ae + (1.0 - alpha) * h  # alpha <= 1: the agent's max(1 - alpha, 0) is a no-op

            y = r - comp
            s = total + y
            comp = (s - total) - y
            total = s
            if t == mark:
                series.append(total / t)
                alphas.append(alpha)
                mark = next(marks, 0)

    if not math.isfinite(total):
        return None
    return TrajectorySummary(
        horizon=T, reward_series=series if record_series else None,
        diagnostics={"alpha": alphas} if record_series else {},
        metrics={"average_reward": total / T, "final_alpha": alpha})


def run_goal_lockstep(envs, agents, T: int, streams) -> list:
    """``run_trajectory(envs[j], agents[j], T, streams[j], record_series=False)``
    for every j of ``GoalMdpEnv`` x ``OptimisticQAgent``, advanced together.
    Every trial must share (n_states, n_actions): sweep's planner pools goal
    trials by their spaces, which are exactly that shape.

    Entry j is the trial's summary, the ``DegenerateMdpError`` its scalar run
    raises (at reset or at a mid-horizon rescale), or None where trial j must
    go to ``run_trajectory``: its total, Q table or offset is not finite.
    Each ``DRAW_BLOCK``-step chunk is planned before it is stepped, through
    the helpers ``GoalMdpEnv`` steps with: one ``envs._row_events`` call per
    trial draws its row events and new rows, ``envs._by_step`` groups them by
    step as ``envs._cum_rows``, and the goal-reward rescales run together, one
    ``mdp_tools.goal_reward_scales`` call per planning round.
    """
    from .envs import (_GOAL_STATE, _TARGET_REWARD, _by_step, _cum_rows, _dirichlet_rows,
                       _initial_state, _row_events)

    B = DRAW_BLOCK
    n = len(envs)
    S, A = envs[0].n_states, envs[0].n_actions
    SA = S * A
    out: list = [None] * n
    # The env's and the agent's generators, each where its scalar reset
    # leaves it: a DrawBuffer's reset blocks are drawn, its normals never
    # read, and its uniforms read B at a time. No reset env, agent or
    # DrawBuffer is kept: per-trial state lives in the stacked arrays below.
    env_streams = [stream.child("env-noise") for stream in streams]
    row_gens = [es.child("row-draws").generator() for es in env_streams]
    prob = [env.resample_prob for env in envs]
    event_gens = [es.child("row-events").generator() if p > 0.0 else None
                  for es, p in zip(env_streams, prob)]
    move_gens = [es.child("transition").generator() for es in env_streams]
    tie_gens = [stream.child("agent-noise").child("tie-break").generator() for stream in streams]
    move_u = np.empty((B, n))  # time-major: row t feeds every trial's step t
    tie_u = np.empty((n, B))
    for k, (move_gen, tie_gen) in enumerate(zip(move_gens, tie_gens)):
        move_u[:, k] = reset_blocks(move_gen)[1]
        tie_u[k] = reset_blocks(tie_gen)[1]
    tie_ptr = [0] * n  # uniforms of tie_u read, per trial

    P = np.empty((n, S, A, S))
    state = np.empty(n, dtype=np.intp)
    for k, es in enumerate(env_streams):
        P[k] = _dirichlet_rows(row_gens[k], SA, S).reshape(S, A, S)
        state[k] = _initial_state(es, S)
    plan_gamma = np.array([env.plan_gamma for env in envs], dtype=float)
    q_star = np.empty((n, S, A))
    by_trial = np.empty(n)  # a planning round's goal rewards, by trial
    alive = np.ones(n, dtype=bool)  # no failure yet

    def rescale(ks, q0) -> list[float]:
        """Goal rewards of trials ``ks`` from one engine call; a degenerate
        rescale becomes that trial's failure (its reward is then unused)."""
        mass, q = mdp_tools.goal_reward_scales(P[ks], [_GOAL_STATE] * len(ks), plan_gamma[ks], q0)
        q_star[ks] = q
        rewards = []
        for k, d in zip(ks, mass.tolist()):
            try:
                rewards.append(mdp_tools.goal_reward(d, _GOAL_STATE, _TARGET_REWARD))
            except DegenerateMdpError as exc:
                out[k] = exc
                alive[k] = False
                rewards.append(0.0)
        return rewards

    goal_reward = np.array(rescale(np.arange(n), None))
    cum_rows = _cum_rows(P).reshape(n * SA, S)
    P_rows = P.reshape(n * SA, S)
    step = np.array([a.stepsize for a in agents], dtype=float)
    disc = np.array([a.discount for a in agents], dtype=float)
    disc_m1 = disc - 1.0
    boost = np.array([a.boost for a in agents], dtype=float)
    Q = np.zeros((n, S, A))
    q_rows = Q.reshape(n * S, A)
    q_flat = Q.reshape(n * S * A)
    offset = np.zeros(n)
    row_of = np.arange(n) * S  # Q row of state 0, per trial

    def row_max(q):  # column by column: max(axis=1) is slow on short rows
        m = q[:, 0]
        for col in range(1, A):
            m = np.maximum(m, q[:, col])
        return m

    total, comp, y, s = (np.zeros(n) for _ in range(4))
    with np.errstate(all="ignore"):
        for start in range(0, T, B):
            steps = min(B, T - start)
            if start:  # chunk 0 reads the reset blocks
                for k, gen in enumerate(move_gens):
                    move_u[:steps, k] = gen.random(steps)
            # Planning pass: the row events, their new rows and the rescales
            # never depend on the actions. One _row_events call per trial gives
            # the chunk's events and new rows, by step then row; an event's
            # rank is the number of earlier event steps of its trial. Round r
            # takes the events of rank r of every live trial: it writes their
            # rows into P and rescales those trials in one engine call, each
            # warm-started from its previous Q*. due[t] holds what the step
            # loop applies at step t: cum rows, and goal rewards by trial.
            plans = []
            for k, gen in enumerate(event_gens):
                if gen is None or not alive[k]:
                    continue
                at, flats, new = _row_events(gen, row_gens[k], steps, S, A, prob[k])
                if len(at):
                    plans.append((np.full(len(at), k), at, k * SA + flats, new))
            due: dict = {}
            if plans:
                trial, at, row, new = (np.concatenate(c) for c in zip(*plans))
                head = np.ones(len(at), dtype=bool)  # first event of its trial's step
                head[1:] = (at[1:] != at[:-1]) | (trial[1:] != trial[:-1])
                group = np.cumsum(head) - 1
                rank = group - group[np.searchsorted(trial, trial)]  # less its trial's first group
                order = np.argsort(rank, kind="stable")  # by rank, then trial, step and row
                edges = np.searchsorted(rank[order], np.arange(rank.max() + 2)).tolist()
                planned = []
                reward = np.empty(len(at))
                for lo, hi in zip(edges, edges[1:]):
                    ev = order[lo:hi]
                    ev = ev[alive[trial[ev]]]
                    if not len(ev):
                        break
                    P_rows[row[ev]] = new[ev]
                    ks = trial[ev[head[ev]]]
                    by_trial[ks] = rescale(ks, q_star[ks])
                    reward[ev] = by_trial[trial[ev]]
                    planned.append(ev)
                ev = np.concatenate(planned)
                ev = ev[np.argsort(at[ev], kind="stable")]
                due = _by_step(at[ev], row[ev], _cum_rows(new[ev]), trial[ev], reward[ev])
            for t in range(steps):
                # act: argmax of the Q row; ties read the trial's tie-break uniform
                base = row_of + state
                q = q_rows.take(base, axis=0)
                tie = q == row_max(q)[:, None]
                a = q.argmax(axis=1)
                if np.count_nonzero(tie) > n:  # as OptimisticQAgent.act's DrawBuffer.index
                    for k in np.flatnonzero(tie.sum(axis=1) > 1).tolist():
                        i = tie_ptr[k]
                        if i == B:
                            tie_u[k] = tie_gens[k].random(B)
                            i = 0
                        tie_ptr[k] = i + 1
                        tied = np.flatnonzero(tie[k])
                        a[k] = tied[min(int(tie_u[k, i] * len(tied)), len(tied) - 1)]
                # env: the planned rows and goal reward of this step, then the transition
                planned_t = due.get(t)
                if planned_t is not None:
                    cum_rows[planned_t[0]] = planned_t[1]
                    goal_reward[planned_t[2]] = planned_t[3]
                sa = base * A + a
                nxt = (cum_rows.take(sa, axis=0) > move_u[t, :, None]).argmax(axis=1)
                r = np.where(nxt == _GOAL_STATE, goal_reward, 0.0)
                # agent: TD update on q + offset, then the offset boost
                q_sa = q_flat[sa]
                td = disc * row_max(q_rows.take(row_of + nxt, axis=0))
                np.add(r, td, td)
                td += disc_m1 * offset
                td -= q_sa
                q_flat[sa] = q_sa + step * td
                offset += boost
                state = nxt
                # Kahan, as in run_trajectory
                np.subtract(r, comp, y)
                np.add(total, y, s)
                np.subtract(s, total, comp)
                comp -= y
                total, s = s, total

    # A non-finite total goes to the scalar path, which raises the first
    # failure of the trial, whichever it is; so does a non-finite Q table,
    # where np.maximum and Python's max treat NaN differently.
    finite = np.isfinite(q_rows.reshape(n, S * A)).all(axis=1) & np.isfinite(offset)
    for k, (tot, ok) in enumerate(zip(total.tolist(), finite.tolist())):
        if not (ok and math.isfinite(tot)):
            out[k] = None
        elif out[k] is None:
            out[k] = _summary(tot, T)
    return out
