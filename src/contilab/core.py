"""Agent-environment simulation contract and reward accounting.

A trajectory alternates agent actions and environment observations: at each
step t the agent emits an action, the environment emits an observation and a
reward, and the agent updates its internal state. All randomness flows through
child streams of a single :class:`~contilab.rng.RngStream`, which makes every
trajectory bit-reproducible and safe to farm out to worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigurationError, NumericError
from .rng import DRAW_BLOCK, RngStream

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

    ``average_reward`` is the exact finite-horizon mean (compensated
    summation, no thinning). ``reward_series`` holds thinned
    (t, running average) pairs, one every ceil(T / 2000) steps.
    ``diagnostics`` holds named thinned series exposed by the agent, and
    ``metrics`` holds per-trajectory scalars (always including
    ``average_reward``).
    """

    horizon: int
    average_reward: float
    reward_series: list[tuple[int, float]] | None
    diagnostics: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    steps: list[StepRecord] | None = None


def _spaces_compatible(a, b) -> bool:
    return a is None or b is None or a == b


def per_arm(value, arms: int) -> list[float]:
    """One float per arm: a scalar is repeated, a list must hold exactly ``arms`` values."""
    values = value if isinstance(value, (list, tuple)) else [value] * arms
    if len(values) != arms:
        raise ValueError(f"per-arm parameter needs {arms} values, got {len(values)}")
    return [float(v) for v in values]


def average_reward(rewards) -> float:
    """Arithmetic mean of a nonempty sequence of finite rewards."""
    rewards = list(rewards)
    if not rewards:
        raise ValueError("average_reward requires a nonempty reward sequence")
    for r in rewards:
        if not math.isfinite(r):
            raise ValueError(f"average_reward requires finite rewards, got {r!r}")
    return math.fsum(rewards) / len(rewards)


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
    """
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    if not _spaces_compatible(getattr(env, "action_space", None), getattr(agent, "action_space", None)):
        raise ConfigurationError(
            f"action spaces differ: env={env.action_space!r} agent={agent.action_space!r}"
        )
    if not _spaces_compatible(
        getattr(env, "observation_space", None), getattr(agent, "observation_space", None)
    ):
        raise ConfigurationError(
            f"observation spaces differ: env={env.observation_space!r} agent={agent.observation_space!r}"
        )

    env.reset(rng.child("env-noise"))
    agent.reset(rng.child("agent-noise"))
    if hasattr(env, "initial_observation") and hasattr(agent, "set_initial_observation"):
        agent.set_initial_observation(env.initial_observation())

    stride = -(-T // SERIES_POINTS)
    series: list[tuple[int, float]] | None = [] if record_series else None
    diag_series: dict[str, list[tuple[int, float]]] = {}
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
        if series is not None and ((t + 1) % stride == 0 or t + 1 == T):
            series.append((t + 1, total / (t + 1)))
            if probe is not None:
                for name, value in probe().items():
                    diag_series.setdefault(name, []).append((t + 1, value))

    avg = total / T
    metrics = {"average_reward": avg}
    if hasattr(agent, "trajectory_metrics"):
        metrics.update(agent.trajectory_metrics())
    return TrajectorySummary(
        horizon=T,
        average_reward=avg,
        reward_series=series,
        diagnostics=diag_series,
        metrics=metrics,
        steps=steps,
    )


def run_lockstep(envs, agents, T: int, streams) -> list[TrajectorySummary | None]:
    """``run_trajectory(envs[j], agents[j], T, streams[j], record_series=False)``
    for every j, with the trials advanced together as float64 arrays.

    Each step applies the env's and agent's float operations in their order,
    and each trial reads its own "env-noise" normals in DrawBuffer's layout,
    so the summaries are equal field for field. Entry j is None where trial j
    must go to ``run_trajectory``: its env or agent is not exactly
    ``Ar1ScalarEnv`` / ``LmsAgent`` (a subclass may change the arithmetic),
    or its total is not finite (the scalar path then raises its own
    ``NumericError`` or returns its own result).
    """
    from .agents import LmsAgent  # deferred: agents and envs import this module
    from .envs import Ar1ScalarEnv

    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    out: list[TrajectorySummary | None] = [None] * len(envs)
    idx = [j for j, (env, agent) in enumerate(zip(envs, agents))
           if type(env) is Ar1ScalarEnv and type(agent) is LmsAgent]
    if not idx:
        return out
    n = len(idx)
    env_of = [envs[j] for j in idx]
    agent_of = [agents[j] for j in idx]
    gens = [streams[j].child("env-noise").generator() for j in idx]

    # Time-major draws: rows 2t and 2t+1 of a chunk feed its step t. The
    # reset's normal block sets theta and opens the first chunk; ar1 never
    # reads the uniform block drawn after it.
    z = np.empty((2 * _LOCKSTEP_STEPS, n))
    theta = np.empty(n)
    for k, (env, gen) in enumerate(zip(env_of, gens)):
        head = gen.standard_normal(DRAW_BLOCK)
        gen.random(DRAW_BLOCK)
        theta[k] = env.mu0 + math.sqrt(env.sigma0) * float(head[0])
        z[:DRAW_BLOCK - 1, k] = head[1:]
    eta = np.array([env.eta for env in env_of], dtype=float)
    zeta = np.array([env.zeta for env in env_of], dtype=float)
    sigma = np.array([env.sigma for env in env_of], dtype=float)
    scale = np.array([a.eta if a.mode == "shrinkage" else 1.0 for a in agent_of], dtype=float)
    alpha = np.array([a.alpha for a in agent_of], dtype=float)
    mu = np.array([a.mu0 for a in agent_of], dtype=float)

    # Each chunk is rewritten in place: zeta*e1 -> theta, sigma*e2 -> o, then
    # theta -> err -> reward.
    total, comp, s, a, y = (np.zeros(n) for _ in range(5))
    mul, add, sub = np.multiply, np.add, np.subtract
    have = DRAW_BLOCK - 1
    with np.errstate(all="ignore"):
        for start in range(0, T, _LOCKSTEP_STEPS):
            need = 2 * min(_LOCKSTEP_STEPS, T - start)
            if need > have:
                for k, gen in enumerate(gens):
                    z[have:need, k] = gen.standard_normal(need - have)
            have = 0
            e1, e2 = z[0:need:2], z[1:need:2]
            mul(e1, zeta, e1)
            mul(e2, sigma, e2)
            prev = theta
            for row in e1:  # theta = eta*theta + zeta*e1
                mul(eta, prev, a)
                add(a, row, row)
                prev = row
            theta[:] = prev
            add(e1, e2, e2)  # o = theta + sigma*e2
            for row, o in zip(e1, e2):
                mul(scale, mu, a)  # a = scale*mu
                sub(o, a, row)  # err = o - a
                mul(alpha, row, mu)  # mu = a + alpha*err
                add(a, mu, mu)
            mul(e1, e1, e1)  # r = -(err*err)
            np.negative(e1, e1)
            for r in e1:  # Kahan, as in run_trajectory
                sub(r, comp, y)
                add(total, y, s)
                sub(s, total, comp)
                sub(comp, y, comp)
                total, s = s, total

    for j, tot in zip(idx, total.tolist()):
        if math.isfinite(tot):
            avg = tot / T
            out[j] = TrajectorySummary(horizon=T, average_reward=avg, reward_series=None,
                                       diagnostics={}, metrics={"average_reward": avg})
    return out
