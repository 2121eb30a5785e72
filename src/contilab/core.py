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

from .errors import ConfigurationError, NumericError
from .rng import RngStream

SERIES_POINTS = 2000


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
