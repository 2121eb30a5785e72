"""Environment families: scalar AR(1) tracking, replaceable coins, AR(1)
Gaussian bandits, logit and bit-flip binary streams, and a goal MDP whose
transition rows are randomly replaced over time.

Environments are single-owner stateful objects: construct with parameters,
bind randomness once with ``reset(stream)``, then call ``step(action)`` and
``reward(action, observation)`` in alternation. Each instance consumes only
its own child streams, so replays are exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .errors import ConfigurationError
from .mdp_tools import goal_reward_scale
from .rng import DRAW_BLOCK, RngStream

# Steps of row events drawn at once: the transition buffer's block
# (rng.reset_blocks), so a kernel walks both in the same chunks.
_EVENT_BLOCK = DRAW_BLOCK
_TARGET_REWARD = 0.5  # average reward per step of a goal MDP's greedy policy
_GOAL_STATE = 0  # the state of a goal MDP that pays on arrival


def _check_prior(prior) -> list:
    """``prior`` as a list, or ValueError unless its kind is known and its
    parameters fit it: two finite, positive ones for ``beta``; one
    probability in [0, 1] for ``fixed`` (the bias) and ``dyadic`` (P(bias = 1))."""
    prior = list(prior)
    kind = prior[0] if prior else None
    if kind not in ("fixed", "dyadic", "beta", "uniform"):
        raise ValueError(f"unknown bias prior {prior!r}")
    if kind == "beta" and not (len(prior) == 3
                               and all(0.0 < float(v) < math.inf for v in prior[1:])):
        raise ValueError(f"a beta prior needs two finite, positive parameters, got {prior!r}")
    if kind in ("fixed", "dyadic") and not (len(prior) == 2 and 0.0 <= float(prior[1]) <= 1.0):
        raise ValueError(f"a {kind} prior takes one probability in [0, 1], got {prior!r}")
    return prior


def _draw_bias(prior, buf):
    kind = prior[0]
    if kind == "fixed":
        return float(prior[1])
    if kind == "dyadic":
        return 1.0 if buf.uniform() < float(prior[1]) else 0.0
    if kind == "beta":
        return float(buf.generator.beta(float(prior[1]), float(prior[2])))
    return buf.uniform()  # "uniform"


class Ar1ScalarEnv:
    """Noisy scalar AR(1) latent: theta <- eta*theta + N(0, zeta^2),
    observation = theta + N(0, sigma^2), reward = -(obs - action)^2."""

    action_space = ("real",)
    observation_space = ("real",)

    def __init__(self, eta: float, zeta: float, sigma: float, mu0: float = 0.0, sigma0: float = 1.0):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        if not (0.0 <= zeta < math.inf and 0.0 <= sigma < math.inf and 0.0 <= sigma0 < math.inf):
            raise ValueError(f"noise scales must be finite and nonnegative, got zeta={zeta}, "
                             f"sigma={sigma}, sigma0={sigma0}")
        if not math.isfinite(mu0):
            raise ValueError(f"mu0 must be finite, got {mu0}")
        self.eta = eta
        self.zeta = zeta
        self.sigma = sigma
        self.mu0 = mu0
        self.sigma0 = sigma0
        self.theta = mu0

    def reset(self, stream: RngStream):
        self._rng = stream.buffer()
        self.theta = self.mu0 + math.sqrt(self.sigma0) * self._rng.normal()

    def step(self, action):
        rng = self._rng
        self.theta = self.eta * self.theta + self.zeta * rng.normal()
        return self.theta + self.sigma * rng.normal()

    def reward(self, action, observation) -> float:
        err = observation - action
        return -(err * err)


class CoinSwapEnv:
    """Coins with latent biases; each step every coin is independently
    replaced with probability ``swap_prob`` (fresh prior draw) before the
    selected coin is tossed. Reward is the toss outcome."""

    observation_space = ("discrete", 2)

    def __init__(self, arms):
        if not arms:
            raise ValueError("at least one arm required")
        self._priors = []
        self._swap_probs = []
        for arm in arms:
            prior = arm["prior"]
            q = float(arm.get("swap_prob", 0.0))
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"swap probability must lie in [0, 1], got {q}")
            self._priors.append(_check_prior(prior))
            self._swap_probs.append(q)
        self.n_arms = len(arms)
        self.action_space = ("discrete", self.n_arms)
        self.biases: list[float] = []

    def reset(self, stream: RngStream):
        self._rng = stream.buffer()
        self.biases = [_draw_bias(p, self._rng) for p in self._priors]

    def step(self, arm):
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"arm index {arm} out of range")
        rng = self._rng
        for i, q in enumerate(self._swap_probs):
            if rng.uniform() < q:
                self.biases[i] = _draw_bias(self._priors[i], rng)
        return 1 if rng.uniform() < self.biases[arm] else 0

    def reward(self, action, observation) -> float:
        return float(observation)


class GaussianAr1BanditEnv:
    """Bandit whose per-arm latent means follow independent AR(1) processes.

    Pulling an arm returns theta[arm] + N(0, sigma^2); afterwards every
    latent advances by theta <- eta*theta + N(0, zeta^2), pulled or not. Each
    latent starts at N(0, 1), and zeta = sqrt(1 - eta^2) keeps it there.
    """

    observation_space = ("real",)

    def __init__(self, arms: int, eta: float, sigma: float):
        if arms < 1:
            raise ValueError("at least one arm required")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        if not 0.0 <= sigma < math.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
        self.n_arms = arms
        self.action_space = ("discrete", arms)
        self.eta = float(eta)
        self.zeta = math.sqrt(max(0.0, 1.0 - self.eta * self.eta))
        self.sigma = float(sigma)
        self.thetas: list[float] = []

    def reset(self, stream: RngStream):
        self._rng = stream.buffer()
        self.thetas = [self._rng.normal() for _ in range(self.n_arms)]

    def step(self, arm):
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"arm index {arm} out of range")
        rng = self._rng
        obs = self.thetas[arm] + self.sigma * rng.normal()
        thetas = self.thetas
        for i in range(self.n_arms):
            thetas[i] = self.eta * thetas[i] + self.zeta * rng.normal()
        return obs

    def reward(self, action, observation) -> float:
        return observation


class LogitEnv:
    """Binary stream with a single latent logit theta ~ N(0, 1):
    P(obs = 1) = p* = sigmoid(theta) at every step. Actions are predicted
    probabilities of 1; reward is log p(o) - log p*(o), the log probability
    the action assigned to the realized bit minus that of the predictor that
    knows theta, so average reward is minus the per-step regret."""

    action_space = ("real",)
    observation_space = ("discrete", 2)

    def __init__(self):
        self.theta = 0.0

    def reset(self, stream: RngStream):
        self._rng = stream.buffer()
        self.theta = self._rng.normal()
        self._p1 = 1.0 / (1.0 + math.exp(-self.theta))
        self._log_p_star = (math.log(1.0 - self._p1), math.log(self._p1))

    def step(self, action):
        return 1 if self._rng.uniform() < self._p1 else 0

    def reward(self, action, observation) -> float:
        p = action if observation == 1 else 1.0 - action
        return math.log(p) - self._log_p_star[observation] if p > 0.0 else float("-inf")


class BitFlipEnv:
    """Binary stream that flips its previous bit with a latent probability p
    drawn once from a prior; the first bit is fair. Reward is 1 when the
    action predicted the emitted bit."""

    action_space = ("discrete", 2)
    observation_space = ("discrete", 2)

    def __init__(self, prior=("beta", 2.0, 1.0)):
        self._prior = _check_prior(prior)
        self.p = 0.5
        self.last_bit: int | None = None

    def reset(self, stream: RngStream):
        self._rng = stream.buffer()
        self.p = _draw_bias(self._prior, self._rng)
        self.last_bit = None

    def step(self, action):
        rng = self._rng
        if self.last_bit is None:
            bit = 1 if rng.uniform() < 0.5 else 0
        elif rng.uniform() < self.p:
            bit = 1 - self.last_bit
        else:
            bit = self.last_bit
        self.last_bit = bit
        return bit

    def reward(self, action, observation) -> float:
        return 1.0 if action == observation else 0.0


def _dirichlet_rows(gen, m: int, S: int) -> np.ndarray:
    """``m`` rows (m, S) of Dirichlet(1/S, ..., 1/S), as Gamma(1/S, 1) draws
    each divided by its sum, from one ``gamma`` call.

    ``gamma(size=(m, S))`` is ``m`` calls of ``gamma(size=S)`` in one stream,
    so row i is the i-th candidate whose sum is positive: a candidate that sums
    to 0 (every draw underflowed) is skipped and the next one takes its place,
    drawn further if needed.
    """
    g = gen.gamma(1.0 / S, 1.0, size=(m, S))
    total = g.sum(axis=1)
    bad = total <= 0.0
    while bad.any():
        keep = ~bad
        more = gen.gamma(1.0 / S, 1.0, size=(int(bad.sum()), S))
        g = np.concatenate((g[keep], more))
        total = np.concatenate((total[keep], more.sum(axis=1)))
        bad = total <= 0.0
    return g / total[:, None]


def _row_events(mask_gen, row_gen, steps: int, S: int, A: int,
                prob: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row resamples of the next ``steps`` steps of one goal MDP, by step then
    row: the event steps, the flat rows s * A + a, and the new rows (m, S).

    ``random(steps * S * A)`` is one row-major stream, so drawing a horizon in
    blocks of any length gives the same events; the new rows are the row
    generator's next ``m`` Dirichlet rows, in event order.
    """
    at, flats = np.divmod(np.flatnonzero(mask_gen.random(steps * S * A) < prob), S * A)
    return at, flats, _dirichlet_rows(row_gen, len(at), S)


def _initial_state(stream: RngStream, n_states: int) -> int:
    return stream.child("init").buffer().index(n_states)


class GoalMdpEnv:
    """Goal MDP whose Dirichlet transition rows are independently replaced.

    Each step, every (state, action) row is resampled from
    Dirichlet(1/S, ..., 1/S) with probability ``resample_prob``; whenever any
    row changed, the goal-arrival reward is rescaled so the greedy policy of
    the current MDP earns ``_TARGET_REWARD`` (0.5) per step on average. The
    goal state ``_GOAL_STATE`` (0) pays that scaled reward on arrival, every
    other transition 0.
    A degenerate draw that leaves the goal unreachable under the greedy
    policy, or on which policy iteration does not settle, raises
    DegenerateMdpError, one of the two modelled failures that
    ``sweep.run_trials`` records as a failed trial instead of aborting.

    The row events and their new rows are planned ``_EVENT_BLOCK`` steps at a
    time by :func:`_row_events` (one event draw and one Dirichlet draw per
    block) and applied at their steps. They and the rescales never depend on
    the actions, so :func:`contilab.core.run_goal_lockstep` plans the same
    schedule through the same helpers and rescales through the engine behind
    ``goal_reward_scale`` (``mdp_tools.goal_reward_scales``).
    """

    def __init__(self, n_states: int = 10, n_actions: int = 3, resample_prob: float = 1e-3,
                 plan_gamma: float = 0.9):
        if n_states < 1 or n_actions < 1:
            raise ValueError(f"need at least one state and one action, got {n_states} x {n_actions}")
        if not 0.0 <= resample_prob < 1.0:
            raise ValueError(f"resample probability must lie in [0, 1), got {resample_prob}")
        if not 0.0 < plan_gamma < 1.0:
            raise ValueError(f"planning discount must lie in (0, 1), got {plan_gamma}")
        self.n_states = n_states
        self.n_actions = n_actions
        self.resample_prob = resample_prob
        self.plan_gamma = plan_gamma
        self.action_space = ("discrete", n_actions)
        self.observation_space = ("discrete", n_states)
        self.resample_events = 0

    def reset(self, stream: RngStream):
        S, A = self.n_states, self.n_actions
        self._row_gen = stream.child("row-draws").generator()
        self._mask_gen = stream.child("row-events").generator()
        self._tr = stream.child("transition").buffer()
        self.P = _dirichlet_rows(self._row_gen, S * A, S).reshape(S, A, S)
        self._cum = [[list(np.cumsum(self.P[s, a])) for a in range(A)] for s in range(S)]
        self.goal_reward, self._q = goal_reward_scale(self.P, _GOAL_STATE, self.plan_gamma,
                                                      _TARGET_REWARD)
        self.state = _initial_state(stream, S)
        self.resample_events = 0
        self._ev_pos = 0
        if self.resample_prob > 0.0:
            self._refill_events()

    def initial_observation(self):
        return self.state

    def _refill_events(self):
        at, flats, self._ev_new = _row_events(self._mask_gen, self._row_gen, _EVENT_BLOCK,
                                              self.n_states, self.n_actions, self.resample_prob)
        self._ev_steps, self._ev_rows = at.tolist(), flats.tolist()
        self._ev_ptr = 0
        self._ev_n = len(self._ev_steps)
        self._ev_pos = 0

    def step(self, action):
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action index {action} out of range")
        if self.resample_prob > 0.0:
            pos = self._ev_pos
            ptr = end = self._ev_ptr
            while end < self._ev_n and self._ev_steps[end] == pos:
                end += 1
            if end > ptr:
                for i in range(ptr, end):
                    s, a = divmod(self._ev_rows[i], self.n_actions)
                    self.P[s, a] = self._ev_new[i]
                    self._cum[s][a] = list(np.cumsum(self.P[s, a]))
                self.resample_events += end - ptr
                self._ev_ptr = end
                self.goal_reward, self._q = goal_reward_scale(
                    self.P, _GOAL_STATE, self.plan_gamma, _TARGET_REWARD, self._q)
            self._ev_pos = pos + 1
            if self._ev_pos == _EVENT_BLOCK:
                self._refill_events()
        cum = self._cum[self.state][action]
        nxt = bisect_right(cum, self._tr.uniform())
        if nxt >= self.n_states:
            nxt = self.n_states - 1
        self.state = nxt
        return nxt

    def reward(self, action, observation) -> float:
        return self.goal_reward if observation == _GOAL_STATE else 0.0


_ENV_KINDS = {
    "ar1": Ar1ScalarEnv,
    "coin_swap": CoinSwapEnv,
    "ar1_bandit": GaussianAr1BanditEnv,
    "logit": LogitEnv,
    "bit_flip": BitFlipEnv,
    "goal_mdp": GoalMdpEnv,
}


def build_env(spec: dict):
    """Instantiate an environment from a {"kind": ..., **params} mapping."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    cls = _ENV_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown env kind {kind!r}; known: {sorted(_ENV_KINDS)}")
    try:
        return cls(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad parameters for env {kind!r}: {exc}") from exc
