"""Agents: tracking filters with and without quantization noise, stepsize
adaptation, posterior-sampling bandit policies, optimistic Q-learning, and
exact Bayes predictors for the binary stream environments.

Agents follow the same ownership protocol as environments: construct with
hyperparameters, bind randomness with ``reset(stream)``, then alternate
``act()`` and ``update(action, observation, reward)``. Action randomness
(posterior draws, tie-breaks) comes from a "tie-break" child stream; state
noise comes from the agent stream itself.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, NumericError
from .infotheory import delta_star, delta_star_sq_grad
from .rng import RngStream

_BETA_MIN = -12.0
_BETA_MAX = 0.0


class LmsAgent:
    """Scalar tracking filter mu <- eta*mu + alpha*(y - eta*mu), from mu = 0.

    ``mode`` selects the prediction/update pairing: "shrinkage" predicts
    eta*mu and shrinks inside the update; "plain" predicts mu and updates
    mu <- mu + alpha*(y - mu), which is eta = 1 (1.0*mu == mu bit for bit).
    """

    action_space = ("real",)
    observation_space = ("real",)

    def __init__(self, alpha: float, eta: float = 1.0, mode: str = "shrinkage"):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        if mode not in ("shrinkage", "plain"):
            raise ValueError(f"mode must be 'shrinkage' or 'plain', got {mode!r}")
        self.alpha = alpha
        self.eta = eta if mode == "shrinkage" else 1.0
        self.mu = 0.0

    def reset(self, stream: RngStream):
        self.mu = 0.0

    def act(self):
        return self.eta * self.mu

    def update(self, action, observation, reward):
        pred = self.act()
        self.mu = pred + self.alpha * (observation - pred)


class IdbdAgent:
    """Stepsize-adapting tracking filter (keeps a log-stepsize beta and a
    gradient trace h alongside the state u).

    "capacity" mode re-derives the quantization noise from the current
    stepsize at every step and adds the matching noise-growth penalty to the
    beta update, so the adapted stepsize optimizes error subject to the
    information capacity. "standard" mode runs the unpenalized rule at a
    fixed noise level ``delta``.
    """

    action_space = ("real",)
    observation_space = ("real",)

    def __init__(self, zeta_meta: float, mode: str = "capacity", eta: float | None = None,
                 sigma: float | None = None, capacity: float | None = None,
                 delta: float | None = None, alpha0: float = 0.1):
        if mode not in ("capacity", "standard"):
            raise ValueError(f"mode must be 'capacity' or 'standard', got {mode!r}")
        if mode == "capacity":
            if eta is None or sigma is None or capacity is None:
                raise ConfigurationError("capacity mode needs eta, sigma, and capacity")
            # delta_star's own checks, so a bad spec fails at build, not at step 0
            if capacity <= 0.0:
                raise ValueError(f"capacity must be positive, got {capacity}")
            if not 0.0 <= eta < 1.0:
                raise ValueError(f"eta must lie in [0, 1), got {eta}")
            if not math.isfinite(sigma * sigma):
                raise ValueError(f"sigma**2 must be finite, got sigma={sigma}")
        if mode == "standard" and delta is None:
            raise ConfigurationError("standard mode needs a fixed delta")
        if not 0.0 < alpha0 <= 1.0:
            raise ValueError(f"alpha0 must lie in (0, 1], got {alpha0}")
        self.zeta_meta = zeta_meta
        self.mode = mode
        self.eta = eta
        self.sigma = sigma
        self.capacity = capacity
        self.delta = delta
        self.beta0 = min(max(math.log(alpha0), _BETA_MIN), _BETA_MAX)
        self._init_state()

    def _init_state(self):
        self.u = 0.0
        self.beta = self.beta0
        self.alpha = math.exp(self.beta)
        self.h = 0.0
        self._t = 0

    def reset(self, stream: RngStream):
        self._rng = stream.buffer()
        self._init_state()

    def act(self):
        return self.u

    def update(self, action, observation, reward):
        err = observation - self.u
        beta = self.beta + self.zeta_meta * err * self.h
        if self.mode == "capacity":
            beta -= 0.5 * self.zeta_meta * self.alpha * delta_star_sq_grad(
                self.alpha, self.eta, self.sigma, self.capacity
            )
        if not math.isfinite(beta):
            raise NumericError(f"log-stepsize diverged at step {self._t}")
        self.beta = min(max(beta, _BETA_MIN), _BETA_MAX)
        alpha = math.exp(self.beta)
        self.alpha = alpha
        if self.mode == "capacity":
            var = delta_star(alpha, self.eta, self.sigma, self.capacity)
        else:
            var = self.delta * self.delta
        self.u = self.u + alpha * err + math.sqrt(var) * self._rng.normal()
        self.h = alpha * err + max(1.0 - alpha, 0.0) * self.h
        self._t += 1

    def diagnostics(self):
        return {"alpha": self.alpha}

    def trajectory_metrics(self):
        return {"final_alpha": self.alpha}


class TsAgent:
    """Posterior-sampling bandit agent for drifting Gaussian arms.

    Keeps per-arm posterior mean/variance (mu, Sigma), from N(0, 1), under the
    drift model theta <- eta*theta + N(0, zeta^2) of every arm and samples a
    plausible value per arm before taking the argmax (ties uniform). The pulled
    arm gets the full predict-correct recursion; unpulled arms only drift.
    """

    observation_space = ("real",)

    def __init__(self, arms: int, eta: float, zeta: float, sigma: float):
        if arms < 1:
            raise ValueError("at least one arm required")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        if not zeta >= 0.0:
            raise ValueError(f"zeta must be nonnegative, got {zeta}")
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {sigma}")
        self.n_arms = arms
        self.action_space = ("discrete", arms)
        self.eta = float(eta)
        self.zeta = float(zeta)
        self.sigma = float(sigma)
        self.mus = [0.0] * arms
        self.sigmas = [1.0] * arms

    def reset(self, stream: RngStream):
        self._act_rng = stream.child("tie-break").buffer()
        self.mus = [0.0] * self.n_arms
        self.sigmas = [1.0] * self.n_arms
        self._acts = 0
        self._greedy = 0

    def sampling_params(self, arm: int) -> tuple[float, float]:
        return self.mus[arm], self.sigmas[arm]

    def act(self):
        rng = self._act_rng
        mus = self.mus
        best = -math.inf
        best_i = 0
        ties = 1
        for i in range(self.n_arms):
            m, v = self.sampling_params(i)
            val = m + math.sqrt(v) * rng.normal() if v > 0.0 else m
            if val > best:
                best = val
                best_i = i
                ties = 1
            elif val == best:
                ties += 1
                if rng.uniform() < 1.0 / ties:
                    best_i = i
        self._acts += 1
        if mus[best_i] == max(mus):
            self._greedy += 1
        return best_i

    def update(self, action, observation, reward):
        s2 = self.sigma * self.sigma
        e = self.eta
        for i in range(self.n_arms):
            drift_var = e * e * self.sigmas[i] + self.zeta ** 2
            if i == action:
                post = 1.0 / (1.0 / drift_var + 1.0 / s2) if drift_var > 0.0 else 0.0
                gain = post / s2
                self.mus[i] = e * self.mus[i] + gain * (observation - e * self.mus[i])
                self.sigmas[i] = post
            else:
                self.mus[i] = e * self.mus[i]
                self.sigmas[i] = drift_var

    def trajectory_metrics(self):
        freq = self._greedy / self._acts if self._acts else 0.0
        return {"greedy_frequency": freq}

    def diagnostics(self):
        return {"greedy_rate": self._greedy / self._acts if self._acts else 0.0}


class PsAgent(TsAgent):
    """Posterior-sampling variant that shrinks the sampling variance to
    deprioritize information that drift will soon wash out.

    Samples from N(mu, eta^2 Sigma^2 / (eta^2 Sigma + x*)) with
    x* = 0.5 * (zeta^2 + sigma^2 - eta^2 sigma^2
                + sqrt((zeta^2 + sigma^2 - eta^2 sigma^2)^2
                       + 4 eta^2 zeta^2 sigma^2)).
    At eta = 1, zeta = 0 this reduces to the plain posterior; at eta = 0 it
    acts greedily.
    """

    def __init__(self, arms: int, eta: float, zeta: float, sigma: float):
        super().__init__(arms, eta, zeta, sigma)
        e, z, s2 = self.eta, self.zeta, self.sigma * self.sigma
        b = z * z + s2 - e * e * s2
        self.x_star = 0.5 * (b + math.sqrt(b * b + 4.0 * e * e * z * z * s2))

    def sampling_params(self, arm: int) -> tuple[float, float]:
        e2 = self.eta ** 2
        sig = self.sigmas[arm]
        denom = e2 * sig + self.x_star
        var = e2 * sig * sig / denom if denom > 0.0 else 0.0
        return self.mus[arm], var


class OptimisticQAgent:
    """Tabular Q-learning with a per-step optimistic boost on every entry.

    The TD update touches the visited (state, action) pair; afterwards every
    entry gains ``boost``, which keeps all pairs worth revisiting. The boost
    is carried as a scalar offset over a raw table, so updates stay O(actions)
    while the observable ``q_table`` matches the literal all-entries rule.
    """

    def __init__(self, n_states: int, n_actions: int, stepsize: float, discount: float,
                 boost: float = 0.0):
        if n_states < 1 or n_actions < 1:
            raise ValueError(f"need at least one state and one action, got {n_states} x {n_actions}")
        if not 0.0 <= stepsize <= 1.0:
            raise ValueError(f"stepsize must lie in [0, 1], got {stepsize}")
        if not 0.0 < discount < 1.0:
            raise ValueError(f"discount must lie in (0, 1), got {discount}")
        if boost < 0.0:
            raise ValueError(f"boost must be nonnegative, got {boost}")
        self.n_states = n_states
        self.n_actions = n_actions
        self.stepsize = stepsize
        self.discount = discount
        self.boost = boost
        self.action_space = ("discrete", n_actions)
        self.observation_space = ("discrete", n_states)
        self._init_state()

    def _init_state(self):
        self._q = [[0.0] * self.n_actions for _ in range(self.n_states)]
        self._offset = 0.0
        self.state = 0

    def reset(self, stream: RngStream):
        self._act_rng = stream.child("tie-break").buffer()
        self._init_state()

    def set_initial_observation(self, obs):
        self.state = obs

    @property
    def q_table(self):
        return [[v + self._offset for v in row] for row in self._q]

    def act(self):
        row = self._q[self.state]
        m = max(row)
        ties = [i for i, v in enumerate(row) if v == m]
        if len(ties) == 1:
            return ties[0]
        if not ties:  # max(row) is NaN
            raise NumericError(f"no greedy action: Q row of state {self.state} holds NaN")
        return ties[self._act_rng.index(len(ties))]

    def update(self, action, observation, reward):
        row = self._q[self.state]
        # TD target on effective values q + offset; the (discount-1)*offset
        # term folds the offset difference back into the raw table.
        td = (reward + self.discount * max(self._q[observation])
              + (self.discount - 1.0) * self._offset - row[action])
        row[action] += self.stepsize * td
        self._offset += self.boost
        self.state = observation


class DyadicCoinBeliefAgent:
    """Exact belief filter for the two-coin game with a replaceable second
    coin whose bias is 0 or 1.

    ``b`` is the probability that the replaceable coin currently has bias 1,
    1/2 at the start. A toss of that coin (action 1) reveals the bias exactly;
    every step the belief then relaxes toward 1/2 at the replacement rate.
    Acts by looking the belief up in ``policy_actions``, a table over a
    uniform belief grid planned for the fixed coin's bias ``p1``.
    """

    observation_space = ("discrete", 2)
    action_space = ("discrete", 2)

    def __init__(self, p1: float, q2: float, policy_actions):
        if not 0.0 <= q2 <= 1.0:
            raise ValueError(f"replacement probability must lie in [0, 1], got {q2}")
        self.p1 = p1
        self.q2 = q2
        self.policy_actions = list(policy_actions)
        self.b = 0.5

    def reset(self, stream: RngStream):
        self.b = 0.5

    def act(self):
        return int(self.policy_actions[round(self.b * (len(self.policy_actions) - 1))])

    def update(self, action, observation, reward):
        if action == 1:
            self.b = 1.0 if observation == 1 else 0.0
        self.b = (1.0 - self.q2) * self.b + self.q2 * 0.5


class LogitPredictorAgent:
    """Exact posterior predictor for the single-logit binary stream.

    Maintains the posterior over the latent logit on a trapezoidal quadrature
    grid over [-6, 6] (log-space accumulation with max subtraction) and
    predicts the posterior-predictive probability of a 1.
    """

    action_space = ("real",)
    observation_space = ("discrete", 2)

    def __init__(self, grid_size: int = 513):
        if grid_size < 3:
            raise ValueError(f"grid needs at least 3 points, got {grid_size}")
        theta = np.linspace(-6.0, 6.0, grid_size)
        trap = np.full(grid_size, 1.0)
        trap[0] = trap[-1] = 0.5
        self._sig = 1.0 / (1.0 + np.exp(-theta))
        self._log_sig = -np.log1p(np.exp(-theta))
        self._log_1m_sig = -theta - np.log1p(np.exp(-theta))
        self._log_prior = -0.5 * theta * theta + np.log(trap)
        self._loglik = np.zeros(grid_size)

    def reset(self, stream: RngStream):
        self._loglik = np.zeros_like(self._loglik)

    def act(self):
        lw = self._log_prior + self._loglik
        w = np.exp(lw - lw.max())
        return float((w / w.sum()) @ self._sig)

    def update(self, action, observation, reward):
        self._loglik = self._loglik + (self._log_sig if observation == 1 else self._log_1m_sig)


class BitFlipAgent:
    """One-bit predictor for the bit-flip stream: remembers only the last bit
    and predicts a flip when the prior mean flip probability exceeds 1/2.

    The first prediction (no bit seen yet) resolves the fair-coin tie to 1;
    later exact ties are broken uniformly.
    """

    action_space = ("discrete", 2)
    observation_space = ("discrete", 2)

    def __init__(self, mean_p: float):
        if not 0.0 <= mean_p <= 1.0:
            raise ValueError(f"mean flip probability must lie in [0, 1], got {mean_p}")
        self.mean_p = mean_p
        self.last_bit: int | None = None

    def reset(self, stream: RngStream):
        self._act_rng = stream.child("tie-break").buffer()
        self.last_bit = None

    def act(self):
        if self.last_bit is None:
            return 1
        p_one = self.mean_p * (1 - self.last_bit) + (1.0 - self.mean_p) * self.last_bit
        if p_one > 0.5:
            return 1
        if p_one < 0.5:
            return 0
        return 1 if self._act_rng.uniform() < 0.5 else 0

    def update(self, action, observation, reward):
        self.last_bit = observation


_AGENT_KINDS = {
    "lms": LmsAgent,
    "idbd": IdbdAgent,
    "ts": TsAgent,
    "ps": PsAgent,
    "optimistic_q": OptimisticQAgent,
    "coin_belief": DyadicCoinBeliefAgent,
    "logit_predictor": LogitPredictorAgent,
    "bit_flip": BitFlipAgent,
}


def build_agent(spec: dict):
    """Instantiate an agent from a {"kind": ..., **params} mapping."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    cls = _AGENT_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown agent kind {kind!r}; known: {sorted(_AGENT_KINDS)}")
    try:
        return cls(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad parameters for agent {kind!r}: {exc}") from exc
