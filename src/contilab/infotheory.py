"""Closed-form Gaussian analysis of a quantized tracking filter on an AR(1)
process: steady-state second moments, capacity-matched quantization noise,
(conditional) mutual information via log-determinants, the forgetting and
implasticity decomposition of prediction error, optimal stepsizes, and
regret bounds for simple binary-prediction problems.

The forgetting/implasticity pair comes from one grid engine,
:func:`stability_errors`: one call per (eta, sigma, K) evaluates a whole
stepsize grid on one shared future block and equals the dense one-point
evaluation bit for bit.

Model conventions (standardized throughout this module): the latent follows
theta' = eta*theta + N(0, 1 - eta^2) with theta_0 ~ N(0, 1), observations are
Y = theta + N(0, sigma^2), and the agent state follows
U' = U + alpha*(Y' - U) + N(0, delta^2) with U_0 ~ N(0, 1). All information
quantities are in nats; ``alpha_c`` denotes 1 - alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_LN2 = math.log(2.0)
_EIG_NEG_TOL = 1e-10
_RIDGE_REL = 1e-12
_MERGE_TOL = 1e-9  # |eta - alpha_c| below this uses the limit branch


def nats_to_bits(x: float) -> float:
    return x / _LN2


def bits_to_nats(x: float) -> float:
    return x * _LN2


def _logdet_psd(mat: np.ndarray) -> float:
    """log det of a symmetric PSD matrix.

    Cholesky fast path; near-singular or slightly indefinite inputs fall back
    to an eigendecomposition with a relative ridge of 1e-12 * trace/n, and an
    eigenvalue below -1e-10 * trace/n raises NumericError.
    """
    n = mat.shape[0]
    if n == 0:
        return 0.0
    try:
        chol = np.linalg.cholesky(mat)
        return 2.0 * float(np.sum(np.log(np.diag(chol))))
    except np.linalg.LinAlgError:
        pass
    w = np.linalg.eigvalsh(mat)
    scale = max(float(np.trace(mat)) / n, 1e-300)
    if w[0] < -_EIG_NEG_TOL * scale:
        raise NumericError(f"covariance block is indefinite: eigenvalue {w[0]:.6e}")
    ridge = _RIDGE_REL * scale
    if w[0] < ridge:
        w = w + (ridge - w[0])
    return float(np.sum(np.log(w)))


def _conditional_cov(cov: np.ndarray, x: list[int], w: list[int]) -> np.ndarray:
    """Covariance of coordinates ``x`` given coordinates ``w`` (Schur complement).

    Uses a pseudo-inverse when the conditioning block is singular, which is
    the correct minimum-mean-square-error residual for degenerate Gaussians
    (e.g. a noiseless agent state exactly determined by its conditioners).
    """
    S_xx = cov[np.ix_(x, x)]
    if not w:
        return S_xx
    return _schur_complement(S_xx, cov[np.ix_(x, w)], cov[np.ix_(w, w)])


def _schur_complement(S_xx: np.ndarray, S_xw: np.ndarray, S_ww: np.ndarray) -> np.ndarray:
    """Symmetrized S_xx - S_xw S_ww^+ S_xw^T: the body of :func:`_conditional_cov`,
    which :func:`stability_errors` calls on blocks it builds itself."""
    well_conditioned = False
    try:
        chol = np.linalg.cholesky(S_ww)
        piv = np.diag(chol)
        well_conditioned = piv.min() > 1e-7 * max(piv.max(), 1e-150)
    except np.linalg.LinAlgError:
        pass
    if well_conditioned:
        out = S_xx - S_xw @ np.linalg.solve(S_ww, S_xw.T)
    else:
        eigs, vecs = np.linalg.eigh(S_ww)
        scale = max(float(eigs[-1]), 1e-300)
        if eigs[0] < -_EIG_NEG_TOL * scale:
            raise NumericError(f"covariance block is indefinite: eigenvalue {eigs[0]:.6e}")
        keep = eigs > _RIDGE_REL * scale
        basis = S_xw @ vecs[:, keep]
        out = S_xx - (basis / eigs[keep]) @ basis.T
    return (out + out.T) / 2.0


def gaussian_cond_mi(cov, x, z, d=()) -> float:
    """Conditional mutual information I(X; Z | D) of a zero-mean Gaussian.

    ``cov`` is a joint covariance matrix (or a GaussianJointModel) and x, z, d
    are disjoint index sets; empty d gives the unconditional MI. The value is
    0.5 * ln(det S_xd * det S_zd / (det S_xzd * det S_d)), evaluated in the
    equivalent residual form 0.5 * (ln det S_x|d - ln det S_x|z,d), which
    stays finite and consistent when conditioning coordinates are degenerate.
    """
    if isinstance(cov, GaussianJointModel):
        cov = cov.cov
    x, z, d = list(x), list(z), list(d)
    if set(x) & set(z) or set(x) & set(d) or set(z) & set(d):
        raise ValueError("index sets must be disjoint")
    given_d = _conditional_cov(cov, x, d)
    given_zd = _conditional_cov(cov, x, z + d)
    return 0.5 * (_logdet_psd(given_d) - _logdet_psd(given_zd))


@dataclass
class GaussianJointModel:
    """Zero-mean Gaussian over named coordinates, defined by its covariance."""

    labels: tuple[str, ...]
    cov: np.ndarray

    def __post_init__(self):
        self.cov = np.asarray(self.cov, dtype=float)
        n = self.cov.shape[0]
        if self.cov.shape != (n, n) or len(self.labels) != n:
            raise ValueError("covariance must be square with one label per coordinate")
        scale = max(float(np.abs(self.cov).max()), 1.0)
        if float(np.abs(self.cov - self.cov.T).max()) > 1e-12 * scale:
            raise ValueError("covariance must be symmetric within 1e-12")

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def mutual_information(self, x, z, d=()) -> float:
        return gaussian_cond_mi(self.cov, x, z, d)


def _geom_ratio(eta: float, alpha_c: float, i: int | np.ndarray):
    """(eta^i - alpha_c^i) / (eta - alpha_c), with the i*eta^(i-1) limit branch."""
    i = np.asarray(i, dtype=float)
    if abs(eta - alpha_c) < _MERGE_TOL:
        out = np.where(i == 0.0, 0.0, i * np.power(np.maximum(eta, 1e-300), np.maximum(i - 1.0, 0.0)))
    else:
        out = (np.power(eta, i) - np.power(alpha_c, i)) / (eta - alpha_c)
    return out if out.ndim else float(out)


class LmsSteadyCovariance:
    """Steady-state second moments of the agent state U and observations Y.

    Valid for eta in [0, 1), alpha in (0, 1] (alpha = 0 leaves U with no
    stationary distribution), sigma >= 0, delta >= 0. Provides the individual
    moments and builders for joint covariance blocks used by the information
    quantities below.
    """

    def __init__(self, eta: float, sigma: float, alpha: float, delta: float):
        if not 0.0 <= eta < 1.0:
            raise ValueError(f"eta must lie in [0, 1), got {eta}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        if sigma < 0.0 or delta < 0.0:
            raise ValueError("noise scales must be nonnegative")
        self.eta = eta
        self.sigma = sigma
        self.alpha = alpha
        self.delta = delta
        self.alpha_c = 1.0 - alpha
        self._A = 1.0 - self.alpha_c * eta  # 1 - (1-alpha)*eta
        self._B = 1.0 + self.alpha_c * eta

    # -- scalar moments -----------------------------------------------------

    def y_var(self) -> float:
        return 1.0 + self.sigma**2

    def y_autocov(self, k) -> float:
        return self.eta ** np.asarray(k, dtype=float) if np.ndim(k) else self.eta ** k

    def u_var(self) -> float:
        a, ac = self.alpha, self.alpha_c
        base = a * (self.sigma**2 * self._A + self._B) / (self._A * (1.0 + ac))
        return base + self.delta**2 / (1.0 - ac**2)

    def u_autocov1(self) -> float:
        a, ac = self.alpha, self.alpha_c
        base = a * (ac * self.sigma**2 * self._A + ac + self.eta) / (self._A * (1.0 + ac))
        return base + ac * self.delta**2 / (1.0 - ac**2)

    def u_y_back(self, k):
        """E[U_{t+k} Y_t] for k >= 0."""
        a, ac, eta = self.alpha, self.alpha_c, self.eta
        k = np.asarray(k, dtype=float)
        val = a * self.sigma**2 * np.power(ac, k) + (a / self._A) * (
            _geom_ratio(eta, ac, k + 1.0) - eta**2 * ac * _geom_ratio(eta, ac, k)
        )
        return val if val.ndim else float(val)

    def u_y_fwd(self, k):
        """E[U_t Y_{t+k}] for k >= 1."""
        k = np.asarray(k, dtype=float)
        val = self.alpha * np.power(self.eta, k) / self._A
        return val if val.ndim else float(val)

    # -- joint covariance builders -------------------------------------------

    def _y_block(self, ks: np.ndarray) -> np.ndarray:
        lag = np.abs(ks[:, None] - ks[None, :]).astype(float)
        block = np.power(self.eta, lag)
        np.fill_diagonal(block, self.y_var())
        return block

    def capacity_joint(self, n: int) -> GaussianJointModel:
        """Joint over (U_t, Y_{t-n+1}, ..., Y_t): index 0 is U, then oldest first."""
        if n < 1:
            raise ValueError("need at least one observation coordinate")
        ks = np.arange(n)
        cov = np.empty((n + 1, n + 1))
        cov[0, 0] = self.u_var()
        back = self.u_y_back(np.arange(n - 1, -1, -1, dtype=float))
        cov[0, 1:] = back
        cov[1:, 0] = back
        cov[1:, 1:] = self._y_block(ks)
        labels = ("u",) + tuple(f"y-{n - 1 - j}" for j in range(n))
        return GaussianJointModel(labels, cov)


def steady_cov(eta: float, sigma: float, alpha: float, delta: float) -> LmsSteadyCovariance:
    """Steady-state covariance evaluator for the quantized tracking filter."""
    return LmsSteadyCovariance(eta, sigma, alpha, delta)


# -- capacity noise ----------------------------------------------------------

def delta_star(alpha: float, eta: float, sigma: float, capacity: float) -> float:
    """Minimal quantization noise VARIANCE pinning I(U_t; Y_{1:t}) at ``capacity`` nats.

        delta^2 = alpha^2 * (sigma^2*(1 - a_c*eta) + 1 + a_c*eta) / (1 - a_c*eta)
                  * exp(-2C) / (1 - exp(-2C)),   a_c = 1 - alpha.
    """
    if capacity <= 0.0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    ac = 1.0 - alpha
    A = 1.0 - ac * eta
    B = 1.0 + ac * eta
    damp = math.exp(-2.0 * capacity)
    return alpha**2 * (sigma**2 * A + B) / A * damp / (1.0 - damp)


def delta_star_sq_grad(alpha: float, eta: float, sigma: float, capacity: float) -> float:
    """d(delta^2)/d(alpha) of :func:`delta_star` in closed form.

    With A = 1 - (1-alpha)*eta and B = 1 + (1-alpha)*eta (so A + B = 2):
        d/da [a^2 (sigma^2 + B/A)] = 2a*sigma^2 + 2aB/A - 2*eta*a^2/A^2.
    """
    if capacity <= 0.0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    ac = 1.0 - alpha
    A = 1.0 - ac * eta
    B = 1.0 + ac * eta
    damp = math.exp(-2.0 * capacity)
    kappa = damp / (1.0 - damp)
    return 2.0 * kappa * alpha * (sigma**2 + B / A - eta * alpha / (A * A))


def mi_capacity(alpha: float, eta: float, sigma: float, delta: float, n: int) -> float:
    """I(U_t; Y_{t-n+1:t}) in nats on the steady-state joint (truncated history).

    Nondecreasing in n; with delta^2 = delta_star(...) it converges to the
    configured capacity as n grows.
    """
    sc = steady_cov(eta, sigma, alpha, delta)
    return sc.capacity_joint(n).mutual_information([0], list(range(1, n + 1)))


def posterior_pred_params(alpha: float, eta: float, sigma: float, delta: float) -> tuple[float, float]:
    """Steady-state law of Y_{t+1} | U_t: returns (slope on U_t, variance).

    mean = slope * U_t with
        slope = a*eta*(1 - a_c^2) / (a^2 s^2 A + a^2 B + d^2 A)
        var   = 1 + s^2 - a^2 eta^2 (1 - a_c^2) / (a^2 s^2 A^2 + a^2 (1 - a_c^2 eta^2) + d^2 A^2)
    where A = 1 - a_c*eta, B = 1 + a_c*eta, a_c = 1 - alpha.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    ac = 1.0 - alpha
    A = 1.0 - ac * eta
    B = 1.0 + ac * eta
    a2 = alpha * alpha
    d2 = delta * delta
    s2 = sigma * sigma
    slope = alpha * eta * (1.0 - ac * ac) / (a2 * s2 * A + a2 * B + d2 * A)
    var = 1.0 + s2 - a2 * eta * eta * (1.0 - ac * ac) / (
        a2 * s2 * A * A + a2 * (1.0 - ac * ac * eta * eta) + d2 * A * A
    )
    return slope, var


def optimal_alpha(eta: float, sigma: float) -> float:
    """Stepsize making the agent state a sufficient statistic of history.

    Solves a_c + 1/a_c = eta + 1/eta + 1/(sigma^2 eta) - eta/sigma^2 for the
    root a_c in (0, 1) by the quadratic formula and returns 1 - a_c. The
    result is also the error-optimal stepsize under any information capacity.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    rhs = eta + 1.0 / eta + 1.0 / (sigma**2 * eta) - eta / sigma**2
    ac = (rhs - math.sqrt(rhs * rhs - 4.0)) / 2.0
    return 1.0 - ac


# -- stability / plasticity --------------------------------------------------

def default_future_horizon(eta: float, tail: float = 1e-6, cap: int = 512) -> int:
    """Future truncation K with eta^K below ``tail``, capped at ``cap``."""
    if eta <= 0.0:
        return 1
    k = math.ceil(math.log(tail) / math.log(eta))
    return max(1, min(k, cap))


# Conditioning sets of the two errors over the head coordinates (0: U_{t-1},
# 1: U_t, 2: Y_t), in evaluation order: forgetting given (U_t, Y_t) and given
# (U_{t-1}, U_t, Y_t), then implasticity given U_t and given (Y_t, U_t).
_STABILITY_SETS = ([1, 2], [0, 1, 2], [1], [2, 1])


def stability_errors(alpha, eta: float, sigma: float, delta, future: int | None = None):
    """(forgetting, implasticity) error in nats at fixed quantization noise.

    Forgetting is I(Y_{t+1:t+K}; U_{t-1} | U_t, Y_t): future-relevant
    information held by the previous agent state but recoverable from neither
    the next state nor the current observation. Implasticity is
    I(Y_{t+1:t+K}; Y_t | U_t): future-relevant information in the current
    observation that was not ingested.

    ``alpha`` and ``delta`` are scalars, which give a pair of floats, or
    broadcastable 1-D grids for one (eta, sigma, K), which give a pair of
    arrays (empty for an empty grid). Every grid point is validated before
    any linear algebra runs. The joint over (U_{t-1}, U_t, Y_t, Y_{t+1:t+K})
    shares its future block across the grid, so the (K+1)^2 Y block is built
    once per call; per point only the three head rows depend on
    (alpha, delta). Each conditional covariance of the future is the Schur
    complement of :func:`_conditional_cov` on those blocks, so every value
    equals the one-point dense evaluation (``gaussian_cond_mi`` on the full
    joint) bit for bit.
    """
    scalar = np.ndim(alpha) == 0 and np.ndim(delta) == 0
    alphas, deltas = np.broadcast_arrays(np.atleast_1d(alpha), np.atleast_1d(delta))
    if alphas.ndim != 1:
        raise ValueError("alpha and delta must be scalars or 1-D grids")
    covs = [LmsSteadyCovariance(eta, sigma, a, d) for a, d in zip(alphas, deltas)]
    K = default_future_horizon(eta) if future is None else future
    if K < 1:
        raise ValueError("need at least one future coordinate")
    forgetting, implasticity = np.empty(len(covs)), np.empty(len(covs))
    if not covs:
        return forgetting, implasticity
    ks = np.arange(1, K + 1, dtype=float)
    y_block = covs[0]._y_block(np.concatenate(([0.0], ks)))  # Y_t, Y_{t+1..t+K}
    S_xx = y_block[1:, 1:]
    for i, sc in enumerate(covs):
        uv, ac1, fwd1, back0 = sc.u_var(), sc.u_autocov1(), sc.u_y_fwd(1), sc.u_y_back(0)
        head = np.array(((uv, ac1, fwd1), (ac1, uv, back0), (fwd1, back0, y_block[0, 0])))
        cross = np.column_stack((sc.u_y_fwd(ks + 1.0), sc.u_y_fwd(ks), y_block[0, 1:]))
        logdet = [_logdet_psd(_schur_complement(S_xx, cross[:, w], head[np.ix_(w, w)]))
                  for w in _STABILITY_SETS]
        forgetting[i] = 0.5 * (logdet[0] - logdet[1])
        implasticity[i] = 0.5 * (logdet[2] - logdet[3])
    if scalar:
        return float(forgetting[0]), float(implasticity[0])
    return forgetting, implasticity


def total_stability_error(alpha: float, eta: float, sigma: float, delta: float,
                          future: int | None = None) -> float:
    """Total informational error (forgetting + implasticity) at fixed delta."""
    f, i = stability_errors(alpha, eta, sigma, delta, future)
    return f + i


def informational_error(alpha: float, eta: float, sigma: float, delta: float, past: int) -> float:
    """I(Y_{t+1}; Y_{t-past+1:t} | U_t): next-step information missing from state.

    Equals the steady-state total of forgetting and implasticity as the past
    and future horizons grow.
    """
    sc = steady_cov(eta, sigma, alpha, delta)
    m = past + 2
    cov = np.empty((m, m))
    ks = np.arange(past)
    cov[0, 0] = sc.u_var()
    back = sc.u_y_back(np.arange(past - 1, -1, -1, dtype=float))
    cov[0, 1 : past + 1] = back
    cov[1 : past + 1, 0] = back
    cov[0, past + 1] = cov[past + 1, 0] = sc.u_y_fwd(1)
    cov[1 : past + 1, 1 : past + 1] = sc._y_block(ks)
    fwd_lag = (past - ks).astype(float)
    cov[1 : past + 1, past + 1] = cov[past + 1, 1 : past + 1] = np.power(eta, fwd_lag)
    cov[past + 1, past + 1] = sc.y_var()
    return gaussian_cond_mi(cov, [past + 1], list(range(1, past + 1)), [0])


# -- exact finite-horizon decomposition ---------------------------------------

@dataclass
class LagDecomposition:
    """Per-lag forgetting/implasticity terms and the total absent information.

    ``terms[k]`` is (forgetting_k, implasticity_k) for lags k = 0..t and
    ``absent_info`` is I(Y_{t+1}; Y_{1:t} | U_t) on the same exact joint; the
    lag terms sum to it.
    """

    terms: list[tuple[float, float]]
    absent_info: float

    def total(self) -> float:
        return float(sum(f + i for f, i in self.terms))


def lag_decomposition(alpha: float, eta: float, sigma: float, delta: float, t: int) -> LagDecomposition:
    """Exact finite-horizon decomposition of absent information into lag terms.

    Builds the joint Gaussian over (U_0..U_t, Y_1..Y_{t+1}) by unrolling the
    linear recursions from theta_0 ~ N(0,1), U_0 ~ N(0,1), and evaluates for
    each lag k the forgetting term I(Y_{t+1}; U_{t-k-1} | U_{t-k}, Y_{t-k:t})
    and implasticity term I(Y_{t+1}; Y_{t-k} | U_{t-k}, Y_{t-k+1:t}).
    """
    if t < 0:
        raise ValueError(f"horizon must be nonnegative, got {t}")
    if t > 12:
        raise ValueError(f"exact decomposition supported for t <= 12, got {t}")
    zeta = math.sqrt(max(0.0, 1.0 - eta * eta))
    ac = 1.0 - alpha
    n_steps = t + 1
    # Source order: theta0, u0, V_1..V_{t+1}, W_1..W_{t+1}, Q_1..Q_t.
    n_src = 2 + n_steps + n_steps + t
    v_at = lambda j: 2 + (j - 1)
    w_at = lambda j: 2 + n_steps + (j - 1)
    q_at = lambda j: 2 + 2 * n_steps + (j - 1)

    theta = np.zeros(n_src)
    theta[0] = 1.0
    u_rows = np.zeros((t + 1, n_src))
    u_rows[0, 1] = 1.0
    y_rows = np.zeros((n_steps, n_src))
    for j in range(1, n_steps + 1):
        theta = eta * theta
        theta[v_at(j)] += zeta
        y = theta.copy()
        y[w_at(j)] += sigma
        y_rows[j - 1] = y
        if j <= t:
            u = ac * u_rows[j - 1] + alpha * y
            u[q_at(j)] += delta
            u_rows[j] = u

    # Coordinates: U_0..U_t at 0..t, Y_1..Y_{t+1} at t+1..2t+1.
    R = np.vstack([u_rows, y_rows])
    cov = R @ R.T
    u_idx = lambda j: j
    y_idx = lambda j: t + j  # Y_j at t + j

    target = [y_idx(t + 1)]
    terms: list[tuple[float, float]] = []
    for k in range(t + 1):
        j = t - k
        if j >= 1:
            d_forget = [u_idx(j)] + [y_idx(m) for m in range(j, t + 1)]
            forget = gaussian_cond_mi(cov, target, [u_idx(j - 1)], d_forget)
            d_impl = [u_idx(j)] + [y_idx(m) for m in range(j + 1, t + 1)]
            impl = gaussian_cond_mi(cov, target, [y_idx(j)], d_impl)
        else:
            forget = 0.0  # U_{-1} and Y_0 are empty at the base lag
            impl = 0.0
        terms.append((forget, impl))

    if t >= 1:
        absent = gaussian_cond_mi(cov, target, [y_idx(m) for m in range(1, t + 1)], [u_idx(t)])
    else:
        absent = 0.0
    return LagDecomposition(terms=terms, absent_info=absent)


# -- regret bounds and the Markov information chain ---------------------------

def regret_bound_entropy(target_entropy: float, horizon: int) -> float:
    """Average-regret bound H / T for a finite-entropy learning target."""
    if target_entropy < 0.0:
        raise ValueError(f"entropy must be nonnegative, got {target_entropy}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return target_entropy / horizon


def regret_bound_logit(horizon: int) -> float:
    """Optimized rate-distortion regret bound (ln(1 + 2T) + 1) / (2T) for the
    standard-normal logit stream."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return (math.log(1.0 + 2.0 * horizon) + 1.0) / (2.0 * horizon)


def chain_mi(i_xy: float, i_zy: float) -> float:
    """I(X; Z) for jointly Gaussian X -> Y -> Z given I(X; Y) and I(Z; Y):

        I(X; Z) = -0.5 * ln(1 - (1 - e^{-2 I(X;Y)}) * (1 - e^{-2 I(Z;Y)})).
    """
    if i_xy <= 0.0 or i_zy <= 0.0:
        raise ValueError("mutual informations must be positive")
    return -0.5 * math.log1p(-(-math.expm1(-2.0 * i_xy)) * (-math.expm1(-2.0 * i_zy)))
