"""Closed-form Gaussian analysis of a quantized tracking filter on an AR(1)
process: steady-state second moments, capacity-matched quantization noise,
the mutual information the agent state holds, the forgetting and
implasticity decomposition of prediction error, optimal stepsizes, and the
regret bound of the logit prediction stream.

Information quantities are ratios of scalar predictive variances from the
:class:`LmsSteadyCovariance` moments and scalar Kalman filtering (Kalman
1960): the steady-state :func:`mi_capacity`, :func:`posterior_pred_params`
and :func:`total_stability_error` (whose argmins are fig8's) take the
information about theta_t in K future observations from a backward filter,
and the finite-horizon :func:`lag_decomposition` runs a forward filter from
heads of at most 2x2. None of them runs linear algebra. The dense block
engine (Schur complements and log-determinants of a joint covariance)
serves only :func:`stability_errors`: a Toeplitz view of 2K+1 floats as the
future block and one K x K Schur result per conditioning, equal bit for bit
to the dense one-point evaluation; fig7's 12-digit CSV bytes are pinned to
that arithmetic. Each Schur result gets a column-major Cholesky factor,
with the bits of ``np.linalg.cholesky`` (:func:`_logdet_psd`). A
:func:`stability_errors` call does all its K x K work in one workspace:
each conditioning builds its residual there and symmetrizes and factors it
in place, so the engine holds that array and numpy's LAPACK buffer. Fresh
arrays per conditioning cost about 79,500 minor page faults per 20-point
fig7 run.

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
from numpy.lib.stride_tricks import sliding_window_view
from numpy.linalg import _umath_linalg

from .errors import NumericError

_EIG_NEG_TOL = 1e-10
_RIDGE_REL = 1e-12


def _logdet_psd(mat: np.ndarray, refill=None) -> float:
    """log det of a symmetric PSD matrix.

    Cholesky fast path; near-singular or slightly indefinite inputs fall back
    to an eigendecomposition with a relative ridge of 1e-12 * trace/n, and an
    eigenvalue below -1e-10 * trace/n raises NumericError.

    The factor comes from numpy's Cholesky gufunc, the kernel behind
    ``np.linalg.cholesky``, which copies its operand into a column-major
    buffer for LAPACK's ``potrf`` and copies the factor out. Given ``mat.T``
    (``mat`` is symmetric) and a column-major output, both copies run along
    contiguous memory, where the wrapper's row-major arrays stride a page per
    element at K = 512. ``potrf`` sees the same operands, so the bits are
    the wrapper's. A failed factorization sets the invalid flag (and fills
    the factor with NaN), the failure the wrapper turns into LinAlgError.

    With ``refill``, a C-contiguous ``mat`` is factored in place: the output
    is ``mat.T``, which the gufunc has copied into its buffer before
    ``potrf`` writes. A failure leaves NaN there, so the fallback reads
    ``refill()``, the matrix written into ``mat`` again. Without it the
    factor goes to a fresh array.
    """
    n = mat.shape[0]
    if n == 0:
        return 0.0
    out = np.empty((n, n)).T if refill is None else mat.T
    try:
        with np.errstate(invalid="raise"):
            chol = _umath_linalg.cholesky_lo(mat.T, signature="d->d", out=out)
        return 2.0 * float(np.sum(np.log(np.diag(chol))))
    except FloatingPointError:
        pass
    if refill is not None:
        mat = refill()
    w = np.linalg.eigvalsh(mat)
    scale = max(float(np.trace(mat)) / n, 1e-300)
    if w[0] < -_EIG_NEG_TOL * scale:
        raise NumericError(f"covariance block is indefinite: eigenvalue {w[0]:.6e}")
    ridge = _RIDGE_REL * scale
    if w[0] < ridge:
        w = w + (ridge - w[0])
    return float(np.sum(np.log(w)))


_TILE = 128  # a pair of 128 KiB tiles stays in cache


def _schur_complement(S_xx: np.ndarray, S_xw: np.ndarray, S_ww: np.ndarray,
                      work: np.ndarray | None = None) -> np.ndarray:
    """Covariance of X given W: the symmetrized S_xx - S_xw S_ww^+ S_xw^T.

    Uses a pseudo-inverse when the conditioning block is singular, which is
    the correct minimum-mean-square-error residual for degenerate Gaussians
    (e.g. a noiseless agent state exactly determined by its conditioners).
    ``S_xx`` is only read (a read-only view will do). The result is ``work``,
    a C-contiguous array of S_xx's shape, or a fresh one: the product turned
    into the residual R in place, then into (R + R^T) / 2 by pairs of
    mirrored tiles, both written, so it is exactly symmetric with the bits
    of the out-of-place sum.
    """
    factors = None
    try:  # a block Cholesky accepts can still be singular to the LU solve
        piv = np.diag(np.linalg.cholesky(S_ww))
        if piv.min() > 1e-7 * max(piv.max(), 1e-150):
            factors = S_xw, np.linalg.solve(S_ww, S_xw.T)
    except np.linalg.LinAlgError:
        pass
    if factors is None:
        eigs, vecs = np.linalg.eigh(S_ww)
        scale = max(float(eigs[-1]), 1e-300)
        if eigs[0] < -_EIG_NEG_TOL * scale:
            raise NumericError(f"covariance block is indefinite: eigenvalue {eigs[0]:.6e}")
        keep = eigs > _RIDGE_REL * scale
        basis = S_xw @ vecs[:, keep]
        factors = basis / eigs[keep], basis.T
    res = np.matmul(*factors, out=work)
    np.subtract(S_xx, res, out=res)
    n = len(res)
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper, lower = res[i:i + _TILE, j:j + _TILE], res[j:j + _TILE, i:i + _TILE]
            np.add(upper, lower.T, out=upper)  # r_ij + r_ji; a diagonal tile is buffered
            np.divide(upper, 2.0, out=upper)
            if j > i:
                lower[...] = upper.T  # r_ji + r_ij has the same bits
    return res


def _cond_mi_blocks(S_xx: np.ndarray, S_xw: np.ndarray, S_ww: np.ndarray,
                    z: list[int], d: list[int], work: np.ndarray | None = None) -> float:
    """I(X; Z | D) of a zero-mean Gaussian from its blocks: ``S_xx`` over X,
    ``S_xw`` and ``S_ww`` over the conditioning coordinates W, with ``z`` and
    ``d`` index lists into W. Evaluated as 0.5 * (ln det S_x|d - ln det
    S_x|z,d), which stays finite when conditioning coordinates are degenerate.
    Each Schur result is built in one K x K workspace, ``work`` or a fresh
    array, and factored there in place; a failed factorization overwrites
    it, so the eigenvalue fallback builds it again.
    """
    work = np.empty(S_xx.shape) if work is None else work

    def logdet_given(w):
        if not w:
            return _logdet_psd(S_xx)
        blocks = S_xx, S_xw[:, w], S_ww[np.ix_(w, w)]
        return _logdet_psd(_schur_complement(*blocks, work),
                           lambda: _schur_complement(*blocks, work))

    given_d = logdet_given(d)  # read before the second conditioning overwrites ``work``
    return 0.5 * (given_d - logdet_given(z + d))


def _check_point(alpha: float, eta: float, sigma: float, delta: float) -> None:
    """Raise ValueError unless alpha is in (0, 1] with 1 - alpha < 1 in floats,
    eta in [0, 1), and sigma and delta are finite and nonnegative: where U has
    a stationary law (none at alpha = 0) and 1 - (1 - alpha)^2 is nonzero."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    if not 0.0 < alpha <= 1.0 or 1.0 - alpha == 1.0:
        raise ValueError(f"alpha must lie in (0, 1] with 1 - alpha < 1, got {alpha}")
    if not (0.0 <= sigma < math.inf and 0.0 <= delta < math.inf):
        raise ValueError(f"noise scales must be nonnegative and finite, got sigma={sigma}, "
                         f"delta={delta}")


class LmsSteadyCovariance:
    """Steady-state second moments of the agent state U and observations Y,
    valid on :func:`_check_point`'s range where Var(U) and Var(Y) are finite
    (ValueError elsewhere). Its parameters are Python floats: no numpy warnings."""

    def __init__(self, eta: float, sigma: float, alpha: float, delta: float):
        _check_point(alpha, eta, sigma, delta)
        self.eta, self.sigma, self.alpha, self.delta = map(float, (eta, sigma, alpha, delta))
        self.alpha_c = 1.0 - self.alpha
        self._A = 1.0 - self.alpha_c * self.eta  # 1 - (1-alpha)*eta
        self._B = 1.0 + self.alpha_c * self.eta
        try:
            finite = math.isfinite(self.u_var()) and math.isfinite(self.y_var())
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"noise scales too large: Var(U) or Var(Y) overflows at "
                             f"alpha={alpha}, sigma={sigma}, delta={delta}")

    # -- scalar moments -----------------------------------------------------

    def y_var(self) -> float:
        return 1.0 + self.sigma**2

    def u_var(self) -> float:
        a, ac = self.alpha, self.alpha_c
        base = a * (self.sigma**2 * self._A + self._B) / (self._A * (1.0 + ac))
        return base + self.delta**2 / (1.0 - ac**2)

    def u_autocov1(self) -> float:
        a, ac = self.alpha, self.alpha_c
        base = a * (ac * self.sigma**2 * self._A + ac + self.eta) / (self._A * (1.0 + ac))
        return base + ac * self.delta**2 / (1.0 - ac**2)

    def u_y(self) -> float:
        """E[U_t Y_t]."""
        return self.alpha * self.sigma**2 + self.alpha / self._A

    def u_theta(self) -> float:
        """E[U_t theta_t]."""
        return self.alpha / self._A

    def u_y_fwd(self, k):
        """E[U_t Y_{t+k}] for k >= 1."""
        k = np.asarray(k, dtype=float)
        val = self.alpha * np.power(self.eta, k) / self._A
        return val if val.ndim else float(val)


# -- capacity noise ----------------------------------------------------------

def _damping(capacity: float) -> float:
    """exp(-2C), which :func:`delta_star` divides by 1 minus: ValueError
    unless C > 0 and exp(-2C) < 1 in floats."""
    damp = math.exp(-2.0 * capacity) if capacity > 0.0 else 1.0
    if damp == 1.0:
        raise ValueError(f"capacity must be positive with exp(-2C) < 1, got {capacity}")
    return damp


def _capacity_point(alpha: float, eta: float, capacity: float) -> float:
    """:func:`_damping`, or ValueError unless alpha is in (0, 1] and eta in
    [0, 1), where 1 - (1 - alpha) * eta is positive."""
    damp = _damping(capacity)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    return damp


def delta_star(alpha: float, eta: float, sigma: float, capacity: float) -> float:
    """Minimal quantization noise VARIANCE pinning I(U_t; Y_{1:t}) at ``capacity`` nats.

        delta^2 = alpha^2 * (sigma^2*(1 - a_c*eta) + 1 + a_c*eta) / (1 - a_c*eta)
                  * exp(-2C) / (1 - exp(-2C)),   a_c = 1 - alpha.

    ValueError where that is not finite (sigma not finite, or too large).
    """
    damp = _capacity_point(alpha, eta, capacity)
    ac = 1.0 - alpha
    A = 1.0 - ac * eta
    B = 1.0 + ac * eta
    try:
        var = alpha**2 * (sigma**2 * A + B) / A * damp / (1.0 - damp)
    except OverflowError as exc:  # sigma**2
        raise ValueError(f"delta^2 overflows at sigma={sigma}") from exc
    return _finite(var, "delta^2", alpha, eta, sigma, capacity)


def delta_star_sq_grad(alpha: float, eta: float, sigma: float, capacity: float) -> float:
    """d(delta^2)/d(alpha) of :func:`delta_star` in closed form.

    With A = 1 - (1-alpha)*eta and B = 1 + (1-alpha)*eta (so A + B = 2):
        d/da [a^2 (sigma^2 + B/A)] = 2a*sigma^2 + 2aB/A - 2*eta*a^2/A^2.

    ValueError where that is not finite (sigma not finite, or too large).
    """
    damp = _capacity_point(alpha, eta, capacity)
    ac = 1.0 - alpha
    A = 1.0 - ac * eta
    B = 1.0 + ac * eta
    kappa = damp / (1.0 - damp)
    try:
        grad = 2.0 * kappa * alpha * (sigma**2 + B / A - eta * alpha / (A * A))
    except OverflowError as exc:  # sigma**2
        raise ValueError(f"d(delta^2)/d(alpha) overflows at sigma={sigma}") from exc
    return _finite(grad, "d(delta^2)/d(alpha)", alpha, eta, sigma, capacity)


def _finite(value: float, name: str, alpha, eta, sigma, capacity) -> float:
    """``value``, or ValueError unless it is finite."""
    if not -math.inf < value < math.inf:  # also NaN
        raise ValueError(f"{name} is not finite at alpha={alpha}, eta={eta}, sigma={sigma}, "
                         f"capacity={capacity}")
    return value


def _future_information(eta: float, sigma: float, K: int) -> float:
    """Fisher information s about theta_t in Y_{t+1:t+K} (b^T Cov(E)^-1 b for
    Y_{t+1:t+K} = b*theta_t + E) by the scalar backward information filter
    (Kalman 1960; Fraser & Potter 1969): J_K = 1/sigma^2, J_k = eta^2 J_{k+1} /
    (1 + zeta^2 J_{k+1}) + 1/sigma^2, s = eta^2 J_1 / (1 + zeta^2 J_1). It runs
    on G = J - 1/sigma^2, so s = 0 at eta = 0 and s = eta^2/zeta^2 at sigma = 0
    need no branch."""
    s2, zeta2, info = sigma * sigma, (1.0 - eta) * (1.0 + eta), 0.0
    for _ in range(K):
        info = eta * eta / (s2 / (1.0 + s2 * info) + zeta2)
    return info


def mi_capacity(alpha: float, eta: float, sigma: float, delta: float, n: int) -> float:
    """I(U_t; Y_{t-n+1:t}) in nats at steady state (truncated history).

    Given the window, U_t is a_c^n U_{t-n}, plus terms the window fixes, plus
    noise of variance delta^2 (1 - a_c^(2n)) / (1 - a_c^2); the window sees
    U_{t-n} only through theta_{t-n}. Nondecreasing in n; with delta^2 =
    delta_star(...) it converges to the configured capacity as n grows.
    """
    if n < 1:
        raise ValueError("need at least one observation coordinate")
    sc = LmsSteadyCovariance(eta, sigma, alpha, delta)
    u, c, s = sc.u_var(), sc.u_theta(), _future_information(eta, sigma, n)
    x = 2 * n * math.log1p(-alpha) if alpha < 1.0 else -math.inf  # ln a_c^(2n)
    held = u - c * c * s / (1.0 + s)  # Var(U_{t-n} | window)
    noise = -delta * delta * math.expm1(x) / (alpha * (2.0 - alpha))
    if noise == 0.0:  # ln Var = x + ln held, also where a_c^(2n) underflows
        return 0.5 * (math.log(u / held) - x)
    var = math.exp(x) * held + noise
    ratio = u / var  # overflows where the noise is tiny against Var(U), e.g. alpha = 1
    return 0.5 * (math.log(ratio) if ratio < math.inf else math.log(u) - math.log(var))


def posterior_pred_params(alpha: float, eta: float, sigma: float, delta: float) -> tuple[float, float]:
    """Steady-state law of Y_{t+1} | U_t, the regression of Y_{t+1} on U_t:
    returns (slope on U_t, variance)."""
    sc = LmsSteadyCovariance(eta, sigma, alpha, delta)
    u, fwd = sc.u_var(), sc.u_y_fwd(1)
    return fwd / u, sc.y_var() - fwd * fwd / u


def optimal_alpha(eta: float, sigma: float) -> float:
    """Stepsize making the agent state a sufficient statistic of history.

    Solves a_c + 1/a_c = eta + 1/eta + 1/(sigma^2 eta) - eta/sigma^2 = rhs for
    the root a_c = 2/(rhs + sqrt((rhs - 2)(rhs + 2))) in (0, 1), a form that
    does not cancel as sigma^2 eta -> 0, and returns 1 - a_c. The result is
    also the error-optimal stepsize under any information capacity.

    ValueError where sigma is not finite, or where sigma^2 overflows,
    underflows to zero, or leaves 1/(sigma^2 eta) - eta/sigma^2 as inf - inf.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    try:
        rhs = eta + 1.0 / eta + 1.0 / (sigma**2 * eta) - eta / sigma**2
    except (OverflowError, ZeroDivisionError) as exc:  # sigma**2 overflows or is 0
        raise ValueError(f"non-finite result: sigma^2 out of range at sigma={sigma}") from exc
    if math.isnan(rhs):  # sigma^2 is subnormal
        raise ValueError(f"non-finite result: inf - inf at sigma={sigma}")
    ac = 2.0 / (rhs + math.sqrt((rhs - 2.0) * (rhs + 2.0)))
    return 1.0 - ac


# -- stability / plasticity --------------------------------------------------

def default_future_horizon(eta: float) -> int:
    """Future truncation K with eta^K below 1e-6, capped at 512."""
    if eta <= 0.0:
        return 1
    k = math.ceil(math.log(1e-6) / math.log(eta))
    return max(1, min(k, 512))


def _products_domain(sc: LmsSteadyCovariance) -> LmsSteadyCovariance:
    """``sc``, or ValueError unless Var(U_t) * Var(Y_t) is finite: the domain
    of the engines that form products of two second moments, at most that
    one, which overflows from sigma of about 1e77."""
    if not math.isfinite(sc.u_var() * sc.y_var()):
        raise ValueError(f"noise scales too large: Var(U) * Var(Y) overflows at "
                         f"alpha={sc.alpha}, sigma={sc.sigma}, delta={sc.delta}")
    return sc


def _grid(alpha, eta: float, sigma: float, delta, future: int | None):
    """The grid contract of the stability engines: whether (alpha, delta) are
    scalars, one validated :class:`LmsSteadyCovariance` per point of their
    1-D broadcast, and the future lags 1..K as floats.

    Also the engines' domain (:func:`_products_domain`), so a caller can
    refuse a grid before any error is evaluated."""
    scalar = np.ndim(alpha) == 0 and np.ndim(delta) == 0
    alphas, deltas = np.broadcast_arrays(np.atleast_1d(alpha), np.atleast_1d(delta))
    if alphas.ndim != 1:
        raise ValueError("alpha and delta must be scalars or 1-D grids")
    covs = [_products_domain(LmsSteadyCovariance(eta, sigma, a, d))
            for a, d in zip(alphas, deltas)]
    K = default_future_horizon(eta) if future is None else future
    if K < 1:
        raise ValueError("need at least one future coordinate")
    return scalar, covs, np.arange(1, K + 1, dtype=float)


def stability_errors(alpha, eta: float, sigma: float, delta, future: int | None = None):
    """(forgetting, implasticity) error in nats at fixed quantization noise.

    Forgetting is I(Y_{t+1:t+K}; U_{t-1} | U_t, Y_t): future-relevant
    information held by the previous agent state but recoverable from neither
    the next state nor the current observation. Implasticity is
    I(Y_{t+1:t+K}; Y_t | U_t): future-relevant information in the current
    observation that was not ingested.

    ``alpha`` and ``delta`` are scalars, which give a pair of floats, or
    broadcastable 1-D grids for one (eta, sigma, K), which give a pair of
    arrays (empty for an empty grid). Every grid point is validated, its range
    and the engine's domain (:func:`_grid`), before any linear algebra runs.
    The joint over (U_{t-1}, U_t, Y_t, Y_{t+1:t+K}) shares its future block
    across the grid, a read-only Toeplitz view of the 2K+1 floats
    E[Y_t Y_{t+|k|}]; per point only the 3 x 3 head over (U_{t-1}, U_t, Y_t)
    and its cross block with the future depend on (alpha, delta), and each
    conditioning builds one K x K Schur result, which :func:`_logdet_psd`
    overwrites with its column-major Cholesky factor, in one K x K workspace
    allocated per call, not per conditioning (a fresh 2 MiB array at K = 512
    is paged in on every use). Both errors go through one block function, so
    every value equals the one-point dense evaluation bit for bit.
    """
    scalar, covs, ks = _grid(alpha, eta, sigma, delta, future)
    forgetting, implasticity = np.empty(len(covs)), np.empty(len(covs))
    if not covs:
        return forgetting, implasticity
    K = len(ks)
    row = np.power(eta, np.arange(K + 1.0))  # E[Y_t Y_{t+k}], k = 0..K
    row[0] = covs[0].y_var()
    S_xx = sliding_window_view(np.concatenate((row[:0:-1], row)), K)[K:0:-1]  # Toeplitz view
    work = np.empty((K, K))
    for i, sc in enumerate(covs):
        uv, ac1, fwd1, back0 = sc.u_var(), sc.u_autocov1(), sc.u_y_fwd(1), sc.u_y()
        head = np.array(((uv, ac1, fwd1), (ac1, uv, back0), (fwd1, back0, row[0])))
        cross = np.column_stack((sc.u_y_fwd(ks + 1.0), sc.u_y_fwd(ks), row[1:]))
        forgetting[i] = _cond_mi_blocks(S_xx, cross, head, [0], [1, 2], work)
        implasticity[i] = _cond_mi_blocks(S_xx, cross, head, [2], [1], work)
    if scalar:
        return float(forgetting[0]), float(implasticity[0])
    return forgetting, implasticity


def total_stability_error(alpha, eta: float, sigma: float, delta, future: int | None = None):
    """Forgetting + implasticity in nats at fixed quantization noise, by the
    Markov reduction; same grid contract as :func:`stability_errors`.

    Y_{t+1:t+K} = b*theta_t + E with b_k = eta^k and E independent of the
    past, so by the determinant lemma and the chain rule the total is
        0.5 * [log1p(s*Var(theta_t|U_t)) - log1p(s*Var(theta_t|U_{t-1},U_t,Y_t))]
    with s = b^T Cov(E)^-1 b from :func:`_future_information`. U_t is an update of
    (U_{t-1}, Y_t) plus quantization noise independent of theta_t, so the last
    variance conditions on (U_{t-1}, Y_t) alone: a 2x2 head, nonsingular at
    every valid point (delta = 0 and alpha = 1 included). Where the dense
    path's (U_t, Y_t) block is ill conditioned (alpha -> 1, delta -> 0), this
    is the more accurate of the two.
    """
    scalar, covs, ks = _grid(alpha, eta, sigma, delta, future)
    total = np.empty(len(covs))
    if not covs:
        return total
    s = _future_information(eta, sigma, len(ks))
    s2 = sigma * sigma
    for i, sc in enumerate(covs):
        u, now, prev = sc.u_var(), sc.u_theta(), sc.u_y_fwd(1)  # prev = E[U_{t-1} theta_t]
        var_given_now = 1.0 - now * now / u
        var_given_all = s2 * (u - prev * prev) / (u * (1.0 + s2) - prev * prev)
        total[i] = 0.5 * (math.log1p(s * var_given_now) - math.log1p(s * var_given_all))
    return float(total[0]) if scalar else total


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

    From theta_0, U_0 ~ N(0, 1), lag k = t - j has the forgetting term
    I(Y_{t+1}; U_{j-1} | U_j, Y_{j:t}) and the implasticity term
    I(Y_{t+1}; Y_j | U_j, Y_{j+1:t}), both 0 at j = 0. Given a head H of
    variables up to step j, Y_{j+1:t+1} depends on H only through theta_j, so
    each term is 0.5 ln of a ratio of two predictive variances
    Var(Y_{t+1} | H, Y_{j+1:t}): a scalar Kalman pass (Kalman 1960) over
    Y_{j+1:t} from Var(theta_j | H), which comes from a head of at most 2x2:
    - H = U_j: 1 - c_j^2 / u_j, with c_j = E[U_j theta_j] and u_j = E[U_j^2];
    - H = (U_j, Y_j): given Y_j, U_j carries only R_j = (1 - alpha) U_{j-1} +
      delta Q_j, which is exactly 0 at alpha = 1, delta = 0;
    - H = (U_{j-1}, U_j, Y_j): given (U_{j-1}, Y_j), U_j adds only noise.
    The absent information I(Y_{t+1}; Y_{1:t} | U_t) needs beyond the first
    head only Var(Y_{t+1} | Y_{1:t}), since U_0 is independent of theta.
    O(t^2) scalar operations; no matrix is built. ``given_y`` forms
    Var(U_j) * Var(Y_j), so :func:`_products_domain` applies.
    """
    _products_domain(LmsSteadyCovariance(eta, sigma, alpha, delta))
    if t < 0:
        raise ValueError(f"horizon must be nonnegative, got {t}")
    ac, s2, zeta2 = 1.0 - alpha, sigma * sigma, 1.0 - eta * eta
    c, u = [0.0], [1.0]  # c_j, u_j; E[U_{j-1} theta_j] = E[U_{j-1} Y_j] = eta c_{j-1}
    for _ in range(t):
        h = eta * c[-1]
        u.append(ac * ac * u[-1] + 2.0 * alpha * ac * h + alpha * alpha * (1.0 + s2)
                 + delta * delta)
        c.append(ac * h + alpha)

    def given_y(var, cov):
        """Var(theta_j | X, Y_j) for Var X = var and E[X theta_j] = E[X Y_j] = cov."""
        return s2 * (var - cov * cov) / (var * (1.0 + s2) - cov * cov)

    def ahead(prior, j):
        """Var(Y_{t+1} | H, Y_{j+1:t}) for Var(theta_j | H) = prior."""
        p = prior
        for _ in range(t - j):
            p = eta * eta * p + zeta2
            p = p * s2 / (p + s2)
        return eta * eta * p + zeta2 + s2

    terms = []
    for j in range(t, 0, -1):
        h, r = eta * c[j - 1], ac * ac * u[j - 1] + delta * delta  # r = Var R_j
        state = ahead(1.0 - c[j] * c[j] / u[j], j)
        both = ahead(given_y(r, ac * h) if r > 0.0 else s2 / (1.0 + s2), j)  # r = 0: R_j = 0
        prev = ahead(given_y(u[j - 1], h), j)
        terms.append((0.5 * math.log(both / prev), 0.5 * math.log(state / both)))
    terms.append((0.0, 0.0))  # U_{-1} and Y_0 are empty at the base lag
    absent = 0.5 * math.log(ahead(1.0 - c[t] * c[t] / u[t], t) / ahead(1.0, 0))
    return LagDecomposition(terms=terms, absent_info=absent)


# -- regret bound -------------------------------------------------------------

def regret_bound_logit(horizon: int) -> float:
    """Optimized rate-distortion regret bound (ln(1 + 2T) + 1) / (2T) for the
    standard-normal logit stream; ValueError where 2T is not a finite float."""
    if not 1 <= horizon < 2**1023 or math.isinf(2.0 * horizon):  # 2^1023 - 1 rounds up
        raise ValueError(f"horizon must be >= 1 with 2T a finite float, got {horizon}")
    return (math.log(1.0 + 2.0 * horizon) + 1.0) / (2.0 * horizon)
