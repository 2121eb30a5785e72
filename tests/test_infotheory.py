import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from _oracles import (batch_stderr, capacity_joint, gaussian_cond_mi, informational_error,
                      lag_joint, regret_bound_entropy, simulate_tracker, stability_joint, u_y_back,
                      y_autocov, y_block)
from _oracles import lag_decomposition as dense_lag_decomposition
from _oracles import posterior_pred_params as expanded_posterior_pred_params
from _oracles import stability_errors as dense_stability_errors
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contilab import infotheory as it
from contilab.errors import NumericError
from contilab.rng import RngStream


def random_psd(gen, n):
    a = gen.standard_normal((n, n + 2))
    return a @ a.T + 0.1 * np.eye(n)


def _mp_lyapunov(alpha, eta, sigma, delta):
    """Steady-state (Var theta, E[theta U], Var U) from a Lyapunov solve in
    the current mpmath precision, so no float64 value of ``infotheory``
    enters."""
    mp = mpmath.mp
    a, e = mp.mpf(alpha), mp.mpf(eta)
    s2, d2, q = mp.mpf(sigma) ** 2, mp.mpf(delta) ** 2, 1 - mp.mpf(eta) ** 2
    F = mp.matrix([[e, 0], [a * e, 1 - a]])
    noise = [q, a * q, a * q, a * a * (q + s2) + d2]
    kron = mp.matrix(4, 4)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        kron[2 * i + k, 2 * j + l] = (1 if (i, k) == (j, l) else 0) - F[i, j] * F[k, l]
    tt, tu, _, uu = mp.lu_solve(kron, mp.matrix(noise))
    return tt, tu, uu


# -- steady-state covariances --------------------------------------------------

def test_observation_autocovariance_closed_form():
    sc = it.LmsSteadyCovariance(0.9, 1.0, 0.5, 0.1)
    assert y_autocov(sc, 3) == pytest.approx(0.729, abs=1e-15)
    assert sc.y_var() == pytest.approx(2.0)


def test_state_observation_cross_moment_hand_value():
    sc = it.LmsSteadyCovariance(eta=0.8, sigma=1.0, alpha=0.5, delta=0.0)
    # E[U_t Y_{t+2}] = alpha * eta^2 / (1 - (1-alpha)*eta)
    assert sc.u_y_fwd(2) == pytest.approx(0.5 * 0.64 / 0.6, rel=1e-12)
    # E[U_t Y_t] = alpha*sigma^2 + alpha / (1 - (1-alpha)*eta)
    assert sc.u_y() == pytest.approx(0.5 * 1.0 + 0.5 / 0.6, rel=1e-12)


def test_steady_cov_rejects_zero_stepsize():
    with pytest.raises(ValueError):
        it.LmsSteadyCovariance(0.9, 1.0, 0.0, 0.1)


def test_steady_cov_blocks_are_psd():
    for alpha, eta, sigma, delta in ((0.3, 0.9, 0.5, 0.2), (0.999, 0.1, 1.0, 0.0), (0.05, 0.97, 0.3, 0.4)):
        sc = it.LmsSteadyCovariance(eta, sigma, alpha, delta)
        for cov in (capacity_joint(sc, 40), stability_joint(sc, 40)):
            assert np.array_equal(cov, cov.T)
            eigs = np.linalg.eigvalsh(cov)
            assert eigs[0] > -1e-10


def test_merged_roots_branch_continuous():
    # eta == 1 - alpha hits the removable singularity
    sc_at = it.LmsSteadyCovariance(eta=0.6, sigma=0.5, alpha=0.4, delta=0.1)
    sc_near = it.LmsSteadyCovariance(eta=0.6 + 1e-7, sigma=0.5, alpha=0.4, delta=0.1)
    assert u_y_back(sc_at, 3) == pytest.approx(u_y_back(sc_near, 3), rel=1e-5)
    assert sc_at.u_var() == pytest.approx(sc_near.u_var(), rel=1e-5)


@pytest.mark.parametrize("alpha, eta, sigma, delta", [
    (0.45, 0.85, 0.6, 0.25), (0.1, 0.95, 1.2, 0.0), (0.9, 0.3, 0.3, 0.5), (0.02, 0.99, 0.5, 0.1)])
def test_tracker_oracle_filters_equal_the_step_loop(alpha, eta, sigma, delta):
    # simulate_tracker's filters against its recursions run one step at a
    # time on the same draws: theta's adds are the same, u's are reordered.
    n, seed = 10_000, 3
    ys, us = simulate_tracker(alpha, eta, sigma, delta, n, seed=seed, burn=0)
    gen = RngStream(seed).child("oracle").generator()
    zeta = math.sqrt(max(0.0, 1.0 - eta * eta))
    V = gen.standard_normal(n) * zeta
    W = gen.standard_normal(n) * sigma
    Q = gen.standard_normal(n) * delta
    theta, u = gen.standard_normal(), gen.standard_normal()
    ys_loop, us_loop = np.empty(n), np.empty(n)
    for i in range(n):
        theta = eta * theta + V[i]
        ys_loop[i] = theta + W[i]
        u = (1.0 - alpha) * u + alpha * ys_loop[i] + Q[i]
        us_loop[i] = u
    assert np.array_equal(ys, ys_loop)
    assert np.max(np.abs(us - us_loop)) <= 1e-14


def test_closed_form_moments_match_simulation():
    alpha, eta, sigma, delta = 0.45, 0.85, 0.6, 0.25
    ys, us = simulate_tracker(alpha, eta, sigma, delta, 400_000, seed=1)
    sc = it.LmsSteadyCovariance(eta, sigma, alpha, delta)
    checks = [
        (ys * ys, sc.y_var()),
        (ys[:-2] * ys[2:], y_autocov(sc, 2)),
        (us * us, sc.u_var()),
        (us[:-1] * us[1:], sc.u_autocov1()),
        (us[1:] * ys[:-1], u_y_back(sc, 1)),
        (us[:-1] * ys[1:], sc.u_y_fwd(1)),
    ]
    for prod, predicted in checks:
        assert abs(prod.mean() - predicted) < 3.5 * batch_stderr(prod)


# -- conditional mutual information --------------------------------------------

def test_independent_coordinates_zero_mi():
    cov = np.diag([1.0, 2.0, 3.0])
    assert abs(gaussian_cond_mi(cov, [0], [1])) < 1e-12
    assert abs(gaussian_cond_mi(cov, [0], [2], [1])) < 1e-12


def test_chain_rule_identity_random_psd():
    gen = RngStream(2).generator()
    for _ in range(20):
        cov = random_psd(gen, 6)
        lhs = gaussian_cond_mi(cov, [0, 1], [2, 3, 4, 5])
        rhs = gaussian_cond_mi(cov, [0, 1], [4, 5]) + gaussian_cond_mi(cov, [0, 1], [2, 3], [4, 5])
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_mi_symmetry_and_nonnegativity():
    gen = RngStream(3).generator()
    for _ in range(20):
        cov = random_psd(gen, 5)
        a = gaussian_cond_mi(cov, [0, 1], [2, 3], [4])
        b = gaussian_cond_mi(cov, [2, 3], [0, 1], [4])
        assert a == pytest.approx(b, abs=1e-10)
        assert a > -1e-10


def test_indefinite_covariance_reports_eigenvalue():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(NumericError, match="eigenvalue"):
        gaussian_cond_mi(bad, [0], [1])


def chain_mi(i_xy: float, i_zy: float) -> float:
    """I(X; Z) for jointly Gaussian X -> Y -> Z given I(X; Y) and I(Z; Y):

        I(X; Z) = -0.5 * ln(1 - (1 - e^{-2 I(X;Y)}) * (1 - e^{-2 I(Z;Y)})).
    """
    if i_xy <= 0.0 or i_zy <= 0.0:
        raise ValueError("mutual informations must be positive")
    return -0.5 * math.log1p(-(-math.expm1(-2.0 * i_xy)) * (-math.expm1(-2.0 * i_zy)))


def test_markov_chain_mi_against_explicit_covariance():
    # X = Y + X', Z = Y + Z' with unit variances: I(X;Y) = I(Z;Y) = ln(2)/2
    cov = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    direct = gaussian_cond_mi(cov, [0], [2])
    assert direct == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)
    assert chain_mi(0.5 * math.log(2.0), 0.5 * math.log(2.0)) == pytest.approx(direct, abs=1e-12)
    assert direct == pytest.approx(0.1438410362, abs=1e-9)


def test_chain_mi_limits_and_monotonicity():
    assert chain_mi(0.7, 50.0) == pytest.approx(0.7, abs=1e-6)
    grid = [0.1, 0.3, 0.9, 2.0]
    vals = [chain_mi(x, 0.5) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    vals = [chain_mi(0.5, x) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        chain_mi(0.0, 1.0)


# -- capacity noise -------------------------------------------------------------

def test_delta_star_limits():
    assert it.delta_star(0.5, 0.9, 0.5, 200.0) < 1e-100
    assert it.delta_star(1e-8, 0.9, 0.5, 1.0) < 1e-14
    with pytest.raises(ValueError):
        it.delta_star(0.5, 0.9, 0.5, 0.0)
    # exp(-2C) is 1.0 below C of about 2.8e-17: 1 - exp(-2C) would divide by zero
    for engine in (it.delta_star, it.delta_star_sq_grad):
        with pytest.raises(ValueError, match=re.escape("positive with exp(-2C) < 1, got 1e-17")):
            engine(0.5, 0.9, 0.5, 1e-17)
        assert math.isfinite(engine(0.5, 0.9, 0.5, 1e-15))


def test_delta_star_pins_state_history_information():
    delta = math.sqrt(it.delta_star(0.35, 0.9, 0.5, 2.0))
    assert it.mi_capacity(0.35, 0.9, 0.5, delta, 200) == pytest.approx(2.0, abs=1e-3)
    delta = math.sqrt(it.delta_star(0.5, 0.9, 0.5, 1.0))
    assert it.mi_capacity(0.5, 0.9, 0.5, delta, 400) == pytest.approx(1.0, abs=1e-3)


def test_delta_star_grad_matches_finite_differences():
    h = 1e-6
    for alpha in (0.1, 0.35, 0.6, 0.9):
        for eta in (0.5, 0.9, 0.97):
            for sigma, cap in ((0.5, 2.0), (1.0, 0.5)):
                grad = it.delta_star_sq_grad(alpha, eta, sigma, cap)
                fd = (it.delta_star(alpha + h, eta, sigma, cap)
                      - it.delta_star(alpha - h, eta, sigma, cap)) / (2 * h)
                assert grad == pytest.approx(fd, rel=1e-6)


def _mp_delta_star(alpha, eta, sigma, capacity):
    """delta_star's closed form in mpmath numbers at the working precision;
    alpha may be complex, for the complex-step derivative."""
    a, e, s2 = alpha, mpmath.mpf(eta), mpmath.mpf(sigma) ** 2
    A, B = 1 - (1 - a) * e, 1 + (1 - a) * e
    damp = mpmath.exp(-2 * mpmath.mpf(capacity))
    return a * a * (s2 * A + B) / A * damp / (1 - damp)


# alpha down to 1e-150 keeps alpha^2 normal; capacity from 1e-12, where
# 1 - exp(-2C) keeps 4 digits, to 354, where exp(-2C) is still normal.
# Results below the smallest normal float have only an absolute bound.
_CAPACITY_POINT = dict(alpha=st.floats(1e-150, 1.0), eta=st.floats(0.0, 1.0, exclude_max=True),
                       sigma=st.floats(0.0, 1e100), capacity=st.floats(1e-12, 354.0))


def _capacity_conds(alpha, eta, capacity):
    """(1/A, 1/(1 - exp(-2C))): A = 1 - (1-alpha)*eta rounds from a_c*eta, and
    1 - exp(-2C) cancels as C -> 0."""
    return 1.0 / (1.0 - (1.0 - alpha) * eta), 1.0 / -math.expm1(-2.0 * capacity)


@settings(max_examples=200, deadline=None)
@given(**_CAPACITY_POINT)
@example(alpha=1.0, eta=0.0, sigma=0.0, capacity=1e-12)
@example(alpha=1e-150, eta=0.9999999999999999, sigma=1e100, capacity=354.0)
@example(alpha=1e-6, eta=0.9999999999999999, sigma=0.5, capacity=2.0)
@example(alpha=0.35, eta=0.9, sigma=0.5, capacity=0.0015)
def test_delta_star_matches_40_digits(alpha, eta, sigma, capacity):
    # at most 0.64 eps * cond over 20,000 random points
    cond_a, cond_c = _capacity_conds(alpha, eta, capacity)
    with mpmath.workdps(40):
        ref = float(_mp_delta_star(mpmath.mpf(alpha), eta, sigma, capacity))
    value = it.delta_star(alpha, eta, sigma, capacity)
    assert abs(value - ref) <= 4 * _EPS * (1.0 + cond_a + cond_c) * ref + _TINY


@settings(max_examples=200, deadline=None)
@given(**_CAPACITY_POINT)
@example(alpha=1.0, eta=0.9999999999999999, sigma=0.0, capacity=1e-12)
@example(alpha=1e-150, eta=0.9999999999999999, sigma=1e100, capacity=354.0)
@example(alpha=1e-6, eta=0.9999999999999999, sigma=0.0, capacity=2.0)
@example(alpha=1e-150, eta=0.0, sigma=196420484.0, capacity=185.0)
def test_delta_star_sq_grad_matches_a_40_digit_complex_step(alpha, eta, sigma, capacity):
    # Reference: Im f(alpha + ih) / h at h = 1e-20 alpha, which is exact to
    # 40 digits and shares nothing with the closed form. The float form
    # 2 kappa alpha (sigma^2 + B/A - eta alpha / A^2) cancels in its bracket
    # (by up to (sigma^2 + B/A + eta alpha/A^2) / bracket), each term rounded
    # with A's 1/A; at most 0.55 eps * cond over 3,000 random points. The
    # product 2 kappa alpha comes first and may be subnormal (alpha = 1e-150,
    # C = 185), off by up to half the smallest subnormal per unit of bracket.
    cond_a, cond_c = _capacity_conds(alpha, eta, capacity)
    A = 1.0 - (1.0 - alpha) * eta
    B, ratio = 2.0 - A, eta * alpha / (A * A)
    bracket = sigma * sigma + B / A - ratio
    cancel = (sigma * sigma + B / A + ratio) / bracket
    with mpmath.workdps(40):
        h = mpmath.mpf(alpha) * mpmath.mpf(10) ** -20
        ref = float(mpmath.im(_mp_delta_star(mpmath.mpc(alpha, h), eta, sigma, capacity)) / h)
    value = it.delta_star_sq_grad(alpha, eta, sigma, capacity)
    tol = 4 * _EPS * (1.0 + cond_c + cancel * cond_a) * ref + _TINY * (1.0 + _EPS * bracket)
    assert abs(value - ref) <= tol


def test_mi_capacity_monotone_in_history_and_noise():
    vals = [it.mi_capacity(0.4, 0.9, 0.5, 0.3, n) for n in (1, 2, 5, 20, 80)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert it.mi_capacity(0.4, 0.9, 0.5, 1e6, 50) < 1e-10


_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


@settings(max_examples=60, deadline=None)
@given(eta=st.one_of(st.just(0.0), st.floats(1e-3, 0.99)),
       sigma=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)), K=st.integers(1, 128))
@example(eta=0.9, sigma=0.0, K=40)
@example(eta=0.0, sigma=0.5, K=40)
@example(eta=0.99, sigma=0.05, K=512)
@example(eta=0.9512928996273678, sigma=0.0, K=1)  # eta**2 one ulp off eta * eta
@example(eta=0.9895564007555786, sigma=0.0, K=1)  # 1 - eta * eta was 12 eps off
def test_future_information_equals_the_k_by_k_solve(eta, sigma, K):
    # s = b^T Cov(E)^-1 b for Y_{t+1:t+K} = b*theta_t + E, where
    # Cov(E)_jk = eta^|j-k| (1 - eta^(2 min(j, k))) + sigma^2 [j = k], formed
    # with expm1 so that 1 - eta^2j does not cancel. The solve loses digits in
    # proportion to Cov(E)'s condition number; the filter stays within a few
    # ulps (1.6 eps * cond at most over 300 random points).
    ks = np.arange(1, K + 1, dtype=float)
    b = eta**ks
    with np.errstate(divide="ignore"):  # log(0) = -inf at eta = 0
        fresh = -np.expm1(2.0 * np.minimum.outer(ks, ks) * np.log(eta))
    cov_e = eta ** np.abs(np.subtract.outer(ks, ks)) * fresh + sigma * sigma * np.eye(K)
    solved = float(b @ np.linalg.solve(cov_e, b))
    s = it._future_information(eta, sigma, K)
    assert abs(s - solved) <= 8 * _EPS * np.linalg.cond(cov_e) * solved
    if sigma == 0.0:  # Y_{t+1} = theta_{t+1} fixes all there is to know
        exact = float(Fraction(eta) ** 2 / (1 - Fraction(eta) ** 2))
        assert abs(s - exact) <= 4 * _EPS * exact


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.01, 1.0), eta=st.floats(0.0, 0.99), sigma=st.floats(0.05, 2.0),
       delta=st.floats(0.0, 1.0), n=st.integers(1, 60))
@example(alpha=0.35, eta=0.9, sigma=0.5, delta=0.3, n=60)
@example(alpha=0.5, eta=0.500275343240475, sigma=1.0, delta=0.0, n=2)
def test_mi_capacity_equals_the_dense_joint_where_it_is_well_conditioned(alpha, eta, sigma,
                                                                         delta, n):
    # The dense value's log-determinants over n + 1 coordinates carry about
    # n + 1 ulps times the joint's condition number, and its cross moments
    # (eta^i - a_c^i) / (eta - a_c) another ulp per |eta - a_c| (the 40-digit
    # test below arbitrates near merged roots). Above cond 1e8 the dense
    # path's 1e-12 ridge takes over and the dense value is no reference.
    joint = capacity_joint(it.LmsSteadyCovariance(eta, sigma, alpha, delta), n)
    cond, gap = np.linalg.cond(joint), abs(eta - (1.0 - alpha))
    assume(cond < 1e8 and gap > 1e-6)
    dense = gaussian_cond_mi(joint, [0], range(1, n + 1))
    tol = 4 * _EPS * cond * (n + 1 + 1 / gap)
    assert abs(it.mi_capacity(alpha, eta, sigma, delta, n) - dense) <= tol


def _mp_mi_capacity(alpha, eta, sigma, delta, n):
    """I(U_t; Y_{t-n+1:t}) = 0.5 ln(Var U / Var(U | window)) on the dense
    joint at 40 digits, on :func:`_mp_lyapunov`'s moments. E[U_t Y_{t-j}] =
    a_c^j (E[U theta] + alpha sigma^2) + alpha sum_{i<j} a_c^i eta^(j-i)."""
    mp = mpmath.mp
    with mpmath.workdps(40):
        a, e, s2 = mp.mpf(alpha), mp.mpf(eta), mp.mpf(sigma) ** 2
        tt, tu, uu = _mp_lyapunov(alpha, eta, sigma, delta)
        cross = mp.matrix([(1 - a) ** j * (tu + a * s2)
                           + a * mp.fsum((1 - a) ** i * e ** (j - i) * tt for i in range(j))
                           for j in range(n)])
        window = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                window[i, j] = e ** abs(i - j) * tt + (s2 if i == j else 0)
        held = uu - (cross.T * mp.lu_solve(window, cross))[0]
        return float(mp.log(uu / held) / 2)


@pytest.mark.parametrize("alpha, eta, sigma, delta, n", [
    (0.35, 0.9, 0.5, math.sqrt(it.delta_star(0.35, 0.9, 0.5, 2.0)), 60),
    (0.05, 0.97, 0.3, 0.4, 30),
    (0.9, 0.0, 1.5, 0.0, 3),
    # U_t = Y_t + 1e-9 noise: 0.5 ln(1.25 / 1e-18) = 20.835 nats; the dense
    # path's 1e-12 ridge caps it at 18.133.
    (1.0, 0.9, 0.5, 1e-9, 50),
])
def test_mi_capacity_matches_a_40_digit_dense_evaluation(alpha, eta, sigma, delta, n):
    # 0.5 ln(u / residual) carries half the relative errors of u and of the
    # residual; the residual's held variance cancels by at most a factor 10
    # at these points, so 64 ulps of the value bound the float error.
    mi = it.mi_capacity(alpha, eta, sigma, delta, n)
    assert abs(mi - _mp_mi_capacity(alpha, eta, sigma, delta, n)) <= 64 * _EPS * max(mi, 1.0)


def test_mi_capacity_is_infinite_only_where_the_window_fixes_the_state():
    assert it.mi_capacity(1.0, 0.9, 0.5, 0.0, 5) == math.inf
    # Without noise the log of the residual is taken term by term: equal to
    # the sum form where a_c^200 = 1e-200 does not underflow, and finite
    # where a_c^400 = 1e-400 does (s_n has settled, so 100 more lags add
    # -100 ln a_c).
    at_100 = it.mi_capacity(0.9, 0.9, 0.5, 0.0, 100)
    assert at_100 == pytest.approx(it.mi_capacity(0.9, 0.9, 0.5, 1e-150, 100), rel=4 * _EPS)
    assert it.mi_capacity(0.9, 0.9, 0.5, 0.0, 200) - at_100 == pytest.approx(100 * math.log(10.0),
                                                                             rel=1e-12)
    with pytest.raises(ValueError, match="at least one observation"):
        it.mi_capacity(0.5, 0.9, 0.5, 0.1, 0)


# -- posterior predictions and optimal stepsize ---------------------------------

def test_posterior_pred_limits():
    slope, var = it.posterior_pred_params(0.5, 0.9, 0.5, 1e9)
    assert abs(slope) < 1e-12 and var == pytest.approx(1.25, rel=1e-9)
    slope, _ = it.posterior_pred_params(0.5, 0.0, 0.5, 0.2)
    assert slope == 0.0


def test_posterior_pred_matches_regression():
    alpha, eta, sigma, delta = 0.4, 0.9, 0.5, 0.3
    ys, us = simulate_tracker(alpha, eta, sigma, delta, 400_000, seed=4)
    slope, var = it.posterior_pred_params(alpha, eta, sigma, delta)
    slope_hat = (us[:-1] * ys[1:]).mean() / (us[:-1] ** 2).mean()
    resid = ys[1:] - slope_hat * us[:-1]
    assert abs(slope_hat - slope) < 0.01
    assert abs((resid**2).mean() - var) < 3.5 * batch_stderr(resid**2)


def _mp_posterior_pred_params(alpha, eta, sigma, delta):
    """(E[U_t Y_{t+1}] / Var U, Var Y - E[U_t Y_{t+1}]^2 / Var U) at 40 digits
    on :func:`_mp_lyapunov`'s moments, with E[U_t Y_{t+1}] = eta E[U theta]."""
    with mpmath.workdps(40):
        tt, tu, uu = _mp_lyapunov(alpha, eta, sigma, delta)
        fwd = mpmath.mpf(eta) * tu
        return float(fwd / uu), float(tt + mpmath.mpf(sigma) ** 2 - fwd * fwd / uu)


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(1e-6, 1.0), eta=st.floats(0.0, 0.999), sigma=st.floats(0.0, 2.0),
       delta=st.floats(0.0, 1.0))
@example(alpha=1e-6, eta=0.999, sigma=0.5, delta=0.3)
@example(alpha=1.0, eta=0.0, sigma=0.0, delta=0.0)
@example(alpha=1.0, eta=0.9, sigma=0.0, delta=0.0)
@example(alpha=1e-6, eta=0.0, sigma=2.0, delta=1.0)
def test_posterior_pred_params_match_the_expanded_form_and_40_digits(alpha, eta, sigma, delta):
    # Both float forms round 1 - a_c^2 and A = 1 - a_c*eta from a_c = 1 - alpha,
    # so their relative error is a few ulps times cond = 1/alpha + 1/A (at
    # most 0.9 eps * cond over 3,000 random points); the variance's is
    # relative to Var Y, which it may cancel against. A slope below the
    # smallest normal float (eta = 5e-324) has only an absolute bound.
    cond = 1.0 / alpha + 1.0 / (1.0 - (1.0 - alpha) * eta)
    slope, var = it.posterior_pred_params(alpha, eta, sigma, delta)
    for ref_slope, ref_var in (expanded_posterior_pred_params(alpha, eta, sigma, delta),
                               _mp_posterior_pred_params(alpha, eta, sigma, delta)):
        assert abs(slope - ref_slope) <= 4 * _EPS * cond * abs(ref_slope) + _TINY
        assert abs(var - ref_var) <= 4 * _EPS * cond * (1.0 + sigma * sigma)


def test_posterior_pred_params_reject_points_outside_the_steady_state():
    for args in ((0.5, 1.0, 0.5, 0.1), (0.5, -0.1, 0.5, 0.1), (0.5, 0.9, -0.5, 0.1),
                 (0.5, 0.9, 0.5, -0.1), (0.0, 0.9, 0.5, 0.1)):
        with pytest.raises(ValueError):
            it.posterior_pred_params(*args)


def test_optimal_alpha_value_and_limits():
    # root of a_c + 1/a_c = eta + 1/eta + 1/(sigma^2 eta) - eta/sigma^2
    assert it.optimal_alpha(0.9, 0.5) == pytest.approx(0.5913146531, abs=1e-9)
    assert it.optimal_alpha(0.95, 0.5) == pytest.approx(0.4685749286, abs=1e-9)
    assert it.optimal_alpha(0.999999, 0.5) < 0.005
    with pytest.raises(ValueError):
        it.optimal_alpha(1.0, 0.5)
    with pytest.raises(ValueError):
        it.optimal_alpha(0.0, 0.5)


def _mp_optimal_alpha(eta, sigma):
    """1 - a_c from the quadratic formula at 40 digits."""
    with mpmath.workdps(40):
        e, s2 = mpmath.mpf(eta), mpmath.mpf(sigma) ** 2
        rhs = e + 1 / e + 1 / (s2 * e) - e / s2
        return 1 - (rhs - mpmath.sqrt(rhs * rhs - 4)) / 2


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 0.99), st.floats(1e-6, 1.0))
@example(0.01, 0.01)
@example(0.5, 1e-3)
@example(0.5, 1e-4)
def test_optimal_alpha_matches_a_40_digit_root(eta, sigma):
    # The quadratic formula in floats cancels as sigma^2 eta -> 0 (1e8 ulps
    # off in this domain, alpha = 1 exactly at the last example).
    alpha = it.optimal_alpha(eta, sigma)
    assert abs(alpha - _mp_optimal_alpha(eta, sigma)) <= 256 * math.ulp(alpha)


def test_optimal_alpha_minimizes_conditional_residual():
    star = it.optimal_alpha(0.9, 0.5)
    grid = np.arange(0.05, 1.0, 0.01)
    resid = [it.posterior_pred_params(a, 0.9, 0.5, 0.0)[1] for a in grid]
    assert grid[int(np.argmin(resid))] == pytest.approx(star, abs=0.01)
    info = [informational_error(a, 0.9, 0.5, 0.0, past=200) for a in grid]
    assert grid[int(np.argmin(info))] == pytest.approx(star, abs=0.01)


# -- stability / plasticity ------------------------------------------------------

def test_forgetting_zero_without_quantization_noise():
    for alpha in (0.2, 0.5, 0.8):
        forgetting, _ = it.stability_errors(alpha, 0.9, 0.5, 0.0)
        assert abs(forgetting) < 1e-9


def test_stability_errors_monotone_in_future_horizon():
    delta = math.sqrt(it.delta_star(0.4, 0.9, 0.5, 2.0))
    f_vals, i_vals = zip(*(it.stability_errors(0.4, 0.9, 0.5, delta, future=k) for k in (1, 8, 64)))
    assert f_vals[0] <= f_vals[1] + 1e-12 <= f_vals[2] + 2e-12
    assert i_vals[0] <= i_vals[1] + 1e-12 <= i_vals[2] + 2e-12


_grid_point = st.tuples(st.floats(0.01, 1.0), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
_GRID_CASE = dict(points=st.lists(_grid_point, min_size=1, max_size=20),
                  eta=st.one_of(st.sampled_from([0.5, 0.9, 0.95]), st.floats(0.0, 0.95)),
                  sigma=st.floats(0.1, 2.0),
                  future=st.one_of(st.sampled_from([1, 2, 3, None]), st.integers(4, 40)),
                  scalar_delta=st.booleans())


def _grid(points, scalar_delta):
    """(alphas, deltas, per-point deltas) of one drawn grid case."""
    alphas = np.array([a for a, _ in points])
    deltas = points[0][1] if scalar_delta else np.array([d for _, d in points])
    return alphas, deltas, np.broadcast_to(deltas, alphas.shape)


@settings(max_examples=40, deadline=None)
@given(**_GRID_CASE)
@example(points=[(0.2, 0.0), (0.5, 0.0), (0.8, 0.3)], eta=0.9, sigma=0.5, future=None,
         scalar_delta=False)
# S_ww passes the Cholesky check here but is singular to np.linalg.solve
@example(points=[(0.01, 0.0)], eta=0.5, sigma=0.25211066799565773, future=3, scalar_delta=False)
def test_stability_engine_slices_equal_the_dense_oracle(points, eta, sigma, future, scalar_delta):
    alphas, deltas, point_deltas = _grid(points, scalar_delta)
    forgetting, implasticity = it.stability_errors(alphas, eta, sigma, deltas, future)
    for k, (a, d) in enumerate(zip(alphas, point_deltas)):
        assert (forgetting[k], implasticity[k]) == dense_stability_errors(a, eta, sigma, d, future)
    if points == [(0.01, 0.0)] and sigma == 0.25211066799565773:
        assert forgetting[0] == 0.0


@settings(max_examples=40, deadline=None)
@given(**_GRID_CASE)
# alpha = 1, delta = 0: U_t = Y_t, so the dense head over (U_t, Y_t) is singular
@example(points=[(1.0, 0.0), (0.5, 0.0)], eta=0.9, sigma=0.5, future=None, scalar_delta=False)
@example(points=[(0.3, 0.2), (1.0, 0.0)], eta=0.0, sigma=0.5, future=None, scalar_delta=False)
@example(points=[(0.3, 0.2), (0.9, 0.2)], eta=0.9, sigma=0.5, future=1, scalar_delta=True)
# alpha -> 1 with delta -> 0 makes (U_t, Y_t) nearly collinear
@example(points=[(0.999999, 1e-6), (0.99999, 0.0)], eta=0.95, sigma=2.0, future=None,
         scalar_delta=False)
def test_reduced_total_is_within_1e_11_of_the_dense_oracle(points, eta, sigma, future,
                                                           scalar_delta):
    # The dense path conditions on the (U_t, Y_t) block, so it loses digits
    # in proportion to that block's condition number (4.5e-6 nats at
    # alpha = 0.999999, delta = 1e-6); the reduced engine does not, and the
    # 40-digit test below pins that point. 1e-16 * cond is 20x the largest
    # dense error seen over 3,000 random points with cond above 1e4.
    alphas, deltas, point_deltas = _grid(points, scalar_delta)
    total = it.total_stability_error(alphas, eta, sigma, deltas, future)
    for k, (a, d) in enumerate(zip(alphas, point_deltas)):
        sc = it.LmsSteadyCovariance(eta, sigma, a, d)
        cond = np.linalg.cond([[sc.u_var(), sc.u_y()], [sc.u_y(), sc.y_var()]])
        dense = sum(dense_stability_errors(a, eta, sigma, d, future))
        assert abs(total[k] - dense) <= 1e-11 + 1e-16 * cond


def test_total_stability_error_grid_contract():
    total = it.total_stability_error(0.4, 0.9, 0.5, 0.1)
    assert type(total) is float
    grid = it.total_stability_error([0.4, 0.7], 0.9, 0.5, 0.1)
    assert grid.shape == (2,) and grid[0] == total
    assert it.total_stability_error(np.array([]), 0.9, 0.5, np.array([])).shape == (0,)


def _mp_dense_total(alpha, eta, sigma, delta, future):
    """Forgetting + implasticity of the dense joint over (U_{t-1}, U_t, Y_t,
    Y_{t+1:t+K}) at 40 digits, on :func:`_mp_lyapunov`'s moments."""
    mp = mpmath.mp
    with mpmath.workdps(40):
        a, e = mp.mpf(alpha), mp.mpf(eta)
        s2 = mp.mpf(sigma) ** 2
        tt, tu, uu = _mp_lyapunov(alpha, eta, sigma, delta)
        n = future + 3
        cov = mp.matrix(n, n)
        cov[0, 0] = cov[1, 1] = uu
        cov[0, 1] = (1 - a) * uu + a * e * tu
        cov[0, 2], cov[1, 2] = e * tu, tu + a * s2
        for k in range(1, future + 1):
            cov[0, 2 + k], cov[1, 2 + k] = e ** (k + 1) * tu, e**k * tu
        for i in range(future + 1):
            for j in range(i, future + 1):
                cov[2 + i, 2 + j] = e ** (j - i) * tt + (s2 if i == j else 0)
        for i in range(n):
            for j in range(i):
                cov[i, j] = cov[j, i]

        def logdet_given(w):
            fut = list(range(3, n))
            S_ww = mp.matrix([[cov[i, j] for j in w] for i in w])
            S_fw = mp.matrix([[cov[i, j] for j in w] for i in fut])
            S_ff = mp.matrix([[cov[i, j] for j in fut] for i in fut])
            return mp.log(mp.det(S_ff - S_fw * mp.inverse(S_ww) * S_fw.T))

        return float((logdet_given([1]) - logdet_given([0, 1, 2])) / 2)


@pytest.mark.parametrize("alpha, eta, sigma, delta, future", [
    (0.3, 0.9, 0.5, math.sqrt(it.delta_star(0.3, 0.9, 0.5, 2.0)), 40),
    (0.8, 0.5, 1.5, 0.05, 7),
    # the dense float path is 4.5e-6 off here (see the property above)
    (0.999999, 0.95, 2.0, 1e-6, 40),
])
def test_reduced_total_matches_a_40_digit_dense_evaluation(alpha, eta, sigma, delta, future):
    reduced = it.total_stability_error(alpha, eta, sigma, delta, future)
    assert abs(reduced - _mp_dense_total(alpha, eta, sigma, delta, future)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.01, 1.0), eta=st.floats(0.0, 0.99), sigma=st.floats(0.0, 2.0),
       delta=st.floats(0.0, 1.0))
def test_head_moments_match_a_lyapunov_solve(alpha, eta, sigma, delta):
    # (theta_t, U_t) = F (theta_{t-1}, U_{t-1}) + noise, with noise from
    # (V_t, alpha*(V_t + W_t) + Q_t); vec(S) = (I - F kron F)^-1 vec(noise cov)
    F = np.array([[eta, 0.0], [alpha * eta, 1.0 - alpha]])
    q = 1.0 - eta * eta
    noise = np.array([[q, alpha * q], [alpha * q, alpha * alpha * (q + sigma**2) + delta**2]])
    S = np.linalg.solve(np.eye(4) - np.kron(F, F), noise.ravel()).reshape(2, 2)
    sc = it.LmsSteadyCovariance(eta, sigma, alpha, delta)
    assert S[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert S[0, 1] == pytest.approx(alpha / (1.0 - (1.0 - alpha) * eta), rel=1e-12)
    assert sc.u_var() == pytest.approx(S[1, 1], rel=1e-12)
    # E[U_t U_{t-1}] = (1-alpha) Var(U) + alpha E[Y_t U_{t-1}], E[Y_t U_{t-1}] = eta * S_thetaU
    assert sc.u_autocov1() == pytest.approx((1.0 - alpha) * S[1, 1] + alpha * eta * S[0, 1],
                                            rel=1e-12)
    assert sc.u_y() == pytest.approx(S[0, 1] + alpha * sigma**2, rel=1e-12)


def test_stability_errors_scalar_call_returns_floats():
    pair = it.stability_errors(0.4, 0.9, 0.5, 0.1)
    assert [type(v) for v in pair] == [float, float]
    assert pair == dense_stability_errors(0.4, 0.9, 0.5, 0.1)
    assert type(it.total_stability_error(0.4, 0.9, 0.5, 0.1)) is float
    forgetting, implasticity = it.stability_errors([0.4], 0.9, 0.5, 0.1)
    assert forgetting.shape == implasticity.shape == (1,)


def _refuse_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("linear algebra ran")

    for name in dir(np.linalg):
        if not name.startswith("_") and callable(getattr(np.linalg, name)) \
                and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    # the K x K factorization calls numpy's Cholesky gufunc directly
    monkeypatch.setattr(np.linalg._umath_linalg, "cholesky_lo", refuse)


@pytest.mark.parametrize("engine", ["stability_errors", "total_stability_error"])
@pytest.mark.parametrize("alphas, sigma, delta", [
    ([0.3, 0.6, 1.2], 0.5, 0.1),
    ([0.3, 0.6, 0.0], 0.5, 0.1),
    ([0.3, 0.6, 0.9], -0.5, 0.1),
    ([0.3, 0.6, 0.9], 0.5, [0.1, 0.2, -1.0]),
])
def test_stability_errors_bad_grid_point_raises_before_any_lapack_call(monkeypatch, alphas,
                                                                        sigma, delta, engine):
    _refuse_linear_algebra(monkeypatch)
    with pytest.raises(ValueError):
        getattr(it, engine)(np.array(alphas), 0.9, sigma, np.array(delta))


# Arguments of every public callable of infotheory but stability_errors, whose
# fig7 bytes are pinned to the dense block engine; "Class.method" holds the
# arguments of a public method, called on the instance.
_PUBLIC_CALLS = {
    "LmsSteadyCovariance": (0.9, 0.5, 0.3, 0.1),
    "LmsSteadyCovariance.u_y_fwd": (2,),
    "LagDecomposition": ([(0.1, 0.2), (0.0, 0.0)], 0.3),
    "default_future_horizon": (0.9,),
    "delta_star": (0.3, 0.9, 0.5, 2.0),
    "delta_star_sq_grad": (0.3, 0.9, 0.5, 2.0),
    "mi_capacity": (0.3, 0.9, 0.5, 0.1, 400),
    "posterior_pred_params": (0.3, 0.9, 0.5, 0.1),
    "optimal_alpha": (0.9, 0.5),
    "total_stability_error": (np.array([0.3, 1.0]), 0.9, 0.5, np.array([0.1, 0.0])),
    "lag_decomposition": (1.0, 0.9, 0.5, 0.0, 40),
    "regret_bound_logit": (100,),
}


def _public_results():
    """{name: value} of each public callable of infotheory, and of each
    public method of its classes, on :data:`_PUBLIC_CALLS`' arguments."""
    out = {}
    for name, obj in vars(it).items():
        if name.startswith("_") or not callable(obj) or obj.__module__ != it.__name__ \
                or name == "stability_errors":
            continue
        value = obj(*_PUBLIC_CALLS[name])
        if not isinstance(obj, type):
            out[name] = value
            continue
        for meth in (m for m in vars(obj) if not m.startswith("_")):  # instances compare by these
            out[f"{name}.{meth}"] = getattr(value, meth)(*_PUBLIC_CALLS.get(f"{name}.{meth}", ()))
    return out


def test_reduced_engines_make_no_linear_algebra_call(monkeypatch):
    expected = _public_results()
    assert {n.split(".")[0] for n in expected} == {n.split(".")[0] for n in _PUBLIC_CALLS}
    _refuse_linear_algebra(monkeypatch)
    with pytest.raises(AssertionError, match="linear algebra ran"):
        np.linalg.solve(np.eye(2), np.ones(2))
    with pytest.raises(AssertionError, match="linear algebra ran"):
        it._logdet_psd(np.eye(2))
    np.testing.assert_equal(_public_results(), expected)
    assert np.all(np.isfinite(expected["total_stability_error"]))


def test_stability_errors_empty_grid_gives_empty_arrays():
    forgetting, implasticity = it.stability_errors(np.array([]), 0.9, 0.5, np.array([]))
    assert forgetting.shape == implasticity.shape == (0,)


def test_total_error_decomposition_matches_direct_absent_information():
    # steady-state forgetting + implasticity equals next-step information
    # missing from the agent state
    for alpha, eta, sigma, cap in ((0.4, 0.9, 0.5, 1.0), (0.7, 0.8, 1.0, 2.0)):
        delta = math.sqrt(it.delta_star(alpha, eta, sigma, cap))
        total = it.total_stability_error(alpha, eta, sigma, delta)
        direct = informational_error(alpha, eta, sigma, delta, past=400)
        assert total == pytest.approx(direct, abs=1e-9)


def test_informational_error_two_evaluation_routes_agree():
    # route 1: conditional-MI evaluation; route 2: entropy-difference form
    # 0.5 * ln(Var(Y|U) / Var(Y|past)) with the past long enough that the
    # state adds nothing beyond it
    alpha, eta, sigma, delta = 0.5, 0.9, 0.5, 0.2
    past = 300
    route1 = informational_error(alpha, eta, sigma, delta, past)
    sc = it.LmsSteadyCovariance(eta, sigma, alpha, delta)
    var_given_state = it.posterior_pred_params(alpha, eta, sigma, delta)[1]
    lags = np.arange(past, 0, -1, dtype=float)
    past_block = y_block(sc, np.arange(past))
    cross = np.power(eta, lags)
    var_given_past = sc.y_var() - cross @ np.linalg.solve(past_block, cross)
    route2 = 0.5 * math.log(var_given_state / var_given_past)
    assert route1 == pytest.approx(route2, abs=1e-9)


def test_prediction_error_decomposes_into_info_and_inference_terms():
    # With a miscalibrated linear readout, total prediction error splits into
    # the informational part plus the divergence of the readout from the
    # state-optimal prediction; all three evaluated in closed form.
    alpha, eta, sigma, delta, past = 0.5, 0.9, 0.5, 0.2, 300
    sc = it.LmsSteadyCovariance(eta, sigma, alpha, delta)
    slope, var_u = it.posterior_pred_params(alpha, eta, sigma, delta)
    u2 = sc.u_var()
    bad_slope, bad_var = slope * 1.4, var_u * 1.3

    lags = np.arange(past, 0, -1, dtype=float)
    past_block = y_block(sc, np.arange(past))
    cross = np.power(eta, lags)
    var_h = sc.y_var() - cross @ np.linalg.solve(past_block, cross)

    # E[(Y - c U)^2] from second moments
    mse_bad = sc.y_var() - 2 * bad_slope * sc.u_y_fwd(1) + bad_slope**2 * u2
    pred_err = 0.5 * math.log(bad_var / var_h) + (mse_bad / bad_var - 1.0) / 2.0
    info_err = 0.5 * math.log(var_u / var_h)
    mse_opt = sc.y_var() - 2 * slope * sc.u_y_fwd(1) + slope**2 * u2
    infer_err = (0.5 * math.log(bad_var / var_u)
                 + (mse_opt + (slope - bad_slope) ** 2 * u2) / (2 * bad_var)
                 - 0.5)
    assert pred_err == pytest.approx(info_err + infer_err, abs=1e-9)
    assert infer_err > 0.0


def test_data_processing_bound_on_state_information():
    # next-step information through the state never exceeds what the state
    # holds about history
    for alpha in (0.2, 0.5, 0.9):
        for cap in (0.5, 2.0):
            delta = math.sqrt(it.delta_star(alpha, 0.9, 0.5, cap))
            sc = it.LmsSteadyCovariance(0.9, 0.5, alpha, delta)
            cov = np.array([[sc.u_var(), sc.u_y_fwd(1)], [sc.u_y_fwd(1), sc.y_var()]])
            i_next = gaussian_cond_mi(cov, [0], [1])
            i_hist = it.mi_capacity(alpha, 0.9, 0.5, delta, 300)
            assert i_next <= i_hist + 1e-10


# -- exact finite-horizon decomposition ------------------------------------------

def test_lag_decomposition_identity():
    d = it.lag_decomposition(0.5, 0.9, 0.5, 0.2, t=6)
    assert d.total() == pytest.approx(d.absent_info, abs=1e-9)
    assert all(f >= -1e-10 and i >= -1e-10 for f, i in d.terms)


def test_lag_decomposition_no_forgetting_without_noise():
    d = it.lag_decomposition(0.4, 0.9, 0.5, 0.0, t=6)
    assert all(abs(f) < 1e-9 for f, _ in d.terms)


def test_lag_decomposition_base_cases():
    d0 = it.lag_decomposition(0.5, 0.9, 0.5, 0.1, t=0)
    assert d0.terms == [(0.0, 0.0)] and d0.absent_info == 0.0
    d1 = it.lag_decomposition(0.5, 0.9, 0.5, 0.1, t=1)
    # single nontrivial lag: implasticity_0 carries all absent information
    assert d1.terms[0][1] == pytest.approx(d1.absent_info, abs=1e-12)
    assert d1.terms[0][0] == pytest.approx(0.0, abs=1e-12)
    for t in (13, 200):  # no horizon cap: the filter builds no joint
        d = it.lag_decomposition(0.5, 0.9, 0.5, 0.1, t)
        assert len(d.terms) == t + 1 and abs(d.total() - d.absent_info) <= 1e-12


@pytest.mark.parametrize("alpha, eta, sigma, delta", [
    (0.5, 1.5, 0.5, 0.1), (0.5, 1.0, 0.5, 0.1), (0.5, -0.1, 0.5, 0.1), (0.5, math.nan, 0.5, 0.1),
    (1.5, 0.9, 0.5, 0.1), (0.0, 0.9, 0.5, 0.1), (math.nan, 0.9, 0.5, 0.1),
    (0.5, 0.9, math.nan, 0.1), (0.5, 0.9, math.inf, 0.1), (0.5, 0.9, -0.5, 0.1),
    (0.5, 0.9, 0.5, math.nan), (0.5, 0.9, 0.5, math.inf), (0.5, 0.9, 0.5, -0.1),
])
def test_lag_decomposition_rejects_points_outside_the_steady_state_range(alpha, eta, sigma, delta):
    with pytest.raises(ValueError, match="must lie in|nonnegative and finite"):
        it.lag_decomposition(alpha, eta, sigma, delta, 4)


def _filter_cond(eta, sigma):
    """Var Y over the smallest predictive variance zeta^2 + sigma^2: the factor
    by which the filter's unit-scale head variances reach the log-ratios."""
    return (1.0 + sigma * sigma) / (1.0 - eta * eta + sigma * sigma)


def _max_gap(d, ref_terms, ref_absent):
    return max([abs(x - y) for p, q in zip(d.terms, ref_terms) for x, y in zip(p, q)]
               + [abs(d.absent_info - ref_absent)])


@settings(max_examples=40, deadline=None)
@given(alpha=st.one_of(st.just(1.0), st.floats(0.01, 1.0)), eta=st.floats(0.0, 0.99),
       sigma=st.floats(0.05, 2.0), delta=st.floats(0.01, 1.0), t=st.integers(1, 12))
@example(alpha=1.0, eta=0.99, sigma=0.05, delta=0.01, t=12)
@example(alpha=0.01, eta=0.0, sigma=2.0, delta=1.0, t=12)
def test_filtered_lag_decomposition_equals_the_dense_oracle(alpha, eta, sigma, delta, t):
    # The dense engine's Schur complements lose digits in proportion to the
    # joint's condition number (at most 0.22 eps * cond over 3,000 random
    # points); the filter stays within 0.7 eps * _filter_cond of 40 digits.
    # delta = 0 makes the joint singular, so the 40-digit test below pins it.
    dense = dense_lag_decomposition(alpha, eta, sigma, delta, t)
    cond = np.linalg.cond(lag_joint(alpha, eta, sigma, delta, t))
    d = it.lag_decomposition(alpha, eta, sigma, delta, t)
    tol = 2 * _EPS * (cond + _filter_cond(eta, sigma))
    assert _max_gap(d, dense.terms, dense.absent_info) <= tol


def _mp_lag_decomposition(alpha, eta, sigma, delta, t):
    """(terms, absent information) at 40 digits. Each variable is its row of
    coefficients on the independent unit sources (theta_0, U_0, V_j, W_j,
    Q_j); Var(Y_{t+1} | S) is the squared distance of Y_{t+1}'s row from
    the span of S's rows by Gram-Schmidt, and a row within 1e-30 of the span
    already built (U_j = Y_j at alpha = 1, delta = 0) adds nothing."""
    mp = mpmath.mp
    with mpmath.workdps(40):
        a, e, s, d = (mp.mpf(v) for v in (alpha, eta, sigma, delta))
        n = 2 + 2 * (t + 1) + t

        def source(i):
            row = [mp.zero] * n
            row[i] = mp.one
            return row

        theta, us, ys = source(0), [source(1)], []
        for j in range(1, t + 2):
            theta = [e * x for x in theta]
            theta[1 + j] += mp.sqrt(1 - e * e)
            ys.append(list(theta))
            ys[-1][t + 2 + j] += s
            if j <= t:
                us.append([(1 - a) * p + a * q for p, q in zip(us[-1], ys[-1])])
                us[-1][2 * t + 3 + j] += d

        def residual(row, basis):
            for b in basis:
                c = mp.fdot(row, b)
                row = [x - c * y for x, y in zip(row, b)]
            return row

        def var_given(rows):
            basis = []
            for row in rows:
                row = residual(row, basis)
                norm = mp.sqrt(mp.fdot(row, row))
                if norm > mp.mpf(10) ** -30:
                    basis.append([x / norm for x in row])
            res = residual(ys[t], basis)
            return mp.fdot(res, res)

        def mi(z, given):
            return float(mp.log(var_given(given) / var_given(given + z)) / 2)

        terms = []
        for j in range(t, 0, -1):
            later = ys[j:t]  # Y_{j+1:t}
            terms.append((mi([us[j - 1]], [us[j], ys[j - 1]] + later),
                          mi([ys[j - 1]], [us[j]] + later)))
        terms.append((0.0, 0.0))
        return terms, mi(ys[:t], [us[t]])


@pytest.mark.parametrize("alpha, eta, sigma, delta, t", [
    (1.0, 0.9, 0.5, 0.0, 8),  # U_j = Y_j: R_j is exactly 0
    (1.0, 0.99, 0.05, 0.0, 6),
    (1.0, 0.9, 0.0, 0.0, 4),  # U_j = Y_j = theta_j: nothing is absent
    # (U_j, Y_j) nearly collinear: the dense oracle is 8.6e-13 off here
    (0.997950292, 0.814406616, 0.788005643, 0.0, 6),
    (0.3, 0.9, 0.0, 0.2, 4),
])
def test_lag_decomposition_matches_a_40_digit_evaluation(alpha, eta, sigma, delta, t):
    terms, absent = _mp_lag_decomposition(alpha, eta, sigma, delta, t)
    d = it.lag_decomposition(alpha, eta, sigma, delta, t)
    assert _max_gap(d, terms, absent) <= 4 * _EPS * _filter_cond(eta, sigma)


# -- one domain for the Gaussian engines -------------------------------------------

def _lag_values(alpha, eta, sigma, delta):
    d = it.lag_decomposition(alpha, eta, sigma, delta, 5)
    return [x for pair in d.terms for x in pair] + [d.absent_info]


_ENGINES = {
    "mi_capacity": lambda *point: [it.mi_capacity(*point, 5)],
    "posterior_pred_params": it.posterior_pred_params,
    "total_stability_error": lambda *point: [it.total_stability_error(*point, 4)],
    "stability_errors": lambda *point: it.stability_errors(*point, 4),
    "lag_decomposition": _lag_values,
}
_SCALE = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))


@pytest.mark.parametrize("engine", list(_ENGINES))
@settings(max_examples=150, deadline=None)
@given(alpha=st.one_of(st.just(1.0), st.floats(1e-300, 1.0)),
       eta=st.one_of(st.just(0.0), st.floats(0.0, 0.99)), sigma=_SCALE, delta=_SCALE)
@example(alpha=0.5, eta=0.9, sigma=1e78, delta=0.1)  # lag terms were NaN
@example(alpha=0.5, eta=0.9, sigma=1e200, delta=0.1)  # sigma**2 raised OverflowError
@example(alpha=1e-6, eta=0.5, sigma=1.0, delta=1e153)  # Var(U) was inf
@example(alpha=1.0, eta=0.5, sigma=1e77, delta=1e-100)  # Var(U) / delta^2 overflowed
@example(alpha=1e-17, eta=0.5, sigma=1.0, delta=0.1)  # 1 - (1 - alpha)^2 divided by zero
def test_gaussian_engines_raise_value_error_or_return_finite_values(engine, alpha, eta, sigma,
                                                                     delta):
    # A RuntimeWarning is an error under the test configuration, so no
    # overflow may pass by a warning either.
    try:
        values = _ENGINES[engine](alpha, eta, sigma, delta)
    except ValueError:
        return
    if engine == "mi_capacity" and alpha == 1.0 and delta * delta == 0.0:
        return  # U_t = Y_t: the window fixes the state, and +inf is exact
    assert all(math.isfinite(v) for v in values)


_CLOSED_FORMS = {
    "optimal_alpha": lambda alpha, eta, sigma, capacity: it.optimal_alpha(eta, sigma),
    "delta_star": it.delta_star,
    "delta_star_sq_grad": it.delta_star_sq_grad,
}
# Each used to raise OverflowError or ZeroDivisionError, or return NaN or inf;
# optimal_alpha(0.5, inf) returned 0.5 for a sigma outside its domain.
_NON_FINITE_CLOSED_FORMS = [
    *[("optimal_alpha", (0.9, sigma)) for sigma in (1e-160, 1e-200, 1e200)],
    *[("optimal_alpha", (0.5, sigma)) for sigma in (math.inf, math.nan)],
    *[(form, (0.5, 0.9, sigma, 1.0)) for form in ("delta_star", "delta_star_sq_grad")
      for sigma in (1e160, math.inf, math.nan)],
]


@pytest.mark.parametrize("form, args", _NON_FINITE_CLOSED_FORMS)
def test_closed_forms_refuse_what_they_cannot_return_finite(form, args):
    with pytest.raises(ValueError):
        getattr(it, form)(*args)


@pytest.mark.parametrize("form", list(_CLOSED_FORMS))
@settings(max_examples=150, deadline=None)
@given(alpha=st.floats(), eta=st.floats(), sigma=st.floats(), capacity=st.floats())
@example(alpha=1e-300, eta=1.0, sigma=0.0, capacity=1e-16)  # 1 - (1 - alpha) * eta was 0
@example(alpha=0.5, eta=0.9, sigma=1e-160, capacity=1.0)
@example(alpha=0.5, eta=0.9, sigma=1e-200, capacity=1.0)
@example(alpha=0.5, eta=0.9, sigma=1e200, capacity=1.0)
@example(alpha=0.5, eta=0.9, sigma=1e160, capacity=1.0)
@example(alpha=0.5, eta=0.5, sigma=math.inf, capacity=1.0)
@example(alpha=0.5, eta=0.5, sigma=math.nan, capacity=1.0)
def test_closed_forms_raise_value_error_or_return_finite_values(form, alpha, eta, sigma,
                                                                capacity):
    try:
        value = _CLOSED_FORMS[form](alpha, eta, sigma, capacity)
    except ValueError:
        return
    assert math.isfinite(value)


def test_engines_refuse_overflowing_moments_and_keep_the_finite_ones():
    with pytest.raises(ValueError, match="noise scales too large"):
        it.lag_decomposition(0.5, 0.9, 1e78, 0.1, 5)
    with pytest.raises(ValueError, match="noise scales too large"):
        it.stability_errors(0.5, 0.9, 1e200, 0.1, 4)
    with pytest.raises(ValueError, match="noise scales too large"):
        it.LmsSteadyCovariance(0.5, 1.0, 1e-6, 1e153)
    # Var(U) * Var(Y) overflows here, but neither engine forms that product.
    assert it.mi_capacity(0.5, 0.9, 1e78, 0.1, 5) == pytest.approx(math.log(1024) / 2,
                                                                   rel=1e-15)
    assert all(map(math.isfinite, it.posterior_pred_params(0.5, 0.9, 1e78, 0.1)))


# -- regret bounds ----------------------------------------------------------------

def test_regret_bound_entropy_values():
    assert regret_bound_entropy(math.log(2.0), 100) == pytest.approx(0.0069314718, abs=1e-9)
    assert regret_bound_entropy(5.0, 10**9) < 1e-8
    with pytest.raises(ValueError):
        regret_bound_entropy(-1.0, 10)
    with pytest.raises(ValueError):
        regret_bound_entropy(1.0, 0)


def test_stability_errors_hold_one_k_by_k_workspace():
    # K = 512: the future block is a Toeplitz view of 2K+1 floats, and every
    # conditioning builds its Schur result in the call's one K x K workspace,
    # which the Cholesky factor then overwrites in place (numpy's internal
    # Cholesky buffer is not traced).
    K = it.default_future_horizon(0.99)
    assert K == 512
    tracemalloc.start()
    try:
        it.stability_errors([0.3, 0.6], 0.99, 0.5, [0.1, 0.2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * K * K * 8


# Run in a fresh interpreter: records the matrices fig7's stability_errors
# factors at its three horizons (K = 132, 270, 512), adds random SPD ones, and
# prints the shapes seen and the indices where _logdet_psd is not bit-equal to
# the log-diagonal of np.linalg.cholesky's factor (or the input not symmetric).
_LOGDET_BITS = """
import json, math, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from contilab import infotheory as it

logdet, mats = it._logdet_psd, []
it._logdet_psd = lambda mat, *work: mats.append(np.array(mat)) or logdet(mat, *work)
for eta in (0.9, 0.95, 0.99):
    alphas = np.array([0.02, 0.5, 0.98])
    deltas = np.array([math.sqrt(it.delta_star(a, eta, 0.5, 2.0)) for a in alphas])
    it.stability_errors(alphas, eta, 0.5, deltas)
rng = np.random.default_rng(20_230_710)
for n in (1, 2, 3, 17, 64, 200, 512):
    a = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0, n)
    m = a @ a.T + 1e-3 * np.eye(n)
    mats.append((m + m.T) / 2)
mats.append(1.0 / (np.arange(8.0)[:, None] + np.arange(8.0) + 1.0))  # Hilbert, cond 1e10
bad = [i for i, m in enumerate(mats) if not np.array_equal(m, m.T)
       or logdet(m) != 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(m)))))]
print(json.dumps([len(mats), sorted({m.shape[0] for m in mats}), bad]))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_logdet_psd_equals_the_public_cholesky_bit_for_bit(threads):
    # _logdet_psd factors the transposed input into a column-major factor
    # through numpy's gufunc; potrf sees the wrapper's operands, so the bits
    # must be the wrapper's at each OpenBLAS thread count (read when numpy
    # loads, hence a fresh interpreter per count).
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", _LOGDET_BITS, str(src)], capture_output=True,
                          text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [44, [1, 2, 3, 8, 17, 64, 132, 200, 270, 512], []]


def test_logdet_psd_of_a_rank_deficient_input_takes_the_ridge_path(monkeypatch):
    mat = np.ones((3, 3))  # rank 1: potrf meets an exactly zero pivot
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(mat)
    w = np.linalg.eigvalsh(mat)
    ridge = 1e-12 * float(np.trace(mat)) / 3
    expected = float(np.sum(np.log(w + (ridge - w[0]))))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    assert it._logdet_psd(mat) == expected
    assert len(calls) == 1


@pytest.mark.parametrize("alpha, delta, eigh_calls", [
    (0.3, 0.1, 0),  # the head's Cholesky accepts: the LU solve
    (1.0, 0.0, 1),  # U_t = Y_t: the head is singular, the pseudo-inverse
])
@pytest.mark.parametrize("K", [40, 300])  # 300: tiles of 128, 128 and 44 rows
def test_schur_complement_in_a_workspace_equals_the_fresh_array(monkeypatch, alpha, delta,
                                                                eigh_calls, K):
    # stability_errors reuses one K x K workspace for every conditioning; a
    # fresh 2 MiB array per call at K = 512 costs a page fault per 4 KiB.
    cov = stability_joint(it.LmsSteadyCovariance(0.9, 0.5, alpha, delta), K)
    blocks = cov[3:, 3:], cov[3:, :3], cov[:3, :3]
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    fresh = it._schur_complement(*blocks)
    work = np.full((K, K), np.nan)
    got = it._schur_complement(*blocks, work)
    assert len(calls) == 2 * eigh_calls
    assert np.array_equal(got, fresh)
    assert np.array_equal(fresh, fresh.T)
    assert got is work  # the product, the residual and its symmetrization went in place

    def refill():
        raise AssertionError("a factorization that succeeds needs no refill")

    assert it._logdet_psd(got, refill) == it._logdet_psd(fresh)
    assert np.array_equal(work.T, np.linalg.cholesky(fresh))  # and then the factor


def test_a_residual_potrf_rejects_is_rebuilt_for_one_eigvalsh(monkeypatch):
    # X is one variable repeated 4 times, so its residual given W is exactly
    # ones((4, 4)): rank 1, where potrf meets an exactly zero pivot and, in
    # place, leaves NaN in the workspace. The fallback must see the residual
    # again, exactly symmetric, and return the fresh path's bits.
    blocks = np.full((4, 4), 1.25), np.full((4, 1), 0.5), np.ones((1, 1))
    w = np.linalg.eigvalsh(np.ones((4, 4)))
    expected = float(np.sum(np.log(w + (1e-12 - w[0]))))  # trace/n = 1
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(np.array(m)) or eigvalsh(m))
    assert it._logdet_psd(it._schur_complement(*blocks)) == expected
    assert len(calls) == 1 and np.array_equal(calls[0], np.ones((4, 4)))
    work, refills = np.empty((4, 4)), []

    def refill():
        refills.append(np.array(work))
        return it._schur_complement(*blocks, work)

    assert it._logdet_psd(it._schur_complement(*blocks, work), refill) == expected
    assert len(refills) == 1 and np.isnan(refills[0]).all()  # potrf overwrote the residual
    assert len(calls) == 2 and np.array_equal(calls[1], np.ones((4, 4)))  # symmetric


def test_regret_bound_logit_values():
    assert it.regret_bound_logit(100) == pytest.approx((math.log(201) + 1) / 200, abs=1e-15)
    assert it.regret_bound_logit(100) == pytest.approx(0.0315165245, abs=1e-9)
    assert it.regret_bound_logit(1) == pytest.approx(1.0493061443, abs=1e-9)
    # logit_regret's default horizons keep their bits
    assert it.regret_bound_logit(10) == float.fromhex("0x1.9e28ba9f2f226p-3")
    assert it.regret_bound_logit(100) == float.fromhex("0x1.022ef145e48ecp-5")


@pytest.mark.parametrize("horizon", [2**1023 - 1, 2**1023, 2**1024 - 1, 2**1024, 10**400,
                                     math.inf, math.nan])
def test_regret_bound_logit_rejects_horizons_beyond_the_float_range(horizon):
    with pytest.raises(ValueError, match="finite float"):
        it.regret_bound_logit(horizon)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**1023 - 2**970))
@example(1)
@example(2**53 + 1)  # 1 + 2T rounds
@example(2**1022)  # 2T = 2^1023; 2^1023 overflows 2T to inf
@example(2**1023 - 2**970)  # the largest float T with 2T finite
def test_regret_bound_logit_matches_40_digits(horizon):
    # ln(1 + 2T) + 1 > 2 adds no cancellation: cond 1 (at most 1.1 ulps seen)
    with mpmath.workdps(40):
        two_t = 2 * mpmath.mpf(horizon)
        ref = float((mpmath.log(1 + two_t) + 1) / two_t)
    assert abs(it.regret_bound_logit(horizon) - ref) <= 4 * _EPS * ref


def nats_to_bits(x: float) -> float:
    return x / math.log(2.0)


def bits_to_nats(x: float) -> float:
    return x * math.log(2.0)


def test_unit_conversion_round_trip():
    assert nats_to_bits(math.log(2.0)) == pytest.approx(1.0)
    assert bits_to_nats(nats_to_bits(0.37)) == pytest.approx(0.37)
