import math

import numpy as np
import pytest
from _oracles import batch_stderr, simulate_tracker, stability_joint
from _oracles import stability_errors as dense_stability_errors
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contilab import infotheory as it
from contilab.errors import NumericError
from contilab.rng import RngStream


def random_psd(gen, n):
    a = gen.standard_normal((n, n + 2))
    return a @ a.T + 0.1 * np.eye(n)


# -- steady-state covariances --------------------------------------------------

def test_observation_autocovariance_closed_form():
    sc = it.steady_cov(0.9, 1.0, 0.5, 0.1)
    assert sc.y_autocov(3) == pytest.approx(0.729, abs=1e-15)
    assert sc.y_var() == pytest.approx(2.0)


def test_state_observation_cross_moment_hand_value():
    sc = it.steady_cov(eta=0.8, sigma=1.0, alpha=0.5, delta=0.0)
    # E[U_t Y_{t+2}] = alpha * eta^2 / (1 - (1-alpha)*eta)
    assert sc.u_y_fwd(2) == pytest.approx(0.5 * 0.64 / 0.6, rel=1e-12)
    # E[U_t Y_t] = alpha*sigma^2 + alpha / (1 - (1-alpha)*eta)
    assert sc.u_y_back(0) == pytest.approx(0.5 * 1.0 + 0.5 / 0.6, rel=1e-12)


def test_steady_cov_rejects_zero_stepsize():
    with pytest.raises(ValueError):
        it.steady_cov(0.9, 1.0, 0.0, 0.1)


def test_steady_cov_blocks_are_psd():
    for alpha, eta, sigma, delta in ((0.3, 0.9, 0.5, 0.2), (0.999, 0.1, 1.0, 0.0), (0.05, 0.97, 0.3, 0.4)):
        sc = it.steady_cov(eta, sigma, alpha, delta)
        for model in (sc.capacity_joint(40), stability_joint(sc, 40)):
            eigs = np.linalg.eigvalsh(model.cov)
            assert eigs[0] > -1e-10


def test_merged_roots_branch_continuous():
    # eta == 1 - alpha hits the removable singularity
    sc_at = it.steady_cov(eta=0.6, sigma=0.5, alpha=0.4, delta=0.1)
    sc_near = it.steady_cov(eta=0.6 + 1e-7, sigma=0.5, alpha=0.4, delta=0.1)
    assert sc_at.u_y_back(3) == pytest.approx(sc_near.u_y_back(3), rel=1e-5)
    assert sc_at.u_var() == pytest.approx(sc_near.u_var(), rel=1e-5)


def test_closed_form_moments_match_simulation():
    alpha, eta, sigma, delta = 0.45, 0.85, 0.6, 0.25
    ys, us = simulate_tracker(alpha, eta, sigma, delta, 400_000, seed=1)
    sc = it.steady_cov(eta, sigma, alpha, delta)
    checks = [
        (ys * ys, sc.y_var()),
        (ys[:-2] * ys[2:], sc.y_autocov(2)),
        (us * us, sc.u_var()),
        (us[:-1] * us[1:], sc.u_autocov1()),
        (us[1:] * ys[:-1], sc.u_y_back(1)),
        (us[:-1] * ys[1:], sc.u_y_fwd(1)),
    ]
    for prod, predicted in checks:
        assert abs(prod.mean() - predicted) < 3.5 * batch_stderr(prod)


# -- conditional mutual information --------------------------------------------

def test_independent_coordinates_zero_mi():
    cov = np.diag([1.0, 2.0, 3.0])
    assert abs(it.gaussian_cond_mi(cov, [0], [1])) < 1e-12
    assert abs(it.gaussian_cond_mi(cov, [0], [2], [1])) < 1e-12


def test_chain_rule_identity_random_psd():
    gen = RngStream(2).generator()
    for _ in range(20):
        cov = random_psd(gen, 6)
        lhs = it.gaussian_cond_mi(cov, [0, 1], [2, 3, 4, 5])
        rhs = it.gaussian_cond_mi(cov, [0, 1], [4, 5]) + it.gaussian_cond_mi(cov, [0, 1], [2, 3], [4, 5])
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_mi_symmetry_and_nonnegativity():
    gen = RngStream(3).generator()
    for _ in range(20):
        cov = random_psd(gen, 5)
        a = it.gaussian_cond_mi(cov, [0, 1], [2, 3], [4])
        b = it.gaussian_cond_mi(cov, [2, 3], [0, 1], [4])
        assert a == pytest.approx(b, abs=1e-10)
        assert a > -1e-10


def test_indefinite_covariance_reports_eigenvalue():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(NumericError, match="eigenvalue"):
        it.gaussian_cond_mi(bad, [0], [1])


def test_joint_model_validation():
    with pytest.raises(ValueError, match="symmetric"):
        it.GaussianJointModel(("a", "b"), np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        it.GaussianJointModel(("a",), np.eye(2))


def test_markov_chain_mi_against_explicit_covariance():
    # X = Y + X', Z = Y + Z' with unit variances: I(X;Y) = I(Z;Y) = ln(2)/2
    cov = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    direct = it.gaussian_cond_mi(cov, [0], [2])
    assert direct == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)
    assert it.chain_mi(0.5 * math.log(2.0), 0.5 * math.log(2.0)) == pytest.approx(direct, abs=1e-12)
    assert direct == pytest.approx(0.1438410362, abs=1e-9)


def test_chain_mi_limits_and_monotonicity():
    assert it.chain_mi(0.7, 50.0) == pytest.approx(0.7, abs=1e-6)
    grid = [0.1, 0.3, 0.9, 2.0]
    vals = [it.chain_mi(x, 0.5) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    vals = [it.chain_mi(0.5, x) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        it.chain_mi(0.0, 1.0)


# -- capacity noise -------------------------------------------------------------

def test_delta_star_limits():
    assert it.delta_star(0.5, 0.9, 0.5, 200.0) < 1e-100
    assert it.delta_star(1e-8, 0.9, 0.5, 1.0) < 1e-14
    with pytest.raises(ValueError):
        it.delta_star(0.5, 0.9, 0.5, 0.0)


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


def test_mi_capacity_monotone_in_history_and_noise():
    vals = [it.mi_capacity(0.4, 0.9, 0.5, 0.3, n) for n in (1, 2, 5, 20, 80)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert it.mi_capacity(0.4, 0.9, 0.5, 1e6, 50) < 1e-10


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


def test_optimal_alpha_value_and_limits():
    # root of a_c + 1/a_c = eta + 1/eta + 1/(sigma^2 eta) - eta/sigma^2
    assert it.optimal_alpha(0.9, 0.5) == pytest.approx(0.5913146531, abs=1e-9)
    assert it.optimal_alpha(0.95, 0.5) == pytest.approx(0.4685749286, abs=1e-9)
    assert it.optimal_alpha(0.999999, 0.5) < 0.005
    with pytest.raises(ValueError):
        it.optimal_alpha(1.0, 0.5)
    with pytest.raises(ValueError):
        it.optimal_alpha(0.0, 0.5)


def test_optimal_alpha_minimizes_conditional_residual():
    star = it.optimal_alpha(0.9, 0.5)
    grid = np.arange(0.05, 1.0, 0.01)
    resid = [it.posterior_pred_params(a, 0.9, 0.5, 0.0)[1] for a in grid]
    assert grid[int(np.argmin(resid))] == pytest.approx(star, abs=0.01)
    info = [it.informational_error(a, 0.9, 0.5, 0.0, past=200) for a in grid]
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


@settings(max_examples=40, deadline=None)
@given(points=st.lists(_grid_point, min_size=1, max_size=20),
       eta=st.one_of(st.sampled_from([0.5, 0.9, 0.95]), st.floats(0.0, 0.95)),
       sigma=st.floats(0.1, 2.0),
       future=st.one_of(st.sampled_from([1, 2, 3, None]), st.integers(4, 40)),
       scalar_delta=st.booleans())
@example(points=[(0.2, 0.0), (0.5, 0.0), (0.8, 0.3)], eta=0.9, sigma=0.5, future=None,
         scalar_delta=False)
def test_stability_engine_slices_equal_the_dense_oracle(points, eta, sigma, future, scalar_delta):
    alphas = np.array([a for a, _ in points])
    deltas = points[0][1] if scalar_delta else np.array([d for _, d in points])
    forgetting, implasticity = it.stability_errors(alphas, eta, sigma, deltas, future)
    for k, a in enumerate(alphas):
        d = deltas if scalar_delta else deltas[k]
        assert (forgetting[k], implasticity[k]) == dense_stability_errors(a, eta, sigma, d, future)


def test_stability_errors_scalar_call_returns_floats():
    pair = it.stability_errors(0.4, 0.9, 0.5, 0.1)
    assert [type(v) for v in pair] == [float, float]
    assert pair == dense_stability_errors(0.4, 0.9, 0.5, 0.1)
    assert type(it.total_stability_error(0.4, 0.9, 0.5, 0.1)) is float
    forgetting, implasticity = it.stability_errors([0.4], 0.9, 0.5, 0.1)
    assert forgetting.shape == implasticity.shape == (1,)


@pytest.mark.parametrize("alphas, sigma, delta", [
    ([0.3, 0.6, 1.2], 0.5, 0.1),
    ([0.3, 0.6, 0.0], 0.5, 0.1),
    ([0.3, 0.6, 0.9], -0.5, 0.1),
    ([0.3, 0.6, 0.9], 0.5, [0.1, 0.2, -1.0]),
])
def test_stability_errors_bad_grid_point_raises_before_any_lapack_call(monkeypatch, alphas,
                                                                        sigma, delta):
    def refuse(*args, **kwargs):
        raise AssertionError("linear algebra ran before validation")

    for name in ("cholesky", "solve", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(ValueError):
        it.stability_errors(np.array(alphas), 0.9, sigma, np.array(delta))


def test_stability_errors_empty_grid_gives_empty_arrays():
    forgetting, implasticity = it.stability_errors(np.array([]), 0.9, 0.5, np.array([]))
    assert forgetting.shape == implasticity.shape == (0,)


def test_total_error_decomposition_matches_direct_absent_information():
    # steady-state forgetting + implasticity equals next-step information
    # missing from the agent state
    for alpha, eta, sigma, cap in ((0.4, 0.9, 0.5, 1.0), (0.7, 0.8, 1.0, 2.0)):
        delta = math.sqrt(it.delta_star(alpha, eta, sigma, cap))
        total = it.total_stability_error(alpha, eta, sigma, delta)
        direct = it.informational_error(alpha, eta, sigma, delta, past=400)
        assert total == pytest.approx(direct, abs=1e-9)


def test_informational_error_two_evaluation_routes_agree():
    # route 1: conditional-MI evaluation; route 2: entropy-difference form
    # 0.5 * ln(Var(Y|U) / Var(Y|past)) with the past long enough that the
    # state adds nothing beyond it
    alpha, eta, sigma, delta = 0.5, 0.9, 0.5, 0.2
    past = 300
    route1 = it.informational_error(alpha, eta, sigma, delta, past)
    sc = it.steady_cov(eta, sigma, alpha, delta)
    var_given_state = it.posterior_pred_params(alpha, eta, sigma, delta)[1]
    lags = np.arange(past, 0, -1, dtype=float)
    y_block = sc._y_block(np.arange(past))
    cross = np.power(eta, lags)
    var_given_past = sc.y_var() - cross @ np.linalg.solve(y_block, cross)
    route2 = 0.5 * math.log(var_given_state / var_given_past)
    assert route1 == pytest.approx(route2, abs=1e-9)


def test_prediction_error_decomposes_into_info_and_inference_terms():
    # With a miscalibrated linear readout, total prediction error splits into
    # the informational part plus the divergence of the readout from the
    # state-optimal prediction; all three evaluated in closed form.
    alpha, eta, sigma, delta, past = 0.5, 0.9, 0.5, 0.2, 300
    sc = it.steady_cov(eta, sigma, alpha, delta)
    slope, var_u = it.posterior_pred_params(alpha, eta, sigma, delta)
    u2 = sc.u_var()
    bad_slope, bad_var = slope * 1.4, var_u * 1.3

    lags = np.arange(past, 0, -1, dtype=float)
    y_block = sc._y_block(np.arange(past))
    cross = np.power(eta, lags)
    var_h = sc.y_var() - cross @ np.linalg.solve(y_block, cross)

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
            sc = it.steady_cov(0.9, 0.5, alpha, delta)
            cov = np.array([[sc.u_var(), sc.u_y_fwd(1)], [sc.u_y_fwd(1), sc.y_var()]])
            i_next = it.gaussian_cond_mi(cov, [0], [1])
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
    with pytest.raises(ValueError):
        it.lag_decomposition(0.5, 0.9, 0.5, 0.1, t=13)


# -- regret bounds ----------------------------------------------------------------

def test_regret_bound_entropy_values():
    assert it.regret_bound_entropy(math.log(2.0), 100) == pytest.approx(0.0069314718, abs=1e-9)
    assert it.regret_bound_entropy(5.0, 10**9) < 1e-8
    with pytest.raises(ValueError):
        it.regret_bound_entropy(-1.0, 10)
    with pytest.raises(ValueError):
        it.regret_bound_entropy(1.0, 0)


def test_regret_bound_logit_values():
    assert it.regret_bound_logit(100) == pytest.approx((math.log(201) + 1) / 200, abs=1e-15)
    assert it.regret_bound_logit(100) == pytest.approx(0.0315165245, abs=1e-9)
    assert it.regret_bound_logit(1) == pytest.approx(1.0493061443, abs=1e-9)


def test_unit_conversion_round_trip():
    assert it.nats_to_bits(math.log(2.0)) == pytest.approx(1.0)
    assert it.bits_to_nats(it.nats_to_bits(0.37)) == pytest.approx(0.37)
