import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misclass_prev import (
    AssayProfile,
    ErrorRates,
    bec_marginal_loglik,
    liu_loglik,
    logistic,
    std_loglik,
)

from misclass_prev.likelihoods import OutcomeEntries, mixture_loglik

from conftest import fd_gradient, random_logit_data


class TestLogistic:
    def test_known_values(self):
        assert logistic(0.0) == 0.5
        assert logistic(np.log(3.0)) == pytest.approx(0.75)

    @given(st.floats(min_value=-700, max_value=700, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x):
        assert logistic(-x) == pytest.approx(1.0 - logistic(x), abs=1e-15)

    def test_extremes_stay_finite(self):
        vals = logistic(np.array([-1e4, 1e4]))
        assert vals[0] == 0.0 and vals[1] == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            logistic(np.array([1.0, np.nan]))

    @staticmethod
    def masked_logistic(x):
        """The positive/negative split form ``logistic`` replaced."""
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        expn = np.exp(x[~pos])
        out[~pos] = expn / (1.0 + expn)
        return out

    @given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_the_masked_form(self, xs):
        x = np.array(xs)
        assert np.array_equal(logistic(x), self.masked_logistic(x))

    def test_bitwise_equal_at_the_edges(self):
        x = np.array([0.0, -0.0, 745.0, -745.0, 1e4, -1e4, -708.5, -740.0, -744.4, 5e-324, 37.0])
        got, want = logistic(x), self.masked_logistic(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert 0.0 < got[7] < np.finfo(float).tiny  # a subnormal output
        assert [logistic(v) for v in x] == list(want) and isinstance(logistic(-0.0), float)


class TestErrorRates:
    def test_bounds(self):
        ErrorRates(0.0, 0.49)
        with pytest.raises(ValueError):
            ErrorRates(0.5, 0.1)
        with pytest.raises(ValueError):
            ErrorRates(-0.01, 0.1)


class TestStdLoglik:
    def test_matches_naive_formula(self):
        rng = np.random.default_rng(10)
        y, X, beta = random_logit_data(rng, 60, 3)
        ll, _ = std_loglik(y, X, beta)
        pi = 1.0 / (1.0 + np.exp(-(X @ beta)))
        naive = np.sum(y * np.log(pi) + (1 - y) * np.log1p(-pi))
        assert ll == pytest.approx(naive, rel=1e-12)
        assert ll <= 0.0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(11)
        y, X, _ = random_logit_data(rng, 40, 4)
        for _ in range(5):
            beta = rng.normal(scale=1.0, size=4)
            _, grad = std_loglik(y, X, beta)
            num = fd_gradient(lambda b: std_loglik(y, X, b)[0], beta)
            np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-6)

    def test_extreme_beta_finite(self):
        y = np.array([1.0, 0.0])
        X = np.array([[1.0, 50.0], [1.0, -50.0]])
        ll, grad = std_loglik(y, X, np.array([0.0, 20.0]))
        assert np.isfinite(ll) and np.all(np.isfinite(grad))


class TestLiuLoglik:
    def test_zero_rates_reduce_to_std(self):
        rng = np.random.default_rng(12)
        y, X, beta = random_logit_data(rng, 80, 3)
        ll_std, g_std = std_loglik(y, X, beta)
        ll_liu, g_liu = liu_loglik(y, X, beta, ErrorRates(0.0, 0.0))
        assert ll_liu == pytest.approx(ll_std, rel=1e-12)
        np.testing.assert_allclose(g_liu[:3], g_std, rtol=1e-9)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(13)
        y, X, _ = random_logit_data(rng, 50, 3)
        for _ in range(5):
            beta = rng.normal(scale=0.7, size=3)
            r0, r1 = rng.uniform(0.01, 0.3, size=2)

            def f(theta):
                return liu_loglik(y, X, theta[:3], ErrorRates(theta[3], theta[4]))[0]

            theta = np.concatenate([beta, [r0, r1]])
            _, grad = liu_loglik(y, X, beta, ErrorRates(r0, r1))
            num = fd_gradient(f, theta)
            np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-6)


class TestMixtureHessian:
    def test_finite_where_an_empty_outcome_meets_the_probability_clamp(self):
        # row 0: eta = -800, so p = 0 sits at the 1e-300 clamp, where p^2
        # underflows, and the row has no positives; row 1: eta = 0
        U = np.array([[1.0, 0.0], [1.0, 1.0]])
        k, m = np.array([0.0, 3.0]), np.array([5.0, 5.0])
        beta = np.array([-800.0, 800.0])
        entries = OutcomeEntries(k, m, mixture=True)
        assert np.isfinite(entries.loglik(entries.design(U) @ beta, 0.0, 1.0))
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            H = mixture_loglik(k, m, U, beta, 0.0, 1.0, curvature=True)[4]
        # the p0 entry: 5 negatives at p = 0 and 3 of 5 positives at p = 1/2
        assert H[2, 2] == -10.0
        assert np.all(np.isfinite(H))

    def test_outcomes_at_the_clamp_give_a_non_finite_hessian_without_warnings(self):
        # row 0 now has 2 positives at p = 0: its v is -inf, and the Newton
        # step and the information check fail on the non-finite Hessian
        U = np.array([[1.0, 0.0], [1.0, 1.0]])
        k, m = np.array([2.0, 3.0]), np.array([5.0, 5.0])
        beta = np.array([-800.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ll, *_, H = mixture_loglik(k, m, U, beta, 0.0, 1.0, curvature=True)
            info = std_loglik(k, U, beta, trials=m, curvature=True)[2]
        assert np.isfinite(ll)
        assert not np.all(np.isfinite(H))
        assert np.all(np.isfinite(info))


class TestBecMarginalLoglik:
    def test_identity_with_liu(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            y, X, beta = random_logit_data(rng, 50, 3)
            se = rng.uniform(0.55, 0.99)
            sp = rng.uniform(0.55, 0.99)
            assay = AssayProfile(sensitivity=se, specificity=sp)
            ll_bec, _ = bec_marginal_loglik(y, X, beta, assay)
            ll_liu, _ = liu_loglik(y, X, beta, ErrorRates(1.0 - sp, 1.0 - se))
            assert abs(ll_bec - ll_liu) < 1e-10

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(15)
        y, X, _ = random_logit_data(rng, 50, 3)
        assay = AssayProfile(sensitivity=0.9, specificity=0.95)
        for _ in range(5):
            beta = rng.normal(scale=0.7, size=3)
            _, grad = bec_marginal_loglik(y, X, beta, assay)
            num = fd_gradient(lambda b: bec_marginal_loglik(y, X, b, assay)[0], beta)
            np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-6)

    def test_beta_prior_profile_rejected(self):
        y = np.array([1.0, 0.0])
        X = np.ones((2, 1))
        assay = AssayProfile.with_beta_priors(0.9, 0.95)
        with pytest.raises(ValueError):
            bec_marginal_loglik(y, X, np.zeros(1), assay)
