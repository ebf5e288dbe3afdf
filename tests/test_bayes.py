"""Bayesian fitters: priors, posteriors, standardization, and posterior behavior."""

import math

import numpy as np
import pytest

from conftest import assert_hessian_close, fd_gradient, fd_information, random_logit_data
from misclass_prev import bayes, mcmc
from misclass_prev.bayes import (
    BecParameterBlock,
    Standardization,
    _Posterior,
    _basis_log_post,
    _posterior_data,
    _posterior_fit_result,
    _sample_posterior,
    bc_log_posterior,
    bc_log_posterior_grad,
    bec_log_posterior,
    bec_log_posterior_grad,
    fit_bc,
    fit_bec,
    newman_prior_variance,
    standardize_design,
)
from misclass_prev.data_model import AssayProfile, DesignMatrix, build_design_matrix
from misclass_prev.errors import NonConvergenceError
from misclass_prev.likelihoods import OutcomeEntries, logistic, std_loglik
from misclass_prev.mcmc import PosteriorDraws, SamplerConfig
from misclass_prev.mle import ModelTag, fit_liu, fit_std
from misclass_prev.simulate import CovariateSpec, SimScenario, simulate

QUICK = SamplerConfig(chains=2, warmup=400, samples=800, seed=3)


def misclassified_cohort_data(seed_words):
    """One synthetic cohort at desk scale: 5ish percent prevalence, known assay."""
    assay = AssayProfile(sensitivity=0.964, specificity=0.974)
    sc = SimScenario(
        n=10_000,
        beta_true=(-9.976701575668823, 0.14, 0.3, 2.5),
        assay_true=assay,
        covariates=("age", "sex", "other_sti"),
        covariate_spec=CovariateSpec(other_sti_rate=0.08),
        seed=0,
    )
    cohort, truth = simulate(sc, rng=np.random.default_rng(seed_words))
    X = build_design_matrix(cohort, columns=sc.covariates)
    y = np.array([r.observed_outcome for r in cohort.records], dtype=float)
    return y, X, truth, assay


class TestPriorVariance:
    def test_matches_closed_form(self):
        assert newman_prior_variance(8) == pytest.approx(math.pi**2 / 27.0, abs=1e-12)
        assert newman_prior_variance(8) == pytest.approx(0.365541, abs=1e-6)
        assert newman_prior_variance(0) == pytest.approx(math.pi**2 / 3.0, abs=1e-12)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            newman_prior_variance(-1)

    def test_prior_term_is_independent_of_the_data(self):
        # the posterior minus the likelihood must be a pure function of
        # beta and the dimension, whatever data it is evaluated on
        rng = np.random.default_rng(8)
        y1, X1, _ = random_logit_data(rng, 60, 3)
        y2, X2, _ = random_logit_data(rng, 200, 3)
        beta = np.array([0.3, -1.2, 0.7])
        gap1 = bc_log_posterior(y1, X1, beta) - std_loglik(y1, X1, beta)[0]
        gap2 = bc_log_posterior(y2, X2, beta) - std_loglik(y2, X2, beta)[0]
        assert gap1 == pytest.approx(gap2, abs=1e-9)


class TestPosteriorGradients:
    def test_plain_model_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            y, X, _ = random_logit_data(rng, 80, 3)
            beta = rng.normal(scale=0.7, size=3)
            _, grad = bc_log_posterior_grad(y, X, beta)
            num = fd_gradient(lambda b: bc_log_posterior(y, X, b), beta)
            assert np.max(np.abs(grad - num) / np.maximum(1.0, np.abs(num))) < 1e-6

    def test_corrected_model_gradient_fixed_mode(self):
        rng = np.random.default_rng(16)
        assay = AssayProfile(sensitivity=0.9, specificity=0.95)
        for _ in range(10):
            y, X, _ = random_logit_data(rng, 80, 3)
            beta = rng.normal(scale=0.7, size=3)
            block = BecParameterBlock(beta=beta)
            _, grad = bec_log_posterior_grad(y, X, block, assay)
            num = fd_gradient(
                lambda b: bec_log_posterior(y, X, BecParameterBlock(beta=b), assay), beta
            )
            assert np.max(np.abs(grad - num) / np.maximum(1.0, np.abs(num))) < 1e-6

    def test_corrected_model_gradient_with_accuracy_priors(self):
        rng = np.random.default_rng(17)
        assay = AssayProfile.with_beta_priors(0.9, 0.92, se_prior_n=50, sp_prior_n=80)
        for _ in range(10):
            y, X, _ = random_logit_data(rng, 80, 3)
            theta = np.concatenate(
                [rng.normal(scale=0.7, size=3), [rng.uniform(0.8, 0.95), rng.uniform(0.85, 0.97)]]
            )

            def value_at(t):
                block = BecParameterBlock(beta=t[:3], se=t[3], sp=t[4])
                return bec_log_posterior(y, X, block, assay)

            block = BecParameterBlock(beta=theta[:3], se=theta[3], sp=theta[4])
            _, grad = bec_log_posterior_grad(y, X, block, assay)
            num = fd_gradient(value_at, theta)
            assert np.max(np.abs(grad - num) / np.maximum(1.0, np.abs(num))) < 1e-6

    def test_value_and_gradient_value_agree(self):
        rng = np.random.default_rng(18)
        y, X, _ = random_logit_data(rng, 50, 2)
        beta = np.array([0.2, -0.5])
        assert bc_log_posterior(y, X, beta) == pytest.approx(
            bc_log_posterior_grad(y, X, beta)[0], abs=1e-10
        )


class TestPosteriorHessians:
    """The exact negative Hessians the mode search and the sampling basis use."""

    def counts(self, seed):
        rng = np.random.default_rng(seed)
        _, U, _ = random_logit_data(rng, 40, 3)
        m = rng.integers(1, 6, size=40).astype(float)
        k = rng.binomial(m.astype(int), 0.3).astype(float)
        return k, m, U, rng

    def test_plain_model_matches_differenced_gradient(self):
        k, m, U, rng = self.counts(40)
        beta = rng.normal(scale=0.7, size=3)
        numeric = fd_information(lambda b: bc_log_posterior_grad(k, U, b, trials=m)[1], beta)
        analytic = bc_log_posterior_grad(k, U, beta, trials=m, curvature=True)[2]
        assert_hessian_close(analytic, numeric)

    def test_corrected_model_fixed_mode_matches_differenced_gradient(self):
        k, m, U, rng = self.counts(41)
        assay = AssayProfile(sensitivity=0.9, specificity=0.95)
        beta = rng.normal(scale=0.7, size=3)

        def score(b):
            return bec_log_posterior_grad(k, U, BecParameterBlock(beta=b), assay, trials=m)[1]

        block = BecParameterBlock(beta=beta)
        analytic = bec_log_posterior_grad(k, U, block, assay, trials=m, curvature=True)[2]
        assert_hessian_close(analytic, fd_information(score, beta))

    def test_corrected_model_with_accuracy_priors_matches_differenced_gradient(self):
        k, m, U, rng = self.counts(42)
        assay = AssayProfile.with_beta_priors(0.9, 0.92, se_prior_n=50, sp_prior_n=80)
        theta = np.concatenate([rng.normal(scale=0.7, size=3), [0.86, 0.9]])

        def score(t):
            block = BecParameterBlock(beta=t[:3], se=t[3], sp=t[4])
            return bec_log_posterior_grad(k, U, block, assay, trials=m)[1]

        block = BecParameterBlock(beta=theta[:3], se=theta[3], sp=theta[4])
        analytic = bec_log_posterior_grad(k, U, block, assay, trials=m, curvature=True)[2]
        assert_hessian_close(analytic, fd_information(score, theta))


class TestModeSearch:
    def test_beta_prior_mode_does_not_depend_on_the_start(self, intage_demo, monkeypatch):
        # the benchmark's BEC fit: from its own start and from one moved by
        # up to 0.5 in each coefficient and 0.025 in se and sp
        y, X = intage_demo
        assay = AssayProfile.with_beta_priors(0.964, 0.974, se_prior_n=1000, sp_prior_n=1000)
        newton = bayes._newton_ascent
        modes = []

        class Found(Exception):
            pass

        def both_starts(loglik, theta, lo, hi):
            moved = theta + np.random.default_rng(7).uniform(-0.5, 0.5, theta.shape) * [
                1.0 if np.isinf(b) else 0.05 for b in lo
            ]
            for start in (theta, moved):
                mode, _, converged, _, warning, _, _ = newton(loglik, start, lo, hi)
                assert converged, warning
                modes.append(mode)
            raise Found

        monkeypatch.setattr(bayes, "_newton_ascent", both_starts)
        with pytest.raises(Found):
            fit_bec(y, X, assay)
        assert modes[0].shape == (X.matrix.shape[1] + 2,)
        np.testing.assert_allclose(modes[0], modes[1], rtol=0.0, atol=1e-6)

    def test_mode_search_that_ends_unconverged_is_a_statistical_error(self):
        # the owner starts the search at zero, where this score is not zero
        def loglik(theta):
            return -0.5 * float((theta - 1.0) @ (theta - 1.0)), 1.0 - theta, np.full((2, 2), np.nan)

        tr = Standardization(indices=(), means=(), sds=())
        with pytest.raises(NonConvergenceError, match="^BEC posterior mode: singular Hessian"):
            _sample_posterior(
                ModelTag.BEC,
                _Posterior(2),
                loglik,
                lambda mode, A: lambda phi: 0.0,
                QUICK,
                tr,
                ("a", "b"),
            )


class TestAccuracySupport:
    def test_density_is_minus_inf_outside_support(self):
        rng = np.random.default_rng(19)
        y, X, _ = random_logit_data(rng, 40, 2)
        assay = AssayProfile.with_beta_priors(0.9, 0.92)
        beta = np.zeros(2)
        for se, sp in [(0.3, 0.6), (1.2, 0.9), (0.9, -0.1), (0.55, 0.44)]:
            block = BecParameterBlock(beta=beta, se=se, sp=sp)
            assert bec_log_posterior(y, X, block, assay) == -np.inf

    def test_gradient_refuses_points_outside_support(self):
        rng = np.random.default_rng(20)
        y, X, _ = random_logit_data(rng, 40, 2)
        assay = AssayProfile.with_beta_priors(0.9, 0.92)
        block = BecParameterBlock(beta=np.zeros(2), se=0.3, sp=0.6)
        with pytest.raises(ValueError, match="outside the support"):
            bec_log_posterior_grad(y, X, block, assay)

    def test_block_and_mode_must_agree(self):
        rng = np.random.default_rng(21)
        y, X, _ = random_logit_data(rng, 40, 2)
        fixed = AssayProfile(sensitivity=0.9, specificity=0.95)
        with_priors = AssayProfile.with_beta_priors(0.9, 0.95)
        with pytest.raises(ValueError, match="leave them unset"):
            bec_log_posterior(y, X, BecParameterBlock(beta=np.zeros(2), se=0.9, sp=0.95), fixed)
        with pytest.raises(ValueError, match="requires sampled"):
            bec_log_posterior(y, X, BecParameterBlock(beta=np.zeros(2)), with_priors)


class TestBetaLogDensity:
    @pytest.mark.parametrize("n", [100.0, 1000.0, 10000.0])
    @pytest.mark.parametrize("value", [0.5001, 0.51, 0.964, 0.999])
    def test_matches_scipy(self, n, value):
        # the log prior of theta = (0, se = x, sp = 0.99) with the se prior
        # of size n at value, against scipy's normal and Beta densities;
        # the sp prior of size 10 has shapes (9, 1)
        from scipy import stats

        assay = AssayProfile.with_beta_priors(value, 0.9, se_prior_n=n, sp_prior_n=10.0)
        log_prior = _Posterior(1, assay).value
        a, b = assay.se_prior
        sd = math.sqrt(value * (1.0 - value) / (n + 1.0))
        rest = stats.norm.logpdf(0.0, scale=math.sqrt(newman_prior_variance(0)))
        rest += stats.beta.logpdf(0.99, *assay.sp_prior)
        # both sides take log B(a, b) as a difference of log-gammas near
        # lgamma(n), whose spacing is 1.5e-11 at n = 10,000
        tol = 1e-12 + 4 * np.spacing(math.lgamma(n))
        for x in (value - 2.0 * sd, value - 0.5 * sd, value, min(value + 2.0 * sd, 1.0 - 1e-9)):
            got = log_prior(np.array([0.0, x, 0.99]))
            assert abs(got - (stats.beta.logpdf(x, a, b) + rest)) <= tol


class TestStandardization:
    def test_preserves_predictions(self):
        rng = np.random.default_rng(22)
        n = 120
        X = np.column_stack(
            [
                np.ones(n),
                rng.normal(40.0, 12.0, size=n),
                (rng.random(n) < 0.4).astype(float),
            ]
        )
        tr = standardize_design(X)
        Xs = tr.apply(X)
        beta_std = np.array([-1.0, 0.8, 0.4])
        np.testing.assert_allclose(Xs @ beta_std, X @ tr.undo_beta(beta_std), atol=1e-10)

    def test_leaves_intercept_and_dummies_alone(self):
        rng = np.random.default_rng(23)
        n = 60
        dummy = (rng.random(n) < 0.3).astype(float)
        X = np.column_stack([np.ones(n), dummy, rng.normal(5.0, 2.0, size=n)])
        tr = standardize_design(X)
        Xs = tr.apply(X)
        np.testing.assert_array_equal(Xs[:, 0], X[:, 0])
        np.testing.assert_array_equal(Xs[:, 1], X[:, 1])
        assert tr.indices == (2,)
        assert abs(Xs[:, 2].mean()) < 1e-12
        assert Xs[:, 2].std(ddof=0) == pytest.approx(1.0, abs=1e-12)

    def test_skips_constant_columns(self):
        n = 30
        X = np.column_stack([np.ones(n), np.full(n, 7.0)])
        tr = standardize_design(X)
        Xs = tr.apply(X)
        assert tr.indices == ()
        np.testing.assert_array_equal(Xs, X)

    def test_undo_beta_broadcasts_over_draw_arrays(self):
        tr = Standardization(indices=(1,), means=(40.0,), sds=(12.0,))
        draws = np.random.default_rng(24).standard_normal((2, 5, 2))
        undone = tr.undo_beta(draws)
        for c in range(2):
            for i in range(5):
                np.testing.assert_allclose(undone[c, i], tr.undo_beta(draws[c, i]), atol=1e-12)


class TestPlainPosterior:
    def test_prior_shrinks_large_coefficients_toward_zero(self):
        rng = np.random.default_rng(12)
        n = 80
        x1 = rng.standard_normal(n)
        y = (rng.random(n) < logistic(-0.3 + 3.0 * x1)).astype(float)
        X = np.column_stack([np.ones(n), x1])
        mle = fit_std(y, X)
        fit, _ = fit_bc(y, X, config=QUICK)
        assert fit.converged
        assert abs(fit.beta_hat[1]) < abs(mle.beta_hat[1])
        assert abs(fit.beta_hat[1]) > 0.5 * abs(mle.beta_hat[1])

    def test_same_seed_reproduces_posterior_exactly(self):
        rng = np.random.default_rng(25)
        y, X, _ = random_logit_data(rng, 100, 2)
        cfg = SamplerConfig(chains=2, warmup=200, samples=200, seed=5)
        _, d1 = fit_bc(y, X, config=cfg)
        _, d2 = fit_bc(y, X, config=cfg)
        np.testing.assert_array_equal(d1.draws, d2.draws)

    def test_reports_model_tag_and_draw_budget(self):
        rng = np.random.default_rng(26)
        y, X, _ = random_logit_data(rng, 100, 2)
        fit, draws = fit_bc(y, X, config=QUICK)
        assert fit.model_tag is ModelTag.BC
        assert fit.iterations == QUICK.chains * QUICK.samples
        assert draws.param_names == ("x0", "x1")


class TestCorrectedPosterior:
    def test_perfect_fixed_assay_matches_plain_posterior(self):
        # with sensitivity = specificity = 1 the corrected likelihood
        # collapses to the plain one, so equal seeds and budgets must
        # give draw sets that are indistinguishable per parameter
        rng = np.random.default_rng(12)
        n = 80
        x1 = rng.standard_normal(n)
        y = (rng.random(n) < logistic(-0.3 + 3.0 * x1)).astype(float)
        X = np.column_stack([np.ones(n), x1])
        cfg = SamplerConfig(chains=2, warmup=400, samples=800, seed=99)
        _, d_plain = fit_bc(y, X, config=cfg)
        _, d_corr = fit_bec(y, X, AssayProfile(sensitivity=1.0, specificity=1.0), config=cfg)
        for j in range(2):
            a = np.sort(d_plain.flat()[:, j])
            b = np.sort(d_corr.flat()[:, j])
            grid = np.concatenate([a, b])
            ks = np.max(
                np.abs(
                    np.searchsorted(a, grid, side="right") / a.size
                    - np.searchsorted(b, grid, side="right") / b.size
                )
            )
            assert ks < 0.05

    def test_recovers_latent_prevalence_where_plain_model_cannot(self):
        y, X, truth, assay = misclassified_cohort_data([6, 0, 0])
        target = float(np.mean(truth.pi))
        cfg = SamplerConfig(chains=2, warmup=600, samples=1000, seed=606)

        fit_corr, d_corr = fit_bec(y, X, assay, config=cfg)
        assert fit_corr.converged
        corr_prev = float(logistic(d_corr.flat() @ X.matrix.T).mean())
        assert abs(corr_prev - target) < 0.005

        fit_plain, d_plain = fit_bc(y, X, config=cfg)
        assert fit_plain.converged
        plain_prev = float(logistic(d_plain.flat() @ X.matrix.T).mean())
        # the uncorrected posterior tracks the observed rate, which sits
        # (1 - sp)(1 - p) - (1 - se) p above the truth, about +0.023 here
        assert 0.015 < plain_prev - target < 0.031

    def test_intercept_spread_is_tighter_than_joint_mle(self):
        y, X, _, assay = misclassified_cohort_data([6, 0, 0])
        cfg = SamplerConfig(chains=2, warmup=600, samples=1000, seed=606)
        _, d_corr = fit_bec(y, X, assay, config=cfg)
        liu = fit_liu(y, X)
        assert liu.converged
        posterior_sd = float(d_corr.flat()[:, 0].std(ddof=1))
        assert posterior_sd < liu.beta_se[0]

    def test_accuracy_priors_add_named_parameters_inside_support(self):
        rng = np.random.default_rng(30)
        y, X, _ = random_logit_data(rng, 400, 2, beta=np.array([-1.5, 0.8]))
        assay = AssayProfile.with_beta_priors(0.9, 0.92, se_prior_n=200, sp_prior_n=200)
        fit, draws = fit_bec(y, X, assay, config=QUICK)
        assert draws.param_names[-2:] == ("sensitivity", "specificity")
        se_draws = draws.flat()[:, -2]
        sp_draws = draws.flat()[:, -1]
        assert np.all((se_draws > 0.0) & (se_draws < 1.0))
        assert np.all((sp_draws > 0.0) & (sp_draws < 1.0))
        assert np.all(se_draws + sp_draws > 1.0)
        assert fit.beta_hat.shape == (2,)

    def test_overwhelming_priors_pin_accuracy_at_stated_values(self):
        rng = np.random.default_rng(31)
        y, X, _ = random_logit_data(rng, 300, 2, beta=np.array([-1.0, 0.5]))
        assay = AssayProfile.with_beta_priors(0.964, 0.974, se_prior_n=1e6, sp_prior_n=1e6)
        _, draws = fit_bec(y, X, assay, config=QUICK)
        assert float(draws.flat()[:, -2].mean()) == pytest.approx(0.964, abs=0.003)
        assert float(draws.flat()[:, -1].mean()) == pytest.approx(0.974, abs=0.003)

    def test_requires_an_assay_profile(self):
        rng = np.random.default_rng(32)
        y, X, _ = random_logit_data(rng, 40, 2)
        with pytest.raises(TypeError, match="AssayProfile"):
            fit_bec(y, X, (0.9, 0.95), config=QUICK)


class TestDemoCohortMixing:
    def test_short_chains_converge_on_the_integer_age_demo_cohort(self, intage_demo):
        # the compare benchmark's sampler budget and BEC assay
        y, X = intage_demo
        cfg = SamplerConfig(chains=2, warmup=500, samples=500, seed=42)
        assay = AssayProfile.with_beta_priors(0.964, 0.974, se_prior_n=1000, sp_prior_n=1000)
        bc, _ = fit_bc(y, X, config=cfg)
        bec, _ = fit_bec(y, X, assay, config=cfg)
        assert bc.converged, bc.condition_warning
        assert bec.converged, bec.condition_warning


class TestConvergenceGate:
    def test_unmixed_chains_are_flagged(self):
        rng = np.random.default_rng(33)
        apart = np.stack(
            [rng.standard_normal((300, 2)), rng.standard_normal((300, 2)) + 8.0]
        )
        draws = PosteriorDraws(apart, ("beta0", "beta1"), accept_rate=np.full(2, np.nan))
        fit = _posterior_fit_result(ModelTag.BC, draws, 2, lambda theta: -10.0, ("beta0", "beta1"))
        assert not fit.converged
        assert "chains not mixed" in fit.condition_warning

    def test_mixed_chains_pass(self):
        rng = np.random.default_rng(34)
        ok = rng.standard_normal((2, 500, 2))
        draws = PosteriorDraws(ok, ("beta0", "beta1"), accept_rate=np.full(2, np.nan))
        fit = _posterior_fit_result(ModelTag.BEC, draws, 2, lambda theta: -10.0, ("beta0", "beta1"))
        assert fit.converged
        assert fit.condition_warning is None


class TestDiagnosticsOnce:
    @pytest.fixture
    def diagnostic_calls(self, monkeypatch):
        """Arguments of every call to ``mcmc.rhat`` and ``mcmc.ess_bulk``."""
        calls = {"rhat": [], "ess_bulk": []}

        def spy(name):
            real = getattr(mcmc, name)

            def recorded(draws):
                calls[name].append(draws)
                return real(draws)

            return recorded

        for name in calls:
            monkeypatch.setattr(mcmc, name, spy(name))
        return calls

    @pytest.mark.parametrize("model", ["bc", "bec"])
    def test_a_fit_computes_rhat_once_on_its_reported_draws(self, model, diagnostic_calls):
        rng = np.random.default_rng(35)
        y, X, _ = random_logit_data(rng, 200, 3)
        cfg = SamplerConfig(chains=2, warmup=100, samples=100, seed=4)
        if model == "bc":
            _, draws = fit_bc(y, X, config=cfg)
        else:
            assay = AssayProfile.with_beta_priors(0.9, 0.92, se_prior_n=200, sp_prior_n=200)
            _, draws = fit_bec(y, X, assay, config=cfg)
        assert len(diagnostic_calls["rhat"]) == 1
        assert diagnostic_calls["rhat"][0] is draws.draws
        assert diagnostic_calls["ess_bulk"] == []
        draws.rhat  # read again: cached, not recomputed
        assert len(diagnostic_calls["rhat"]) == 1


class TestChainStart:
    def test_start_with_no_finite_density_is_a_statistical_error(self):
        # the density is finite at the mode alone: halving a start toward
        # the mode never reaches it, so no chain can start
        def loglik(theta):
            return -0.5 * float(theta @ theta), -theta, np.eye(2)

        def basis_log_post(mode, A):
            return lambda phi: 0.0 if not np.any(mode + A @ phi) else -np.inf

        tr = Standardization(indices=(), means=(), sds=())
        with pytest.raises(NonConvergenceError, match="^chain 0 start: "):
            _sample_posterior(
                ModelTag.BC,
                _Posterior(2),
                loglik,
                basis_log_post,
                QUICK,
                tr,
                ("a", "b"),
            )


def pattern_data(rng, n, grouped):
    """0/1 outcomes and a design of intercept, a 0/1 column and a third
    column: standard normal, so every row is its own pattern, or whole
    numbers 0-4, so rows repeat and patterns hold several trials."""
    third = rng.integers(0, 5, n).astype(float) if grouped else rng.standard_normal(n)
    X = np.column_stack([np.ones(n), rng.integers(0, 2, n).astype(float), third])
    return (rng.random(n) < 0.3).astype(float), DesignMatrix(X, ("intercept", "sex", "x"))


# (posterior, reference log posterior) for each sampled model; the
# reference scores theta on the standardized rows
def _bc_pair(y, Xs, p):
    return _Posterior(p), lambda theta: bc_log_posterior(y, Xs, theta)


def _bec_pair(assay):
    def pair(y, Xs, p):
        def reference(theta):
            return bec_log_posterior(y, Xs, BecParameterBlock(theta[:p], *theta[p:]), assay)

        return _Posterior(p, assay), reference

    return pair


BETA_PRIORS = AssayProfile.with_beta_priors(0.9, 0.92, se_prior_n=200, sp_prior_n=200)
FIXED = AssayProfile(sensitivity=0.9, specificity=0.95)
DENSITIES = {
    "bc": _bc_pair,
    "bec-fixed": _bec_pair(FIXED),
    # se = sp = 1: offset 0 and slope 1, so 1 - p rounds to 0 at eta = 40
    # and the 1e-300 clamp acts
    "bec-perfect": _bec_pair(AssayProfile(sensitivity=1.0, specificity=1.0)),
    "bec-beta-prior": _bec_pair(BETA_PRIORS),
}


class TestSamplerDensity:
    """The density the sampler scores at ``theta = mode + A phi``, with the
    entries' predictors from the precomputed map ``[D A | D mode]``, against
    the reference log posteriors evaluated from theta on the rows."""

    @staticmethod
    def densities(model, grouped, seed):
        rng = np.random.default_rng(seed)
        y, X = pattern_data(rng, 300, grouped)
        k, m, _, Us, tr, _ = _posterior_data(y, X)
        assert (m.max() > 1.0) == grouped
        p = Us.shape[1]
        post, reference = DENSITIES[model](y, tr.apply(X.matrix), p)
        entries = OutcomeEntries(k, m, mixture=not post.plain)

        def basis_log_post(mode, A):
            return _basis_log_post(post, entries, Us, mode, A)

        dim = p + 2 * (model == "bec-beta-prior")
        return rng, p, dim, basis_log_post, reference

    @pytest.mark.parametrize("grouped", [False, True], ids=["rows", "grouped"])
    @pytest.mark.parametrize("model", sorted(DENSITIES))
    @pytest.mark.parametrize("eta_level", [0.0, -40.0, 40.0, -800.0, 800.0])
    def test_differences_match_the_reference(self, model, grouped, eta_level):
        rng, p, dim, basis_log_post, reference = self.densities(model, grouped, 41)
        for _ in range(10):
            mode = np.concatenate([[eta_level], rng.normal(scale=0.5, size=dim - 1)])
            A = np.tril(rng.normal(scale=0.2, size=(dim, dim)))
            if dim > p:  # se and sp well inside their support
                mode[p:] = rng.uniform(0.85, 0.95, size=2)
                A[p:] *= 0.01
            log_post = basis_log_post(mode, A)
            phi0, phi1 = rng.standard_normal((2, dim))
            got = log_post(phi1) - log_post(phi0)
            want = reference(mode + A @ phi1) - reference(mode + A @ phi0)
            assert np.isfinite(want)
            assert abs(got - want) <= 1e-9

    @pytest.mark.parametrize("grouped", [False, True], ids=["rows", "grouped"])
    def test_minus_inf_outside_the_accuracy_support(self, grouped):
        _, p, dim, basis_log_post, reference = self.densities("bec-beta-prior", grouped, 42)
        mode = np.concatenate([np.zeros(p), [0.9, 0.92]])
        log_post = basis_log_post(mode, np.eye(dim))
        for se, sp in [(1.2, 0.9), (0.9, -0.1), (0.3, 0.6), (0.55, 0.44), (1.0, 0.9)]:
            phi = np.concatenate([np.zeros(p), [se - 0.9, sp - 0.92]])
            assert log_post(phi) == -np.inf
            assert reference(mode + phi) == -np.inf


class TestSamplerCalls:
    @pytest.mark.parametrize("grouped", [False, True], ids=["rows", "grouped"])
    @pytest.mark.parametrize("model", ["bc", "bec", "bec-fixed"])
    def test_one_density_call_per_proposal_and_reference_draws(self, model, grouped, monkeypatch):
        """A fit scores each start point and proposal once, and its draws are
        those the reference log posterior gives on the fit's own basis: on
        rows, every count is 1 and the likelihood skips its count multiply."""
        rng = np.random.default_rng(43)
        y, X = pattern_data(rng, 200, grouped)
        k, m = _posterior_data(y, X)[:2]
        assert (OutcomeEntries(k, m, mixture=model != "bc").counts is None) == (not grouped)
        cfg = SamplerConfig(chains=3, warmup=100, samples=150, seed=8)
        seen = {}
        real_ascent, real_basis, real_sample = bayes._newton_ascent, bayes._sampling_basis, bayes.sample

        def ascent(*args):
            out = real_ascent(*args)
            seen["mode"] = out[0]
            return out

        def basis(neg_h):
            seen["A"] = real_basis(neg_h)
            return seen["A"]

        def counted_sample(log_post, dim, config, init=None):
            calls = []

            def counted(phi):
                calls.append(1)
                return log_post(phi)

            seen["raw"] = real_sample(counted, dim, config, init=init)
            seen["calls"], seen["init"] = len(calls), init
            return seen["raw"]

        monkeypatch.setattr(bayes, "_newton_ascent", ascent)
        monkeypatch.setattr(bayes, "_sampling_basis", basis)
        monkeypatch.setattr(bayes, "sample", counted_sample)
        Xs = _posterior_data(y, X)[4].apply(X.matrix)
        if model == "bc":
            fit_bc(y, X, config=cfg)

            def reference(theta):
                return bc_log_posterior(y, Xs, theta)

        else:
            assay = BETA_PRIORS if model == "bec" else FIXED
            fit_bec(y, X, assay, config=cfg)

            def reference(theta):
                p = Xs.shape[1]
                block = BecParameterBlock(theta[:p], *theta[p:])
                return bec_log_posterior(y, Xs, block, assay)

        assert seen["calls"] == cfg.chains * (cfg.warmup + cfg.samples) + cfg.chains
        mode, A = seen["mode"], seen["A"]
        ref = real_sample(lambda phi: reference(mode + A @ phi), A.shape[0], cfg, init=seen["init"])
        np.testing.assert_array_equal(seen["raw"].draws, ref.draws)
        np.testing.assert_array_equal(seen["raw"].accept_rate, ref.accept_rate)
