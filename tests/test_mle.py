"""Frequentist fitters: the plain logistic MLE and the joint error-rate MLE."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from misclass_prev.data_model import GROUP_DUMMY_COLUMNS, AssayProfile, build_design_matrix
from misclass_prev.errors import SingularDesignError
from misclass_prev.likelihoods import ErrorRates, liu_loglik, logistic, std_loglik
from misclass_prev.mle import (
    SCORE_TOL,
    FitResult,
    LiuVariant,
    ModelTag,
    _degenerate,
    default_liu_init,
    fit_liu,
    fit_std,
    observed_information,
)
from misclass_prev.simulate import (
    CovariateSpec,
    SimScenario,
    calibrate_intercept,
    load_bundled_scenario,
    simulate,
)

from conftest import fd_information, random_logit_data


class TestFitStd:
    def test_intercept_only_balanced(self):
        y = np.array([0.0, 1.0] * 50)
        X = np.ones((100, 1))
        fit = fit_std(y, X)
        assert fit.converged
        assert abs(fit.beta_hat[0]) < 1e-8
        # information is n * pi * (1 - pi) = 25, so the SE is exactly 0.2
        assert abs(fit.beta_se[0] - 0.2) < 1e-4

    def test_matches_independent_optimizer(self):
        rng = np.random.default_rng(2024)
        y, X, beta_true = random_logit_data(rng, n=200, p=4)
        fit = fit_std(y, X)
        assert fit.converged

        def neg(b):
            ll, grad = std_loglik(y, X, b)
            return -ll, -grad

        def hess(b):
            pi = 1.0 / (1.0 + np.exp(-(X @ b)))
            return X.T @ ((pi * (1.0 - pi))[:, None] * X)

        ref = optimize.minimize(
            neg, np.zeros(4), jac=True, hess=hess, method="trust-exact",
            options={"gtol": 1e-12},
        )
        assert np.max(np.abs(fit.beta_hat - ref.x)) < 1e-6

    def test_se_scales_with_sample_size(self):
        rng = np.random.default_rng(5)
        y, X, _ = random_logit_data(rng, n=400, p=2)
        one = fit_std(y, X)
        two = fit_std(np.concatenate([y, y]), np.vstack([X, X]))
        ratio = two.beta_se / one.beta_se
        assert np.max(np.abs(ratio - 1.0 / np.sqrt(2.0))) < 1e-3

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        y, X, _ = random_logit_data(rng, n=300, p=3)
        perm = rng.permutation(300)
        a = fit_std(y, X)
        b = fit_std(y[perm], X[perm])
        assert np.max(np.abs(a.beta_hat - b.beta_hat)) < 1e-8

    def test_all_negative_outcomes_flagged(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(80), rng.standard_normal(80)])
        fit = fit_std(np.zeros(80), X)
        assert not fit.converged
        assert "separation or boundary" in fit.condition_warning

    def test_perfect_predictor_flagged(self):
        x = np.concatenate([-np.ones(40), np.ones(40)])
        y = (x > 0).astype(float)
        fit = fit_std(y, np.column_stack([np.ones(80), x]))
        assert not fit.converged
        assert "separation or boundary" in fit.condition_warning

    @pytest.mark.parametrize("outcome", [0.0, 1.0])
    def test_quasi_separated_indicator_flagged(self, outcome):
        # the indicator's three carriers share one outcome, so its MLE is
        # infinite; Newton meets the score tolerance on the way out with
        # the coefficient near 20 and an SE in the thousands
        rng = np.random.default_rng(12)
        x = rng.standard_normal(300)
        rare = np.zeros(300)
        rare[:3] = 1.0
        X = np.column_stack([np.ones(300), x, rare])
        y = (rng.random(300) < logistic(-0.5 + 0.8 * x)).astype(float)
        y[:3] = outcome
        fit = fit_std(y, X)
        assert not fit.converged
        assert "separation or boundary" in fit.condition_warning
        assert fit.beta_se is None

    def test_duplicate_column_named(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(60)
        X = np.column_stack([np.ones(60), x, x])
        y = (rng.random(60) < 0.5).astype(float)
        with pytest.raises(SingularDesignError) as err:
            fit_std(y, X, column_names=("intercept", "a", "a_copy"))
        assert "a_copy" in str(err.value) or "a" in str(err.value)

    def test_resample_without_the_reference_group_is_rank_deficient(self):
        # with no general-population row the four group dummies sum to the
        # intercept, which no separation check sees; the rank gate must
        cohort, _ = simulate(replace(load_bundled_scenario("demo_cohort"), n=2000, seed=3))
        X = build_design_matrix(cohort)
        patterns = X.patterns
        y = np.asarray(cohort.outcome, dtype=float)
        groups = [X.column_names.index(name) for name in GROUP_DUMMY_COLUMNS]
        drawn = patterns.rows[:, groups].sum(axis=1) == 1.0
        assert 0 < drawn.sum() < len(drawn)
        p = X.matrix.shape[1]
        with pytest.raises(SingularDesignError) as err:
            fit_std(
                patterns.positives(y)[drawn],
                patterns.rows[drawn],
                column_names=X.column_names,
                trials=patterns.trials[drawn],
            )
        assert f"rank {p - 1} of {p}" in str(err.value)
        assert set(err.value.columns) & set(GROUP_DUMMY_COLUMNS)
        assert any(name in str(err.value) for name in GROUP_DUMMY_COLUMNS)

    def test_warm_start_reaches_the_same_refits_in_fewer_steps(self, intage_demo):
        # the report's bootstrap refits: 20 STD resamples of the integer-age
        # demo design, each fitted from zero and from the full-data estimate
        y, X = intage_demo
        beta_hat = fit_std(y, X).beta_hat
        patterns = X.patterns
        n, n_patterns = y.shape[0], patterns.trials.shape[0]
        rng = np.random.default_rng(20)
        steps = {"cold": [], "warm": []}
        for _ in range(20):
            idx = rng.integers(0, n, size=n)
            drawn = patterns.inverse[idx]
            trials = np.bincount(drawn, minlength=n_patterns).astype(float)
            live = trials > 0.0
            positives = np.bincount(drawn, weights=y[idx], minlength=n_patterns)[live]
            kw = {"column_names": X.column_names, "trials": trials[live]}
            cold = fit_std(positives, patterns.rows[live], **kw)
            warm = fit_std(positives, patterns.rows[live], init=beta_hat, **kw)
            assert warm.converged == cold.converged
            np.testing.assert_allclose(warm.beta_hat, cold.beta_hat, rtol=0.0, atol=1e-8)
            steps["cold"].append(cold.iterations)
            steps["warm"].append(warm.iterations)
        assert np.mean(steps["warm"]) < np.mean(steps["cold"])
        with pytest.raises(ValueError, match="init has shape"):
            fit_std(y, X, init=beta_hat[:-1])

    def test_loglik_matches_formula_at_optimum(self):
        rng = np.random.default_rng(21)
        y, X, _ = random_logit_data(rng, n=150, p=2)
        fit = fit_std(y, X)
        pi = logistic(X @ fit.beta_hat)
        direct = float(np.sum(y * np.log(pi) + (1 - y) * np.log1p(-pi)))
        assert abs(fit.loglik - direct) < 1e-9


class TestObservedInformation:
    def test_exact_on_quadratic(self):
        A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        theta = np.array([0.3, -0.2, 1.1])
        info = observed_information(fd_information(lambda t: -A @ t, theta))
        assert info.se is not None
        assert np.max(np.abs(info.matrix - A)) < 1e-7
        assert np.max(np.abs(info.se - np.sqrt(np.diag(np.linalg.inv(A))))) < 1e-7

    def test_indefinite_matrix_withholds_se(self):
        A = np.diag([2.0, -1.0])
        info = observed_information(fd_information(lambda t: -A @ t, np.zeros(2)))
        assert info.se is None
        assert "not positive definite" in info.warning

    def test_near_singular_matrix_withholds_se(self):
        info = observed_information(np.diag([1.0, 1e-13]))
        assert info.se is None
        assert info.rcond == pytest.approx(1e-13)
        assert "numerically singular" in info.warning

    def test_takes_the_matrix_as_given(self):
        A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        info = observed_information(A)
        assert np.array_equal(info.matrix, A) and info.warning is None
        np.testing.assert_allclose(info.se, np.sqrt(np.diag(np.linalg.inv(A))), rtol=1e-14)
        assert info.rcond == pytest.approx(np.linalg.cond(A) ** -1, rel=1e-12)
        bad = observed_information(np.array([[1.0, np.inf], [np.inf, 1.0]]))
        assert bad.se is None and "non-finite" in bad.warning


def _degenerate_by_loop(k, m, U, beta):
    """``_degenerate`` as a loop over the 0/1 columns and their two levels."""
    if np.max(np.abs(beta)) > 30.0:
        return True
    pi = logistic(U @ beta)
    worst = np.maximum(np.where(k > 0.0, 1.0 - pi, 0.0), np.where(k < m, pi, 0.0))
    if np.max(worst) < 1e-6:
        return True
    for j in range(1, U.shape[1]):
        ones = U[:, j] == 1.0
        if not np.all(ones | (U[:, j] == 0.0)):
            continue
        for level in (ones, ~ones):
            positives = k[level].sum()
            if positives == 0.0 or positives == m[level].sum():
                return True
    return False


class TestDegenerate:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(5, 300),
        st.sampled_from([0.002, 0.02, 0.3]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop(self, seed, rows, rare, separate):
        rng = np.random.default_rng(seed)
        U = np.column_stack(
            [
                np.ones(rows),
                rng.normal(size=rows),
                (rng.random(rows) < 0.5).astype(float),
                (rng.random(rows) < rare).astype(float),
            ]
        )
        m = rng.integers(1, 6, size=rows).astype(float)
        k = np.floor(rng.random(rows) * (m + 1.0))
        if separate:  # the rare dummy's level: all negative, or all positive
            k = np.where(U[:, 3] == 1.0, m * rng.integers(0, 2), k)
        beta = rng.normal(scale=2.0, size=4)
        assert _degenerate(k, m, U, beta) == _degenerate_by_loop(k, m, U, beta)


class TestFitResultContract:
    def test_nonconverged_needs_reason(self):
        with pytest.raises(ValueError):
            FitResult(
                model_tag=ModelTag.STD,
                beta_hat=np.zeros(1),
                beta_se=None,
                loglik=0.0,
                converged=False,
                iterations=1,
            )


def _liu_test_scenario(n):
    assay = AssayProfile(sensitivity=0.964, specificity=0.974)
    sc = SimScenario(
        n=n,
        beta_true=(-5.0, 0.14, 0.3, 2.5),
        assay_true=assay,
        covariates=("age", "sex", "other_sti"),
        covariate_spec=CovariateSpec(other_sti_rate=0.08),
        seed=0,
    )
    return calibrate_intercept(sc, 0.05)


def _clean_scenario(n):
    sc = _liu_test_scenario(n)
    return SimScenario(
        n=sc.n,
        beta_true=sc.beta_true,
        assay_true=AssayProfile(sensitivity=1.0, specificity=1.0),
        covariates=sc.covariates,
        covariate_spec=sc.covariate_spec,
        seed=sc.seed,
    )


class TestFitLiu:
    def test_free_rates_never_lower_loglik(self):
        sc = _liu_test_scenario(4000)
        cohort, _ = simulate(sc, rng=np.random.default_rng([9, 0, 0]))
        X = build_design_matrix(cohort, columns=sc.covariates)
        y = cohort.outcomes()
        joint = fit_liu(y, X)
        plain = fit_std(y, X)
        assert joint.loglik >= plain.loglik - 1e-8

    def test_recovers_error_rates_within_two_se(self):
        sc = _liu_test_scenario(10_000)
        cohort, _ = simulate(sc, rng=np.random.default_rng([4, 0, 0]))
        X = build_design_matrix(cohort, columns=sc.covariates)
        fit = fit_liu(cohort.outcomes(), X)
        assert fit.converged
        est = fit.error_rates_hat
        assert abs(est.r0 - 0.026) <= 2.0 * est.se_r0
        assert abs(est.r1 - 0.036) <= 2.0 * est.se_r1

    def test_clean_data_pins_rates(self):
        # generated with a perfect assay there is nothing for the rate
        # parameters to absorb: on this frozen draw both land hard on
        # the lower boundary and the fit says so
        sc_clean = _clean_scenario(5000)
        cohort, _ = simulate(sc_clean, rng=np.random.default_rng([77, 0, 0]))
        X = build_design_matrix(cohort, columns=sc_clean.covariates)
        fit = fit_liu(cohort.outcomes(), X)
        est = fit.error_rates_hat
        assert est.r0 < 0.005 and est.r1 < 0.005
        assert fit.converged
        assert "pinned" in fit.condition_warning

    def test_clean_data_never_crashes_and_reports_honestly(self):
        # other clean draws leave tiny interior optima for the
        # false-negative rate; whatever the outcome, the result record
        # must be coherent: a crash or a silent non-answer would be wrong
        sc_clean = _clean_scenario(5000)
        for r in range(5):
            cohort, _ = simulate(sc_clean, rng=np.random.default_rng([77, r, 0]))
            X = build_design_matrix(cohort, columns=sc_clean.covariates)
            fit = fit_liu(cohort.outcomes(), X)
            est = fit.error_rates_hat
            assert 0.0 <= est.r0 < 0.5 and 0.0 <= est.r1 < 0.5
            if fit.converged:
                # a rate held on its bound has no SE; a free one a finite SE
                for rate, se in ((est.r0, est.se_r0), (est.r1, est.se_r1)):
                    if rate == 0.0:
                        assert se is None
                    else:
                        assert se is not None and np.isfinite(se)
            else:
                assert fit.condition_warning

    @pytest.mark.parametrize(
        "variant, pinned, free, free_held",
        [
            (LiuVariant.FALSE_POSITIVE_ONLY, "r1", "r0", False),
            # with the false-positive rate pinned, this draw's free
            # false-negative rate lands on its bound as well
            (LiuVariant.FALSE_NEGATIVE_ONLY, "r0", "r1", True),
        ],
        ids=["fp", "fn"],
    )
    def test_single_free_rate_pins_the_other_at_zero(self, variant, pinned, free, free_held):
        sc = _liu_test_scenario(4000)
        cohort, _ = simulate(sc, rng=np.random.default_rng([12, 0, 0]))
        X = build_design_matrix(cohort, columns=sc.covariates)
        est = fit_liu(cohort.outcomes(), X, variant=variant).error_rates_hat
        assert getattr(est, pinned) == 0.0
        assert getattr(est, f"se_{pinned}") is None
        if free_held:
            assert getattr(est, free) == 0.0 and getattr(est, f"se_{free}") is None
        else:
            assert getattr(est, free) > 0.0 and np.isfinite(getattr(est, f"se_{free}"))

    @pytest.mark.parametrize(
        "variant, pinned",
        [(LiuVariant.FALSE_POSITIVE_ONLY, "r1"), (LiuVariant.FALSE_NEGATIVE_ONLY, "r0")],
        ids=["fp", "fn"],
    )
    def test_boundary_note_skips_the_rate_the_variant_pins(self, variant, pinned):
        sc = _liu_test_scenario(4000)
        cohort, _ = simulate(sc, rng=np.random.default_rng([12, 0, 0]))
        X = build_design_matrix(cohort, columns=sc.covariates)
        fit = fit_liu(cohort.outcomes(), X, variant=variant)
        assert fit.converged
        assert f"'{pinned}'" not in (fit.condition_warning or "")

    def test_rate_on_its_bound_is_exactly_zero(self, intage_demo):
        # the seed-42 integer-age demo cohort: the false-positive rate's
        # optimum is on the bound, where the score points out of the box
        y, X = intage_demo
        fit = fit_liu(y, X)
        assert fit.converged
        assert fit.error_rates_hat.r0 == 0.0
        assert 0.0 < fit.error_rates_hat.r1 < 0.5
        k, m, U = X.patterns.positives(y), X.patterns.trials, X.patterns.rows
        rates = ErrorRates(0.0, fit.error_rates_hat.r1)
        _, score = liu_loglik(k, U, fit.beta_hat, rates, trials=m)
        assert score[-2] < 0.0
        assert np.max(np.abs(score[:-2])) < SCORE_TOL and abs(score[-1]) < SCORE_TOL

    def test_rate_held_on_its_bound_has_no_se(self, intage_demo):
        y, X = intage_demo
        fit = fit_liu(y, X)
        est = fit.error_rates_hat
        assert est.r0 == 0.0 and est.se_r0 is None
        assert np.isfinite(est.se_r1)
        p = X.shape[1]
        # the held rate has no row in the covariance; beta's block is finite
        assert np.all(fit.covariance[p] == 0.0) and np.all(fit.covariance[:, p] == 0.0)
        assert np.all(np.isfinite(fit.beta_se))

    def test_indicator_with_only_negatives_is_separation(self):
        rng = np.random.default_rng(3)
        n = 2000
        x = rng.standard_normal(n)
        indicator = (np.arange(n) < 40).astype(float)
        y = (rng.random(n) < logistic(-1.0 + 0.8 * x)).astype(float)
        y[indicator == 1.0] = 0.0
        fit = fit_liu(y, np.column_stack([np.ones(n), x, indicator]))
        assert not fit.converged
        assert fit.condition_warning.startswith("separation or boundary")

    def test_errors_equal_ties_the_rates(self):
        sc = _liu_test_scenario(4000)
        cohort, _ = simulate(sc, rng=np.random.default_rng([13, 0, 0]))
        X = build_design_matrix(cohort, columns=sc.covariates)
        fit = fit_liu(cohort.outcomes(), X, variant=LiuVariant.ERRORS_EQUAL)
        assert fit.error_rates_hat.r0 == fit.error_rates_hat.r1

    def test_clamped_response_probability_fails_without_warnings(self):
        # replicate 31 at n = 2,000 of acceptance criterion 7: a Newton step
        # meets patterns with outcomes at a clamped response probability,
        # where the Hessian is not finite; that is a failed fit, not a warning
        base = SimScenario(
            n=2_000,
            beta_true=(-5.0, 0.14, 0.3, 2.5),
            assay_true=AssayProfile(sensitivity=0.964, specificity=0.974),
            covariates=("age", "sex", "other_sti"),
            covariate_spec=CovariateSpec(other_sti_rate=0.08),
            seed=11,
        )
        sc = calibrate_intercept(base, 0.01)
        cohort, _ = simulate(sc, rng=np.random.default_rng([11, 31, 0]))
        X = build_design_matrix(cohort, columns=sc.covariates)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_liu(cohort.outcomes(), X)
        assert not fit.converged

    def test_default_init_clips_runaway_start(self):
        x = np.concatenate([-np.ones(30), np.ones(30)])
        y = (x > 0).astype(float)
        X = np.column_stack([np.ones(60), x])
        init = default_liu_init(y, X)
        assert np.max(np.abs(init.beta)) <= 10.0
        assert init.r0 == 0.01 and init.r1 == 0.01
