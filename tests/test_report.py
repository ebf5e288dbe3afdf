"""Marginal prevalence summaries and the model comparison report."""

import dataclasses
import typing

import numpy as np
import pytest

from misclass_prev import report
from misclass_prev.data_model import AssayProfile, build_design_matrix, csv_text, write_text
from misclass_prev.errors import NonConvergenceError
from misclass_prev.likelihoods import logistic
from misclass_prev.mcmc import PosteriorDraws
from misclass_prev.mle import FitResult, ModelTag, fit_liu, fit_std
from misclass_prev.report import (
    ComparisonReport,
    PrevalenceEstimate,
    build_comparison_report,
    coefficient_csv_rows,
    draws_rows,
    marginal_prevalence_bayes,
    marginal_prevalence_liu,
    marginal_prevalence_std,
    posterior_prevalence_draws,
    prevalence_csv_rows,
    render_csv_text,
    render_text,
    se_csv_rows,
)
from misclass_prev.rogan_gladen import CrudeEstimate, IntervalMethod, rogan_gladen_interval
from misclass_prev.simulate import CovariateSpec, SimScenario, simulate


def small_logit_fit(seed=9, n=300):
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(n)
    y = (rng.random(n) < logistic(-0.8 + 0.9 * x1)).astype(float)
    X = np.column_stack([np.ones(n), x1])
    return y, X, fit_std(y, X)


# acceptance rates of two chains of draws made up rather than sampled
NO_RATES = np.full(2, np.nan)


def fake_posterior(betas, param_names=("intercept", "age"), rhat=None):
    """Wrap explicit coefficient draws (one chain per row pair) for summaries."""
    arr = np.asarray(betas, dtype=float).reshape(2, -1, len(param_names))
    draws = PosteriorDraws(arr, param_names, accept_rate=NO_RATES)
    if rhat is not None:
        object.__setattr__(draws, "rhat", np.asarray(rhat, dtype=float))
    return draws


class TestPrevalenceEstimate:
    def test_interval_must_bracket_point(self):
        with pytest.raises(ValueError, match="out of order"):
            PrevalenceEstimate(
                model_tag=ModelTag.STD,
                point=0.05,
                lower=0.06,
                upper=0.10,
                interval_method=IntervalMethod.WALD,
            )

    def test_width_is_derived(self):
        est = PrevalenceEstimate(
            model_tag=ModelTag.STD,
            point=0.05,
            lower=0.02,
            upper=0.09,
            interval_method=IntervalMethod.WALD,
        )
        assert est.ci_width == pytest.approx(0.07)

    def test_width_cannot_be_passed(self):
        with pytest.raises(TypeError, match="ci_width"):
            PrevalenceEstimate(
                model_tag=ModelTag.STD,
                point=0.05,
                lower=0.02,
                upper=0.09,
                interval_method=IntervalMethod.WALD,
                ci_width=0.5,
            )


class TestPosteriorPrevalenceDraws:
    def test_each_draw_averages_its_own_probabilities(self):
        X = np.column_stack([np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])])
        betas = np.array(
            [[[-1.0, 0.2]], [[0.5, -0.1]]]
        )  # 2 chains, 1 draw each
        draws = PosteriorDraws(betas, ("intercept", "age"), accept_rate=NO_RATES)
        vals = posterior_prevalence_draws(draws, X)
        expect = [float(logistic(X @ b).mean()) for b in betas.reshape(-1, 2)]
        np.testing.assert_allclose(vals, expect, atol=1e-12)

    def test_correction_applies_per_draw_then_clips(self):
        X = np.ones((5, 1))
        betas = np.array([[[-6.0]], [[0.0]]])  # probabilities 0.0025 and 0.5
        draws = PosteriorDraws(betas, ("intercept",), accept_rate=NO_RATES)
        assay = AssayProfile(sensitivity=0.9, specificity=0.95)
        vals = posterior_prevalence_draws(draws, X, assay=assay)
        raw0 = (logistic(-6.0) + 0.95 - 1.0) / 0.85  # negative, clips to zero
        assert raw0 < 0.0
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx((0.5 - 0.05) / 0.85, abs=1e-12)

    def test_accuracy_coordinates_are_not_coefficients(self):
        X = np.ones((3, 1))
        arr = np.zeros((2, 2, 3))
        arr[:, :, 1] = 0.9  # sensitivity draws
        arr[:, :, 2] = 0.95
        names = ("intercept", "sensitivity", "specificity")
        draws = PosteriorDraws(arr, names, accept_rate=NO_RATES)
        vals = posterior_prevalence_draws(draws, X)
        np.testing.assert_allclose(vals, 0.5, atol=1e-12)

    def test_each_distinct_state_once_gives_the_bits_of_every_draw_in_blocks_of_4(self):
        # 2 chains of 20 draws over 7 distinct states: long runs of repeats,
        # chain 1 opening on chain 0's last state, and 7 distinct draws, so
        # the last block of distinct draws is padded
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(300), rng.standard_normal(300), rng.integers(0, 2, 300)])
        states = rng.normal(scale=0.5, size=(7, 3)) + [-1.0, 0.0, 0.0]
        index = [0] * 6 + [1] + [2] * 8 + [3] * 5 + [3] * 4 + [4] * 10 + [5] + [6] * 5
        flat = states[index]
        draws = PosteriorDraws(flat.reshape(2, 20, 3), ("intercept", "x", "sex"), NO_RATES)
        got = posterior_prevalence_draws(draws, X)
        weights = np.full(300, 1.0 / 300)
        want = np.concatenate(
            [weights @ logistic(X @ flat[i : i + 4].T) for i in range(0, flat.shape[0], 4)]
        )
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_dimension_mismatch_is_an_error(self):
        X = np.ones((3, 2))
        draws = PosteriorDraws(np.zeros((2, 2, 1)), ("intercept",), accept_rate=NO_RATES)
        with pytest.raises(ValueError, match="coefficients"):
            posterior_prevalence_draws(draws, X)


class TestBayesSummary:
    def test_point_and_interval_match_draw_quantiles(self):
        rng = np.random.default_rng(40)
        X = np.column_stack([np.ones(50), rng.standard_normal(50)])
        arr = rng.normal(scale=0.3, size=(2, 400, 2)) + np.array([-1.0, 0.4])
        draws = PosteriorDraws(arr, ("intercept", "age"), accept_rate=NO_RATES)
        est = marginal_prevalence_bayes(draws, X, ModelTag.BEC)
        vals = posterior_prevalence_draws(draws, X)
        assert est.point == pytest.approx(float(vals.mean()), abs=1e-12)
        lo, hi = np.quantile(vals, [0.025, 0.975])
        assert est.lower == pytest.approx(float(lo), abs=1e-12)
        assert est.upper == pytest.approx(float(hi), abs=1e-12)
        assert est.interval_method is IntervalMethod.POSTERIOR_QUANTILE

    def test_accuracy_chains_do_not_trigger_the_gate(self):
        # the summary reads the coefficient chains only; a wobbly
        # sensitivity chain must not block it (the R-hat gate is the fit's)
        rng = np.random.default_rng(42)
        X = np.ones((20, 1))
        arr = np.empty((2, 300, 2))
        arr[:, :, 0] = rng.normal(-1.0, 0.2, size=(2, 300))
        arr[0, :, 1] = 0.90
        arr[1, :, 1] = 0.96
        draws = PosteriorDraws(arr, ("intercept", "sensitivity"), accept_rate=NO_RATES)
        est = marginal_prevalence_bayes(draws, X, ModelTag.BEC)
        assert 0.0 < est.point < 1.0


class TestStdSummary:
    def test_point_is_corrected_mean_probability(self):
        y, X, fit = small_logit_fit()
        assay = AssayProfile(sensitivity=0.9, specificity=0.95)
        est = marginal_prevalence_std(y, X, fit, assay, n_boot=200, rng=np.random.default_rng(3))
        mean_prob = float(logistic(X @ fit.beta_hat).mean())
        assert est.point == pytest.approx((mean_prob + 0.95 - 1.0) / 0.85, abs=1e-12)
        assert est.lower <= est.point <= est.upper
        assert est.model_tag is ModelTag.STD

    def test_bootstrap_is_reproducible_by_seed(self):
        y, X, fit = small_logit_fit()
        assay = AssayProfile(sensitivity=1.0, specificity=1.0)
        a = marginal_prevalence_std(y, X, fit, assay, n_boot=120, rng=np.random.default_rng(5))
        b = marginal_prevalence_std(y, X, fit, assay, n_boot=120, rng=np.random.default_rng(5))
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_bootstrap_counts_a_resample_that_loses_a_rare_indicator(self):
        # four subjects carry the indicator, two positive and two negative.
        # A resample that draws none of them is rank deficient, and one
        # that draws neither positive (or neither negative) separates on
        # the indicator: both are failed refits, not a crash, and nothing
        # else fails on this design.
        y, X, _ = small_logit_fit(n=200)
        rare = np.zeros(200)
        rare[:4] = 1.0
        y[:4] = (1.0, 1.0, 0.0, 0.0)
        X = np.column_stack([X, rare])
        fit = fit_std(y, X)
        assert fit.converged
        draws = np.random.default_rng(1)
        lost = [draws.integers(0, 200, size=200) for _ in range(120)]
        lost_none = sum(not np.isin(idx, [0, 1, 2, 3]).any() for idx in lost)
        lost_one_level = sum(
            not np.isin(idx, [0, 1]).any() or not np.isin(idx, [2, 3]).any() for idx in lost
        )
        assert lost_none >= 1
        assay = AssayProfile(sensitivity=0.9, specificity=0.95)
        est = marginal_prevalence_std(y, X, fit, assay, n_boot=120, rng=np.random.default_rng(1))
        assert est.n_resample_failures == lost_one_level
        assert est.lower <= est.point <= est.upper

    def test_bootstrap_floor_is_half_the_requested_resamples(self):
        y, X, fit = small_logit_fit()
        assay = AssayProfile(sensitivity=0.9, specificity=0.95)
        est = marginal_prevalence_std(y, X, fit, assay, n_boot=10, rng=np.random.default_rng(3))
        assert est.n_resample_failures == 0
        assert est.lower <= est.point <= est.upper

    def test_delta_interval_brackets_point(self):
        y, X, fit = small_logit_fit()
        assay = AssayProfile(sensitivity=0.9, specificity=0.95)
        est = marginal_prevalence_std(y, X, fit, assay, interval=IntervalMethod.DELTA)
        assert est.lower < est.point < est.upper
        assert est.interval_method is IntervalMethod.DELTA

    def test_rejects_nonconverged_fit(self):
        y, X, _ = small_logit_fit()
        bad = FitResult(
            model_tag=ModelTag.STD,
            beta_hat=np.zeros(2),
            beta_se=None,
            loglik=-1.0,
            converged=False,
            iterations=5,
            column_names=("intercept", "age"),
            condition_warning="separation or boundary: fitted probabilities degenerate",
        )
        assay = AssayProfile(sensitivity=0.9, specificity=0.95)
        with pytest.raises(NonConvergenceError, match="did not converge"):
            marginal_prevalence_std(y, X, bad, assay)


@pytest.fixture(scope="module")
def liu_fit():
    assay = AssayProfile(sensitivity=0.964, specificity=0.974)
    sc = SimScenario(
        n=4000,
        beta_true=(-9.976701575668823, 0.14, 0.3, 2.5),
        assay_true=assay,
        covariates=("age", "sex", "other_sti"),
        covariate_spec=CovariateSpec(other_sti_rate=0.08),
        seed=0,
    )
    cohort, truth = simulate(sc, rng=np.random.default_rng([88, 2, 0]))
    X = build_design_matrix(cohort, columns=sc.covariates)
    y = np.array([r.observed_outcome for r in cohort.records], dtype=float)
    fit = fit_liu(y, X)
    assert fit.converged
    return y, X, fit, truth


class TestBootstrapCollapse:
    """Fewer than half of the requested refits clean is a collapse; fewer
    failures than that are counted and logged, for STD and LIU alike."""

    @pytest.fixture(params=["std", "liu"])
    def every_other_refit_fails(self, request, monkeypatch, liu_fit):
        name = f"fit_{request.param}"
        real = getattr(report, name)
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            refit = real(*args, **kwargs)
            if len(calls) % 2:
                refit = dataclasses.replace(refit, converged=False, condition_warning="made to fail")
            return refit

        monkeypatch.setattr(report, name, flaky)
        if request.param == "std":
            y, X, fit = small_logit_fit()
            assay = AssayProfile(sensitivity=0.9, specificity=0.95)
            return "bootstrap", lambda n_boot: marginal_prevalence_std(
                y, X, fit, assay, n_boot=n_boot, rng=np.random.default_rng(3)
            )
        _, X, fit, _ = liu_fit
        return "parametric bootstrap", lambda n_boot: marginal_prevalence_liu(
            X, fit, n_boot=n_boot, rng=np.random.default_rng(7)
        )

    def test_half_the_refits_clean_is_enough(self, every_other_refit_fails, caplog):
        _, run = every_other_refit_fails
        est = run(10)
        assert est.n_resample_failures == 5
        assert est.lower <= est.point <= est.upper
        assert "prevalence bootstrap: 5 of 10 refits failed" in caplog.text

    def test_fewer_than_half_clean_collapses(self, every_other_refit_fails):
        what, run = every_other_refit_fails
        with pytest.raises(NonConvergenceError) as info:
            run(11)
        assert str(info.value) == f"{what} collapsed: only 5 of 11 resamples refit cleanly"


class TestLiuSummary:
    def test_point_needs_no_external_correction(self, liu_fit):
        _, X, fit, _ = liu_fit
        est = marginal_prevalence_liu(X, fit, n_boot=60, rng=np.random.default_rng(7))
        assert est.point == pytest.approx(float(logistic(X.matrix @ fit.beta_hat).mean()), abs=1e-12)
        assert est.lower <= est.point <= est.upper
        assert est.interval_method is IntervalMethod.BOOTSTRAP

    def test_interval_covers_the_generating_prevalence_here(self, liu_fit):
        _, X, fit, truth = liu_fit
        est = marginal_prevalence_liu(X, fit, n_boot=60, rng=np.random.default_rng(7))
        assert est.lower < truth.true_prevalence < est.upper

    def test_delta_interval_propagates_the_joint_covariance(self, liu_fit):
        _, X, fit, truth = liu_fit
        est = marginal_prevalence_liu(X, fit, interval=IntervalMethod.DELTA)
        pi = logistic(X.matrix @ fit.beta_hat)
        # the rates sit after beta in the covariance, with zero gradient
        g = np.zeros(fit.covariance.shape[0])
        g[: X.matrix.shape[1]] = X.matrix.T @ (pi * (1.0 - pi)) / X.matrix.shape[0]
        half = 1.959963984540054 * np.sqrt(g @ fit.covariance @ g)
        assert est.interval_method is IntervalMethod.DELTA
        assert est.point == pytest.approx(float(pi.mean()), abs=1e-12)
        assert est.lower == pytest.approx(est.point - half, rel=1e-9)
        assert est.upper == pytest.approx(est.point + half, rel=1e-9)
        assert est.lower < truth.true_prevalence < est.upper
        assert est.n_resample_failures == 0

    def test_bootstrap_from_a_rate_on_its_bound_loses_no_refit(self, intage_demo):
        # the main fit's r0 is exactly 0 here and every refit starts there
        y, X = intage_demo
        fit = fit_liu(y, X)
        assert fit.error_rates_hat.r0 == 0.0
        est = marginal_prevalence_liu(X, fit, n_boot=100, rng=np.random.default_rng([42, 2]))
        assert est.n_resample_failures == 0

    def test_requires_error_rate_estimates(self, liu_fit):
        y, X, _, _ = liu_fit
        plain = fit_std(y, X)
        with pytest.raises(ValueError, match="error-rate"):
            marginal_prevalence_liu(X, plain)


class TestDrawsRows:
    def test_csv_round_trip_is_lossless(self):
        rng = np.random.default_rng(11)
        draws = rng.standard_normal((2, 4, 2))
        pd = PosteriorDraws(draws, ("alpha", "beta"), accept_rate=np.full(2, np.nan))
        lines = csv_text(draws_rows(pd)).splitlines()
        assert lines[0] == "alpha,beta,chain,draw"
        assert len(lines) == 1 + 8
        for k, line in enumerate(lines[1:]):
            c, i = divmod(k, 4)
            cells = line.split(",")
            assert [float(v) for v in cells[:2]] == draws[c, i].tolist()
            assert cells[2:] == [str(c), str(i)]


class TestComparisonReport:
    def make_estimate(self, tag, point, lower, upper):
        return PrevalenceEstimate(
            model_tag=tag,
            point=point,
            lower=lower,
            upper=upper,
            interval_method=IntervalMethod.WALD,
        )

    def make_fit(self, tag, beta, se):
        return FitResult(
            model_tag=tag,
            beta_hat=np.asarray(beta, dtype=float),
            beta_se=np.asarray(se, dtype=float),
            loglik=-100.0,
            converged=True,
            iterations=10,
            column_names=("intercept", "age"),
        )

    def crude(self):
        assay = AssayProfile(sensitivity=0.9, specificity=0.95)
        return rogan_gladen_interval(60, 1000, assay)

    def test_annotations_resolve(self):
        assert typing.get_type_hints(ComparisonReport)["crude"] is CrudeEstimate

    def test_partial_inputs_leave_named_gaps(self):
        crude = self.crude()
        fits = {ModelTag.STD: self.make_fit(ModelTag.STD, [-2.0, 0.1], [0.2, 0.05])}
        prevs = {ModelTag.STD: self.make_estimate(ModelTag.STD, 0.012, 0.008, 0.016)}
        report = build_comparison_report(crude, fits=fits, prevalences=prevs)
        assert report.gaps == ("LIU", "BC", "BEC")
        assert len(report.prevalence) == 1
        row = report.coefficients[0]
        assert row.std == pytest.approx(-2.0)
        assert row.liu is None and row.bec is None

    def test_changes_are_relative_to_crude_and_std(self):
        crude = self.crude()
        prevs = {
            ModelTag.STD: self.make_estimate(ModelTag.STD, 0.010, 0.005, 0.015),
            ModelTag.LIU: self.make_estimate(ModelTag.LIU, 0.013, 0.006, 0.020),
        }
        report = build_comparison_report(crude, prevalences=prevs)
        std_row, liu_row = report.prevalence
        assert std_row.change_vs_crude_pct == pytest.approx(
            100.0 * (0.010 - crude.p_obs) / crude.p_obs
        )
        assert std_row.change_vs_std_pct is None
        assert liu_row.change_vs_std_pct == pytest.approx(100.0 * (0.013 - 0.010) / 0.010)

    def test_se_comparison_relative_change(self):
        crude = self.crude()
        fits = {
            ModelTag.LIU: self.make_fit(ModelTag.LIU, [-2.0, 0.1], [0.694, 0.05]),
            ModelTag.BEC: self.make_fit(ModelTag.BEC, [-2.1, 0.11], [0.237, 0.04]),
        }
        report = build_comparison_report(crude, fits=fits)
        row = report.se_comparison[0]
        assert row.relative_change == pytest.approx(0.694 / 0.237 - 1.0)

    def test_prevalence_csv_round_trip(self):
        crude = self.crude()
        prevs = {
            ModelTag.STD: self.make_estimate(ModelTag.STD, 0.0123456789, 0.005, 0.015),
            ModelTag.BEC: self.make_estimate(ModelTag.BEC, 0.0139, 0.011, 0.017),
        }
        report = build_comparison_report(crude, prevalences=prevs)
        rows = prevalence_csv_rows(report)
        assert rows[0][0] == "model"
        assert [r[0] for r in rows[1:]] == ["CRUDE", "CRUDE_CORRECTED", "STD", "BEC"]

    def test_text_rendering_shows_all_blocks(self, tmp_path):
        crude = self.crude()
        fits = {
            ModelTag.STD: self.make_fit(ModelTag.STD, [-2.0, 0.1], [0.2, 0.05]),
            ModelTag.LIU: self.make_fit(ModelTag.LIU, [-1.9, 0.12], [0.7, 0.06]),
        }
        prevs = {ModelTag.STD: self.make_estimate(ModelTag.STD, 0.012, 0.008, 0.016)}
        report = build_comparison_report(crude, fits=fits, prevalences=prevs)
        text = render_text(report)
        assert "Marginal prevalence" in text
        assert "Coefficients" in text
        assert "Standard errors" in text
        assert "missing models: BC, BEC" in text
        # numbers are rounded for reading, not dumped at full precision
        assert repr(crude.p_adj) not in text

        path = tmp_path / "coef.csv"
        write_text(csv_text(coefficient_csv_rows(report)), path)
        rendered = render_csv_text(path)
        assert rendered.splitlines()[0].split() == list(coefficient_csv_rows(report)[0])

    def test_se_rows_header(self):
        report = build_comparison_report(self.crude())
        assert se_csv_rows(report)[0] == ["coefficient", "se_liu", "se_bec", "relative_change"]
