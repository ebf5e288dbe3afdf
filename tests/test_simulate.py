"""Cohort generator: marginals, misclassification mechanics, studies, scenario files."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from misclass_prev.data_model import AssayProfile, design_from_columns, save_cohort
from misclass_prev.errors import InputError, SchemaError
from misclass_prev.likelihoods import logistic
from misclass_prev.simulate import (
    CALIBRATION_PROBE_N,
    CovariateSpec,
    SimScenario,
    _calibrated_truncnorm,
    _draw_covariates,
    _ndtr,
    _ndtri,
    _truncnorm_draw,
    _truncnorm_moments,
    calibrate_intercept,
    load_bundled_scenario,
    read_scenario,
    replicate_study,
    resolve_workers,
    simulate,
)

PERFECT = AssayProfile(sensitivity=1.0, specificity=1.0)


def basic_scenario(n=2000, seed=0, assay=PERFECT, **kwargs):
    defaults = dict(
        n=n,
        beta_true=(-3.0, 0.04, 0.3),
        assay_true=assay,
        covariates=("age", "sex"),
        seed=seed,
    )
    defaults.update(kwargs)
    return SimScenario(**defaults)


class TestCovariateSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"male_rate": 1.4},
            {"other_sti_rate": -0.1},
            {"group_probs": (0.5, 0.5)},
            {"group_probs": (0.5, 0.2, 0.2, 0.2, -0.1)},
            {"age_min": 50.0, "age_max": 20.0},
            {"age_sd": 0.0},
        ],
    )
    def test_rejects_bad_margins(self, kwargs):
        with pytest.raises(ValueError):
            CovariateSpec(**kwargs)


@pytest.fixture(scope="module")
def big_cohort():
    sc = SimScenario(
        n=200_000,
        beta_true=(-3.0, 0.04, 0.3, 0.5, 0.2),
        assay_true=PERFECT,
        covariates=("age", "sex", "other_sti", "hepb"),
        seed=31,
    )
    cohort, truth = simulate(sc)
    return sc, cohort, truth


class TestGeneratedMarginals:
    def test_age_calibration_hits_requested_moments(self, big_cohort):
        sc, cohort, _ = big_cohort
        spec = sc.covariate_spec
        age = np.array([r.age for r in cohort.records])
        n = age.size
        assert np.all((age >= spec.age_min) & (age <= spec.age_max))
        # the truncated-normal parameters are solved so the realized
        # moments match the requested ones, not the parent's
        assert abs(age.mean() - spec.age_mean) < 3.0 * spec.age_sd / np.sqrt(n)
        assert abs(age.std(ddof=1) - spec.age_sd) < 0.05 * spec.age_sd

    @pytest.mark.parametrize(
        "attr,rate_name",
        [("sex", "male_rate"), ("other_sti_result", "other_sti_rate"), ("hepb_result", "hepb_rate")],
    )
    def test_binary_margins_within_three_sd(self, big_cohort, attr, rate_name):
        sc, cohort, _ = big_cohort
        rate = getattr(sc.covariate_spec, rate_name)
        vals = np.array([getattr(r, attr) for r in cohort.records], dtype=float)
        n = vals.size
        sd = np.sqrt(rate * (1.0 - rate) / n)
        assert abs(vals.mean() - rate) < 3.0 * sd

    def test_group_margins_within_three_sd(self, big_cohort):
        sc, cohort, _ = big_cohort
        probs = sc.covariate_spec.group_probs
        groups = [r.population_group for r in cohort.records]
        n = len(groups)
        from misclass_prev.data_model import PopulationGroup

        order = (
            PopulationGroup.GENERAL,
            PopulationGroup.MSM,
            PopulationGroup.LGTBI,
            PopulationGroup.OTHER,
            PopulationGroup.SEX_WORKER,
        )
        for g, p in zip(order, probs):
            share = sum(1 for x in groups if x is g) / n
            assert abs(share - p) < 3.0 * np.sqrt(p * (1.0 - p) / n)


class TestMisclassification:
    def test_observed_rates_track_assay_within_three_sd(self):
        assay = AssayProfile(sensitivity=0.85, specificity=0.93)
        sc = basic_scenario(n=150_000, seed=8, assay=assay)
        cohort, truth = simulate(sc)
        observed = cohort.outcomes()
        latent = truth.true_status.astype(bool)

        n1 = latent.sum()
        rate_pos = observed[latent].mean()
        assert abs(rate_pos - assay.sensitivity) < 3.0 * np.sqrt(
            assay.sensitivity * (1.0 - assay.sensitivity) / n1
        )
        n0 = (~latent).sum()
        fp = 1.0 - assay.specificity
        rate_neg = observed[~latent].mean()
        assert abs(rate_neg - fp) < 3.0 * np.sqrt(fp * (1.0 - fp) / n0)

    def test_perfect_assay_copies_latent_status(self):
        sc = basic_scenario(n=5000, seed=3)
        cohort, truth = simulate(sc)
        np.testing.assert_array_equal(cohort.outcomes(), truth.true_status.astype(float))

    def test_truth_record_is_consistent(self):
        sc = basic_scenario(n=5000, seed=4)
        cohort, truth = simulate(sc)
        assert truth.true_prevalence == pytest.approx(float(truth.pi.mean()), abs=1e-12)


class TestDeterminism:
    def test_same_scenario_and_seed_give_identical_bytes(self, tmp_path):
        sc = basic_scenario(n=500, seed=99)
        a, _ = simulate(sc)
        b, _ = simulate(sc)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_cohort(a, pa)
        save_cohort(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_explicit_generator_overrides_scenario_seed(self):
        sc = basic_scenario(n=500, seed=99)
        a, _ = simulate(sc)
        b, _ = simulate(sc, rng=np.random.default_rng(1234))
        assert a.records != b.records


class TestCalibration:
    def test_intercept_lands_on_target(self):
        sc = basic_scenario(n=2000, seed=5)
        cal = calibrate_intercept(sc, 0.05)
        assert cal.beta_true[1:] == sc.beta_true[1:]
        _, truth = simulate(
            SimScenario(
                n=200_000,
                beta_true=cal.beta_true,
                assay_true=PERFECT,
                covariates=cal.covariates,
                seed=17,
            )
        )
        assert truth.true_prevalence == pytest.approx(0.05, abs=0.005)

    def test_rejects_impossible_targets(self):
        sc = basic_scenario()
        with pytest.raises(ValueError):
            calibrate_intercept(sc, 0.0)


class TestScipyReplacements:
    """The normal functions and root solves of the age draw, held against scipy's."""

    def test_cdf_matches_ndtr_into_both_tails(self):
        x = np.concatenate([np.linspace(-37.5, 9.0, 931), [-1e-300, 0.0, 1e-300]])
        got = np.array([_ndtr(v) for v in x])
        np.testing.assert_allclose(got, special.ndtr(x), rtol=1e-13, atol=0.0)

    def test_quantile_matches_ndtri_into_both_tails(self):
        p = np.concatenate(
            [np.logspace(-300, -1, 300), np.linspace(0.01, 0.99, 99), 1.0 - np.logspace(-16, -1, 100)]
        )
        np.testing.assert_allclose(_ndtri(p), special.ndtri(p), rtol=1e-13, atol=0.0)
        assert _ndtri(np.array([0.0, 1.0])).tolist() == [-math.inf, math.inf]

    @staticmethod
    def hybr(mean, sd, lo, hi):
        """scipy's hybr on the same residual from the same start, or None where it misses the gate."""

        def moments(theta):
            if abs(theta[1]) > 700.0:  # sigma would leave the floats
                return math.nan, math.nan
            return _truncnorm_moments(theta[0], math.exp(theta[1]), lo, hi)[:2]

        def residual(theta):
            m, s = moments(theta)
            if not (math.isfinite(m) and math.isfinite(s)):
                return [1e6, 1e6]
            return [m - mean, s - sd]

        sol = optimize.root(residual, [mean, math.log(sd)], method="hybr")
        m, s = moments(sol.x)
        if sol.success and abs(m - mean) <= 1e-6 and abs(s - sd) <= 1e-6:
            return float(sol.x[0]), math.exp(sol.x[1])
        return None

    def test_solver_matches_hybr_on_the_default_moments(self):
        spec = CovariateSpec()
        args = (spec.age_mean, spec.age_sd, spec.age_min, spec.age_max)
        np.testing.assert_allclose(_calibrated_truncnorm(*args), self.hybr(*args), rtol=1e-12)

    # moment sets on either side of what a truncated normal can reach,
    # the far-tail ones (mu far below the lower bound) included
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        lo=st.floats(-100.0, 100.0),
        width=st.floats(0.5, 200.0),
        at=st.floats(0.0, 1.0),
        spread=st.floats(0.005, 0.45),
    )
    def test_solver_succeeds_wherever_hybr_does(self, lo, width, at, spread):
        hi, mean, sd = lo + width, lo + at * width, spread * width
        try:
            mu, sigma = _calibrated_truncnorm(mean, sd, lo, hi)
        except InputError:
            assert self.hybr(mean, sd, lo, hi) is None
            return
        m, s, _ = _truncnorm_moments(mu, sigma, lo, hi)
        assert abs(m - mean) <= 1e-6 and abs(s - sd) <= 1e-6

    @pytest.mark.parametrize("target", [0.001, 0.05, 0.5, 0.97])
    @pytest.mark.parametrize("scenario", ["basic", "demo_cohort"])
    def test_intercept_matches_brentq(self, scenario, target):
        sc = basic_scenario() if scenario == "basic" else load_bundled_scenario(scenario)
        got = calibrate_intercept(sc, target).beta_true[0]
        rng = np.random.default_rng([7, 0xCA11])
        cols = _draw_covariates(sc.covariate_spec, CALIBRATION_PROBE_N, rng)
        X = design_from_columns(cols, sc.covariates).matrix
        rest = np.asarray(sc.beta_true[1:])

        def gap(b0):
            return float(np.mean(logistic(X @ np.r_[b0, rest]))) - target

        assert abs(got - optimize.brentq(gap, -30.0, 10.0, xtol=1e-10)) <= 1e-9

    def test_intercept_out_of_reach_is_a_value_error(self):
        with pytest.raises(ValueError, match="no intercept"):
            calibrate_intercept(basic_scenario(), 1e-15)

    @pytest.mark.parametrize(
        "spec,uniforms,ages",
        [
            # cdf 0 at age_min and 1 at age_max, so both ends have infinite quantiles
            (CovariateSpec(age_mean=50.0, age_sd=5.0, age_min=-1000.0, age_max=1000.0),
             [0.0, 1.0], [-1000.0, 1000.0]),
            # mu below age_min, so the draw is mirrored; cdf 0 at age_max there
            (CovariateSpec(age_mean=16.0, age_sd=0.8, age_min=15.0, age_max=1000.0),
             [0.0, 1.0], [15.0, 1000.0]),
        ],
    )  # fmt: skip
    def test_uniform_of_zero_or_one_gives_the_bounds(self, spec, uniforms, ages):
        assert _truncnorm_draw(spec, np.array(uniforms)).tolist() == ages


class TestScenarioFiles:
    def test_round_trip_through_ini_text(self):
        text = (
            "[scenario]\nn = 1500\nseed = 11\noutcome_label = DEMO\n\n"
            "[generating_assay]\nse = 0.9\nsp = 0.95\n\n"
            "[analysis_assay]\nse = 0.964\nsp = 0.974\nse_prior_n = 500\nsp_prior_n = 500\n\n"
            "[coefficients]\nintercept = -4.0\nage = 0.05\nmsm = 0.9\n\n"
            "[covariates]\nage_mean = 30\nmale_rate = 0.6\n"
        )
        sc = read_scenario(io.StringIO(text))
        assert sc.n == 1500
        assert sc.seed == 11
        assert sc.outcome_label == "DEMO"
        assert sc.covariates == ("age", "msm")
        assert sc.beta_true == (-4.0, 0.05, 0.9)
        assert sc.assay_true.sensitivity == 0.9
        assert sc.analysis_assay.mode.value == "beta_prior"
        a, b = sc.analysis_assay.se_prior
        assert a + b == pytest.approx(500.0)
        assert sc.covariate_spec.age_mean == 30.0
        assert sc.covariate_spec.male_rate == 0.6

    def test_group_weights_are_normalized(self):
        text = (
            "[scenario]\nn = 100\n\n[generating_assay]\nse = 0.9\nsp = 0.95\n\n"
            "[coefficients]\nintercept = -2.0\n\n"
            "[covariates]\ngroup_general = 3\ngroup_msm = 1\ngroup_lgtbi = 1\n"
            "group_other = 1\ngroup_sex_worker = 2\n"
        )
        sc = read_scenario(io.StringIO(text))
        assert sum(sc.covariate_spec.group_probs) == pytest.approx(1.0, abs=1e-12)
        # weights land in GROUP_ORDER: general, msm, lgtbi, other, sex worker
        np.testing.assert_allclose(sc.covariate_spec.group_probs, np.array([3, 1, 1, 1, 2]) / 8)

    @pytest.mark.parametrize(
        "text",
        [
            "[scenario]\nn = 100\n",  # no assay
            "[scenario]\nn = 100\n[generating_assay]\nse = 0.9\nsp = 0.95\n",  # no coefficients
            (
                "[scenario]\nn = 100\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
                "[coefficients]\nintercept = -2\nheight = 1\n"
            ),
            (
                "[scenario]\nn = 100\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
                "[coefficients]\nintercept = -2\n[covariates]\nshoe_size = 9\n"
            ),
            (  # a misspelled section
                "[scenario]\nn = 100\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
                "[coefficients]\nintercept = -2\n[covarites]\nmale_rate = 0.6\n"
            ),
            (  # an assay key that is not a prior size
                "[scenario]\nn = 100\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
                "[analysis_assay]\nse = 0.9\nsp = 0.95\nsp_prior = 50\n"
                "[coefficients]\nintercept = -2\n"
            ),
            (  # the group weights have their own keys
                "[scenario]\nn = 100\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
                "[coefficients]\nintercept = -2\n[covariates]\ngroup_probs = 1\n"
            ),
            # values out of range for SimScenario and CovariateSpec
            "[scenario]\nn = 0\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
            "[coefficients]\nintercept = -2\n",
            (
                "[scenario]\nn = 100\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
                "[coefficients]\nintercept = -2\n[covariates]\nmale_rate = 1.5\n"
            ),
            (
                "[scenario]\nn = 100\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
                "[coefficients]\nintercept = -2\n[covariates]\nage_sd = -1\n"
            ),
            (
                "[scenario]\nn = 100\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
                "[coefficients]\nintercept = -2\n[covariates]\nage_sd = inf\n"
            ),
            (
                "[scenario]\nn = 100\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
                "[coefficients]\nintercept = -2\n[covariates]\ngroup_general = inf\n"
            ),
            "[scenario]\nn = 100\nseed = -1\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
            "[coefficients]\nintercept = -2\n",
            (  # not a number, and weights that cannot be normalized
                "[scenario]\nn = 100\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
                "[coefficients]\nintercept = -2\n[covariates]\nhepb_rate = often\n"
            ),
            (
                "[scenario]\nn = 100\n[generating_assay]\nse = 0.9\nsp = 0.95\n"
                "[coefficients]\nintercept = -2\n[covariates]\ngroup_general = 0\n"
                "group_msm = 0\ngroup_lgtbi = 0\ngroup_other = 0\ngroup_sex_worker = 0\n"
            ),
        ],
    )
    def test_bad_files_are_schema_errors(self, text):
        with pytest.raises(SchemaError):
            read_scenario(io.StringIO(text))

    def test_bundled_demo_scenario_loads(self):
        sc = load_bundled_scenario("demo_cohort")
        assert sc.n == 11452
        assert sc.outcome_label == "HIV"
        assert sc.analysis_assay is not None
        assert sc.analysis_assay.mode.value == "beta_prior"
        assert sc.assay_true.sensitivity < sc.analysis_assay.sensitivity


class TestReplicationStudy:
    def test_interval_coverage_without_misclassification(self):
        # the plain logistic estimator on clean data is the calibration
        # floor: nominal 95 percent intervals must cover at study scale
        sc = basic_scenario(n=2000, seed=123)
        out = replicate_study(sc, ["std"], reps=100)
        s = out[0]
        assert s.failures == 0
        assert 0.88 <= s.coverage <= 1.00
        assert abs(s.mean_bias) < 0.01

    def test_all_estimators_smoke_run_quickly(self):
        assay = AssayProfile(sensitivity=0.964, specificity=0.974)
        sc = SimScenario(
            n=2000,
            beta_true=(-9.976701575668823, 0.14, 0.3, 2.5),
            assay_true=assay,
            covariates=("age", "sex", "other_sti"),
            covariate_spec=CovariateSpec(other_sti_rate=0.08),
            seed=7,
        )
        out = replicate_study(sc, ["observed", "rg", "std", "liu", "bc", "bec"], reps=2)
        assert [s.estimator for s in out] == ["observed", "rg", "std", "liu", "bc", "bec"]
        for s in out:
            assert s.reps == 2
            assert 0 <= s.failures <= 2
        observed = out[0]
        assert observed.failures == 0
        assert np.isfinite(observed.mean_bias)

    def test_failures_are_counted_not_raised(self):
        # 1 percent prevalence at n=400 is hopeless for the joint MLE;
        # the study must absorb those failures into the summary
        assay = AssayProfile(sensitivity=0.964, specificity=0.974)
        sc = SimScenario(
            n=400,
            beta_true=(-5.0, 0.3),
            assay_true=assay,
            covariates=("sex",),
            seed=2,
        )
        out = replicate_study(sc, ["liu"], reps=3)
        assert out[0].reps == 3
        assert 0 <= out[0].failures <= 3

    def test_a_bug_in_a_fit_crashes_the_study(self, monkeypatch):
        # only statistical failures are data; a programming error must surface
        from misclass_prev import report

        def broken(*args, **kwargs):
            raise TypeError("broken fitter")

        monkeypatch.setattr(report, "fit_std", broken)
        with pytest.raises(TypeError, match="broken fitter"):
            replicate_study(basic_scenario(n=200), ["std"], reps=1)

    def test_summaries_do_not_depend_on_the_worker_count(self):
        sc = basic_scenario(n=400, seed=11, assay=AssayProfile(sensitivity=0.9, specificity=0.95))
        names = ["observed", "rg", "std", "liu"]
        serial = replicate_study(sc, names, reps=3, workers=1)
        assert replicate_study(sc, names, reps=3, workers=2) == serial

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator 'magic'"):
            replicate_study(basic_scenario(), ["std", "magic"], reps=1)

    def test_rejects_nonpositive_reps(self):
        sc = basic_scenario()
        with pytest.raises(ValueError):
            replicate_study(sc, ["observed"], reps=0)


class TestWorkerResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert resolve_workers(None, reps=100) == 1
        assert resolve_workers(4, reps=100) == 4

    def test_capped_by_reps_and_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        assert resolve_workers(8, reps=100) == 3
        assert resolve_workers(8, reps=2) == 2
        assert resolve_workers(None, reps=100) == 1

    @pytest.mark.parametrize("requested", [0, -2])
    def test_fewer_than_one_worker_is_input_error(self, requested):
        with pytest.raises(InputError, match="at least 1"):
            resolve_workers(requested, reps=4)
