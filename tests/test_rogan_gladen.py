import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from misclass_prev import (
    AssayProfile,
    CrudeEstimate,
    IntervalMethod,
    correct_proportion,
    rogan_gladen,
    rogan_gladen_interval,
)
from misclass_prev.rogan_gladen import TAIL_QUANTILES, Z_95, corrected, tail_bounds, wald_bounds


ASSAY = AssayProfile(sensitivity=0.975, specificity=0.999)


class TestPointCorrection:
    def test_reference_value(self):
        est = rogan_gladen(0.0139, ASSAY)
        assert est.p_adj == pytest.approx((0.0139 + 0.999 - 1.0) / 0.974, abs=1e-15)
        assert not est.truncated

    def test_perfect_assay_is_identity(self):
        perfect = AssayProfile(sensitivity=1.0, specificity=1.0)
        for p in (0.0, 0.123456, 0.5, 1.0):
            assert rogan_gladen(p, perfect).p_adj == pytest.approx(p, abs=1e-15)

    def test_clamps_below_false_positive_floor(self):
        # observed proportion below 1 - Sp implies a negative raw value
        est = rogan_gladen(0.0005, ASSAY)
        assert est.p_adj == 0.0
        assert est.truncated

    def test_clamps_above_sensitivity_ceiling(self):
        est = rogan_gladen(0.99, AssayProfile(sensitivity=0.9, specificity=0.99))
        assert est.p_adj == 1.0
        assert est.truncated

    def test_correct_proportion_raw_pair(self):
        value, truncated = correct_proportion(0.05, ASSAY)
        assert value == pytest.approx((0.05 - 0.001) / 0.974)
        assert not truncated

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rogan_gladen(1.2, ASSAY)


class TestCorrectionUnbiasedness:
    def test_mean_corrected_estimate_near_truth(self):
        # under the mixture p_obs = Se p + (1-Sp)(1-p) the corrected
        # estimator is unbiased up to clamping
        rng = np.random.default_rng(21)
        true_p = 0.04
        p_obs = ASSAY.sensitivity * true_p + (1 - ASSAY.specificity) * (1 - true_p)
        n = 5000
        ests = []
        for _ in range(500):
            k = rng.binomial(n, p_obs)
            ests.append(rogan_gladen(k / n, ASSAY).p_adj)
        assert abs(np.mean(ests) - true_p) < 0.002


class TestIntervals:
    def test_wald_matches_delta_formula(self):
        est = rogan_gladen_interval(159, 11452, ASSAY)
        p_obs = 159 / 11452
        se = np.sqrt(p_obs * (1 - p_obs) / 11452) / ASSAY.youden
        raw = (p_obs + ASSAY.specificity - 1.0) / ASSAY.youden
        assert est.lower == pytest.approx(max(0.0, raw - 1.959963984540054 * se), abs=1e-12)
        assert est.upper == pytest.approx(min(1.0, raw + 1.959963984540054 * se), abs=1e-12)
        assert est.n == 11452
        assert est.interval_method is IntervalMethod.WALD

    def test_interval_brackets_point(self):
        est = rogan_gladen_interval(3, 4000, ASSAY)
        assert est.lower <= est.p_adj <= est.upper

    def test_perfect_assay_gives_the_plain_wald_interval(self):
        perfect = AssayProfile(sensitivity=1.0, specificity=1.0)
        est = rogan_gladen_interval(80, 2000, perfect)
        half = 1.959963984540054 * np.sqrt(0.04 * 0.96 / 2000)
        assert est.p_adj == 0.04
        assert est.lower == pytest.approx(0.04 - half, abs=1e-15)
        assert est.upper == pytest.approx(0.04 + half, abs=1e-15)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            rogan_gladen_interval(-1, 100, ASSAY)
        with pytest.raises(ValueError):
            rogan_gladen_interval(101, 100, ASSAY)


class TestNormalQuantile:
    def test_default_level_is_scipys_quantile(self):
        assert Z_95 == special.ndtri(0.975)
        # raw 0, se 1/4 and point 0 leave the upper bound at exactly z / 4
        assert 4.0 * wald_bounds(0.0, 0.25, 0.0)[1] == Z_95
        assert TAIL_QUANTILES == (0.025000000000000022, 0.975)


class TestTailBounds:
    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(1, 3000),
            elements=st.floats(-1e6, 1e6) | st.sampled_from([0.0, 0.25, 1.0]),
        )
    )
    def test_bit_for_bit_numpys_quantiles(self, values):
        expected = np.quantile(values, TAIL_QUANTILES)
        assert tail_bounds(values) == [float(expected[0]), float(expected[1])]

    def test_a_list_of_one_value(self):
        assert tail_bounds([0.3]) == [0.3, 0.3]


class TestCorrected:
    def test_an_array_is_corrected_value_by_value(self):
        p = np.array([0.0005, 0.0139, 0.99])
        expected = [correct_proportion(v, ASSAY) for v in p.tolist()]
        np.testing.assert_array_equal(np.clip(corrected(p, ASSAY), 0.0, 1.0), [v for v, _ in expected])
        assert [bool(t) for _, t in expected] == [True, False, True]


class TestCrudeEstimate:
    def test_interval_order_enforced(self):
        with pytest.raises(ValueError):
            CrudeEstimate(
                p_obs=0.1, p_adj=0.08, truncated=False, n=100,
                lower=0.09, upper=0.085, interval_method=IntervalMethod.WALD,
            )

    def test_bounds_come_in_pairs(self):
        with pytest.raises(ValueError):
            CrudeEstimate(p_obs=0.1, p_adj=0.08, truncated=False, n=100, lower=0.05)
