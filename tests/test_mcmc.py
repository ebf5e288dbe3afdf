"""Sampler correctness: calibration against known targets, diagnostics, determinism."""

import numpy as np
import pytest
from scipy import stats

from misclass_prev.bayes import _sampling_basis
from misclass_prev.errors import NonConvergenceError
from misclass_prev.mcmc import (
    PROPOSAL_DF,
    PROPOSAL_SCALE,
    PosteriorDraws,
    SamplerConfig,
    ess_bulk,
    rhat,
    sample,
)


def std_normal_logpdf(x):
    return -0.5 * float(x @ x)


class TestSamplerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chains": 1},
            {"warmup": 50},
            {"samples": 50},
            {"warmup": 99, "samples": 100},
            {"seed": "abc"},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


class TestPosteriorDraws:
    def test_shape_and_name_validation(self):
        good = np.zeros((2, 5, 3))
        with pytest.raises(ValueError):
            PosteriorDraws(
                draws=np.zeros((2, 5)),
                param_names=("a",),
                accept_rate=np.ones(2),
            )
        with pytest.raises(ValueError):
            PosteriorDraws(
                draws=good,
                param_names=("a", "b"),
                accept_rate=np.ones(2),
            )
        bad = good.copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            PosteriorDraws(
                draws=bad,
                param_names=("a", "b", "c"),
                accept_rate=np.ones(2),
            )

    def test_diagnostics_are_computed_on_demand_from_the_draws(self):
        draws = np.random.default_rng(4).standard_normal((2, 300, 3))
        pd = PosteriorDraws(draws, ("a", "b", "c"), accept_rate=np.ones(2))
        np.testing.assert_array_equal(pd.ess_bulk, ess_bulk(draws))
        np.testing.assert_array_equal(pd.rhat, rhat(draws))

    def test_flat_and_total_count(self):
        rng = np.random.default_rng(3)
        draws = rng.standard_normal((3, 7, 2))
        pd = PosteriorDraws(draws, ("a", "b"), accept_rate=np.full(3, np.nan))
        assert pd.n_total == 21
        assert pd.flat().shape == (21, 2)
        np.testing.assert_array_equal(pd.flat()[7], draws[1, 0])


class TestDiagnostics:
    def test_rhat_flags_separated_chains(self):
        rng = np.random.default_rng(0)
        apart = np.stack([rng.standard_normal(500), rng.standard_normal(500) + 10.0])
        assert rhat(apart) > 2.0

    def test_rhat_near_one_for_matched_chains(self):
        rng = np.random.default_rng(1)
        same = rng.standard_normal((4, 1000))
        assert rhat(same) < 1.05

    def test_rhat_constant_chains_give_nan(self):
        assert np.isnan(rhat(np.ones((2, 200))))

    def test_rhat_vectorizes_over_parameters(self):
        rng = np.random.default_rng(2)
        draws = rng.standard_normal((2, 400, 3))
        values = rhat(draws)
        assert values.shape == (3,)
        assert np.all(values < 1.05)

    def test_ess_white_noise_close_to_draw_count(self):
        rng = np.random.default_rng(4)
        draws = rng.standard_normal((2, 2000))
        n = draws.size
        assert 0.85 * n < ess_bulk(draws) < 1.2 * n

    def test_ess_detects_autocorrelation(self):
        rng = np.random.default_rng(5)
        phi = 0.9
        m, n = 2, 4000
        draws = np.empty((m, n))
        for c in range(m):
            e = rng.standard_normal(n)
            x = np.empty(n)
            x[0] = e[0]
            for t in range(1, n):
                x[t] = phi * x[t - 1] + e[t]
            draws[c] = x
        # AR(1) with phi=0.9 has integrated autocorrelation time 19
        total = m * n
        assert ess_bulk(draws) < total / 5
        assert ess_bulk(draws) > total / 100

    def test_ess_constant_chains_give_nan(self):
        assert np.isnan(ess_bulk(np.full((2, 300), 7.0)))


class TestSampleValidation:
    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError, match="dim"):
            sample(std_normal_logpdf, 0, SamplerConfig())

    def test_rejects_wrong_init_shape(self):
        config = SamplerConfig(chains=2)
        with pytest.raises(ValueError, match="init must have shape"):
            sample(std_normal_logpdf, 2, config, init=np.zeros((3, 2)))

    def test_nonfinite_start_point_is_an_error(self):
        def truncated(x):
            return -np.inf if x[0] < 5.0 else 0.0

        config = SamplerConfig(chains=2, warmup=100, samples=100)
        with pytest.raises(ValueError, match="not finite at the chain"):
            sample(truncated, 1, config, init=np.zeros((2, 1)))


class TestSampling:
    def test_standard_normal_calibration(self):
        config = SamplerConfig(chains=4, warmup=1500, samples=4000, seed=5)
        draws = sample(std_normal_logpdf, 3, config)
        flat = draws.flat()
        assert np.all(np.abs(flat.mean(axis=0)) < 0.05)
        assert np.all((flat.var(axis=0) > 0.9) & (flat.var(axis=0) < 1.1))
        assert np.all(draws.rhat < 1.01)

    def test_beta_bernoulli_matches_conjugate_posterior(self):
        # 7 successes in 20 trials under a flat prior: posterior is
        # Beta(8, 14). Sample on the logit scale with the Jacobian and
        # compare the back-transformed mean to the analytic 8/22.
        successes, failures = 7, 13

        def log_post(theta):
            t = float(theta[0])
            p = 1.0 / (1.0 + np.exp(-t))
            return (successes + 1) * np.log(p) + (failures + 1) * np.log1p(-p)

        config = SamplerConfig(chains=4, warmup=1500, samples=4000, seed=21)
        draws = sample(log_post, 1, config)
        p_draws = 1.0 / (1.0 + np.exp(-draws.flat()[:, 0]))
        assert abs(p_draws.mean() - 8.0 / 22.0) < 0.02

    def test_same_seed_reproduces_draws_exactly(self):
        config = SamplerConfig(chains=2, warmup=200, samples=200, seed=77)
        a = sample(std_normal_logpdf, 2, config)
        b = sample(std_normal_logpdf, 2, config)
        np.testing.assert_array_equal(a.draws, b.draws)
        np.testing.assert_array_equal(a.accept_rate, b.accept_rate)

    def test_different_seeds_differ(self):
        a = sample(std_normal_logpdf, 2, SamplerConfig(chains=2, warmup=200, samples=200, seed=1))
        b = sample(std_normal_logpdf, 2, SamplerConfig(chains=2, warmup=200, samples=200, seed=2))
        assert not np.array_equal(a.draws, b.draws)

    def test_nan_proposals_are_rejected_not_fatal(self):
        def spiky(x):
            if x[0] > 0.5:
                return float("nan")
            return -0.5 * float(x @ x)

        config = SamplerConfig(chains=2, warmup=300, samples=500, seed=41)
        draws = sample(spiky, 1, config, init=np.full((2, 1), -1.0))
        assert np.all(draws.flat()[:, 0] <= 0.5)


class TestIndependenceKernel:
    def test_target_equal_to_the_proposal_accepts_every_move(self):
        # With p = q the Hastings ratio p(x') q(x) / (p(x) q(x')) is
        # exactly 1, so any error in the correction term shows up as a
        # rejection somewhere in 2 x 1,000 post-warmup steps.
        def t_logpdf(x):
            r2 = float(x @ x) / (PROPOSAL_DF * PROPOSAL_SCALE**2)
            return -0.5 * (PROPOSAL_DF + x.shape[0]) * np.log1p(r2)

        config = SamplerConfig(chains=2, warmup=100, samples=1000, seed=17)
        draws = sample(t_logpdf, 3, config)
        np.testing.assert_array_equal(draws.accept_rate, 1.0)

    def test_one_density_call_per_start_and_iteration(self):
        calls = []

        def counting(x):
            calls.append(1)
            return std_normal_logpdf(x)

        config = SamplerConfig(chains=3, warmup=120, samples=150, seed=8)
        sample(counting, 2, config)
        assert len(calls) == config.chains * (config.warmup + config.samples) + config.chains

    def test_indefinite_curvature_has_no_sampling_basis(self):
        H = np.diag([2.0, -1.0])  # the curvature of a saddle, not of a mode
        with pytest.raises(NonConvergenceError, match="not positive definite"):
            _sampling_basis(H)


ROOT3 = np.sqrt(3.0)


def shifted_gamma_logpdf(x):
    """Gamma(4, rate sqrt 3) shifted to its mode at 0 in x[0]; standard normal in the rest."""
    z = float(x[0])
    if z <= -ROOT3:
        return -np.inf
    rest = x[1:]
    return 3.0 * np.log1p(z / ROOT3) - ROOT3 * z - 0.5 * float(rest @ rest)


class TestBurnIn:
    """The default burn-in forgets a start 5 units out in every coordinate.

    The first retained draw of 500 seeds x 2 chains must pass a
    Kolmogorov-Smirnov test against the target at p > 0.01, on a normal
    and on a skewed target whose Laplace approximation is N(0, I).
    """

    @pytest.mark.parametrize(
        "log_post, target, shape_loc_scale",
        [
            (std_normal_logpdf, "norm", ()),
            (shifted_gamma_logpdf, "gamma", (4.0, -ROOT3, 1.0 / ROOT3)),
        ],
        ids=["normal", "shifted-gamma"],
    )
    def test_first_retained_draw_follows_the_target(self, log_post, target, shape_loc_scale):
        dim = 2
        first = []
        for seed in range(500):
            config = SamplerConfig(chains=2, samples=100, seed=seed)
            draws = sample(log_post, dim, config, init=np.full((2, dim), 5.0))
            first.extend(draws.draws[:, 0, 0])
        assert stats.kstest(first, target, args=shape_loc_scale).pvalue > 0.01
