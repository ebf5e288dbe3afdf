"""Grouped data against rows: the same likelihoods, fits and summaries.

Designs here repeat rows on purpose (whole-year ages, rare dummies), so
the covariate patterns are far fewer than the rows. Every quantity
computed over patterns with trials and positives must equal the one
computed row by row.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from misclass_prev import data_model
from misclass_prev.cli import main
from misclass_prev.data_model import DesignMatrix, build_design_matrix, group_rows, save_cohort
from misclass_prev.errors import SingularDesignError
from misclass_prev.likelihoods import (
    ErrorRates,
    liu_loglik,
    logistic,
    mixture_loglik,
    std_loglik,
)
from misclass_prev.mcmc import PosteriorDraws
from misclass_prev.mle import (
    _RATE_MAP,
    LiuVariant,
    fit_liu,
    fit_std,
)
from misclass_prev.report import posterior_prevalence_draws
from misclass_prev.simulate import load_bundled_scenario, simulate

from conftest import assert_hessian_close, fd_information, fd_jacobian


REPEATED_NAMES = ("intercept", "age", "common", "rare")


def repeated_design(seed, n):
    """Intercept, whole-year age, a common and a rare dummy; outcomes from a logistic model."""
    rng = np.random.default_rng(seed)
    age = rng.integers(20, 26, size=n).astype(float)
    common = (rng.random(n) < 0.5).astype(float)
    rare = (rng.random(n) < 0.08).astype(float)
    X = np.column_stack([np.ones(n), age, common, rare])
    beta = np.array([-3.0, 0.1, 0.6, 0.9])
    y = (rng.random(n) < logistic(X @ beta)).astype(float)
    return y, X, beta


designs = st.tuples(st.integers(0, 2**32 - 1), st.integers(40, 160))


def grouped(y, X):
    patterns = group_rows(X)
    return patterns.positives(y), patterns.trials, patterns.rows


def fit_or_none(*args, **kw):
    try:
        return fit_std(*args, **kw)
    except SingularDesignError:  # the rare dummy drew no carrier: both forms must see it
        return None


def assert_same_fit(counts, rows):
    assert (rows is None) == (counts is None)
    if rows is None:
        return
    assert counts.converged == rows.converged
    assert counts.condition_warning == rows.condition_warning
    if rows.converged:  # a flagged fit stopped somewhere on its way to infinity
        np.testing.assert_allclose(counts.beta_hat, rows.beta_hat, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(counts.beta_se, rows.beta_se, rtol=1e-8)
        assert counts.loglik == pytest.approx(rows.loglik, rel=1e-10)


class TestLikelihoods:
    @given(designs, st.floats(0.0, 0.3), st.floats(0.0, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_loglik_with_trials_matches_row_sums(self, design, r0, r1):
        y, X, beta = repeated_design(*design)
        k, m, U = grouped(y, X)
        assert U.shape[0] < X.shape[0]
        for rows, counts in (
            (std_loglik(y, X, beta), std_loglik(k, U, beta, trials=m)),
            (
                liu_loglik(y, X, beta, ErrorRates(r0, r1)),
                liu_loglik(k, U, beta, ErrorRates(r0, r1), trials=m),
            ),
        ):
            assert counts[0] == pytest.approx(rows[0], rel=1e-10, abs=1e-10)
            np.testing.assert_allclose(counts[1], rows[1], rtol=1e-10, atol=1e-10)

    def test_counts_are_validated(self):
        U = np.ones((2, 1))
        with pytest.raises(ValueError):
            std_loglik(np.array([3.0, 0.0]), U, np.zeros(1), trials=np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            std_loglik(np.array([0.0, 0.0]), U, np.zeros(1), trials=np.array([0.0, 1.0]))


def two_pass_logistic_information(m, U, beta):
    """The logistic information as the fits once built it, in a pass of its own."""
    pi = logistic(U @ beta)
    return U.T @ ((m * pi * (1.0 - pi))[:, None] * U)


def two_pass_mixture_hessian(k, m, U, beta, offset, slope):
    """The Hessian of ``mixture_loglik`` over (beta, p0, p1) as once built in a pass of its own."""
    pi = logistic(U @ beta)
    prob = offset + slope * pi
    pc, qc = np.maximum(prob, 1e-300), np.maximum(1.0 - prob, 1e-300)

    def count_over_square(count, q):
        return np.divide(count, q**2, out=np.zeros_like(count), where=count > 0.0)

    p = U.shape[1]
    H = np.empty((p + 2, p + 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = k / pc - (m - k) / qc
        v = -count_over_square(k, pc) - count_over_square(m - k, qc)
        d = pi * (1.0 - pi)
        H[:p, :p] = U.T @ ((v * (slope * d) ** 2 + w * slope * d * (1.0 - 2.0 * pi))[:, None] * U)
        H[:p, p] = U.T @ (v * slope * d * (1.0 - pi) - w * d)
        H[:p, p + 1] = U.T @ (v * slope * d * pi + w * d)
        H[p, p] = np.sum(v * (1.0 - pi) ** 2)
        H[p, p + 1] = np.sum(v * pi * (1.0 - pi))
        H[p + 1, p + 1] = np.sum(v * pi**2)
    H[p:, :p] = H[:p, p:].T
    H[p + 1, p] = H[p, p + 1]
    return H


def rate_jacobian(p, A, sign=(1.0, 1.0)):
    """The Jacobian of ``(beta, free rates) -> (beta, A[0] @ free, A[1] @ free)``, rows signed."""
    J = np.zeros((p + 2, p + A.shape[1]))
    J[:p, :p] = np.eye(p)
    J[p:, p:] = A * np.array(sign)[:, None]
    return J


class TestHessian:
    @given(designs, st.floats(0.0, 0.2), st.floats(0.0, 0.4))
    @settings(max_examples=60, deadline=None)
    def test_mixture_hessian_matches_differenced_scores(self, design, r0, r1):
        y, X, beta = repeated_design(*design)
        k, m, U = grouped(y, X)
        p = U.shape[1]

        def score(theta):  # over (beta, p0, p1)
            p0, p1 = theta[p:]
            _, g_beta, g_p0, g_p1 = mixture_loglik(k, m, U, theta[:p], p0, p1 - p0)
            return np.concatenate([g_beta, [g_p0, g_p1]])

        theta = np.concatenate([beta, [r0, 1.0 - r1]])
        H = mixture_loglik(k, m, U, beta, r0, 1.0 - r0 - r1, curvature=True)[4]
        assert_hessian_close(H, fd_jacobian(score, theta))

    @pytest.mark.parametrize("variant", list(LiuVariant), ids=lambda v: v.value)
    def test_free_rate_hessian_matches_differenced_scores(self, variant):
        y, X, beta = repeated_design(5, 400)
        k, m, U = grouped(y, X)
        p = U.shape[1]
        A = _RATE_MAP[variant]

        def score(theta):  # liu_loglik's score over (beta, r0, r1), mapped to the free rates
            _, grad = liu_loglik(k, U, theta[:p], ErrorRates(*(A @ theta[p:])), trials=m)
            return np.concatenate([grad[:p], A.T @ grad[p:]])

        theta = np.concatenate([beta, A.T @ [0.05, 0.15] / A.sum(axis=0)])
        rates = ErrorRates(*(A @ theta[p:]))
        H = liu_loglik(k, U, theta[:p], rates, trials=m, curvature=True)[2]
        J = rate_jacobian(p, A)
        assert_hessian_close(J.T @ H @ J, fd_jacobian(score, theta))

    @given(designs, st.floats(0.0, 0.2), st.floats(0.0, 0.4))
    @settings(max_examples=40, deadline=None)
    def test_one_pass_curvature_is_the_two_pass_one_bit_for_bit(self, design, r0, r1):
        y, X, beta = repeated_design(*design)
        k, m, U = grouped(y, X)
        p = U.shape[1]
        info = std_loglik(k, U, beta, trials=m, curvature=True)[2]
        np.testing.assert_array_equal(info, two_pass_logistic_information(m, U, beta))
        reference = two_pass_mixture_hessian(k, m, U, beta, r0, 1.0 - r0 - r1)
        H = mixture_loglik(k, m, U, beta, r0, 1.0 - r0 - r1, curvature=True)[4]
        np.testing.assert_array_equal(H, reference)
        # the joint fit's Hessian over (beta, free rates), as J' H J with
        # the Jacobian to (beta, p0, p1) or, from liu_loglik, to (beta, r0, r1)
        H_rates = liu_loglik(k, U, beta, ErrorRates(r0, r1), trials=m, curvature=True)[2]
        for A in _RATE_MAP.values():
            np.testing.assert_array_equal(
                rate_jacobian(p, A).T @ H_rates @ rate_jacobian(p, A),
                rate_jacobian(p, A, (1.0, -1.0)).T @ reference @ rate_jacobian(p, A, (1.0, -1.0)),
            )

    def test_one_pass_curvature_is_the_two_pass_one_at_the_clamp(self):
        # patterns pushed to the 1e-300 clamp at both ends, with and
        # without outcomes there: the same finite and non-finite entries
        U = np.column_stack([np.ones(4), [-900.0, -900.0, 900.0, 0.0]])
        k, m = np.array([0.0, 2.0, 3.0, 1.0]), np.array([4.0, 4.0, 3.0, 2.0])
        beta = np.array([0.0, 1.0])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            H = mixture_loglik(k, m, U, beta, 0.0, 1.0, curvature=True)[4]
        np.testing.assert_array_equal(H, two_pass_mixture_hessian(k, m, U, beta, 0.0, 1.0))

    @pytest.mark.parametrize("variant", list(LiuVariant), ids=lambda v: v.value)
    @given(
        design=st.tuples(st.integers(0, 2**32 - 1), st.integers(400, 1500)),
        r0=st.sampled_from([0.0, 0.02, 0.06]),
        r1=st.sampled_from([0.0, 0.1, 0.25]),
    )
    @settings(max_examples=15, deadline=None)
    def test_covariance_is_the_inverse_differenced_information(self, variant, design, r0, r1):
        # outcomes misread at rates r0, r1; a zero rate often leaves its estimate
        # held on the bound, where fit_liu gives it no row in the covariance
        y, X, _ = repeated_design(*design)
        flip = np.random.default_rng(design[0]).random(y.shape[0])
        y = np.where(y == 1.0, flip >= r1, flip < r0).astype(float)
        k, m, U = grouped(y, X)
        try:
            fit = fit_liu(y, DesignMatrix(X, REPEATED_NAMES), variant=variant)
        except SingularDesignError:
            assume(False)
        assume(fit.converged)
        free, theta, reference = differenced_information(fit, k, m, U)
        assume(np.all(theta[free][U.shape[1] :] > 1e-4))  # differences stay in the rates' domain
        assume(np.linalg.cond(reference) < 1e10)  # else no covariance is accurate
        assert_hessian_close(np.linalg.inv(fit.covariance[np.ix_(free, free)]), reference)

    def test_held_rate_is_left_out_of_the_information(self, intage_demo):
        y, X = intage_demo
        fit = fit_liu(y, X)
        k, m, U = X.patterns.positives(y), X.patterns.trials, X.patterns.rows
        free, _, reference = differenced_information(fit, k, m, U)
        assert list(free[U.shape[1] :]) == [False, True]  # r0 held at 0, r1 free
        assert_hessian_close(np.linalg.inv(fit.covariance[np.ix_(free, free)]), reference)


def differenced_information(fit, k, m, U):
    """``(free, theta, information)`` at a LIU fit's optimum, by differences.

    The information over the coordinates with a covariance row, from
    central differences of ``liu_loglik``'s score mapped by the rate map.
    Compared as information: inverting it amplifies the differences' own
    error by the condition number, up to 2e-5 on covariance entries.
    """
    p = U.shape[1]
    A = _RATE_MAP[fit.variant]
    est = fit.error_rates_hat
    theta = np.concatenate([fit.beta_hat, A.T @ [est.r0, est.r1] / A.sum(axis=0)])
    free = np.diag(fit.covariance) > 0.0
    assert np.all(free[:p])

    def free_score(t):
        full = theta.copy()
        full[free] = t
        _, grad = liu_loglik(k, U, full[:p], ErrorRates(*(A @ full[p:])), trials=m)
        return np.concatenate([grad[:p], A.T @ grad[p:]])[free]

    return free, theta, fd_information(free_score, theta[free])


class TestFits:
    @given(designs)
    @settings(max_examples=40, deadline=None)
    def test_fit_std_on_counts_matches_rows(self, design):
        y, X, _ = repeated_design(*design)
        k, m, U = grouped(y, X)
        assert_same_fit(fit_or_none(k, U, trials=m), fit_or_none(y, X))

    @given(designs)
    @settings(max_examples=30, deadline=None)
    def test_bootstrap_refit_from_counts_matches_copied_rows(self, design):
        # the report's STD bootstrap: bincount one resample into the
        # patterns it drew, then fit those alone
        y, X, _ = repeated_design(*design)
        patterns = group_rows(X)
        n, n_patterns = X.shape[0], patterns.trials.shape[0]
        idx = np.random.default_rng(design[0]).integers(0, n, size=n)
        drawn = patterns.inverse[idx]
        trials = np.bincount(drawn, minlength=n_patterns).astype(float)
        live = trials > 0
        positives = np.bincount(drawn, weights=y[idx], minlength=n_patterns)
        assert_same_fit(
            fit_or_none(positives[live], patterns.rows[live], trials=trials[live]),
            fit_or_none(y[idx], X[idx]),
        )

    @pytest.mark.parametrize("seed", [8, 13, 21])
    def test_fit_liu_on_counts_matches_rows(self, seed):
        sc = replace(load_bundled_scenario("demo_cohort"), n=3000, seed=seed)
        cohort, _ = simulate(sc)
        design = build_design_matrix(cohort)
        X = design.matrix.copy()
        X[:, 1] = np.round(X[:, 1])
        y = cohort.outcomes()
        grouped_design = DesignMatrix(X, design.column_names)
        assert grouped_design.patterns.rows.shape[0] < X.shape[0]
        rows = fit_liu(y, X)
        counts = fit_liu(y, grouped_design)
        assert counts.converged == rows.converged
        np.testing.assert_allclose(counts.beta_hat, rows.beta_hat, rtol=1e-5, atol=1e-5)
        assert counts.loglik == pytest.approx(rows.loglik, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_fit_liu_with_singular_information_is_not_converged(self, seed):
        # 6% of negatives flipped: both rates absorb the signal and three
        # coefficients run off inside the separation bound, leaving an
        # information with rcond near 1e-16 whose SEs would be noise
        y, X, _ = repeated_design(seed, 400)
        y[(y == 0) & (np.random.default_rng(seed).random(y.shape[0]) < 0.06)] = 1.0
        fit = fit_liu(y, X)
        assert fit.converged is False
        assert fit.beta_se is None
        assert "numerically singular" in fit.condition_warning


def test_posterior_prevalence_over_patterns_matches_rows():
    sc = replace(load_bundled_scenario("demo_cohort"), n=2000, seed=4)
    cohort, _ = simulate(sc)
    records = tuple(replace(r, age=float(round(r.age))) for r in cohort.records)
    X = build_design_matrix(data_model.Cohort(records=records))
    assert X.patterns.rows.shape[0] < X.shape[0]
    rng = np.random.default_rng(6)
    betas = rng.normal(scale=0.5, size=(2, 300, X.shape[1])) + np.array(
        [-5.0, 0.05] + [0.5] * (X.shape[1] - 2)
    )
    draws = PosteriorDraws(betas, X.column_names, accept_rate=np.full(2, np.nan))
    np.testing.assert_allclose(
        posterior_prevalence_draws(draws, X),
        posterior_prevalence_draws(draws, X.matrix),
        rtol=0.0,
        atol=1e-12,
    )


def test_compare_groups_the_design_once(tmp_path, monkeypatch):
    sc = replace(load_bundled_scenario("demo_cohort"), n=3000, seed=11)
    cohort, _ = simulate(sc)
    records = tuple(replace(r, age=float(round(r.age))) for r in cohort.records)
    path = tmp_path / "cohort.csv"
    save_cohort(data_model.Cohort(records=records), path)

    calls = []
    real = data_model.group_rows

    def counting(matrix):
        calls.append(matrix.shape)
        return real(matrix)

    monkeypatch.setattr(data_model, "group_rows", counting)
    out = tmp_path / "cmp.csv"
    argv = [
        "compare", "--data", str(path), "--models", "std,liu,bc,bec",
        "--se", "0.964", "--sp", "0.974", "--se-prior-n", "1000", "--sp-prior-n", "1000",
        "--bootstrap", "20", "--chains", "2", "--warmup", "200", "--samples", "200",
        "--seed", "5", "--allow-nonconverged", "--format", "csv", "--out", str(out),
    ]  # fmt: skip
    assert main(argv) == 0
    models = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    # both bootstraps ran: STD and LIU have rows only when their fits converged
    assert {"STD", "LIU", "BC", "BEC"} <= set(models)
    assert calls == [(3000, 9)]
