"""Maximum-likelihood fitting: plain logistic and joint error-rate models.

Both fits run one damped Newton loop, ``_newton_ascent``. Its
protocol: ``loglik(theta)`` returns ``(value, score, curvature)``, the
curvature being the negative Hessian at ``theta``, computed in the same
pass over the patterns as the value and score. The loop solves the
free block of the accepted point's curvature for the Newton step
itself (``_newton_direction``), and returns the curvature of its last
point with the optimum, so a fit takes its standard errors
from it without another pass. ``fit_std`` gives it the exact logistic
information of ``std_loglik``; ``fit_liu`` maximizes the misclassified
likelihood over (beta, free error rates) by projected Newton with the
analytic Hessian of ``liu_loglik``, on the original scale with the free
rates boxed in [0, ``RATE_MAX``]; which of the false-positive rate r0
and the false-negative rate r1 are free is one matrix per
``LiuVariant``. Standard errors for both fits come from the analytic
observed information in the original parameterization. ``bayes`` finds
the BC and BEC posterior modes with the same loop and the exact
Hessians of their log posteriors. ``fit_std`` and ``fit_liu`` both take
a start, so bootstrap refits begin at the original estimate.

Both fit over covariate patterns: a DesignMatrix is fitted over its
distinct rows with trials and positives per row, and a caller that
already holds counts (a bootstrap resample) passes them to ``fit_std``
with ``trials``. The boundary checks keep their per-row meaning.

Convergence is declared when the score's max-abs entry, leaving out
rates held on a bound, drops below 1e-8 or the step below 1e-10. Both
fits are gated for separation by ``_degenerate``. Boundary pathologies
(separation, error rates pinned at zero, singular information) are
reported through ``converged``/``condition_warning`` on the result,
never as crashes. The linear algebra is numpy's; the package imports
no scipy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data_model import design_patterns, design_rows
from .errors import SingularDesignError
from .likelihoods import (
    ErrorRates,
    binomial_counts,
    liu_loglik,
    logistic,
    std_loglik,
)

log = logging.getLogger(__name__)

SCORE_TOL = 1e-8
STEP_TOL = 1e-10
MAX_ITER = 100  # Newton steps per fit or posterior mode search
SEPARATION_BOUND = 30.0
RCOND_MIN = 1e-12  # eigenvalue ratio below which an information counts as singular
SEPARATION_WARNING = "separation or boundary: fitted probabilities degenerate"


class ModelTag(Enum):
    STD = "STD"
    LIU = "LIU"
    BC = "BC"
    BEC = "BEC"


class LiuVariant(Enum):
    """Which error rates are free in the joint fit.

    Both free; only r0 free with r1 = 0; only r1 free with r0 = 0; or
    one free rate shared by r0 and r1.
    """

    BOTH_FREE = "both_free"
    FALSE_POSITIVE_ONLY = "false_positive_only"
    FALSE_NEGATIVE_ONLY = "false_negative_only"
    ERRORS_EQUAL = "errors_equal"


@dataclass
class FitResult:
    """Common result record for every estimator in the package.

    For Bayesian fits ``beta_hat``/``beta_se`` hold posterior means and
    standard deviations and ``iterations`` counts retained draws.
    """

    model_tag: ModelTag
    beta_hat: np.ndarray
    beta_se: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    column_names: tuple = ()
    error_rates_hat: ErrorRates = None
    condition_warning: str = None
    variant: LiuVariant = None
    covariance: np.ndarray = None  # over (beta, free rates) for the joint model

    def __post_init__(self):
        self.beta_hat = np.asarray(self.beta_hat, dtype=float)
        if self.beta_se is not None:
            self.beta_se = np.asarray(self.beta_se, dtype=float)
        if not self.converged and not self.condition_warning:
            raise ValueError("a non-converged result must say why via condition_warning")


@dataclass(frozen=True)
class InformationResult:
    matrix: np.ndarray
    se: np.ndarray  # None when the information is not positive definite
    rcond: float
    warning: str = None
    covariance: np.ndarray = None  # the inverse, when se is given


def _check_rank(X, names, s=None):
    """Rank by SVD at ``np.linalg.matrix_rank``'s tolerance; names the collinear columns.

    ``s`` holds the singular values of ``X`` when they are already known.
    """
    if s is None:
        s = np.linalg.svd(X, compute_uv=False)
    rank = int((s > s[0] * max(X.shape) * np.finfo(float).eps).sum())
    if rank < X.shape[1]:
        null = np.abs(np.linalg.svd(np.linalg.qr(X, mode="r"))[2][rank:])
        collinear = [names[j] for j in np.flatnonzero(np.max(null, axis=0) > 1e-8)]
        raise SingularDesignError(
            f"design matrix is rank deficient (rank {rank} of {X.shape[1]}); "
            f"collinear columns: {collinear}",
            columns=collinear,
        )


def _fit_data(y, X, trials=None):
    """``(positives, trials, rows, names)`` a fit runs on, rank-checked.

    Without ``trials``, ``y`` is one 0/1 outcome per row of ``X`` and the
    rows are grouped by ``design_patterns``; a DesignMatrix keeps its
    patterns' singular values, so every fit of one design checks its
    rank once. With ``trials``, the rows of ``X`` carry ``trials``
    trials and ``y`` positives each, and are checked on every call.
    """
    rows, names = design_rows(X, named=True)
    if trials is None:
        patterns = design_patterns(X)
        k, m, rows = patterns.positives(binomial_counts(y)[0]), patterns.trials, patterns.rows
        _check_rank(rows, names, patterns.singular_values)
    else:
        k, m = binomial_counts(y, trials)
        _check_rank(rows, names)
    return k, m, rows, names


def _degenerate(k, m, U, beta):
    """Whether the logistic MLE sits at infinity.

    A runaway coefficient; every row fitted (numerically) perfectly,
    positives at probability 1 and negatives at 0; or a 0/1 column with
    a level whose rows all have the same outcome (quasi-separation:
    Newton can meet the score tolerance on the way out, with that
    coefficient still inside the bound and an SE in the thousands).
    """
    if np.abs(beta).max() > SEPARATION_BOUND:
        return True
    pi = logistic(U @ beta)
    # every pattern fitted within 1e-6 of its outcomes
    if not (((k > 0.0) & (1.0 - pi >= 1e-6)).any() or ((k < m) & (pi >= 1e-6)).any()):
        return True
    # positives and trials at each level of every 0/1 column, over the
    # columns as contiguous rows; the counts are whole numbers, so the
    # sums and the tests are exact
    columns = U[:, 1:].T.copy()
    binary = ((columns == 0.0) | (columns == 1.0)).all(axis=1)
    positives, trials = (columns @ k)[binary], (columns @ m)[binary]
    absent, missing = k.sum() - positives, m.sum() - trials
    return bool(
        ((positives == 0.0) | (positives == trials) | (absent == 0.0) | (absent == missing)).any()
    )


def _newton_ascent(loglik, theta, lo=-np.inf, hi=np.inf):
    """Damped Newton ascent of ``loglik``, projected onto the box ``[lo, hi]``.

    ``loglik(theta)`` returns ``(value, score, curvature)``, the
    curvature the negative Hessian. The Newton step over the coordinates
    ``free`` solves the free block of the accepted point's curvature
    (``_newton_direction``). A coordinate on a bound whose score
    points out of the box is held there and every other one is free
    (projected Newton, Bertsekas 1982, SIAM J. Control Optim.). Each step
    is halved along the projection arc until the value drops by no more
    than 1e-12, which keeps it monotone when Newton overshoots. Converged
    when the score over the free coordinates is below SCORE_TOL or the
    step below STEP_TOL within MAX_ITER steps. Returns ``(theta, value,
    converged, iterations, warning, free, curvature)``, ``free`` the
    final mask of coordinates not held on a bound and ``curvature`` the
    negative Hessian at ``theta``.
    """

    def free_of(theta, score):
        return ~(((theta <= lo) & (score < 0.0)) | ((theta >= hi) & (score > 0.0)))

    theta = np.clip(theta, lo, hi)
    ll, score, curvature = loglik(theta)
    free = free_of(theta, score)
    warning = None
    iterations = 0
    converged = np.abs(score[free]).max() < SCORE_TOL

    for it in range(1, MAX_ITER + 1):
        if converged:
            break
        step = np.zeros_like(theta)
        try:
            block = curvature if free.all() else curvature[np.ix_(free, free)]
            step[free] = _newton_direction(block, score[free])
        except np.linalg.LinAlgError:
            warning = "singular Hessian during Newton iteration"
            break
        for _ in range(30):
            trial = np.clip(theta + step, lo, hi)
            ll_new, score_new, curvature_new = loglik(trial)
            if ll_new >= ll - 1e-12:
                break
            step = step / 2.0
        theta, ll, score, curvature = trial, ll_new, score_new, curvature_new
        free = free_of(theta, score)
        iterations = it
        if np.abs(score[free]).max() < SCORE_TOL or np.abs(step).max() < STEP_TOL:
            converged = True

    if not converged and warning is None:
        warning = f"no convergence in {MAX_ITER} Newton iterations"
    return theta, ll, converged, iterations, warning, free, curvature


def fit_std(y, X, trials=None, init=None):
    """Damped Newton / IRLS fit of a plain logistic regression.

    ``y`` holds one 0/1 outcome per row of ``X``; given ``trials``, it
    holds the positives among ``trials`` per row instead. The ascent
    starts at the coefficients ``init``, or at zero. The coefficients
    take a DesignMatrix's column names, or ``x0, x1, ...`` for an array.
    """
    k, m, U, names = _fit_data(y, X, trials)
    p = U.shape[1]
    beta0 = np.zeros(p) if init is None else np.asarray(init, dtype=float)
    if beta0.shape != (p,):
        raise ValueError(f"init has shape {beta0.shape}, design has {p} columns")

    beta, ll, converged, iterations, warning, _, info = _newton_ascent(
        lambda beta: std_loglik(k, U, beta, trials=m, curvature=True), beta0
    )

    if _degenerate(k, m, U, beta):
        converged = False
        warning = SEPARATION_WARNING

    beta_se = None
    cov = None
    if converged:
        try:
            l_inv = np.linalg.inv(np.linalg.cholesky(info))
            cov = l_inv.T @ l_inv
            beta_se = np.sqrt(np.diag(cov))
        except np.linalg.LinAlgError:
            cov = None
            converged = False
            warning = "observed information not positive definite at the optimum"

    return FitResult(
        model_tag=ModelTag.STD,
        beta_hat=beta,
        beta_se=beta_se,
        loglik=ll,
        converged=converged,
        iterations=iterations,
        column_names=names,
        condition_warning=warning,
        covariance=cov,
    )


def observed_information(info):
    """Standard errors from a symmetric observed information matrix.

    ``fit_liu`` passes the analytic information, and the posterior
    sampling basis the exact negative Hessian at the mode. If the matrix
    is not positive definite, or its eigenvalue ratio ``rcond`` is below
    ``RCOND_MIN`` so that its inverse is rounding noise, the standard
    errors are withheld and a warning attached.
    """
    info = np.asarray(info, dtype=float)
    rcond, warning = 0.0, "information matrix has non-finite entries"
    if np.all(np.isfinite(info)):
        eigvals = np.linalg.eigvalsh(info)
        rcond = float(eigvals[0] / eigvals[-1]) if eigvals[-1] > 0 else 0.0
        warning = None
        if eigvals[0] <= 0:
            warning = "observed information is not positive definite"
        elif rcond < RCOND_MIN:
            warning = f"observed information is numerically singular (rcond {rcond:.2e})"
    if warning is not None:
        return InformationResult(matrix=info, se=None, rcond=rcond, warning=warning)
    cov = np.linalg.inv(info)
    return InformationResult(matrix=info, se=np.sqrt(np.diag(cov)), rcond=rcond, covariance=cov)


# Upper end of a free rate's box, strictly below the 0.5 that ErrorRates refuses.
RATE_MAX = 0.5 - 1e-9

# Which rates a variant frees, as the 0/1 matrix A with (r0, r1) = A @ free:
# a zero row pins that rate at 0, a column shared by both rows ties them.
_RATE_MAP = {
    LiuVariant.BOTH_FREE: np.array([[1.0, 0.0], [0.0, 1.0]]),
    LiuVariant.FALSE_POSITIVE_ONLY: np.array([[1.0], [0.0]]),
    LiuVariant.FALSE_NEGATIVE_ONLY: np.array([[0.0], [1.0]]),
    LiuVariant.ERRORS_EQUAL: np.array([[1.0], [1.0]]),
}


def _newton_direction(neg_h, g):
    """Solve ``neg_h d = g``, shifting the diagonal until Cholesky finds it positive definite."""
    if not np.isfinite(neg_h).all():
        raise np.linalg.LinAlgError("non-finite Hessian")
    shifted, shift = neg_h, 0.0
    for _ in range(40):
        try:
            np.linalg.cholesky(shifted)  # raises unless positive definite
            return np.linalg.solve(shifted, g)
        except np.linalg.LinAlgError:
            floor = 1e-8 * max(1.0, float(np.abs(neg_h.diagonal()).max()))
            shift = max(10.0 * shift, floor)
            shifted = neg_h + shift * np.eye(g.shape[0])
    raise np.linalg.LinAlgError("no diagonal shift makes the Hessian positive definite")


def fit_liu(y, X, variant=LiuVariant.BOTH_FREE, init=None):
    """Joint MLE of regression coefficients and misclassification rates.

    The variant's rate map A (``_RATE_MAP``) gives the end rates from
    the free ones, ``(r0, r1) = A @ free``. The fit is the projected
    Newton ascent ``_newton_ascent`` over ``(beta, free rates)`` on the
    original scale, with the free rates boxed in ``[0, RATE_MAX]`` and
    the analytic Hessian of ``liu_loglik`` mapped to the free rates as
    ``J' H J``, J the Jacobian of the linear map from ``(beta, free
    rates)`` to ``(beta, r0, r1)``: a rate on its bound whose
    score points out of the box is held there, so it comes out exactly
    0, and the Newton step over the rest is solved by Cholesky, with a
    Levenberg shift only when that fails. Standard errors and the
    covariance come from the observed information over the coordinates
    not held on a bound; a held rate, or one the variant pins at 0, has
    no SE and zero rows in ``covariance``. ``y`` holds one 0/1
    outcome per row of ``X``.

    The ascent restarts from ``init``, an earlier joint fit, at its
    coefficients and rates. Without it, it starts at the plain logistic
    fit of the same design, its coefficients clipped to [-10, 10] so the
    start stays finite under separation (they are used even when that
    fit is flagged non-converged), and at rates (0.01, 0.01); on a
    DesignMatrix both fits share its patterns and its rank check.
    """
    k, m, U, names = _fit_data(y, X)
    p = U.shape[1]
    A = _RATE_MAP[variant]

    if init is None:
        beta0, rates0 = np.clip(fit_std(y, X).beta_hat, -10.0, 10.0), (0.01, 0.01)
    elif init.error_rates_hat is None:
        raise ValueError("init must be a joint fit that carries error-rate estimates")
    else:
        beta0, rates0 = init.beta_hat, (init.error_rates_hat.r0, init.error_rates_hat.r1)
    if beta0.shape[0] != p:
        raise ValueError(f"init beta has length {beta0.shape[0]}, design has {p} columns")

    n_free = A.shape[1]
    J = np.zeros((p + 2, p + n_free))
    J[:p, :p] = np.eye(p)
    J[p:, p:] = A

    def loglik(theta):
        ll, grad, H = liu_loglik(
            k, U, theta[:p], ErrorRates(*(A @ theta[p:])), trials=m, curvature=True
        )
        # a trial point far out can leave H non-finite; that fails the
        # Newton step only if the line search accepts the point
        with np.errstate(invalid="ignore", over="ignore"):
            neg_h = -(J.T @ H @ J)
        return ll, np.concatenate([grad[:p], A.T @ grad[p:]]), neg_h

    theta, ll, converged, iterations, warning, free, neg_h = _newton_ascent(
        loglik,
        np.concatenate([beta0, A.T @ rates0 / A.sum(axis=0)]),
        lo=np.concatenate([np.full(p, -np.inf), np.zeros(n_free)]),
        hi=np.concatenate([np.full(p, np.inf), np.full(n_free, RATE_MAX)]),
    )

    beta_hat = theta[:p]
    r0_hat, r1_hat = A @ theta[p:]

    # held rates have no normal approximation: information over the rest
    neg_h = neg_h[np.ix_(free, free)]
    info = observed_information(0.5 * (neg_h + neg_h.T))
    beta_se = cov = se_r0 = se_r1 = None
    if info.se is None:
        converged = False
        warning = info.warning
    else:
        beta_se = info.se[:p]
        cov = np.zeros((theta.shape[0], theta.shape[0]))
        cov[np.ix_(free, free)] = info.covariance
        rate_se = np.zeros(n_free)
        rate_se[free[p:]] = info.se[p:]
        se_r0, se_r1 = (float(row @ rate_se) if (row * free[p:]).any() else None for row in A)
    if _degenerate(k, m, U, beta_hat):
        converged = False
        warning = SEPARATION_WARNING

    boundary = [
        name for name, row, r in zip(("r0", "r1"), A, (r0_hat, r1_hat)) if row.any() and r < 1e-5
    ]
    if boundary and warning is None:
        warning = f"error rate(s) {boundary} pinned at the lower boundary"

    return FitResult(
        model_tag=ModelTag.LIU,
        beta_hat=beta_hat,
        beta_se=beta_se,
        loglik=ll,
        converged=converged,
        iterations=iterations,
        column_names=names,
        error_rates_hat=ErrorRates(r0_hat, r1_hat, se_r0, se_r1),
        condition_warning=warning,
        variant=variant,
        covariance=cov,
    )
