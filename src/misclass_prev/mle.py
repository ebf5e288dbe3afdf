"""Maximum-likelihood fitting: plain logistic and joint error-rate models.

Both fits run one damped Newton loop, ``_newton_ascent``. ``fit_std``
gives it the exact logistic information; ``fit_liu`` maximizes the
misclassified likelihood over (beta, free error rates) by projected
Newton with the analytic Hessian of ``likelihoods.mixture_hessian``, on
the original scale with the free rates boxed in [0, ``RATE_MAX``];
which of the false-positive rate r0 and the false-negative rate r1 are
free is one matrix per ``LiuVariant``. Standard errors for both fits
come from the analytic observed information in the original
parameterization. ``bayes`` finds the BC and BEC posterior modes with
the same loop and the exact Hessians of their log posteriors.

Both fit over covariate patterns: a DesignMatrix is fitted over its
distinct rows with trials and positives per row, and a caller that
already holds counts (a bootstrap resample) passes them with
``trials``. The boundary checks keep their per-row meaning.

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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data_model import design_patterns
from .errors import SingularDesignError
from .likelihoods import (
    ErrorRates,
    binomial_counts,
    liu_loglik,
    logistic,
    mixture_hessian,
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


@dataclass(frozen=True)
class LiuErrorEstimate:
    r0: float
    r1: float
    se_r0: float = None
    se_r1: float = None

    def __post_init__(self):
        object.__setattr__(self, "r0", float(self.r0))
        object.__setattr__(self, "r1", float(self.r1))


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
    error_rates_hat: LiuErrorEstimate = None
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


def _resolve_design(X, column_names):
    if hasattr(X, "matrix"):
        names = X.column_names
        X = X.matrix
    else:
        X = np.asarray(X, dtype=float)
        names = column_names
    if names is None:
        names = tuple(f"x{j}" for j in range(X.shape[1]))
    return X, tuple(names)


def _check_rank(X, names):
    """Rank by SVD at ``np.linalg.matrix_rank``'s tolerance; names the collinear columns."""
    s = np.linalg.svd(X, compute_uv=False)
    rank = int(np.sum(s > s[0] * max(X.shape) * np.finfo(float).eps))
    if rank < X.shape[1]:
        null = np.abs(np.linalg.svd(np.linalg.qr(X, mode="r"))[2][rank:])
        collinear = [names[j] for j in np.flatnonzero(np.max(null, axis=0) > 1e-8)]
        raise SingularDesignError(
            f"design matrix is rank deficient (rank {rank} of {X.shape[1]}); "
            f"collinear columns: {collinear}",
            columns=collinear,
        )


def _fit_data(y, X, column_names, trials):
    """``(positives, trials, rows, names)`` a fit runs on, rank-checked.

    Without ``trials``, ``y`` is one 0/1 outcome per row of ``X`` and the
    rows are grouped by ``design_patterns``; with it, the rows of ``X``
    carry ``trials`` trials and ``y`` positives each.
    """
    rows, names = _resolve_design(X, column_names)
    if trials is None:
        patterns = design_patterns(X)
        k, m, rows = patterns.positives(binomial_counts(y)[0]), patterns.trials, patterns.rows
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
    if np.max(np.abs(beta)) > SEPARATION_BOUND:
        return True
    pi = logistic(U @ beta)
    worst = np.maximum(np.where(k > 0.0, 1.0 - pi, 0.0), np.where(k < m, pi, 0.0))
    if np.max(worst) < 1e-6:
        return True
    # positives and trials at each level of every 0/1 column, in one pass;
    # the counts are whole numbers, so the sums and the tests are exact
    B = U[:, 1:][:, np.all((U[:, 1:] == 0.0) | (U[:, 1:] == 1.0), axis=0)]
    positives, trials = k @ B, m @ B
    positives = np.concatenate([positives, k.sum() - positives])
    trials = np.concatenate([trials, m.sum() - trials])
    return bool(np.any((positives == 0.0) | (positives == trials)))


def _logistic_information(m, U, beta):
    """Negative Hessian of the logistic log-likelihood, ``U' diag(m pi (1 - pi)) U``."""
    pi = logistic(U @ beta)
    return U.T @ ((m * pi * (1.0 - pi))[:, None] * U)


def _newton_ascent(loglik, direction, theta, lo=-np.inf, hi=np.inf):
    """Damped Newton ascent of ``loglik``, projected onto the box ``[lo, hi]``.

    ``loglik(theta)`` returns ``(value, score)`` and ``direction(theta,
    free, score)`` the Newton step over the coordinates ``free``. A
    coordinate on a bound whose score points out of the box is held there
    and every other one is free (projected Newton, Bertsekas 1982, SIAM J.
    Control Optim.). Each step is halved along the projection arc until
    the value drops by no more than 1e-12, which keeps it monotone when
    Newton overshoots. Converged when the score over the free coordinates
    is below SCORE_TOL or the step below STEP_TOL within MAX_ITER steps.
    Returns ``(theta, value, converged, iterations, warning, free)``,
    ``free`` the final mask of coordinates not held on a bound.
    """

    def free_of(theta, score):
        return ~(((theta <= lo) & (score < 0.0)) | ((theta >= hi) & (score > 0.0)))

    theta = np.clip(theta, lo, hi)
    ll, score = loglik(theta)
    free = free_of(theta, score)
    warning = None
    iterations = 0
    converged = np.max(np.abs(score[free])) < SCORE_TOL

    for it in range(1, MAX_ITER + 1):
        if converged:
            break
        step = np.zeros_like(theta)
        try:
            step[free] = direction(theta, free, score[free])
        except np.linalg.LinAlgError:
            warning = "singular Hessian during Newton iteration"
            break
        for _ in range(30):
            trial = np.clip(theta + step, lo, hi)
            ll_new, score_new = loglik(trial)
            if ll_new >= ll - 1e-12:
                break
            step = step / 2.0
        theta, ll, score = trial, ll_new, score_new
        free = free_of(theta, score)
        iterations = it
        if np.max(np.abs(score[free])) < SCORE_TOL or np.max(np.abs(step)) < STEP_TOL:
            converged = True

    if not converged and warning is None:
        warning = f"no convergence in {MAX_ITER} Newton iterations"
    return theta, ll, converged, iterations, warning, free


def fit_std(y, X, column_names=None, trials=None):
    """Damped Newton / IRLS fit of a plain logistic regression.

    ``y`` holds one 0/1 outcome per row of ``X``; given ``trials``, it
    holds the positives among ``trials`` per row instead.
    """
    k, m, U, names = _fit_data(y, X, column_names, trials)
    p = U.shape[1]

    beta, ll, converged, iterations, warning, _ = _newton_ascent(
        lambda beta: std_loglik(k, U, beta, trials=m),
        lambda beta, free, score: np.linalg.solve(_logistic_information(m, U, beta), score),
        np.zeros(p),
    )

    if _degenerate(k, m, U, beta):
        converged = False
        warning = SEPARATION_WARNING

    beta_se = None
    cov = None
    if converged:
        try:
            l_inv = np.linalg.inv(np.linalg.cholesky(_logistic_information(m, U, beta)))
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
    if not np.all(np.isfinite(info)):
        return InformationResult(
            matrix=info,
            se=None,
            rcond=0.0,
            warning="information matrix has non-finite entries",
        )
    eigvals = np.linalg.eigvalsh(info)
    rcond = float(eigvals[0] / eigvals[-1]) if eigvals[-1] > 0 else 0.0
    if eigvals[0] <= 0:
        return InformationResult(
            matrix=info,
            se=None,
            rcond=rcond,
            warning="observed information is not positive definite",
        )
    if rcond < RCOND_MIN:
        return InformationResult(
            matrix=info,
            se=None,
            rcond=rcond,
            warning=f"observed information is numerically singular (rcond {rcond:.2e})",
        )
    se = np.sqrt(np.diag(np.linalg.inv(info)))
    return InformationResult(matrix=info, se=se, rcond=rcond, warning=None)


@dataclass(frozen=True)
class LiuInit:
    beta: np.ndarray
    r0: float = 0.01
    r1: float = 0.01


def default_liu_init(y, X, column_names=None, trials=None):
    """Plain logistic coefficients plus small symmetric error rates.

    The logistic fit is used even when flagged non-converged (its
    coefficients still point in a useful direction); they are clipped
    well inside the separation bound so the joint fit starts finite.
    """
    start = fit_std(y, X, column_names=column_names, trials=trials)
    beta = np.clip(start.beta_hat, -10.0, 10.0)
    return LiuInit(beta=beta, r0=0.01, r1=0.01)


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


def _liu_hessian(k, m, U, A, theta):
    """Hessian over ``theta = (beta, free rates)``, ``J' H J``.

    ``(beta, p0, p1) = (beta, A[0] @ free, 1 - A[1] @ free)`` is linear in
    theta with Jacobian J, so no second-order chain terms arise.
    """
    p = U.shape[1]
    r0, r1 = A @ theta[p:]
    J = np.zeros((p + 2, p + A.shape[1]))
    J[:p, :p] = np.eye(p)
    J[p:, p:] = A * [[1.0], [-1.0]]
    return J.T @ mixture_hessian(k, m, U, theta[:p], r0, 1.0 - r0 - r1) @ J


def _newton_direction(neg_h, g):
    """Solve ``neg_h d = g``, shifting the diagonal until Cholesky finds it positive definite."""
    if not np.all(np.isfinite(neg_h)):
        raise np.linalg.LinAlgError("non-finite Hessian")
    shift = 0.0
    floor = 1e-8 * max(1.0, float(np.max(np.abs(np.diag(neg_h)))))
    for _ in range(40):
        shifted = neg_h + shift * np.eye(g.shape[0])
        try:
            np.linalg.cholesky(shifted)  # raises unless positive definite
            return np.linalg.solve(shifted, g)
        except np.linalg.LinAlgError:
            shift = max(10.0 * shift, floor)
    raise np.linalg.LinAlgError("no diagonal shift makes the Hessian positive definite")


def fit_liu(
    y,
    X,
    variant=LiuVariant.BOTH_FREE,
    init=None,
    column_names=None,
    trials=None,
):
    """Joint MLE of regression coefficients and misclassification rates.

    The variant's rate map A (``_RATE_MAP``) gives the end rates from
    the free ones, ``(r0, r1) = A @ free``. The fit is the projected
    Newton ascent ``_newton_ascent`` over ``(beta, free rates)`` on the
    original scale, with the free rates boxed in ``[0, RATE_MAX]`` and
    the analytic Hessian ``_liu_hessian``: a rate on its bound whose
    score points out of the box is held there, so it comes out exactly
    0, and the Newton step over the rest is solved by Cholesky, with a
    Levenberg shift only when that fails. Standard errors and the
    covariance come from the observed information over the coordinates
    not held on a bound; a held rate, or one the variant pins at 0, has
    no SE and zero rows in ``covariance``. ``y`` and ``trials`` are as
    in ``fit_std``.
    """
    k, m, U, names = _fit_data(y, X, column_names, trials)
    p = U.shape[1]
    A = _RATE_MAP[variant]

    if init is None:
        init = default_liu_init(k, U, column_names=names, trials=m)

    beta0 = np.asarray(init.beta, dtype=float)
    if beta0.shape[0] != p:
        raise ValueError(f"init beta has length {beta0.shape[0]}, design has {p} columns")

    def loglik(theta):
        r0, r1 = A @ theta[p:]
        ll, grad = liu_loglik(k, U, theta[:p], ErrorRates(r0, r1), trials=m)
        return ll, np.concatenate([grad[:p], A.T @ grad[p:]])

    def direction(theta, free, score):
        return _newton_direction(-_liu_hessian(k, m, U, A, theta)[np.ix_(free, free)], score)

    n_free = A.shape[1]
    theta, ll, converged, iterations, warning, free = _newton_ascent(
        loglik,
        direction,
        np.concatenate([beta0, A.T @ [init.r0, init.r1] / A.sum(axis=0)]),
        lo=np.concatenate([np.full(p, -np.inf), np.zeros(n_free)]),
        hi=np.concatenate([np.full(p, np.inf), np.full(n_free, RATE_MAX)]),
    )

    beta_hat = theta[:p]
    r0_hat, r1_hat = A @ theta[p:]

    # held rates have no normal approximation: information over the rest
    neg_h = -_liu_hessian(k, m, U, A, theta)[np.ix_(free, free)]
    info = observed_information(0.5 * (neg_h + neg_h.T))
    beta_se = cov = se_r0 = se_r1 = None
    if info.se is None:
        converged = False
        warning = info.warning
    else:
        beta_se = info.se[:p]
        cov = np.zeros((theta.shape[0], theta.shape[0]))
        cov[np.ix_(free, free)] = np.linalg.inv(info.matrix)
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
        error_rates_hat=LiuErrorEstimate(r0=r0_hat, r1=r1_hat, se_r0=se_r0, se_r1=se_r1),
        condition_warning=warning,
        variant=variant,
        covariance=cov,
    )
