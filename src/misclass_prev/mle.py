"""Maximum-likelihood fitting: plain logistic and joint error-rate models.

``fit_std`` is a damped Newton (equivalently IRLS) solver written out
directly, since the Hessian of the logistic likelihood is cheap and
exact. ``fit_liu`` maximizes the misclassified likelihood over
(beta, free error rates) with BFGS on a transformed scale where the
rates are unconstrained; which of the false-positive rate r0 and the
false-negative rate r1 are free is one matrix per ``LiuVariant``.
Standard errors for both fits come from the observed information in
the original parameterization.

Both fit over covariate patterns: a DesignMatrix is fitted over its
distinct rows with trials and positives per row, and a caller that
already holds counts (a bootstrap resample) passes them with
``trials``. The boundary checks keep their per-row meaning.

Convergence is declared when the score's max-abs entry drops below
1e-8 or the step below 1e-10. Boundary pathologies (separation,
error rates pinned at zero, singular information) are reported through
``converged``/``condition_warning`` on the result, never as crashes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import linalg as sla
from scipy import optimize

from .data_model import design_patterns
from .errors import SingularDesignError
from .likelihoods import (
    ErrorRates,
    binomial_counts,
    liu_loglik,
    logistic,
    mixture_loglik,
    std_loglik,
)

log = logging.getLogger(__name__)

SCORE_TOL = 1e-8
STEP_TOL = 1e-10
SEPARATION_BOUND = 30.0


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
    """Pivoted QR rank check; names the redundant columns on failure."""
    _, R, piv = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag[0] * max(X.shape) * np.finfo(float).eps if diag[0] > 0 else 0.0
    rank = int(np.sum(diag > tol))
    if rank < X.shape[1]:
        collinear = [names[j] for j in piv[rank:]]
        raise SingularDesignError(
            f"design matrix is rank deficient (rank {rank} of {X.shape[1]}); "
            f"redundant columns: {collinear}",
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
    for j in range(1, U.shape[1]):
        ones = U[:, j] == 1.0
        if not np.all(ones | (U[:, j] == 0.0)):
            continue
        for level in (ones, ~ones):
            positives = k[level].sum()
            if positives == 0.0 or positives == m[level].sum():
                return True
    return False


def fit_std(y, X, column_names=None, max_iter=100, trials=None):
    """Damped Newton / IRLS fit of a plain logistic regression.

    ``y`` holds one 0/1 outcome per row of ``X``; given ``trials``, it
    holds the positives among ``trials`` per row instead.
    """
    k, m, U, names = _fit_data(y, X, column_names, trials)

    p = U.shape[1]
    beta = np.zeros(p)
    ll, score = std_loglik(k, U, beta, trials=m)
    warning = None
    iterations = 0
    converged = np.max(np.abs(score)) < SCORE_TOL

    def information(beta):
        pi = logistic(U @ beta)
        return U.T @ ((m * pi * (1.0 - pi))[:, None] * U)

    for it in range(1, max_iter + 1):
        if converged:
            break
        try:
            delta = np.linalg.solve(information(beta), score)
        except np.linalg.LinAlgError:
            warning = "singular Hessian during Newton iteration"
            break
        # Step halving keeps the likelihood monotone when Newton overshoots.
        step = delta
        for _ in range(30):
            ll_new, score_new = std_loglik(k, U, beta + step, trials=m)
            if ll_new >= ll - 1e-12:
                break
            step = step / 2.0
        beta = beta + step
        ll, score = ll_new, score_new
        iterations = it
        if np.max(np.abs(score)) < SCORE_TOL or np.max(np.abs(step)) < STEP_TOL:
            converged = True

    if not converged and warning is None:
        warning = f"no convergence in {max_iter} Newton iterations"

    if _degenerate(k, m, U, beta):
        converged = False
        warning = "separation or boundary: fitted probabilities degenerate"

    beta_se = None
    cov = None
    if converged:
        try:
            cho = sla.cho_factor(information(beta))
            cov = sla.cho_solve(cho, np.eye(p))
            beta_se = np.sqrt(np.diag(cov))
        except (sla.LinAlgError, ValueError):
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


def observed_information(score_fn, theta_hat, step=1e-5):
    """Observed information by central differences of an analytic score.

    The Hessian of the log-likelihood is approximated column by column
    as d(score)/d(theta_j) with relative steps, then symmetrized and
    negated. If the result is not positive definite the standard errors
    are withheld and a warning attached; ``rcond`` is the eigenvalue
    ratio of the symmetrized matrix.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    k = theta_hat.shape[0]
    H = np.empty((k, k))
    with np.errstate(all="ignore"):
        for j in range(k):
            h = step * max(1.0, abs(theta_hat[j]))
            up = theta_hat.copy()
            dn = theta_hat.copy()
            up[j] += h
            dn[j] -= h
            H[:, j] = (np.asarray(score_fn(up)) - np.asarray(score_fn(dn))) / (2.0 * h)
    info = -0.5 * (H + H.T)
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
    try:
        variances = np.diag(np.linalg.inv(info))
    except np.linalg.LinAlgError:
        variances = None
    # inversion can go unstable even past the eigenvalue check
    if variances is None or np.any(variances <= 0) or not np.all(np.isfinite(variances)):
        return InformationResult(
            matrix=info,
            se=None,
            rcond=rcond,
            warning="observed information is numerically singular",
        )
    warning = None
    if rcond < 1e-12:
        warning = f"observed information is ill conditioned (rcond {rcond:.2e})"
    return InformationResult(matrix=info, se=np.sqrt(variances), rcond=rcond, warning=warning)


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


def _rate_to_unconstrained(r):
    # r in (0, 0.5) maps to the real line via r = 0.5 * sigmoid(u)
    r = min(max(r, 1e-8), 0.5 - 1e-8)
    return float(np.log(2.0 * r / (1.0 - 2.0 * r)))


def _unconstrained_to_rate(u):
    # Clamped strictly inside [0, 0.5): a wild line-search step can push
    # u far enough that 0.5 * sigmoid(u) rounds to exactly 0.5.
    return min(0.5 * logistic(u), 0.5 - 1e-9)


# Which rates a variant frees, as the 0/1 matrix A with (r0, r1) = A @ free:
# a zero row pins that rate at 0, a column shared by both rows ties them.
_RATE_MAP = {
    LiuVariant.BOTH_FREE: np.array([[1.0, 0.0], [0.0, 1.0]]),
    LiuVariant.FALSE_POSITIVE_ONLY: np.array([[1.0], [0.0]]),
    LiuVariant.FALSE_NEGATIVE_ONLY: np.array([[0.0], [1.0]]),
    LiuVariant.ERRORS_EQUAL: np.array([[1.0], [1.0]]),
}


def fit_liu(
    y,
    X,
    variant=LiuVariant.BOTH_FREE,
    init=None,
    column_names=None,
    max_iter=500,
    trials=None,
):
    """Joint MLE of regression coefficients and misclassification rates.

    The variant's rate map A (``_RATE_MAP``) gives the end rates from
    the free ones, ``(r0, r1) = A @ free``, and the score over the free
    rates from the one over (r0, r1), ``A' @ score``. The free rates are
    optimized on an unconstrained scale (r = 0.5 * sigmoid(u)) with BFGS
    and the analytic gradient; standard errors come from the observed
    information over the original free parameters (beta plus the free
    rates). A rate the variant pins at 0 has no standard error.
    ``y`` and ``trials`` are as in ``fit_std``.
    """
    k, m, U, names = _fit_data(y, X, column_names, trials)
    p = U.shape[1]
    A = _RATE_MAP[variant]

    if init is None:
        init = default_liu_init(k, U, column_names=names, trials=m)

    def free_rates(theta):
        return np.array([_unconstrained_to_rate(u) for u in theta[p:]])

    def neg_obj(theta):
        free = free_rates(theta)
        r0, r1 = A @ free
        ll, grad = liu_loglik(k, U, theta[:p], ErrorRates(r0, r1), trials=m)
        # chain rule through r = 0.5 * sigmoid(u): dr/du = r (1 - 2r) ...
        # with s = sigmoid(u), r = s/2, dr/du = 0.5 s (1 - s) = r (1 - 2r)
        jac = A.T @ grad[p:] * free * (1.0 - 2.0 * free)
        return -ll, -np.concatenate([grad[:p], jac])

    theta0 = np.asarray(init.beta, dtype=float)
    if theta0.shape[0] != p:
        raise ValueError(f"init beta has length {theta0.shape[0]}, design has {p} columns")
    free0 = A.T @ [init.r0, init.r1] / A.sum(axis=0)
    theta0 = np.concatenate([theta0, [_rate_to_unconstrained(r) for r in free0]])

    res = optimize.minimize(
        neg_obj,
        theta0,
        jac=True,
        method="BFGS",
        options={"gtol": SCORE_TOL, "maxiter": max_iter},
    )
    grad_inf = float(np.max(np.abs(res.jac)))
    # BFGS's "precision loss" stop is the float64 analogue of the step
    # criterion: the line search cannot move anymore. Accept it when the
    # gradient is already small in absolute terms.
    opt_ok = bool(res.success) or grad_inf < 1e-4

    beta_hat = res.x[:p]
    r0_hat, r1_hat = A @ free_rates(res.x)
    ll_hat, _ = liu_loglik(k, U, beta_hat, ErrorRates(r0_hat, r1_hat), trials=m)

    # Observed information in the original parameterization. The kernel
    # is called directly: difference steps may leave the rates' domain,
    # which ErrorRates would refuse.
    def orig_score(theta):
        r0, r1 = A @ theta[p:]
        _, g_beta, g_p0, g_p1 = mixture_loglik(k, m, U, theta[:p], r0, 1.0 - r0 - r1)
        return np.concatenate([g_beta, A.T @ [g_p0, -g_p1]])  # p0 = r0, p1 = 1 - r1

    theta_orig = np.concatenate([beta_hat, A.T @ [r0_hat, r1_hat] / A.sum(axis=0)])
    info = observed_information(orig_score, theta_orig)
    beta_se = info.se[:p] if info.se is not None else None
    cov = np.linalg.inv(info.matrix) if info.se is not None else None

    warning = None
    converged = True
    if not opt_ok:
        converged = False
        warning = f"optimizer did not converge ({res.message}; |grad| {grad_inf:.2e})"
    if info.se is None:
        converged = False
        warning = info.warning
    elif info.warning and warning is None:
        warning = info.warning
    if np.max(np.abs(beta_hat)) > SEPARATION_BOUND:
        converged = False
        warning = "separation or boundary: a coefficient escaped past 30"

    boundary = []
    for name, r in zip(("r0", "r1"), (r0_hat, r1_hat)):
        if r < 1e-5:
            boundary.append(name)
    if boundary and warning is None:
        warning = f"error rate(s) {boundary} pinned at the lower boundary"

    se_r0 = se_r1 = None
    if info.se is not None:
        se_r0, se_r1 = (float(row @ info.se[p:]) if row.any() else None for row in A)

    return FitResult(
        model_tag=ModelTag.LIU,
        beta_hat=beta_hat,
        beta_se=beta_se,
        loglik=ll_hat,
        converged=converged,
        iterations=int(res.nit),
        column_names=names,
        error_rates_hat=LiuErrorEstimate(r0=r0_hat, r1=r1_hat, se_r0=se_r0, se_r1=se_r1),
        condition_warning=warning,
        variant=variant,
        covariance=cov,
    )
