"""Bayesian posteriors for the externally and internally corrected models.

Both models put independent N(0, pi^2 / (3 (p + 1))) priors on every
regression coefficient, intercept included, where p counts the
non-intercept columns. That variance makes the implied prior on each
fitted probability close to uniform when the p + 1 coefficients share
the logistic distribution's variance pi^2 / 3.

The prior is calibrated for standardized inputs, so the fitters center
and scale continuous design columns internally and undo the
transformation on every draw before reporting. The centering and
scaling stay row-weighted: means and SDs come from the cohort's rows,
and are then applied to its covariate patterns, over which every
likelihood evaluation runs. Each fit finds its posterior mode by the
projected Newton loop of ``mle`` with the exact Hessian of its log
posterior. Sampling itself runs in the Laplace basis of
``_sampling_basis``, centered at the mode and whitened by that Hessian
there, where the posterior is roughly N(0, I) and the sampler's fixed
independence proposal fits it.

The density the sampler scores is built once per fit. Its prior
constants are computed up front, and the basis is carried to the
patterns as the matrix ``U A``, so that a proposal ``phi`` costs one
product of that matrix with ``phi`` for its linear predictor and one
elementwise pass of a value kernel of ``likelihoods``. The mode search
scores its points, with their curvature, through
``bc_log_posterior_grad`` and ``bec_log_posterior_grad``;
``bc_log_posterior`` and
``bec_log_posterior`` are the reference values of the same posteriors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import AssayMode, AssayProfile
from .errors import NonConvergenceError
from .likelihoods import (
    binomial_counts,
    mixture_loglik,
    mixture_loglik_value,
    std_loglik,
    std_loglik_value,
)
from .mcmc import PosteriorDraws, SamplerConfig, sample
from .mle import (
    FitResult,
    ModelTag,
    _fit_data,
    _newton_ascent,
    observed_information,
)

RHAT_LIMIT = 1.05
# Names of the accuracy coordinates BEC samples under beta priors, after
# the coefficients.
ACCURACY_NAMES = ("sensitivity", "specificity")


def newman_prior_variance(n_covariates):
    """Prior variance pi^2 / (3 (p + 1)) shared by all p + 1 coefficients."""
    p = int(n_covariates)
    if p < 0:
        raise ValueError("number of covariates must be non-negative")
    return math.pi**2 / (3.0 * (p + 1))


def _normal_logpdf_sum(beta, var):
    beta = np.asarray(beta, dtype=float)
    k = beta.shape[0]
    return float(-0.5 * (k * np.log(2.0 * math.pi * var) + np.sum(beta**2) / var))


def _log_beta_function(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_logpdf(x, a, b):
    if not (0.0 < x < 1.0):
        return -np.inf
    return float((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - _log_beta_function(a, b))


def _in_accuracy_support(se, sp):
    return 0.0 < se < 1.0 and 0.0 < sp < 1.0 and se + sp > 1.0


def _normal_log_prior(p):
    """``theta -> `` the shared normal log prior of the ``p`` leading coefficients.

    The same value as ``_normal_logpdf_sum``, with its constants computed
    once, for the sampler's inner loop.
    """
    var = newman_prior_variance(p - 1)
    log_norm = -0.5 * p * math.log(2.0 * math.pi * var)
    half_precision = 0.5 / var

    def log_prior(theta):
        beta = theta[:p]
        return log_norm - half_precision * float(beta @ beta)

    return log_prior


def bc_log_posterior(y, X, beta):
    """Log posterior of the plain logistic model under the shared prior."""
    return bc_log_posterior_grad(y, X, beta)[0]


def bc_log_posterior_grad(y, X, beta, trials=None, curvature=False):
    """Value and gradient of ``bc_log_posterior`` over beta.

    ``trials`` as in ``likelihoods.binomial_counts``. With
    ``curvature``, a third entry: the negative Hessian, the logistic
    information plus ``I / var``.
    """
    Xm = X.matrix if hasattr(X, "matrix") else np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    var = newman_prior_variance(Xm.shape[1] - 1)
    ll, grad, *info = std_loglik(y, Xm, beta, trials=trials, curvature=curvature)
    value = ll + _normal_logpdf_sum(beta, var)
    if not curvature:
        return value, grad - beta / var
    return value, grad - beta / var, info[0] + np.eye(Xm.shape[1]) / var


@dataclass(frozen=True)
class BecParameterBlock:
    """Sampled coordinates of the internally corrected model.

    ``se``/``sp`` are present only when the assay is in beta-prior
    mode; in fixed mode the assay's stated values are used directly.
    """

    beta: np.ndarray
    se: float = None
    sp: float = None


def _bec_parts(block, assay):
    if assay.mode is AssayMode.BETA_PRIOR:
        if block.se is None or block.sp is None:
            raise ValueError("beta-prior mode requires sampled se and sp in the block")
        return float(block.se), float(block.sp), True
    if block.se is not None or block.sp is not None:
        raise ValueError("fixed mode does not sample se/sp; leave them unset")
    return assay.sensitivity, assay.specificity, False


def bec_log_posterior(y, X, block, assay):
    """Log posterior of the internally corrected model.

    Support constraints (rates in (0, 1), se + sp > 1) are enforced by
    returning -inf, which the Metropolis kernel treats as an automatic
    rejection; there is no smooth penalty.
    """
    se, sp, sampled = _bec_parts(block, assay)
    if sampled and not _in_accuracy_support(se, sp):
        return -np.inf
    return bec_log_posterior_grad(y, X, block, assay)[0]


def bec_log_posterior_grad(y, X, block, assay, trials=None, curvature=False):
    """Value and gradient over (beta[, se, sp]) of ``bec_log_posterior``.

    ``trials`` as in ``likelihoods.binomial_counts``. With
    ``curvature``, a third entry: the negative Hessian over the same
    coordinates, ``-J' H J`` from ``mixture_loglik``'s Hessian over
    (beta, p0, p1), with J the Jacobian of the linear map to ``(beta,
    p0 = 1 - sp, p1 = se)``; plus ``I / var`` on beta and, in beta-prior
    mode, each Beta prior's curvature ``(a - 1)/x^2 + (b - 1)/(1 - x)^2``.
    """
    Xm = X.matrix if hasattr(X, "matrix") else np.asarray(X, dtype=float)
    beta = np.asarray(block.beta, dtype=float)
    se, sp, sampled = _bec_parts(block, assay)
    if sampled and not _in_accuracy_support(se, sp):
        raise ValueError("gradient requested outside the support")
    p = Xm.shape[1]
    var = newman_prior_variance(p - 1)
    k, m = binomial_counts(y, trials)
    ll, g_beta, g_p0, g_p1, *H = mixture_loglik(
        k, m, Xm, beta, 1.0 - sp, se + sp - 1.0, curvature=curvature
    )
    g_se, g_sp = g_p1, -g_p0  # p0 = 1 - sp, p1 = se
    value = ll + _normal_logpdf_sum(beta, var)
    g_beta = g_beta - beta / var
    if sampled:
        a_se, b_se = assay.se_prior
        a_sp, b_sp = assay.sp_prior
        value += _beta_logpdf(se, a_se, b_se) + _beta_logpdf(sp, a_sp, b_sp)
        g_se += (a_se - 1.0) / se - (b_se - 1.0) / (1.0 - se)
        g_sp += (a_sp - 1.0) / sp - (b_sp - 1.0) / (1.0 - sp)
        g_beta = np.concatenate([g_beta, [g_se, g_sp]])
    if not curvature:
        return value, g_beta
    J = np.eye(p + 2)[:, : p + 2 * sampled]
    if sampled:
        J[p:, p:] = [[0.0, -1.0], [1.0, 0.0]]
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite H stays non-finite
        neg_h = -J.T @ H[0] @ J
    neg_h[:p, :p] += np.eye(p) / var
    if sampled:
        for j, x, (a, b) in ((p, se, assay.se_prior), (p + 1, sp, assay.sp_prior)):
            neg_h[j, j] += (a - 1.0) / x**2 + (b - 1.0) / (1.0 - x) ** 2
    return value, g_beta, neg_h


def _bc_log_density(k, m, p):
    """The BC log posterior as the sampler scores it, ``(beta, eta) -> value``.

    ``eta`` is the linear predictor ``U beta`` over the patterns with
    ``k`` positives among ``m`` trials.
    """
    log_prior = _normal_log_prior(p)

    def log_density(beta, eta):
        return std_loglik_value(k, m, eta) + log_prior(beta)

    return log_density


def _bec_log_density(k, m, p, assay):
    """The BEC log posterior as the sampler scores it, ``(theta, eta) -> value``.

    ``theta`` is (beta[, se, sp]) and ``eta`` the linear predictor of
    its ``p`` coefficients over the patterns. In beta-prior mode a
    proposal outside the accuracy support is -inf before any likelihood
    work.
    """
    normal = _normal_log_prior(p)
    if assay.mode is AssayMode.FIXED:
        offset, slope = 1.0 - assay.specificity, assay.sensitivity + assay.specificity - 1.0

        def log_density(theta, eta):
            return mixture_loglik_value(k, m, eta, offset, slope) + normal(theta)

        return log_density

    (a_se, b_se), (a_sp, b_sp) = assay.se_prior, assay.sp_prior
    log_norm = _log_beta_function(a_se, b_se) + _log_beta_function(a_sp, b_sp)

    def log_density(theta, eta):
        se, sp = theta[p], theta[p + 1]
        if not _in_accuracy_support(se, sp):
            return -np.inf
        accuracy = (
            (a_se - 1.0) * math.log(se)
            + (b_se - 1.0) * math.log1p(-se)
            + (a_sp - 1.0) * math.log(sp)
            + (b_sp - 1.0) * math.log1p(-sp)
        )
        value = mixture_loglik_value(k, m, eta, 1.0 - sp, se + sp - 1.0) + normal(theta)
        return value + (accuracy - log_norm)

    return log_density


# ---------------------------------------------------------------------------
# Covariate standardization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Standardization:
    """Center/scale record for continuous design columns."""

    indices: tuple
    means: tuple
    sds: tuple

    def apply(self, X):
        Xs = np.array(X, dtype=float)
        for i, m, s in zip(self.indices, self.means, self.sds):
            Xs[:, i] = (Xs[:, i] - m) / s
        return Xs

    def undo_beta(self, beta_std):
        """Map standardized-scale coefficients back to the input scale.

        Works on a single vector or an array whose last axis is the
        coefficient axis.
        """
        b = np.array(beta_std, dtype=float)
        for i, m, s in zip(self.indices, self.means, self.sds):
            b[..., 0] -= b[..., i] * (m / s)
            b[..., i] = b[..., i] / s
        return b


def standardize_design(X):
    """The Standardization that centers continuous columns and scales them to unit variance.

    A column is continuous when it holds any value other than 0 or 1;
    the intercept and dummies pass through untouched. Means and SDs come
    from the rows of ``X``; the record's ``apply`` transforms a matrix
    and its ``undo_beta`` maps coefficients back.
    """
    X = X.matrix if hasattr(X, "matrix") else np.asarray(X, dtype=float)
    idx, means, sds = [], [], []
    for j in range(1, X.shape[1]):
        col = X[:, j]
        if np.all((col == 0.0) | (col == 1.0)):
            continue
        sd = float(col.std(ddof=0))
        if sd == 0.0:
            continue
        idx.append(j)
        means.append(float(col.mean()))
        sds.append(sd)
    return Standardization(indices=tuple(idx), means=tuple(means), sds=tuple(sds))


def _posterior_data(y, X):
    """``(positives, trials, patterns, standardized patterns, tr, names)`` of a fit.

    The standardization is computed on the rows, so it is the same
    whether or not the rows are grouped, and applied to the patterns.
    """
    k, m, U, names = _fit_data(y, X, None, None)
    tr = standardize_design(X)
    return k, m, U, tr.apply(U), tr, names


def _sampling_basis(neg_h):
    """Rotation that makes the posterior roughly N(0, I) around its mode.

    Sampling runs in phi with theta = mode + A phi, where A A' is the
    inverse of ``neg_h``, the negative Hessian of the log posterior at
    the mode (the Laplace approximation), so the sampler's fixed
    independence proposal, centered at 0 with unit scale, covers the
    posterior in every direction. A curvature that is not positive
    definite has no such basis; the fit then fails with the
    information's own warning.
    """
    info = observed_information(0.5 * (neg_h + neg_h.T))
    if info.se is None:
        raise NonConvergenceError(f"no sampling basis at the posterior mode: {info.warning}")
    return np.linalg.cholesky(info.covariance)


# ---------------------------------------------------------------------------
# Posterior fitting
# ---------------------------------------------------------------------------


def _posterior_fit_result(tag, draws_obj, n_beta, loglik, names):
    """The fit summary of posterior draws, and the package's one R-hat gate.

    Converged only when every sampled coordinate, the accuracy ones
    included, has a finite split R-hat below ``RHAT_LIMIT``.
    """
    flat = draws_obj.flat()[:, :n_beta]
    beta_hat = flat.mean(axis=0)
    beta_se = flat.std(axis=0, ddof=1)
    bad = ~(np.isfinite(draws_obj.rhat) & (draws_obj.rhat < RHAT_LIMIT))
    converged = not bool(np.any(bad))
    warning = None
    if not converged:
        worst = np.nanmax(draws_obj.rhat)
        warning = (
            f"chains not mixed: {int(bad.sum())} parameter(s) with split rhat >= "
            f"{RHAT_LIMIT} (worst {worst:.4f})"
        )
    return FitResult(
        model_tag=tag,
        beta_hat=beta_hat,
        beta_se=beta_se,
        loglik=loglik,
        converged=converged,
        iterations=draws_obj.n_total,
        column_names=names,
        condition_warning=warning,
    )


def _basis_log_post(log_density, Us, mode, A):
    """``log_density`` in the sampler's coordinates: ``phi -> log_density(theta, eta)``.

    ``theta = mode + A phi``, and the linear predictor of its leading
    ``Us.shape[1]`` coefficients over the patterns ``Us`` is updated as
    ``eta = Us mode + (Us A) phi``, with both terms computed here, once.
    ``Us A`` is kept column-major, the faster layout for a product with
    a vector.
    """
    p = Us.shape[1]
    UA = np.asfortranarray(Us @ A[:p])
    eta_mode = Us @ mode[:p]

    def log_post(phi):
        return log_density(mode + A @ phi, eta_mode + UA @ phi)

    return log_post


def _sample_posterior(
    tag, Us, loglik, log_density, theta0, config, tr, names, lo=-np.inf, hi=np.inf
):
    """Draws of a posterior over (beta[, se, sp]), on the input scale.

    Finds the mode from ``theta0`` by ``mle._newton_ascent``, the
    projected Newton loop of the maximum-likelihood fits: ``loglik``
    gives the log posterior over standardized coefficients, its gradient
    and its exact negative Hessian, and ``[lo, hi]`` boxes the
    coordinates. A search that ends unconverged is a NonConvergenceError
    naming the model ``tag``. Samples ``log_density(theta, eta)``, with
    ``eta`` the linear predictor over the standardized patterns ``Us``,
    in the mode-centered coordinates of ``_sampling_basis`` at the
    negative Hessian the search ended with, from seed-derived
    overdispersed starts, and undoes the standardization on every draw.
    The returned draws carry the sampler's acceptance rates; their
    R-hat and ESS are computed when first read, on the input scale.
    """
    mode, _, converged, _, warning, _, neg_h = _newton_ascent(loglik, theta0, lo, hi)
    if not converged:
        raise NonConvergenceError(f"{tag.value} posterior mode: {warning}")
    dim = mode.shape[0]
    A = _sampling_basis(neg_h)
    log_post = _basis_log_post(log_density, Us, mode, A)

    # Overdispersed starts, two posterior sds around the mode in each
    # whitened coordinate. They can land outside the accuracy support;
    # pull each one toward the mode until its density is finite.
    rng = np.random.default_rng([int(config.seed), 0xA5])
    init = 2.0 * rng.standard_normal((config.chains, dim))
    for i in range(init.shape[0]):
        for _ in range(60):
            if np.isfinite(log_post(init[i])):
                break
            init[i] *= 0.5
        else:
            raise NonConvergenceError(f"chain {i} start: no finite log posterior after 60 halvings")

    raw = sample(log_post, dim, config, init=init)
    # undo_beta changes only the intercept and the standardized columns,
    # so sampled accuracy coordinates after the coefficients pass through
    theta_draws = tr.undo_beta(mode + raw.draws @ A.T)
    return PosteriorDraws(theta_draws, names, raw.accept_rate)


def fit_bc(y, X, config=None):
    """Posterior of the plain logistic model; external correction later.

    Returns the fit summary and the back-transformed draws.
    """
    config = config or SamplerConfig()
    k, m, U, Us, tr, names = _posterior_data(y, X)
    p = Us.shape[1]

    def loglik(beta):
        return bc_log_posterior_grad(k, Us, beta, trials=m, curvature=True)

    log_density = _bc_log_density(k, m, p)
    draws = _sample_posterior(ModelTag.BC, Us, loglik, log_density, np.zeros(p), config, tr, names)
    beta_hat = draws.flat().mean(axis=0)
    ll_hat = std_loglik_value(k, m, U @ beta_hat)
    fit = _posterior_fit_result(ModelTag.BC, draws, p, ll_hat, names)
    return fit, draws


def fit_bec(y, X, assay, config=None):
    """Posterior of the internally corrected model.

    In fixed mode only beta is sampled; in beta-prior mode the
    sensitivity and specificity join the parameter block with their
    Beta priors, starting from the prior means.
    """
    if not isinstance(assay, AssayProfile):
        raise TypeError("assay must be an AssayProfile")
    config = config or SamplerConfig()
    k, m, U, Us, tr, names = _posterior_data(y, X)
    p = Us.shape[1]

    # In beta-prior mode se and sp are sampled after the coefficients;
    # in fixed mode theta holds the coefficients alone.
    def accuracy(theta):
        if len(theta) > p:
            return theta[p], theta[p + 1]
        return assay.sensitivity, assay.specificity

    def loglik(theta):
        block = BecParameterBlock(theta[:p], *theta[p:])
        return bec_log_posterior_grad(k, Us, block, assay, trials=m, curvature=True)

    log_density = _bec_log_density(k, m, p, assay)

    theta0, lo, hi, out_names = np.zeros(p), -np.inf, np.inf, tuple(names)
    if assay.mode is AssayMode.BETA_PRIOR:
        theta0 = np.concatenate([theta0, [assay.sensitivity, assay.specificity]])
        lo = np.concatenate([np.full(p, -np.inf), [0.501, 0.501]])
        hi = np.concatenate([np.full(p, np.inf), [1.0 - 1e-9, 1.0 - 1e-9]])
        out_names += ACCURACY_NAMES
    draws = _sample_posterior(
        ModelTag.BEC, Us, loglik, log_density, theta0, config, tr, out_names, lo, hi
    )

    flat = draws.flat()
    beta_hat = flat[:, :p].mean(axis=0)
    se_hat, sp_hat = accuracy([float(flat[:, j].mean()) for j in range(flat.shape[1])])
    ll_hat = mixture_loglik_value(k, m, U @ beta_hat, 1.0 - sp_hat, se_hat + sp_hat - 1.0)
    fit = _posterior_fit_result(ModelTag.BEC, draws, p, ll_hat, names)
    return fit, draws
