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

A fit's sampled coordinates theta = (beta[, se, sp]) have one owner,
``_Posterior``, built once per fit, and BC and BEC run one pipeline
over it. It holds the log prior, each Beta prior on the accuracy and
the accuracy support included, with its gradient and curvature; the
likelihood's ends ``(1 - sp, se + sp - 1)``, from the sampled accuracy
or the assay's fixed values; and the mode search's start, its box and
the names of the sampled accuracy coordinates. The sampler's density
adds that prior to the likelihood of ``likelihoods.OutcomeEntries``,
whose entries' predictors, like theta, are linear in the sampler's
coordinates ``phi``: each fit builds one column-major map from ``[phi,
1]`` to both (``_basis_log_post``), so that a proposal costs one product
of that map with ``[phi, 1]`` and a few elementwise passes over the
entries. The mode search scores its points, with their curvature,
through ``_Posterior.grad``; ``bc_log_posterior[_grad]`` and
``bec_log_posterior[_grad]`` are the reference values of the same
posteriors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import AssayMode, AssayProfile, design_rows
from .errors import NonConvergenceError
from .likelihoods import OutcomeEntries, binomial_counts, mixture_loglik, std_loglik
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


class _Posterior:
    """The sampled coordinates theta = (beta[, se, sp]) of one fit, their prior and likelihood.

    Built once per fit from the coefficient count ``p`` and, for BEC,
    the assay. In beta-prior mode se and sp follow the ``p``
    coefficients; otherwise theta is the coefficients alone, and BEC
    reads its accuracy from the assay. ``value(theta)`` is the log
    prior: the shared normal on the coefficients plus, in beta-prior
    mode, each Beta prior, and -inf outside the accuracy support (rates
    in (0, 1), se + sp > 1). ``ends(theta)`` are the likelihood's
    offset and slope ``(1 - sp, se + sp - 1)`` for BEC and none for BC,
    whose likelihood is the plain logistic one. The sampler calls these
    for every proposal, so their constants are bound in closures.
    ``start``, ``lo``/``hi`` and ``names`` are the mode search's start
    (zero coefficients, the prior means of se and sp), its box and the
    names of the sampled accuracy coordinates.
    """

    def __init__(self, p, assay=None):
        var, plain = newman_prior_variance(p - 1), assay is None
        sampled = not plain and assay.mode is AssayMode.BETA_PRIOR
        shapes = (assay.se_prior, assay.sp_prior) if sampled else ()
        self.p, self.var, self.dim, self.plain = p, var, p + len(shapes), plain
        # (a - 1, b - 1) of each Beta prior, in the order of theta
        self.shapes = beta_shapes = tuple((a - 1.0, b - 1.0) for a, b in shapes)
        accuracy = None if plain else (assay.sensitivity, assay.specificity)
        self.start = np.concatenate([np.zeros(p), accuracy if sampled else ()])
        self.lo = np.concatenate([np.full(p, -np.inf), np.full(len(shapes), 0.501)])
        self.hi = np.concatenate([np.full(p, np.inf), np.full(len(shapes), 1.0 - 1e-9)])
        self.names = ACCURACY_NAMES[: len(shapes)]
        # J, the Jacobian of theta -> (beta, p0 = 1 - sp, p1 = se)
        J = np.eye(p + 2)
        J[p:, p:] = [[0.0, -1.0], [1.0, 0.0]]
        self.jacobian = J[:, : self.dim]

        log_norm = -0.5 * p * math.log(2.0 * math.pi * var) - sum(
            math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b) for a, b in shapes
        )
        half_precision = 0.5 / var

        def beta_term(x, a1, b1):  # a Beta prior's log density, up to its constant
            return a1 * math.log(x) + b1 * math.log1p(-x)

        def value(theta):
            beta = theta[:p]
            log_prior = log_norm - half_precision * float(beta @ beta)
            if not sampled:
                return log_prior
            se, sp = theta[p:].tolist()
            if not (0.0 < se < 1.0 and 0.0 < sp < 1.0 and se + sp > 1.0):
                return -math.inf
            (a_se, b_se), (a_sp, b_sp) = beta_shapes
            return log_prior + beta_term(se, a_se, b_se) + beta_term(sp, a_sp, b_sp)

        def ends(theta):
            if plain:
                return ()
            se, sp = theta[p:].tolist() if sampled else accuracy
            return 1.0 - sp, se + sp - 1.0

        self.value, self.ends = value, ends

    def theta(self, block):
        """A BecParameterBlock as theta, its se/sp set exactly when they are sampled."""
        accuracy = (block.se, block.sp)
        if self.dim > self.p and None in accuracy:
            raise ValueError("beta-prior mode requires sampled se and sp in the block")
        if self.dim == self.p and accuracy != (None, None):
            raise ValueError("fixed mode does not sample se/sp; leave them unset")
        beta = np.asarray(block.beta, dtype=float)
        return np.concatenate([beta, accuracy[: self.dim - self.p]])

    def grad(self, k, m, U, theta, curvature=False):
        """Value and gradient of the log posterior at ``theta`` inside the support.

        Over patterns ``U`` with ``k`` positives among ``m`` trials. With
        ``curvature``, a third entry: the negative Hessian, the
        likelihood's (for BEC ``-J' H J`` from ``mixture_loglik``'s
        Hessian H over (beta, p0, p1)) plus ``I / var`` on beta and
        ``(a - 1)/x^2 + (b - 1)/(1 - x)^2`` for each Beta prior.
        """
        p, beta = self.p, theta[: self.p]
        if self.plain:
            ll, score, *neg_h = std_loglik(k, U, beta, trials=m, curvature=curvature)
        else:
            ll, g_beta, g_p0, g_p1, *H = mixture_loglik(
                k, m, U, beta, *self.ends(theta), curvature=curvature
            )
            score = np.concatenate([g_beta, [g_p1, -g_p0]])[: self.dim]
            J = self.jacobian
            with np.errstate(invalid="ignore", over="ignore"):  # a non-finite H stays non-finite
                neg_h = [-J.T @ h @ J for h in H]
        prior_grad, prior_curvature = [], []
        for x, (a1, b1) in zip(theta[p:].tolist(), self.shapes):
            prior_grad.append(a1 / x - b1 / (1.0 - x))
            prior_curvature.append(a1 / x**2 + b1 / (1.0 - x) ** 2)
        value = ll + self.value(theta)
        score = score + np.concatenate([-beta / self.var, prior_grad])
        for h in neg_h:
            h[np.diag_indices(self.dim)] += np.concatenate(
                [np.full(p, 1.0 / self.var), prior_curvature]
            )
        return value, score, *neg_h


def bc_log_posterior(y, X, beta):
    """Log posterior of the plain logistic model under the shared prior."""
    return bc_log_posterior_grad(y, X, beta)[0]


def bc_log_posterior_grad(y, X, beta):
    """Value and gradient of ``bc_log_posterior`` over beta."""
    beta = np.asarray(beta, dtype=float)
    k, m = binomial_counts(y)
    return _Posterior(beta.shape[0]).grad(k, m, X, beta)


@dataclass(frozen=True)
class BecParameterBlock:
    """Sampled coordinates of the internally corrected model.

    ``se``/``sp`` are present only when the assay is in beta-prior
    mode; in fixed mode the assay's stated values are used directly.
    """

    beta: np.ndarray
    se: float = None
    sp: float = None


def bec_log_posterior(y, X, block, assay):
    """Log posterior of the internally corrected model.

    Support constraints (rates in (0, 1), se + sp > 1) are enforced by
    returning -inf, which the Metropolis kernel treats as an automatic
    rejection; there is no smooth penalty.
    """
    post = _Posterior(len(block.beta), assay)
    if post.value(post.theta(block)) == -math.inf:
        return -math.inf
    return bec_log_posterior_grad(y, X, block, assay)[0]


def bec_log_posterior_grad(y, X, block, assay):
    """Value and gradient over (beta[, se, sp]) of ``bec_log_posterior``."""
    U = design_rows(X)
    post = _Posterior(U.shape[1], assay)
    theta = post.theta(block)
    if post.value(theta) == -math.inf:
        raise ValueError("gradient requested outside the support")
    k, m = binomial_counts(y)
    return post.grad(k, m, U, theta)


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
    X = design_rows(X)
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
    k, m, U, names = _fit_data(y, X)
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


def _posterior_fit_result(tag, draws_obj, p, loglik, names):
    """The fit summary of posterior draws, and the package's one R-hat gate.

    The estimate is the posterior mean of theta, its first ``p``
    coordinates the coefficients, and the fit's log-likelihood is
    ``loglik`` there. Converged only when every sampled coordinate, the
    accuracy ones included, has a finite split R-hat below
    ``RHAT_LIMIT``.
    """
    flat = draws_obj.flat()
    theta_hat = flat.mean(axis=0)
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
        beta_hat=theta_hat[:p],
        beta_se=flat[:, :p].std(axis=0, ddof=1),
        loglik=loglik(theta_hat),
        converged=converged,
        iterations=draws_obj.n_total,
        column_names=names,
        condition_warning=warning,
    )


def _basis_log_post(post, entries, Us, mode, A):
    """The log posterior in the sampler's coordinates, ``phi -> value`` at ``theta = mode + A phi``.

    ``post``'s log prior, -inf outside the accuracy support before the
    likelihood's passes, plus the likelihood of ``entries`` over the
    standardized patterns ``Us``. Every entry's ``z`` is linear in phi,
    and so is theta: with ``D`` the entries' signed rows of ``Us``, one
    product of the map ``[[D A, D mode], [A, mode]]`` with ``[phi, 1]``
    gives both. The map is built here, once, and kept column-major, the
    faster layout for a product with a vector.
    """
    dim, p = mode.shape[0], post.p
    D = entries.design(Us)
    n = D.shape[0]
    z_map = np.empty((dim + 1, n + dim)).T  # column-major
    np.matmul(D, A[:p], out=z_map[:n, :dim])
    np.matmul(D, mode[:p], out=z_map[:n, dim])
    z_map[n:, :dim], z_map[n:, dim] = A, mode
    del D
    phi1 = np.ones(dim + 1)
    log_prior, ends, loglik = post.value, post.ends, entries.loglik

    def log_post(phi):
        phi1[:dim] = phi
        z = z_map @ phi1
        theta = z[n:]
        value = log_prior(theta)
        if value == -math.inf:
            return value
        return loglik(z[:n], *ends(theta)) + value

    return log_post


def _sample_posterior(tag, post, loglik, basis_log_post, config, tr, names):
    """Draws of a posterior over ``post``'s theta = (beta[, se, sp]), on the input scale.

    Finds the mode from ``post.start`` by ``mle._newton_ascent``, the
    projected Newton loop of the maximum-likelihood fits: ``loglik``
    gives the log posterior over standardized coefficients, its gradient
    and its exact negative Hessian, and ``[post.lo, post.hi]`` boxes
    the coordinates. A search that ends unconverged is a
    NonConvergenceError naming the model ``tag``. Samples the log
    posterior ``basis_log_post(mode, A)`` gives over the mode-centered
    coordinates phi of ``_sampling_basis``, with ``A`` that basis at the
    negative Hessian the search ended with, from seed-derived
    overdispersed starts, and undoes the
    standardization on every draw. The draws are named ``names`` and
    then ``post.names``; they carry the sampler's acceptance rates, and
    their R-hat and ESS are computed when first read, on the input
    scale.
    """
    mode, _, converged, _, warning, _, neg_h = _newton_ascent(
        loglik, post.start, post.lo, post.hi
    )
    if not converged:
        raise NonConvergenceError(f"{tag.value} posterior mode: {warning}")
    dim = mode.shape[0]
    A = _sampling_basis(neg_h)
    log_post = basis_log_post(mode, A)

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
    return PosteriorDraws(theta_draws, names + post.names, raw.accept_rate)


def _fit(tag, y, X, assay, config):
    """The fit summary and the back-transformed draws of BC (no ``assay``) or BEC."""
    config = config or SamplerConfig()
    k, m, U, Us, tr, names = _posterior_data(y, X)
    post = _Posterior(Us.shape[1], assay)
    p = post.p
    entries = OutcomeEntries(k, m, mixture=not post.plain)

    def loglik(theta):
        return post.grad(k, m, Us, theta, curvature=True)

    def basis_log_post(mode, A):
        return _basis_log_post(post, entries, Us, mode, A)

    draws = _sample_posterior(tag, post, loglik, basis_log_post, config, tr, names)

    def loglik_at(theta):
        return entries.loglik(entries.design(U) @ theta[:p], *post.ends(theta))

    return _posterior_fit_result(tag, draws, p, loglik_at, names), draws


def fit_bc(y, X, config=None):
    """Posterior of the plain logistic model; external correction later.

    Returns the fit summary and the back-transformed draws.
    """
    return _fit(ModelTag.BC, y, X, None, config)


def fit_bec(y, X, assay, config=None):
    """Posterior of the internally corrected model.

    In fixed mode only beta is sampled; in beta-prior mode the
    sensitivity and specificity join the parameter block with their
    Beta priors, starting from the prior means.
    """
    if not isinstance(assay, AssayProfile):
        raise TypeError("assay must be an AssayProfile")
    return _fit(ModelTag.BEC, y, X, assay, config)
