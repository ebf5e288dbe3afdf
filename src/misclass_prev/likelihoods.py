"""Link function and the log-likelihoods, over grouped data.

The likelihoods take data grouped by covariate pattern: distinct design
rows U and, per row, m trials with k positives. Row-level data are the
case m = 1, so one formula serves a cohort of distinct rows and one with
many repeated rows alike; the binomial coefficients are left out, as
they do not depend on the parameters.

A misclassified Bernoulli response has success probability

    P(Y = 1 | x) = r0 + (1 - r0 - r1) * sigmoid(x' beta)

where r0 is the false-positive rate and r1 the false-negative rate.
Substituting r0 = 1 - specificity, r1 = 1 - sensitivity gives the
known-accuracy form

    P(Y = 1 | x) = (1 - sp) + (se + sp - 1) * sigmoid(x' beta)

so both are ``offset + slope * sigmoid(U beta)``, and one kernel,
``mixture_loglik``, computes that likelihood for the joint error-rate
fit, the known-accuracy marginal and the internally corrected posterior;
each caller only applies the chain rule from the kernel's scores to its
own parameters. ``mixture_hessian`` gives its second derivatives, which
the joint fit's Newton steps use. The plain logistic likelihood, offset
0 and slope 1, keeps its softplus form ``k eta - m log(1 + e^eta)``,
which stays finite where ``log(sigmoid(eta))`` would underflow.

The two value kernels, ``std_loglik_value`` and ``mixture_loglik_value``,
take the linear predictor ``eta = U beta`` rather than the design and
the coefficients, so that a sampler moving along fixed directions can
update ``eta`` by a precomputed map instead of a product over the
patterns; each is one elementwise pass over ``eta`` and one pairwise sum.

All gradients are analytic; probability arguments to ``log`` are
clamped at 1e-300 to keep extreme tails finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import AssayMode, AssayProfile

_LOG_CLAMP = 1e-300


def logistic(eta):
    """Numerically stable inverse logit, elementwise.

    With ``e = exp(-|eta|)`` it is ``1 / (1 + e)`` for ``eta >= 0`` and
    ``e / (1 + e)`` below, so no exponent is a large positive number;
    safe for |eta| well beyond 700. Both branches come out of one pass,
    with no masked copies. Non-finite input is a domain error.
    """
    arr = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("logistic: eta must be finite")
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, e) / (1.0 + e)
    if np.ndim(eta) == 0:
        return float(out)
    return out


def _design_and_beta(X, beta):
    if hasattr(X, "matrix"):
        X = X.matrix
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if X.ndim != 2 or beta.ndim != 1 or X.shape[1] != beta.shape[0]:
        raise ValueError(
            f"incompatible shapes for linear predictor: X {X.shape}, beta {beta.shape}"
        )
    return X, beta


@dataclass(frozen=True)
class ErrorRates:
    """False-positive (r0) and false-negative (r1) rates.

    Each must sit in [0, 0.5) and their sum below 1, which keeps the
    response probability strictly increasing in the linear predictor.
    """

    r0: float
    r1: float

    def __post_init__(self):
        r0, r1 = float(self.r0), float(self.r1)
        for name, v in (("r0", r0), ("r1", r1)):
            if not (0.0 <= v < 0.5):
                raise ValueError(f"{name} must lie in [0, 0.5), got {v}")
        if r0 + r1 >= 1.0:
            raise ValueError(f"r0 + r1 must be below 1, got {r0 + r1}")
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "r1", r1)


def binomial_counts(y, trials=None):
    """Validated ``(positives, trials)`` per design row, as float arrays.

    Without ``trials``, ``y`` is one 0/1 outcome per row and every row
    is one trial; with it, ``y`` counts the positives among ``trials``
    (at least one per row).
    """
    k = np.asarray(y, dtype=float)
    if k.ndim != 1:
        raise ValueError("y must be a 1-d vector")
    if trials is None:
        if not np.all((k == 0.0) | (k == 1.0)):
            raise ValueError("y must contain only 0 and 1")
        return k, np.ones(k.shape[0])
    m = np.asarray(trials, dtype=float)
    if m.shape != k.shape:
        raise ValueError(f"trials has shape {m.shape}, positives {k.shape}")
    if not (np.all(m >= 1.0) and np.all((k >= 0.0) & (k <= m)) and np.all(k == np.round(k))):
        raise ValueError("positives must be whole numbers in [0, trials], trials at least 1")
    return k, m


def std_loglik(y, X, beta, trials=None):
    """Logistic log-likelihood and its score, per row or per covariate pattern.

    Returns ``(loglik, gradient)`` where the gradient is
    ``X' (k - m pi)``; ``trials`` as in ``binomial_counts``. Uses the
    softplus identity ``log(1 + e^eta) = logaddexp(0, eta)`` so no term
    overflows.
    """
    k, m = binomial_counts(y, trials)
    U, beta = _design_and_beta(X, beta)
    eta = U @ beta
    ll = float(np.sum(k * eta - m * np.logaddexp(0.0, eta)))
    return ll, U.T @ (k - m * logistic(eta))


# The value kernels add per-pattern terms by numpy's pairwise summation
# (``ndarray.sum``, the reduction ``np.sum`` runs), as the row form
# always did: with one trial per pattern each term is the row term, and
# pairwise summation keeps rounding at the row form's level. No BLAS dot
# runs over the patterns, whose result would depend on the thread count.
# They take counts already validated: these are the sampler's inner loop.
def std_loglik_value(k, m, eta):
    """``std_loglik``'s value at linear predictor ``eta``.

    Softplus as ``max(eta, 0) + log1p(exp(-|eta|))``, the branch
    ``np.logaddexp`` takes, in one vectorized pass.
    """
    sp = np.abs(eta)
    np.negative(sp, out=sp)
    np.exp(sp, out=sp)
    np.log1p(sp, out=sp)
    sp += np.maximum(eta, 0.0)
    sp *= m
    terms = k * eta
    terms -= sp
    return float(terms.sum())


def _mixture_terms(k, m, U, beta, offset, slope):
    pi = logistic(U @ beta)
    p = offset + slope * pi
    pc = np.maximum(p, _LOG_CLAMP)
    qc = np.maximum(1.0 - p, _LOG_CLAMP)
    ll = float(np.sum(k * np.log(pc) + (m - k) * np.log(qc)))
    return ll, pi, pc, qc


def mixture_loglik(k, m, U, beta, offset, slope):
    """The misclassified-Bernoulli log-likelihood over covariate patterns.

    Pattern i has ``m[i]`` trials, ``k[i]`` positives and response
    probability ``p = offset + slope * sigmoid(U[i] beta)``. Returns
    ``(loglik, grad_beta, grad_p0, grad_p1)``: the score over beta, and
    over the response probabilities at the two ends, ``p0 = offset``
    (sigmoid 0) and ``p1 = offset + slope`` (sigmoid 1), so that
    ``p = p0 (1 - sigmoid) + p1 sigmoid``; the error rates and the
    accuracy are those end points or their complements. All three go
    through the per-pattern weight ``w = k/p - (m - k)/(1 - p)``,
    d loglik / d p. The counts are taken as validated: this is the inner
    loop of every fit.
    """
    ll, pi, pc, qc = _mixture_terms(k, m, U, beta, offset, slope)
    w = k / pc - (m - k) / qc
    grad_beta = U.T @ (w * slope * (pi * (1.0 - pi)))
    return ll, grad_beta, float(np.sum(w * (1.0 - pi))), float(np.sum(w * pi))


def mixture_loglik_value(k, m, eta, offset, slope):
    """``mixture_loglik``'s value at linear predictor ``eta``, for samplers that need no score.

    The same terms as ``mixture_loglik``, worked out in place on one
    array that starts as ``slope / (1 + exp(-eta))``. ``-eta`` is capped
    at 700 so that ``exp`` cannot overflow. The cap moves ``slope *
    sigmoid`` only where both values are below ``e^-700`` (``slope`` is
    at most 1): under the 1e-300 clamp when ``offset`` is 0, and lost in
    rounding against any positive ``offset``, so it changes no term.
    Non-finite ``eta`` is a domain error, as in ``logistic``.
    """
    if not np.isfinite(eta).all():
        raise ValueError("mixture_loglik_value: eta must be finite")
    p = np.negative(eta)
    np.minimum(p, 700.0, out=p)
    np.exp(p, out=p)
    p += 1.0
    np.divide(slope, p, out=p)
    p += offset
    q = np.subtract(1.0, p)
    np.maximum(p, _LOG_CLAMP, out=p)
    np.log(p, out=p)
    p *= k
    np.maximum(q, _LOG_CLAMP, out=q)
    np.log(q, out=q)
    q *= m - k
    p += q
    return float(p.sum())


def _count_over_square(count, prob):
    """``count / prob**2``, and 0 where the count is 0.

    At the 1e-300 clamp ``prob**2`` underflows to 0, and a pattern with
    no such outcomes would give 0/0 for a term that is 0.
    """
    return np.divide(count, prob**2, out=np.zeros_like(count), where=count > 0.0)


def mixture_hessian(k, m, U, beta, offset, slope):
    """Hessian of ``mixture_loglik`` over ``(beta, p0, p1)``.

    With ``s = sigmoid(U beta)``, ``p = p0 (1 - s) + p1 s`` and, per
    pattern, ``w = k/p - (m - k)/(1 - p)`` and its derivative
    ``v = -k/p^2 - (m - k)/(1 - p)^2``, the Hessian is the sum of
    ``v dp dp' + w d2p`` over patterns. ``p`` is linear in ``p0`` and
    ``p1``, so ``w`` enters only the beta block and the blocks crossing
    beta with the end probabilities. A square matrix of side
    ``len(beta) + 2``.
    """
    _, pi, pc, qc = _mixture_terms(k, m, U, beta, offset, slope)
    p = U.shape[1]
    H = np.empty((p + 2, p + 2))
    # Outcomes at a clamped probability give an infinite v (its square
    # underflows) and, times a zero sigmoid slope, nan. The Newton step and
    # the information check already fail on a non-finite Hessian.
    with np.errstate(divide="ignore", invalid="ignore"):
        w = k / pc - (m - k) / qc
        v = -_count_over_square(k, pc) - _count_over_square(m - k, qc)
        d = pi * (1.0 - pi)  # d sigmoid / d eta
        H[:p, :p] = U.T @ ((v * (slope * d) ** 2 + w * slope * d * (1.0 - 2.0 * pi))[:, None] * U)
        H[:p, p] = U.T @ (v * slope * d * (1.0 - pi) - w * d)
        H[:p, p + 1] = U.T @ (v * slope * d * pi + w * d)
        H[p, p] = np.sum(v * (1.0 - pi) ** 2)
        H[p, p + 1] = np.sum(v * pi * (1.0 - pi))
        H[p + 1, p + 1] = np.sum(v * pi**2)
    H[p:, :p] = H[:p, p:].T
    H[p + 1, p] = H[p, p + 1]
    return H


def liu_loglik(y, X, beta, rates, trials=None):
    """Joint log-likelihood for logistic regression with free error rates.

    Returns ``(loglik, gradient)`` with the gradient over the stacked
    parameter (beta, r0, r1), so its length is ``len(beta) + 2``;
    ``trials`` as in ``binomial_counts``.
    """
    k, m = binomial_counts(y, trials)
    if not isinstance(rates, ErrorRates):
        rates = ErrorRates(*rates)
    U, beta = _design_and_beta(X, beta)
    ll, g_beta, g_p0, g_p1 = mixture_loglik(k, m, U, beta, rates.r0, 1.0 - rates.r0 - rates.r1)
    # p0 = r0, p1 = 1 - r1
    return ll, np.concatenate([g_beta, [g_p0, -g_p1]])


def bec_marginal_loglik(y, X, beta, assay):
    """Marginal log-likelihood under a fixed assay profile.

    The latent true status never appears as a sampled quantity: it is
    marginalized in closed form, leaving a Bernoulli likelihood with
    success probability (1 - sp) + (se + sp - 1) * pi. Returns
    ``(loglik, gradient)`` with the gradient over beta only.
    """
    if not isinstance(assay, AssayProfile):
        raise TypeError("assay must be an AssayProfile")
    if assay.mode is not AssayMode.FIXED:
        raise ValueError("bec_marginal_loglik expects a fixed-mode assay profile")
    k, m = binomial_counts(y)
    U, beta = _design_and_beta(X, beta)
    se, sp = assay.sensitivity, assay.specificity
    ll, g_beta, _, _ = mixture_loglik(k, m, U, beta, 1.0 - sp, se + sp - 1.0)
    return ll, g_beta
