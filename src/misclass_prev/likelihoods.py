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
own parameters. The plain logistic likelihood, offset 0 and slope 1,
keeps its softplus form ``k eta - m log(1 + e^eta)``, which stays
finite where ``log(sigmoid(eta))`` would underflow.

Given ``curvature=True``, ``std_loglik``, ``liu_loglik`` and
``mixture_loglik`` also return the second derivatives, built in the
same pass from the per-pattern terms the value and score already hold:
``std_loglik`` the negative Hessian ``U' diag(m pi (1 - pi)) U`` (the
logistic information), ``mixture_loglik`` the Hessian over ``(beta, p0,
p1)`` and ``liu_loglik`` the Hessian over ``(beta, r0, r1)``. A Newton
step then costs one pass over the patterns, not one for the value and
score and another for the curvature. Without it they return the value
and score alone.

A sampler needs the value alone, at many points along fixed directions.
``OutcomeEntries`` serves it: one entry per pattern and outcome with a
positive count, each with its pattern's row of the design, signed so
that the plain logistic term is ``-softplus(z)`` and the misclassified
one reads ``exp(z)`` straight. A sampler maps its coordinates to every
entry's ``z`` by one precomputed matrix, and ``OutcomeEntries.loglik``
is a few elementwise passes over ``z`` and one pairwise sum.

All gradients are analytic; probability arguments to ``log`` are
clamped at 1e-300 to keep extreme tails finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import AssayMode, AssayProfile

_LOG_CLAMP = 1e-300


def logistic(eta, out=None):
    """Numerically stable inverse logit, elementwise.

    It is ``exp(min(eta, 0)) / (1 + e)`` with ``e = exp(-|eta|)``: ``1 /
    (1 + e)`` for ``eta >= 0`` and ``e / (1 + e)`` below, so no exponent
    is a large positive number; safe for |eta| well beyond 700. Both
    branches come out of the same elementwise passes, with no masks, and
    ``out``, an array of eta's shape (eta itself included), takes the
    result. Non-finite input is a domain error.
    """
    arr = np.asarray(eta, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("logistic: eta must be finite")
    e = np.abs(arr, out=np.empty(arr.shape))
    np.exp(np.negative(e, out=e), out=e)
    e += 1.0
    num = np.minimum(arr, 0.0, out=np.empty(arr.shape) if out is None else out)
    res = np.divide(np.exp(num, out=num), e, out=num)
    if arr.ndim == 0:
        return float(res)
    return res


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
        if not ((k == 0.0) | (k == 1.0)).all():
            raise ValueError("y must contain only 0 and 1")
        return k, np.ones(k.shape[0])
    m = np.asarray(trials, dtype=float)
    if m.shape != k.shape:
        raise ValueError(f"trials has shape {m.shape}, positives {k.shape}")
    if not ((m >= 1.0).all() and ((k >= 0.0) & (k <= m)).all() and (k == np.rint(k)).all()):
        raise ValueError("positives must be whole numbers in [0, trials], trials at least 1")
    return k, m


def std_loglik(y, X, beta, trials=None, curvature=False):
    """Logistic log-likelihood and its score, per row or per covariate pattern.

    Returns ``(loglik, gradient)`` where the gradient is
    ``X' (k - m pi)``; ``trials`` as in ``binomial_counts``. The value
    is ``k eta - m softplus(eta)``, with softplus ``max(eta, 0) +
    log1p(exp(-|eta|))``, the branch ``np.logaddexp`` takes, so it
    overflows nowhere. With ``curvature``, a third entry: the negative
    Hessian ``X' diag(m pi (1 - pi)) X``, from the same ``pi``.
    """
    k, m = binomial_counts(y, trials)
    U, beta = _design_and_beta(X, beta)
    eta = U @ beta
    sp = np.abs(eta)
    np.negative(sp, out=sp)
    np.exp(sp, out=sp)
    np.log1p(sp, out=sp)
    sp += np.maximum(eta, 0.0)
    sp *= m
    terms = k * eta
    terms -= sp
    # numpy's pairwise sum, as the row form always did: with one trial per
    # pattern each term is the row term, and no BLAS dot, whose result
    # would depend on the thread count, runs over the patterns
    ll = float(terms.sum())
    del sp, terms
    pi = logistic(eta)
    del eta  # no later term reads it
    score = U.T @ (k - m * pi)
    if not curvature:
        return ll, score
    return ll, score, U.T @ ((m * pi * (1.0 - pi))[:, None] * U)


# A count over the square of a probability at the 1e-300 clamp: the
# square underflows to 0, and a pattern with no such outcomes would give
# 0/0 for a term that is 0. Over the least subnormal instead, 0 stays 0
# and a count of at least 1 overflows to the inf it was, so no other
# term changes.
_LEAST_SQUARE = 5e-324


def mixture_loglik(k, m, U, beta, offset, slope, curvature=False):
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

    With ``curvature``, a fifth entry: the Hessian over ``(beta, p0,
    p1)``, a square matrix of side ``len(beta) + 2``. With ``s =
    sigmoid(U beta)`` and the derivative of ``w``, ``v = -k/p^2 - (m -
    k)/(1 - p)^2``, it is the sum of ``v dp dp' + w d2p`` over patterns.
    ``p`` is linear in ``p0`` and ``p1``, so ``w`` enters only the beta
    block and the blocks crossing beta with the end probabilities.
    """
    pi = logistic(U @ beta)
    p = offset + slope * pi
    qc = np.maximum(1.0 - p, _LOG_CLAMP)
    pc = np.maximum(p, _LOG_CLAMP, out=p)
    miss = m - k
    ll = float((k * np.log(pc) + miss * np.log(qc)).sum())
    w = k / pc - miss / qc
    qi = 1.0 - pi
    d = pi * qi  # d sigmoid / d eta
    wsd = w * slope * d
    out = ll, U.T @ wsd, float((w * qi).sum()), float((w * pi).sum())
    if not curvature:
        return out
    n_beta = U.shape[1]
    H = np.empty((n_beta + 2, n_beta + 2))
    # Outcomes at a clamped probability give an infinite v and, times a
    # zero sigmoid slope, nan. The Newton step and the information check
    # already fail on a non-finite Hessian. Each per-pattern array is
    # dropped once no later term reads it, so that one pass holds no more
    # memory at once than the value and the Hessian did in passes of
    # their own.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = -(k / np.maximum(pc**2, _LEAST_SQUARE)) - miss / np.maximum(qc**2, _LEAST_SQUARE)
        del pc, qc, miss
        vsd = v * slope * d
        wd = w * d
        del w
        H[:n_beta, n_beta] = U.T @ (vsd * qi - wd)
        H[:n_beta, n_beta + 1] = U.T @ (vsd * pi + wd)
        del vsd, wd
        H[n_beta, n_beta] = (v * qi**2).sum()
        H[n_beta, n_beta + 1] = (v * pi * qi).sum()
        H[n_beta + 1, n_beta + 1] = (v * pi**2).sum()
        del qi
        H[:n_beta, :n_beta] = U.T @ ((v * (slope * d) ** 2 + wsd * (1.0 - 2.0 * pi))[:, None] * U)
    H[n_beta:, :n_beta] = H[:n_beta, n_beta:].T
    H[n_beta + 1, n_beta] = H[n_beta, n_beta + 1]
    return *out, H


class OutcomeEntries:
    """Grouped outcomes as entries, and their log-likelihood as a sampler scores it.

    One entry per (pattern, outcome) with a positive count: first the
    positives of every pattern with ``k > 0``, then the negatives of
    every pattern with ``m - k > 0``. ``design(U)`` gives each entry its
    pattern's row of ``U`` with a sign folded in, so that one product
    with the coefficients gives every entry's ``z``: ``-eta`` on the
    positives and ``eta`` on the negatives for the plain logistic
    likelihood (``mixture`` false), ``-eta`` on all of them for the
    misclassified one.
    """

    def __init__(self, k, m, mixture):
        pos, neg = np.flatnonzero(k > 0.0), np.flatnonzero(k < m)
        self.patterns, self.n_pos = np.concatenate([pos, neg]), pos.shape[0]
        counts = np.concatenate([k[pos], (m - k)[neg]])
        self.counts = None if (counts == 1.0).all() else counts  # no multiply on rows
        self.flipped = self.patterns.shape[0] if mixture else self.n_pos

    def design(self, U):
        D = U[self.patterns]
        D[: self.flipped] *= -1.0
        return D

    def loglik(self, z, offset=None, slope=None):
        """The log-likelihood at the entries' ``z``, which it overwrites.

        Without ends, ``std_loglik``'s: ``-sum c softplus(z)``, with
        softplus ``log1p(exp(z))``, or ``np.logaddexp(0, z)`` where some
        ``exp(z)`` would overflow. With them, ``mixture_loglik``'s: one
        sigmoid pass gives ``s = slope / (1 + exp(z))``, the positives
        take ``log(offset + s)`` and the negatives ``log((1 - offset) -
        s)``, each clamped at 1e-300. ``z`` is capped at 700 first so that
        ``exp`` cannot overflow; that moves ``s`` only where both values
        are below ``e^-700`` (``slope`` is at most 1): under the clamp
        when ``offset`` is 0, and lost in rounding against any positive
        ``offset``, so it changes no term. Summed as ``std_loglik`` sums.
        """
        if offset is None:
            if z.max() > 700.0:
                np.logaddexp(0.0, z, out=z)
            else:
                np.log1p(np.exp(z, out=z), out=z)
        else:
            np.exp(np.minimum(z, 700.0, out=z), out=z)
            z += 1.0
            np.divide(slope, z, out=z)
            z[: self.n_pos] += offset
            np.subtract(1.0 - offset, z[self.n_pos :], out=z[self.n_pos :])
            np.log(np.maximum(z, _LOG_CLAMP, out=z), out=z)
        if self.counts is not None:
            z *= self.counts
        total = float(z.sum())
        return -total if offset is None else total


def liu_loglik(y, X, beta, rates, trials=None, curvature=False):
    """Joint log-likelihood for logistic regression with free error rates.

    Returns ``(loglik, gradient)`` with the gradient over the stacked
    parameter (beta, r0, r1), so its length is ``len(beta) + 2``;
    ``trials`` as in ``binomial_counts``. With ``curvature``, a third
    entry: the Hessian over the same parameter.
    """
    k, m = binomial_counts(y, trials)
    if not isinstance(rates, ErrorRates):
        rates = ErrorRates(*rates)
    U, beta = _design_and_beta(X, beta)
    out = mixture_loglik(
        k, m, U, beta, rates.r0, 1.0 - rates.r0 - rates.r1, curvature=curvature
    )
    # p0 = r0 and p1 = 1 - r1: the r1 entries change sign
    grad = np.concatenate([out[1], [out[2], -out[3]]])
    if not curvature:
        return out[0], grad
    H = out[4]
    H[-1] *= -1.0
    H[:, -1] *= -1.0
    return out[0], grad, H


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
