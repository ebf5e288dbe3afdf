"""Independence Metropolis-Hastings sampler and chain diagnostics.

Every proposal is drawn from one fixed multivariate Student t,
phi ~ t_7(0, 1.1^2 I), whatever the chain's current state, and accepted
with the Hastings ratio p(x') q(x) / (p(x) q(x')). The kernel suits a
target that is roughly N(0, I), as the Bayesian fitters' posteriors are
in their whitened basis: the t's heavier tails keep the importance
weights p / q bounded, which makes the chain uniformly ergodic (Tierney
1994; Mengersen & Tweedie 1996). Nothing adapts; warmup is a burn-in
whose draws are discarded.

So a short burn-in is enough. With w* the largest weight p / q of the
normalized densities, the chain's total-variation distance to the
target after t steps is at most (1 - 1/w*)^t from any start (Mengersen
& Tweedie 1996, Ann. Statist. 24(1)): after the default 100 iterations
that is below 0.006 even at w* = 20. The default is also the floor
``SamplerConfig`` allows. ``tests/test_mcmc.py`` (``TestBurnIn``) holds
the first retained draw, from a start 5 units out, to a normal and to a
skewed Gamma target by Kolmogorov-Smirnov tests over 1,000 chains.

Every chain owns its own generator seeded from (seed, chain index);
runs are bit reproducible for a fixed configuration.

The sampler computes no diagnostics: split R-hat and effective sample
size are computed from the draws a fit reports, on that scale, when
first read, each in one array pass over all parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROPOSAL_DF = 7
PROPOSAL_SCALE = 1.1


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 4
    warmup: int = 100
    samples: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.chains < 2:
            raise ValueError("need at least 2 chains for split diagnostics")
        if self.warmup < 100 or self.samples < 100:
            raise ValueError("warmup and samples must each be at least 100")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed must be an integer")


@dataclass
class PosteriorDraws:
    """Post-warmup draws, with split R-hat and ESS per parameter on demand.

    ``ess_bulk`` is Geyer's multi-chain ESS of the raw draws, neither
    split nor rank-normalized, despite its name; the R-hat gate of the
    Bayesian fits reads ``rhat``, and no command reads ``ess_bulk``.
    """

    draws: np.ndarray  # (chains, samples, dim)
    param_names: tuple
    accept_rate: np.ndarray  # per chain, post warmup

    def __post_init__(self):
        self.draws = np.asarray(self.draws, dtype=float)
        if self.draws.ndim != 3:
            raise ValueError("draws must have shape (chains, samples, dim)")
        if not np.all(np.isfinite(self.draws)):
            raise ValueError("draws contain non-finite values")
        if len(self.param_names) != self.draws.shape[2]:
            raise ValueError("param_names length must match draw dimension")
        self.param_names = tuple(self.param_names)

    @cached_property
    def rhat(self):
        return rhat(self.draws)

    @cached_property
    def ess_bulk(self):
        return ess_bulk(self.draws)

    @property
    def n_total(self):
        return self.draws.shape[0] * self.draws.shape[1]

    def flat(self):
        return self.draws.reshape(-1, self.draws.shape[2])


def _proposal_logpdf(phi):
    """Log density of the t proposal at each row of ``phi``, up to a constant."""
    r2 = np.sum(phi**2, axis=-1) / (PROPOSAL_DF * PROPOSAL_SCALE**2)
    return -0.5 * (PROPOSAL_DF + phi.shape[-1]) * np.log1p(r2)


def _run_chain(log_post, dim, config, x0, chain_index):
    rng = np.random.default_rng([int(config.seed), int(chain_index)])
    x0 = np.array(x0, dtype=float)
    lp = float(log_post(x0))
    if not np.isfinite(lp):
        raise ValueError(
            f"log posterior is not finite at the chain {chain_index} start point"
        )

    # Proposals ignore the state, so all of them are drawn up front.
    total = config.warmup + config.samples
    z = rng.standard_normal((total, dim))
    w = rng.chisquare(PROPOSAL_DF, total) / PROPOSAL_DF
    proposals = PROPOSAL_SCALE * z / np.sqrt(w)[:, None]
    log_u = np.log(rng.random(total))
    log_q = _proposal_logpdf(proposals)

    # held[t]: row of states (start point, then proposals) held after step t
    held = np.empty(total, dtype=np.intp)
    current, lq = 0, float(_proposal_logpdf(x0))
    for t in range(total):
        lp_prop = float(log_post(proposals[t]))
        if log_u[t] < lp_prop - lp + lq - log_q[t]:  # False for a NaN density
            current, lp, lq = t + 1, lp_prop, log_q[t]
        held[t] = current

    states = np.vstack([x0, proposals])
    post = held[config.warmup:]
    accepted = post == np.arange(config.warmup + 1, total + 1)
    return states[post], float(accepted.mean())


def sample(log_post, dim, config, init=None):
    """Run all chains; the draws, named theta0, theta1, ..., and acceptance rates.

    ``init`` is an optional (chains, dim) array of start points; the
    log posterior must be finite at each. When omitted, chains start at
    small seed-derived jitter around the origin. A NaN log posterior at
    a proposal counts as a rejected proposal; a NaN at the start point
    is an error. ``log_post`` is called once per start point and once
    per iteration: chains * (warmup + samples + 1) times in all.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")

    if init is None:
        jitter_rng = np.random.default_rng([int(config.seed), 0x5EED])
        init = 0.1 * jitter_rng.standard_normal((config.chains, dim))
    init = np.asarray(init, dtype=float)
    if init.shape != (config.chains, dim):
        raise ValueError(f"init must have shape {(config.chains, dim)}, got {init.shape}")

    all_draws = np.empty((config.chains, config.samples, dim))
    accept = np.empty(config.chains)
    for c in range(config.chains):
        all_draws[c], accept[c] = _run_chain(log_post, dim, config, init[c], c)

    names = tuple(f"theta{j}" for j in range(dim))
    return PosteriorDraws(draws=all_draws, param_names=names, accept_rate=accept)


def _by_parameter(draws):
    """``(x, one)``: 2-d or 3-d draws as a (dim, chains, samples) view, and whether 2-d."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 2:
        return draws[None], True
    if draws.ndim != 3:
        raise ValueError("draws must be 2-d or 3-d")
    return np.moveaxis(draws, 2, 0), False


def rhat(draws):
    """Split-chain potential scale reduction factor (Gelman et al., BDA3).

    Accepts (chains, samples) for one parameter, giving a float, or
    (chains, samples, dim) for many, giving one value per parameter.
    Each chain is split into halves, its middle draw left out when the
    count is odd. Fewer than 2 draws per half, or zero or non-finite
    within-chain variance (a constant parameter), give NaN rather than
    a spurious 1.0.
    """
    x, one = _by_parameter(draws)
    dim, m, total = x.shape
    n = total // 2
    if n < 2:
        return float("nan") if one else np.full(dim, np.nan)
    # the halves as (dim, 2 m, n), C-contiguous, so that each reduction
    # over draws runs along a row, as numpy's pairwise sum
    halves = np.empty((dim, 2 * m, n))
    x = np.concatenate([x[:, :, :n], x[:, :, total - n :]], axis=1, out=halves)
    w = x.var(axis=2, ddof=1).mean(axis=1)
    var_plus = (n - 1) / n * w + x.mean(axis=2).var(axis=1, ddof=1)
    ok = (w != 0.0) & np.isfinite(w)
    out = np.full(w.shape, np.nan)
    out[ok] = np.sqrt(var_plus[ok] / w[ok])
    return float(out[0]) if one else out


def ess_bulk(draws):
    """Geyer's multi-chain effective sample size of the raw draws.

    Neither split nor rank-normalized, so it is not the bulk ESS of
    Vehtari et al. (2021) that ``perfbench/ess.py`` scores a run with.
    The autocorrelation at each lag combines the chains' FFT
    autocovariances with the between-chain variance; paired sums of
    them are added until the first non-positive pair, made monotone
    along the way (Geyer 1992, initial monotone sequence). Fewer than 4
    draws per chain, or zero or non-finite within-chain variance (a
    constant parameter), give NaN. Accepts the same shapes as ``rhat``.
    """
    x, one = _by_parameter(draws)
    dim, m, n = x.shape
    if n < 4:
        return float("nan") if one else np.full(dim, np.nan)
    x = np.ascontiguousarray(x)
    means = x.mean(axis=2)
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x - means[:, :, None], size, axis=2)
    acov = np.fft.irfft(f * np.conj(f), size, axis=2)[:, :, :n] / n  # biased, lags 0..n-1
    w = (acov[:, :, 0] * n / (n - 1)).mean(axis=1)
    var_plus = w * (n - 1) / n
    if m > 1:
        var_plus = var_plus + means.var(axis=1, ddof=1)
    ok = (w != 0.0) & np.isfinite(w) & (var_plus > 0.0)
    out = np.full(dim, np.nan)
    w, var_plus, acov = w[ok], var_plus[ok], acov[ok]
    rho = 1.0 - (w[:, None] - acov.mean(axis=1)) / var_plus[:, None]
    rho[:, 0] = 1.0

    # Geyer's sequence over the pairs before the first non-positive one,
    # each capped at the least pair so far, added in order by cumsum
    lags = 2 * ((n - 1) // 2)
    pairs = rho[:, 0:lags:2] + rho[:, 1:lags:2]
    kept = np.logical_and.accumulate(pairs > 0.0, axis=1)
    monotone = np.where(kept, np.minimum.accumulate(pairs, axis=1), 0.0)
    tau = np.where(kept[:, 0], np.cumsum(monotone, axis=1)[:, -1], rho[:, 0])
    tau = np.maximum(2.0 * tau - 1.0, 1.0 / np.log10(n + 10))  # no absurd super-efficiency
    out[ok] = m * n / tau
    return float(out[0]) if one else out
