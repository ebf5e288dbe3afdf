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
first read.
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
    """Post-warmup draws, with split R-hat and bulk ESS per parameter on demand."""

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


def _split_chains(draws_2d):
    """Split each chain in half; (m, n) -> (2m, n // 2)."""
    m, n = draws_2d.shape
    half = n // 2
    return np.vstack([draws_2d[:, :half], draws_2d[:, n - half:]])


def _rhat_single(draws_2d):
    x = _split_chains(np.asarray(draws_2d, dtype=float))
    m, n = x.shape
    if n < 2:
        return float("nan")
    chain_means = x.mean(axis=1)
    chain_vars = x.var(axis=1, ddof=1)
    w = chain_vars.mean()
    if w == 0.0 or not np.isfinite(w):
        return float("nan")
    b_over_n = chain_means.var(ddof=1)
    var_plus = (n - 1) / n * w + b_over_n
    return float(np.sqrt(var_plus / w))


def _per_parameter(single, draws):
    """``single`` of a (chains, samples) array, or of each parameter of a 3-d one."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 2:
        return single(draws)
    if draws.ndim != 3:
        raise ValueError("draws must be 2-d or 3-d")
    return np.array([single(draws[:, :, j]) for j in range(draws.shape[2])])


def rhat(draws):
    """Split-chain potential scale reduction factor.

    Accepts (chains, samples) for one parameter or (chains, samples,
    dim) for many. Degenerate zero-variance input returns NaN rather
    than a spurious 1.0.
    """
    return _per_parameter(_rhat_single, draws)


def _autocovariance(x):
    """Biased autocovariance of one chain via FFT, lags 0..n-1."""
    n = x.shape[0]
    xc = x - x.mean()
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n].real
    return acov / n


def _ess_single(draws_2d):
    x = np.asarray(draws_2d, dtype=float)
    m, n = x.shape
    if n < 4:
        return float("nan")
    acov = np.array([_autocovariance(x[c]) for c in range(m)])
    chain_vars = acov[:, 0] * n / (n - 1)
    w = chain_vars.mean()
    if w == 0.0 or not np.isfinite(w):
        return float("nan")
    if m > 1:
        var_plus = w * (n - 1) / n + x.mean(axis=1).var(ddof=1)
    else:
        var_plus = w * (n - 1) / n
    if var_plus <= 0:
        return float("nan")

    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer initial positive/monotone sequence over paired sums.
    max_pairs = (n - 1) // 2
    tau = 0.0
    prev_pair = np.inf
    used_any = False
    for k in range(max_pairs):
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev_pair)
        prev_pair = pair
        tau += pair
        used_any = True
    if not used_any:
        tau = rho[0]
    tau = 2.0 * tau - 1.0
    tau = max(tau, 1.0 / np.log10(n + 10))  # guard against absurd super-efficiency
    return float(m * n / tau)


def ess_bulk(draws):
    """Autocorrelation-based effective sample size.

    Paired autocorrelation sums are accumulated until the first
    non-positive pair (made monotone along the way); constant chains
    give NaN. Accepts the same shapes as ``rhat``.
    """
    return _per_parameter(_ess_single, draws)
