"""Adaptive random-walk Metropolis sampler and chain diagnostics.

The proposal is Gaussian, x' = x + sigma * (s .* z), with a scalar step
sigma tuned by Robbins-Monro toward a target acceptance rate (0.234 for
multivariate targets, 0.44 in one dimension) and a per-coordinate shape
vector s tracking the chain's running marginal standard deviations.
Both adapt during warmup only and are frozen afterwards, so the
post-warmup kernel is time homogeneous.

Every chain owns its own generator seeded from (seed, chain index);
runs are bit reproducible for a fixed configuration.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

MULTIVARIATE_TARGET = 0.234
UNIVARIATE_TARGET = 0.44
ADAPT_WINDOW = 50  # warmup iterations between step-size updates


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 4
    warmup: int = 2000
    samples: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.chains < 2:
            raise ValueError("need at least 2 chains for split diagnostics")
        if self.warmup < 100 or self.samples < 100:
            raise ValueError("warmup and samples must each be at least 100")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed must be an integer")

    def resolve_target(self, dim):
        return UNIVARIATE_TARGET if dim == 1 else MULTIVARIATE_TARGET


@dataclass
class PosteriorDraws:
    """Post-warmup draws with convergence diagnostics attached."""

    draws: np.ndarray  # (chains, samples, dim)
    param_names: tuple
    rhat: np.ndarray
    ess_bulk: np.ndarray
    accept_rate: np.ndarray  # per chain, post warmup
    scale_trace: np.ndarray = None  # optional (chains, iterations, dim) proposal scales

    def __post_init__(self):
        self.draws = np.asarray(self.draws, dtype=float)
        if self.draws.ndim != 3:
            raise ValueError("draws must have shape (chains, samples, dim)")
        if not np.all(np.isfinite(self.draws)):
            raise ValueError("draws contain non-finite values")
        if len(self.param_names) != self.draws.shape[2]:
            raise ValueError("param_names length must match draw dimension")
        self.param_names = tuple(self.param_names)

    @property
    def n_total(self):
        return self.draws.shape[0] * self.draws.shape[1]

    def flat(self):
        return self.draws.reshape(-1, self.draws.shape[2])

    def to_csv(self, path):
        """One row per retained draw: parameters, then chain and draw index."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(list(self.param_names) + ["chain", "draw"])
            for c in range(self.draws.shape[0]):
                for i in range(self.draws.shape[1]):
                    w.writerow([repr(float(v)) for v in self.draws[c, i]] + [c, i])


def _run_chain(log_post, dim, config, x0, chain_index, target, collect_scales):
    rng = np.random.default_rng([int(config.seed), int(chain_index)])
    x = np.array(x0, dtype=float)
    lp = float(log_post(x))
    if not np.isfinite(lp):
        raise ValueError(
            f"log posterior is not finite at the chain {chain_index} start point"
        )

    sigma = 2.38 / np.sqrt(dim)
    shape = np.ones(dim)
    total = config.warmup + config.samples
    draws = np.empty((config.samples, dim))
    trace = np.empty((total, dim)) if collect_scales else None

    # Welford accumulators over the later portion of warmup.
    mean = np.zeros(dim)
    m2 = np.zeros(dim)
    count = 0
    var_start = config.warmup // 4

    window_accepts = 0
    window_index = 0
    accepted_post = 0

    for t in range(total):
        if collect_scales:
            trace[t] = sigma * shape
        z = rng.standard_normal(dim)
        proposal = x + sigma * shape * z
        lp_prop = float(log_post(proposal))
        if np.isnan(lp_prop):
            lp_prop = -np.inf  # reject, but count the proposal
        accept = np.log(rng.random()) < lp_prop - lp
        if accept:
            x = proposal
            lp = lp_prop

        if t < config.warmup:
            window_accepts += int(accept)
            if t >= var_start:
                count += 1
                delta = x - mean
                mean += delta / count
                m2 += delta * (x - mean)
            if (t + 1) % ADAPT_WINDOW == 0:
                window_index += 1
                rate = window_accepts / ADAPT_WINDOW
                window_accepts = 0
                sigma *= float(np.exp((rate - target) / np.sqrt(window_index)))
                if count >= max(100, 2 * ADAPT_WINDOW):
                    sd = np.sqrt(m2 / (count - 1) + 1e-12)
                    sd = np.clip(sd, 1e-6, 1e6)
                    # carry overall magnitude in sigma, relative scale in shape
                    shape = sd / np.exp(np.mean(np.log(sd)))
        else:
            draws[t - config.warmup] = x
            accepted_post += int(accept)

    return draws, accepted_post / config.samples, trace


def sample(log_post, dim, config, init=None, collect_scale_trace=False):
    """Run all chains and package draws with diagnostics.

    ``init`` is an optional (chains, dim) array of start points; the
    log posterior must be finite at each. When omitted, chains start at
    small seed-derived jitter around the origin. A NaN log posterior at
    a proposal counts as a rejected proposal; a NaN at the start point
    is an error.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    target = config.resolve_target(dim)

    if init is None:
        jitter_rng = np.random.default_rng([int(config.seed), 0x5EED])
        init = 0.1 * jitter_rng.standard_normal((config.chains, dim))
    init = np.asarray(init, dtype=float)
    if init.shape != (config.chains, dim):
        raise ValueError(f"init must have shape {(config.chains, dim)}, got {init.shape}")

    all_draws = np.empty((config.chains, config.samples, dim))
    accept = np.empty(config.chains)
    traces = [] if collect_scale_trace else None
    for c in range(config.chains):
        draws, acc, trace = _run_chain(
            log_post, dim, config, init[c], c, target, collect_scale_trace
        )
        all_draws[c] = draws
        accept[c] = acc
        if collect_scale_trace:
            traces.append(trace)

    names = tuple(f"theta{j}" for j in range(dim))
    return PosteriorDraws(
        draws=all_draws,
        param_names=names,
        rhat=rhat(all_draws),
        ess_bulk=ess_bulk(all_draws),
        accept_rate=accept,
        scale_trace=np.stack(traces) if collect_scale_trace else None,
    )


def package_draws(draws, param_names, accept_rate=None):
    """Wrap an existing (chains, samples, dim) array with fresh diagnostics.

    Used after deterministic reparameterizations of sampler output
    (e.g. undoing covariate standardization), where the diagnostics
    must describe the reported scale.
    """
    draws = np.asarray(draws, dtype=float)
    if accept_rate is None:
        accept_rate = np.full(draws.shape[0], np.nan)
    return PosteriorDraws(
        draws=draws,
        param_names=tuple(param_names),
        rhat=rhat(draws),
        ess_bulk=ess_bulk(draws),
        accept_rate=np.asarray(accept_rate, dtype=float),
    )


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


def rhat(draws):
    """Split-chain potential scale reduction factor.

    Accepts (chains, samples) for one parameter or (chains, samples,
    dim) for many. Degenerate zero-variance input returns NaN rather
    than a spurious 1.0.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 2:
        return _rhat_single(draws)
    if draws.ndim != 3:
        raise ValueError("draws must be 2-d or 3-d")
    return np.array([_rhat_single(draws[:, :, j]) for j in range(draws.shape[2])])


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
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 2:
        return _ess_single(draws)
    if draws.ndim != 3:
        raise ValueError("draws must be 2-d or 3-d")
    return np.array([_ess_single(draws[:, :, j]) for j in range(draws.shape[2])])
