"""Frozen effective-sample-size yardstick for the benchmark.

Rank-normalized split-chain bulk ESS and tail ESS as defined by
Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021, Bayesian
Analysis, "Rank-normalization, folding, and localization: an improved
R-hat for assessing convergence of MCMC"). The benchmark scores the
sampler's draws with this copy, never with the package's own
diagnostics, so a change to ``misclass_prev.mcmc`` cannot move the
yardstick it is judged by.
"""

import numpy as np
from scipy import special, stats


def _split(x):
    """(chains, draws) -> (2 * chains, draws // 2): each chain cut in half."""
    half = x.shape[1] // 2
    return np.vstack([x[:, :half], x[:, x.shape[1] - half :]])


def _autocovariance(chain):
    """Biased autocovariance of one chain at lags 0..n-1, via FFT."""
    n = chain.shape[0]
    centred = chain - chain.mean()
    size = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(centred, size)
    return np.fft.irfft(spec * np.conj(spec), size)[:n] / n


def _ess(x):
    """Multi-chain ESS with Geyer's initial monotone sequence; x is (chains, draws)."""
    m, n = x.shape
    if n < 4:
        return float("nan")
    acov = np.array([_autocovariance(c) for c in x])
    within = acov[:, 0].mean() * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if not np.isfinite(var_plus) or var_plus <= 0.0:
        return float("nan")
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Sum autocorrelations in (even, odd) pairs while a pair stays
    # positive, forcing the pair sums to be non-increasing.
    tau = 0.0
    prev = np.inf
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev)
        tau += pair
        prev = pair
    tau = max(2.0 * tau - 1.0, 1.0 / np.log10(m * n))
    return float(m * n / tau)


def _rank_normalize(x):
    ranks = stats.rankdata(x, method="average").reshape(x.shape)
    return special.ndtri((ranks - 0.375) / (x.size + 0.25))


def ess_bulk(x):
    """Bulk ESS of one scalar quantity; x has shape (chains, draws)."""
    return _ess(_rank_normalize(_split(np.asarray(x, dtype=float))))


def ess_tail(x):
    """Tail ESS: the smaller ESS of the 5% and 95% quantile indicators."""
    s = _split(np.asarray(x, dtype=float))
    lo, hi = np.quantile(s, [0.05, 0.95])
    return min(_ess((s <= lo).astype(float)), _ess((s <= hi).astype(float)))


def ess_min(draws, coords):
    """Smallest bulk or tail ESS over the given coordinates of (chains, draws, dim)."""
    draws = np.asarray(draws, dtype=float)
    return min(min(ess_bulk(draws[:, :, j]), ess_tail(draws[:, :, j])) for j in coords)
