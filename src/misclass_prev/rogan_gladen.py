"""External correction of an observed proportion for known test accuracy.

The corrected prevalence is

    p_adj = (p_obs - (1 - sp)) / (se + sp - 1)

truncated into [0, 1]. Truncation fires exactly when the observed
proportion falls outside [1 - sp, se], the range a test with that
accuracy can actually produce. The numerator is written as a shift by
the false-positive rate rather than the algebraically equal
p_obs + sp - 1 so that a perfect test returns p_obs bit for bit.
``corrected`` is the one copy of that formula, for a scalar or an
array: the crude interval, STD's prevalence and BC's draws all use it.

Every interval in the package is a 95% one, the only level the paper
reports: Wald bounds from ``wald_bounds``, equal-tail ones from
``tail_bounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# The 0.975 normal quantile as scipy's ndtri gives it, one ulp above the
# correctly rounded value: the Wald and delta bounds keep their last bits.
Z_95 = 1.959963984540054
# Equal-tail quantile levels of the bootstrap and posterior intervals.
# The lower one is (1 - 0.95) / 2 as computed in floating point,
# 0.025000000000000022, not the literal 0.025: the bounds depend on it.
TAIL_QUANTILES = ((1.0 - 0.95) / 2.0, 1.0 - (1.0 - 0.95) / 2.0)


def tail_bounds(values):
    """95% equal-tail bounds of ``values``, bit for bit ``np.quantile(values, TAIL_QUANTILES)``.

    Computed by numpy's linear rule from a sorted copy, because
    ``np.quantile`` imports ``numpy.ma`` on its first call (15-21 ms and
    1.3 MB per command).
    """
    s = np.sort(np.asarray(values, dtype=float))
    bounds = []
    for q in TAIL_QUANTILES:
        at = (s.shape[0] - 1) * q  # a fraction t of the way from s[i] to s[i + 1]
        i = math.floor(at)
        a, b, t = s[i], s[min(i + 1, s.shape[0] - 1)], at - i
        bounds.append(float(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t))
    return bounds


class IntervalMethod(Enum):
    WALD = "wald"
    BOOTSTRAP = "bootstrap"
    DELTA = "delta"
    POSTERIOR_QUANTILE = "posterior_quantile"


@dataclass(frozen=True)
class CrudeEstimate:
    """Observed proportion plus its accuracy-corrected counterpart."""

    p_obs: float
    p_adj: float
    truncated: bool
    n: int = 0
    lower: float = None
    upper: float = None
    interval_method: IntervalMethod = None

    def __post_init__(self):
        if (self.lower is None) != (self.upper is None):
            raise ValueError("interval bounds must be given together")
        if self.lower is not None:
            if not (0.0 <= self.lower <= self.p_adj <= self.upper <= 1.0):
                raise ValueError(
                    f"interval must satisfy 0 <= lower <= point <= upper <= 1, got "
                    f"({self.lower}, {self.p_adj}, {self.upper})"
                )

    @property
    def width(self):
        if self.lower is None:
            return None
        return self.upper - self.lower


def corrected(p_obs, assay):
    """The correction of an observed proportion, a scalar or an array, not clamped."""
    return (p_obs - (1.0 - assay.specificity)) / assay.youden


def correct_proportion(p_obs, assay):
    """Corrected value clamped into [0, 1], and whether the clamp changed it."""
    raw = corrected(p_obs, assay)
    clamped = min(1.0, max(0.0, raw))
    return clamped, clamped != raw


def rogan_gladen(p_obs, assay):
    """Point correction of an observed proportion; no interval."""
    p_obs = float(p_obs)
    if not (0.0 <= p_obs <= 1.0):
        raise ValueError(f"p_obs must lie in [0, 1], got {p_obs}")
    p_adj, truncated = correct_proportion(p_obs, assay)
    return CrudeEstimate(p_obs=p_obs, p_adj=p_adj, truncated=truncated)


def rogan_gladen_interval(count_pos, n, assay):
    """Corrected prevalence with a 95% Wald confidence interval.

    The binomial standard error is propagated through the correction:
    se(p_adj) = sqrt(p_obs (1 - p_obs) / n) / (se + sp - 1). Under a
    perfect assay this is the plain Wald interval of the observed
    proportion.

    Bounds are truncated into [0, 1] after construction, and forced to
    bracket the point estimate so truncation cannot invert the interval
    (``wald_bounds``).
    """
    count_pos = int(count_pos)
    n = int(n)
    if n <= 0 or not (0 <= count_pos <= n):
        raise ValueError(f"need 0 <= count_pos <= n with n > 0, got {count_pos}/{n}")

    p_obs = count_pos / n
    p_adj, truncated = correct_proportion(p_obs, assay)
    se_adj = np.sqrt(p_obs * (1.0 - p_obs) / n) / assay.youden
    lower, upper = wald_bounds(corrected(p_obs, assay), se_adj, p_adj)
    return CrudeEstimate(
        p_obs=p_obs,
        p_adj=p_adj,
        truncated=truncated,
        n=n,
        lower=lower,
        upper=upper,
        interval_method=IntervalMethod.WALD,
    )


def wald_bounds(raw, se, point):
    """95% Wald bounds ``raw -/+ Z_95 se``, clamped into [0, 1], stretched to bracket ``point``."""
    lower = min(1.0, max(0.0, raw - Z_95 * se))
    upper = min(1.0, max(0.0, raw + Z_95 * se))
    return float(min(lower, point)), float(max(upper, point))
