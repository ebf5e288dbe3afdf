"""Marginal prevalence per model, the one estimation entry point, and the comparison report.

Marginal standardization is the common estimand: average the fitted
individual probabilities over the cohort's covariate rows, computed as
the trials-weighted mean over its covariate patterns (distinct rows,
see ``data_model.design_patterns``). External
accuracy correction, where a model needs one, happens on that averaged
probability; for posterior draws the correction is applied draw by
draw, before averaging, so truncation at zero propagates into the
posterior summaries rather than being applied once at the end.
One function, ``_prevalence``, builds every ``PrevalenceEstimate``:
Wald bounds for the delta intervals, equal-tail ones of posterior draws
or bootstrap refits, each stretched to bracket the point. STD and LIU
share the interval dispatch and the delta gradient (``_fit_prevalence``).

``estimate`` turns a model name into a fit and its prevalence summary.
The ``fit`` and ``compare`` commands and the replication studies all go
through it, so one model gives one answer at one seed wherever it runs.

Every output table is a header row followed by rows of raw cells: str,
float, int or None. ``data_model.csv_text`` writes it as csv and
``text_table`` renders it aligned. A table of records takes its header
from the record's fields (``record_rows``), and posterior draws take
theirs from the parameter names (``draws_rows``). Only
``render_csv_text``, which reads a saved csv back, parses cells into
numbers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .bayes import ACCURACY_NAMES, fit_bc, fit_bec
from .data_model import design_patterns, read_csv_rows
from .errors import NonConvergenceError, SingularDesignError
from .likelihoods import binomial_counts, logistic
from .mcmc import SamplerConfig
from .mle import LiuVariant, ModelTag, fit_liu, fit_std
from .rogan_gladen import (
    CrudeEstimate,
    IntervalMethod,
    correct_proportion,
    corrected,
    tail_bounds,
    wald_bounds,
)

log = logging.getLogger(__name__)

# Fitted probabilities per block in posterior_prevalence_draws: 2^13, so a
# temporary is 64 KiB, under the 128 KiB above which the C allocator may
# hand out fresh pages for every block. On a 2-vCPU x86 VM, blocks of 512
# draws took 40-60 us per draw over 2,000 patterns and 0.8-0.9 s per 4,000
# draws over 10,000; these took 21 us and 0.3 s. A block holds a multiple
# of 4 draws, at least 4: the matrix-vector product sums columns in groups
# of 4, so every such block gives each draw the same bits. The blocks hold
# the distinct draws alone, each run of repeats once, and the last is
# padded with repeats of its last draw to a multiple of 4: a study
# replicate's 1,600 BC draws over 2,000 patterns, about 1,220 distinct,
# then take about 9 us per draw, against 10.3 us when every draw is scored.
PREVALENCE_BLOCK = 2**13


@dataclass(frozen=True)
class PrevalenceEstimate:
    model_tag: ModelTag
    point: float
    lower: float
    upper: float
    interval_method: IntervalMethod
    ci_width: float = field(init=False)
    change_vs_crude_pct: float = None
    change_vs_std_pct: float = None
    n_resample_failures: int = 0

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.point <= self.upper <= 1.0):
            raise ValueError(
                f"prevalence interval out of order: ({self.lower}, {self.point}, {self.upper})"
            )
        object.__setattr__(self, "ci_width", self.upper - self.lower)


def require_converged(fit, allow=False):
    """Refuse a non-converged fit; with ``allow``, log a warning and go on."""
    if fit.converged:
        return
    if not allow:
        raise NonConvergenceError(
            f"{fit.model_tag.value} fit did not converge: {fit.condition_warning}"
        )
    log.warning(
        "%s fit flagged non-converged (%s); continuing because --allow-nonconverged is set",
        fit.model_tag.value,
        fit.condition_warning,
    )


def _prevalence(tag, point, method, values=None, raw=None, se=None):
    """The one builder of a ``PrevalenceEstimate``: ``point`` and its 95% interval.

    DELTA bounds are the Wald ones ``raw -/+ Z_95 se``, clamped into
    [0, 1]. POSTERIOR_QUANTILE bounds are the equal-tail ones of the
    draws ``values``. BOOTSTRAP bounds are those of the clean refits
    among ``values``, one value per resample and None where the refit
    failed; fewer than half of them clean, or none, is a
    NonConvergenceError. Every interval is stretched to bracket ``point``.
    """
    failures = 0
    if method is IntervalMethod.DELTA:
        lower, upper = wald_bounds(raw, se, point)
    else:
        if method is IntervalMethod.BOOTSTRAP:
            n_boot = len(values)
            values = [v for v in values if v is not None]
            failures = n_boot - len(values)
            if len(values) < max(1, (n_boot + 1) // 2):
                what = "bootstrap" if tag is ModelTag.STD else "parametric bootstrap"
                raise NonConvergenceError(
                    f"{what} collapsed: only {len(values)} of {n_boot} resamples refit cleanly"
                )
            if failures:
                log.warning("prevalence bootstrap: %d of %d refits failed", failures, n_boot)
        lower, upper = tail_bounds(values)
        lower, upper = min(lower, point), max(upper, point)
    return PrevalenceEstimate(tag, point, lower, upper, method, n_resample_failures=failures)


def _fit_prevalence(tag, fit, patterns, interval, refits, assay=None):
    """STD's and LIU's interval dispatch.

    The point is the fit's mean fitted probability, corrected by
    ``assay`` where one is given. The bootstrap interval takes the
    iterable ``refits``: per resample, the prevalence of its refit,
    corrected alike, or None where the refit failed. The delta interval
    propagates ``fit.covariance`` through the mean fitted probability,
    whose gradient is zero on the rate coordinates after beta.
    """
    pi = logistic(patterns.rows @ fit.beta_hat)
    raw, slope = patterns.mean(pi), 1.0
    if assay is not None:
        raw, slope = corrected(raw, assay), assay.youden
    point = min(1.0, max(0.0, raw))
    if interval is IntervalMethod.BOOTSTRAP:
        return _prevalence(tag, point, interval, values=list(refits))
    if interval is IntervalMethod.DELTA:
        g = np.zeros(fit.covariance.shape[0])
        g[: patterns.rows.shape[1]] = (
            patterns.rows.T @ (patterns.trials * pi * (1.0 - pi)) / patterns.inverse.shape[0]
        )
        var = float(g @ fit.covariance @ g)
        if not var >= 0.0:
            raise NonConvergenceError(f"{tag.value} delta interval has variance {var}")
        return _prevalence(tag, point, interval, raw=raw, se=float(np.sqrt(var)) / slope)
    raise ValueError(f"unsupported interval method for {tag.value} prevalence: {interval}")


def marginal_prevalence_std(
    y,
    X,
    fit,
    assay,
    n_boot=1000,
    rng=None,
    interval=IntervalMethod.BOOTSTRAP,
):
    """Externally corrected marginal prevalence for the plain logistic fit.

    The nonparametric bootstrap resamples cohort rows, refits, averages
    the fitted probabilities, and corrects each resampled value; a
    resample is refitted as trials and positives per covariate pattern
    it drew, starting at the fit's coefficients and iterating to the
    same tolerance as a fit from zero. Refits that fail to converge,
    whose resample lost every positive of a rare indicator column, or
    that separate on one, are counted and skipped. The cheaper delta
    interval propagates the fit's coefficient covariance through the
    mean fitted probability and divides by the Youden index.
    """
    require_converged(fit)
    patterns = design_patterns(X)
    y = np.asarray(y, dtype=float)

    def refits():
        gen = np.random.default_rng(rng)
        n, n_patterns = patterns.inverse.shape[0], patterns.trials.shape[0]
        # each row's pattern and outcome as one code, 2 * pattern + outcome,
        # so one gather and one count give a resample's negatives and positives
        codes = 2 * patterns.inverse + binomial_counts(y)[0].astype(np.intp)
        for _ in range(n_boot):
            counts = np.bincount(codes[gen.integers(0, n, size=n)], minlength=2 * n_patterns)
            trials = (counts[0::2] + counts[1::2]).astype(float)
            live = trials > 0.0
            rows, trials = patterns.rows[live], trials[live]
            try:
                refit = fit_std(
                    counts[1::2][live].astype(float), rows, trials=trials, init=fit.beta_hat
                )
            except SingularDesignError:
                refit = None
            if refit is None or not refit.converged:
                yield None
                continue
            yield correct_proportion(float(trials @ logistic(rows @ refit.beta_hat)) / n, assay)[0]

    return _fit_prevalence(ModelTag.STD, fit, patterns, IntervalMethod(interval), refits(), assay)


def marginal_prevalence_liu(X, fit, n_boot=500, rng=None, interval=IntervalMethod.BOOTSTRAP):
    """Marginal prevalence from the joint error-rate fit.

    No external correction applies: the coefficients already describe
    the latent true status. The bootstrap interval is parametric,
    simulating outcomes from the fitted (beta, r0, r1), refitting, and
    taking percentiles of the resampled prevalence; refits start at the
    original estimates, a rate on its boundary included, and run on
    ``X`` itself, whose rank a DesignMatrix checks once for all of them;
    non-converged refits are counted. The delta interval propagates the
    joint observed-information covariance of (beta, free rates) through
    the mean fitted probability.
    """
    require_converged(fit)
    if fit.error_rates_hat is None:
        raise ValueError("fit does not carry error-rate estimates")
    patterns = design_patterns(X)

    def refits():
        gen = np.random.default_rng(rng)
        r0, r1 = fit.error_rates_hat.r0, fit.error_rates_hat.r1
        pi_rows = logistic(patterns.rows @ fit.beta_hat)[patterns.inverse]
        for _ in range(n_boot):
            # outcomes are drawn per row, as the stream always has been
            latent = gen.random(pi_rows.shape[0]) < pi_rows
            u = gen.random(pi_rows.shape[0])
            y_b = np.where(latent, u >= r1, u < r0).astype(float)
            refit = fit_liu(y_b, X, variant=fit.variant, init=fit)
            if refit.converged:
                yield patterns.mean(logistic(patterns.rows @ refit.beta_hat))
            else:
                yield None

    return _fit_prevalence(ModelTag.LIU, fit, patterns, IntervalMethod(interval), refits())


def _beta_coordinates(draws):
    return [i for i, name in enumerate(draws.param_names) if name not in ACCURACY_NAMES]


def posterior_prevalence_draws(draws, X, assay=None):
    """Per-draw marginal prevalence, optionally externally corrected.

    Returns one value per retained draw. When an assay is given the
    correction is applied to each draw's averaged probability and
    truncated into [0, 1] there and then.
    """
    patterns = design_patterns(X)
    beta_idx = _beta_coordinates(draws)
    if len(beta_idx) != patterns.rows.shape[1]:
        raise ValueError(
            f"draws carry {len(beta_idx)} coefficients but the design has "
            f"{patterns.rows.shape[1]} columns"
        )
    flat = draws.flat()[:, beta_idx]
    # a rejection repeats the state before it: score each distinct run once
    new = np.ones(flat.shape[0], dtype=bool)
    new[1:] = (flat[1:] != flat[:-1]).any(axis=1)
    keep = np.flatnonzero(new)
    distinct = flat[np.concatenate([keep, keep[-1:].repeat(-keep.shape[0] % 4)])]
    values = np.empty(distinct.shape[0])
    weights = patterns.trials / patterns.inverse.shape[0]
    batch = 4 * max(1, PREVALENCE_BLOCK // (4 * weights.shape[0]))
    for start in range(0, distinct.shape[0], batch):
        eta = patterns.rows @ distinct[start : start + batch].T
        values[start : start + batch] = weights @ logistic(eta, out=eta)
    out = values[np.cumsum(new) - 1]
    if assay is not None:
        out = np.clip(corrected(out, assay), 0.0, 1.0)
    return out


def marginal_prevalence_bayes(draws, X, model_tag, assay=None):
    """Posterior marginal prevalence with a 95% equal-tail quantile interval.

    ``assay`` switches on external correction (the BC pipeline); leave
    it None when the likelihood already handled misclassification. The
    draws are summarized as given: chain convergence is the fit's
    verdict (``FitResult.converged``, set by ``bayes`` over every
    sampled coordinate), which ``estimate`` gates before it gets here.
    """
    vals = posterior_prevalence_draws(draws, X, assay=assay)
    return _prevalence(
        ModelTag(model_tag), float(np.mean(vals)), IntervalMethod.POSTERIOR_QUANTILE, values=vals
    )


def estimate(
    tag,
    y,
    X,
    assay,
    seed,
    sampler=None,
    variant=LiuVariant.BOTH_FREE,
    n_boot=None,
    interval=IntervalMethod.BOOTSTRAP,
    allow_nonconverged=False,
):
    """Fit one of the four models and summarize its marginal prevalence.

    Returns ``(fit, prevalence, draws)``; every interval is a 95% one.
    ``prevalence`` is None for an STD or LIU fit let through unconverged
    by ``allow_nonconverged``; a BC or BEC fit let through that way is
    summarized over its unmixed draws, after the one warning of
    ``require_converged``. ``draws`` is None for the two likelihood
    fits. ``assay`` is
    the external correction for STD and BC (its point values) and the
    likelihood's accuracy for BEC; LIU ignores it. ``seed`` seeds the
    sampler and the bootstrap streams, ``[seed, 1]`` for STD and
    ``[seed, 2]`` for LIU. ``interval`` and ``n_boot`` apply to STD and
    LIU; ``n_boot=None`` keeps each bootstrap's default size. A
    statistical failure raises a StatisticalError.
    """
    tag = ModelTag(tag)
    draws = None
    if tag is ModelTag.STD:
        fit = fit_std(y, X)
    elif tag is ModelTag.LIU:
        fit = fit_liu(y, X, variant=variant)
    else:
        config = replace(sampler or SamplerConfig(), seed=seed)
        if tag is ModelTag.BC:
            fit, draws = fit_bc(y, X, config=config)
        else:
            fit, draws = fit_bec(y, X, assay, config=config)
    require_converged(fit, allow_nonconverged)

    boot = {} if n_boot is None else {"n_boot": n_boot}
    if draws is not None:
        bc_assay = assay.point_profile() if tag is ModelTag.BC else None
        prev = marginal_prevalence_bayes(draws, X, tag, assay=bc_assay)
    elif not fit.converged:
        prev = None
    elif tag is ModelTag.STD:
        rng = np.random.default_rng([seed, 1])
        prev = marginal_prevalence_std(
            y, X, fit, assay.point_profile(), rng=rng, interval=interval, **boot
        )
    else:
        rng = np.random.default_rng([seed, 2])
        prev = marginal_prevalence_liu(X, fit, rng=rng, interval=interval, **boot)
    return fit, prev, draws


# ---------------------------------------------------------------------------
# Comparison report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientRow:
    coefficient: str
    std: float = None
    std_se: float = None
    liu: float = None
    liu_se: float = None
    liu_change_vs_std_pct: float = None
    bc: float = None
    bc_se: float = None
    bec: float = None
    bec_se: float = None
    bec_change_vs_std_pct: float = None
    bec_change_vs_bc_pct: float = None


@dataclass(frozen=True)
class SeComparisonRow:
    coefficient: str
    se_liu: float = None
    se_bec: float = None
    relative_change: float = None  # se_liu / se_bec - 1


@dataclass(frozen=True)
class ComparisonReport:
    prevalence: tuple  # PrevalenceEstimate rows, crude first
    crude: CrudeEstimate
    coefficients: tuple
    se_comparison: tuple
    gaps: tuple = ()


# The models of the coefficient block in column order, each with the
# models its coefficients are compared against.
_COEFFICIENT_CHANGES = (
    (ModelTag.STD, ()),
    (ModelTag.LIU, (ModelTag.STD,)),
    (ModelTag.BC, ()),
    (ModelTag.BEC, (ModelTag.STD, ModelTag.BC)),
)


def _pct_change(value, reference):
    if value is None or reference is None or reference == 0.0:
        return None
    return 100.0 * (value - reference) / abs(reference)


def build_comparison_report(crude, fits=None, prevalences=None):
    """Assemble the three comparison blocks from whatever models ran.

    ``fits`` and ``prevalences`` are mappings keyed by ModelTag. Models
    that are absent leave gaps, which are listed in ``gaps`` instead of
    failing the whole report.
    """
    fits = dict(fits or {})
    prevalences = dict(prevalences or {})
    gaps = [tag.value for tag in ModelTag if tag not in fits]

    std_prev = prevalences.get(ModelTag.STD)
    std_point = None if std_prev is None else std_prev.point
    prev_rows = []
    for tag in ModelTag:
        est = prevalences.get(tag)
        if est is not None:
            vs_std = None if tag is ModelTag.STD else _pct_change(est.point, std_point)
            vs_crude = _pct_change(est.point, crude.p_obs)
            prev_rows.append(replace(est, change_vs_crude_pct=vs_crude, change_vs_std_pct=vs_std))

    names = next((f.column_names for f in map(fits.get, ModelTag) if f is not None), ())
    coef_rows = []
    se_rows = []
    for j, name in enumerate(names):
        cells = {}
        for tag, references in _COEFFICIENT_CHANGES:
            col, fit = tag.value.lower(), fits.get(tag)
            if fit is not None and j < len(fit.beta_hat):
                cells[col] = float(fit.beta_hat[j])
                cells[f"{col}_se"] = None if fit.beta_se is None else float(fit.beta_se[j])
            for ref in references:
                ref_col = ref.value.lower()
                cells[f"{col}_change_vs_{ref_col}_pct"] = _pct_change(
                    cells.get(col), cells.get(ref_col)
                )
        coef_rows.append(CoefficientRow(coefficient=name, **cells))
        liu_se, bec_se = cells.get("liu_se"), cells.get("bec_se")
        rel = None
        if liu_se is not None and bec_se is not None and bec_se > 0:
            rel = liu_se / bec_se - 1.0
        se_rows.append(SeComparisonRow(name, se_liu=liu_se, se_bec=bec_se, relative_change=rel))

    return ComparisonReport(
        prevalence=tuple(prev_rows),
        crude=crude,
        coefficients=tuple(coef_rows),
        se_comparison=tuple(se_rows),
        gaps=tuple(gaps),
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


PREVALENCE_HEADER = (
    "model",
    "point",
    "lower",
    "upper",
    "ci_width",
    "change_vs_crude_pct",
    "change_vs_std_pct",
    "interval_method",
)


def prevalence_csv_rows(report):
    c = report.crude
    method = c.interval_method.value if c.interval_method else None
    rows = [
        list(PREVALENCE_HEADER),
        ["CRUDE", c.p_obs, None, None, None, None, None, None],
        ["CRUDE_CORRECTED", c.p_adj, c.lower, c.upper, c.width, None, None, method],
    ]
    for est in report.prevalence:
        values = [getattr(est, name) for name in PREVALENCE_HEADER[1:-1]]
        rows.append([est.model_tag.value, *values, est.interval_method.value])
    return rows


def record_rows(records, cls):
    """A table of dataclass records: ``cls``'s field names, then each record's values."""
    names = [f.name for f in fields(cls)]
    return [names] + [[getattr(r, name) for name in names] for r in records]


def coefficient_csv_rows(report):
    return record_rows(report.coefficients, CoefficientRow)


def se_csv_rows(report):
    return record_rows(report.se_comparison, SeComparisonRow)


def draws_rows(draws):
    """One row per retained draw of a ``PosteriorDraws``: parameters, then chain and draw index."""
    rows = [[*draws.param_names, "chain", "draw"]]
    for c, chain in enumerate(draws.draws.tolist()):
        rows.extend([*values, c, i] for i, values in enumerate(chain))
    return rows


def text_table(rows):
    """A table aligned for reading: floats to six significant digits, gaps as '.'."""

    def show(v):
        if v is None or v == "":
            return "."
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    cells = [[show(v) for v in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(cells[0]))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _reparse(cell):
    """A cell of a csv read back from a file, as a float where it parses as one."""
    try:
        return float(cell)
    except ValueError:
        return cell


def render_csv_text(path):
    """Re-render any saved comparison csv, read by ``data_model.read_csv_rows``, as aligned text."""
    header, *rows = read_csv_rows(path, "report input")
    return text_table([header] + [[_reparse(v) for v in row] for row in rows]) + "\n"


def render_text(report):
    """Aligned plain-text rendering of all three blocks."""
    blocks = [
        ("Marginal prevalence", prevalence_csv_rows(report)),
        ("Coefficients", coefficient_csv_rows(report)),
        ("Standard errors (joint error-rate model vs internal correction)", se_csv_rows(report)),
    ]
    parts = [f"{title}\n{text_table(rows)}" for title, rows in blocks]
    if report.gaps:
        parts.append(f"missing models: {', '.join(report.gaps)}")
    return "\n\n".join(parts) + "\n"
