"""Marginal prevalence per model, the one estimation entry point, and the comparison report.

Marginal standardization is the common estimand: average the fitted
individual probabilities over the cohort's covariate rows. External
accuracy correction, where a model needs one, happens on that averaged
probability; for posterior draws the correction is applied draw by
draw, before averaging, so truncation at zero propagates into the
posterior summaries rather than being applied once at the end.

``estimate`` turns a model name into a fit and its prevalence summary.
The ``fit`` and ``compare`` commands and the replication studies all go
through it, so one model gives one answer at one seed wherever it runs.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from .bayes import fit_bc, fit_bec
from .errors import DiagnosticsError, NonConvergenceError, SingularDesignError
from .likelihoods import logistic
from .mcmc import SamplerConfig
from .mle import LiuInit, LiuVariant, ModelTag, fit_liu, fit_std
from .rogan_gladen import IntervalMethod, correct_proportion

log = logging.getLogger(__name__)

_ACCURACY_COORDS = ("sensitivity", "specificity")


@dataclass(frozen=True)
class PrevalenceEstimate:
    model_tag: ModelTag
    point: float
    lower: float
    upper: float
    interval_method: IntervalMethod
    ci_width: float = None
    change_vs_crude_pct: float = None
    change_vs_std_pct: float = None
    n_resample_failures: int = 0

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.point <= self.upper <= 1.0):
            raise ValueError(
                f"prevalence interval out of order: ({self.lower}, {self.point}, {self.upper})"
            )
        object.__setattr__(self, "ci_width", self.upper - self.lower)


def _mean_prob(X, beta):
    Xm = X.matrix if hasattr(X, "matrix") else np.asarray(X, dtype=float)
    return float(np.mean(logistic(Xm @ beta)))


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


def _bootstrap_bounds(vals, n_boot, conf_level, what):
    """Equal-tail bounds of the clean refits; refuses fewer than half of ``n_boot``, or none."""
    if len(vals) < max(1, (n_boot + 1) // 2):
        raise NonConvergenceError(
            f"{what} collapsed: only {len(vals)} of {n_boot} resamples refit cleanly"
        )
    if len(vals) < n_boot:
        log.warning("prevalence bootstrap: %d of %d refits failed", n_boot - len(vals), n_boot)
    alpha = 1.0 - conf_level
    return np.quantile(vals, [alpha / 2.0, 1.0 - alpha / 2.0])


def marginal_prevalence_std(
    y,
    X,
    fit,
    assay,
    n_boot=1000,
    rng=None,
    conf_level=0.95,
    interval=IntervalMethod.BOOTSTRAP,
):
    """Externally corrected marginal prevalence for the plain logistic fit.

    The nonparametric bootstrap resamples cohort rows, refits, averages
    the fitted probabilities, and corrects each resampled value; refits
    that fail to converge, or whose resample lost every positive of a
    rare indicator column, are counted and skipped. The cheaper delta
    interval propagates the coefficient covariance through the mean
    fitted probability and divides by the Youden index.
    """
    require_converged(fit)
    interval = IntervalMethod(interval)
    Xm = X.matrix if hasattr(X, "matrix") else np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    point, _ = correct_proportion(_mean_prob(Xm, fit.beta_hat), assay)

    failures = 0
    if interval is IntervalMethod.BOOTSTRAP:
        rng = np.random.default_rng(rng)
        n = Xm.shape[0]
        vals = []
        for _ in range(n_boot):
            idx = rng.integers(0, n, size=n)
            try:
                refit = fit_std(y[idx], Xm[idx], column_names=fit.column_names)
            except SingularDesignError:
                continue
            if refit.converged:
                adj, _ = correct_proportion(_mean_prob(Xm[idx], refit.beta_hat), assay)
                vals.append(adj)
        failures = n_boot - len(vals)
        lower, upper = _bootstrap_bounds(vals, n_boot, conf_level, "bootstrap")
    elif interval is IntervalMethod.DELTA:
        pi = logistic(Xm @ fit.beta_hat)
        w = pi * (1.0 - pi)
        H = Xm.T @ (w[:, None] * Xm)
        cov = np.linalg.inv(H)
        g = (Xm.T @ w) / Xm.shape[0]
        se_mean = float(np.sqrt(g @ cov @ g)) / assay.youden
        z = stats.norm.ppf(0.5 + conf_level / 2.0)
        raw = (_mean_prob(Xm, fit.beta_hat) - (1.0 - assay.specificity)) / assay.youden
        lower = min(1.0, max(0.0, raw - z * se_mean))
        upper = min(1.0, max(0.0, raw + z * se_mean))
    else:
        raise ValueError(f"unsupported interval method for STD prevalence: {interval}")

    lower, upper = min(lower, point), max(upper, point)
    return PrevalenceEstimate(
        model_tag=ModelTag.STD,
        point=point,
        lower=float(lower),
        upper=float(upper),
        interval_method=interval,
        n_resample_failures=failures,
    )


def marginal_prevalence_liu(
    X, fit, n_boot=500, rng=None, conf_level=0.95, interval=IntervalMethod.BOOTSTRAP
):
    """Marginal prevalence from the joint error-rate fit.

    No external correction applies: the coefficients already describe
    the latent true status. The bootstrap interval is parametric,
    simulating outcomes from the fitted (beta, r0, r1), refitting, and
    taking percentiles of the resampled prevalence; refits start at the
    original estimates, and non-converged refits are counted. The delta
    interval propagates the joint observed-information covariance of
    (beta, free rates) through the mean fitted probability; the rate
    coordinates enter with zero gradient since the prevalence map only
    touches beta.
    """
    require_converged(fit)
    if fit.error_rates_hat is None:
        raise ValueError("fit does not carry error-rate estimates")
    interval = IntervalMethod(interval)
    Xm = X.matrix if hasattr(X, "matrix") else np.asarray(X, dtype=float)
    pi_hat = logistic(Xm @ fit.beta_hat)
    point = float(np.mean(pi_hat))
    n, p = Xm.shape

    failures = 0
    if interval is IntervalMethod.BOOTSTRAP:
        rng = np.random.default_rng(rng)
        r0, r1 = fit.error_rates_hat.r0, fit.error_rates_hat.r1
        variant = fit.variant or LiuVariant.BOTH_FREE
        init = LiuInit(beta=fit.beta_hat, r0=max(r0, 1e-4), r1=max(r1, 1e-4))
        vals = []
        for _ in range(n_boot):
            latent = rng.random(n) < pi_hat
            u = rng.random(n)
            y_b = np.where(latent, u >= r1, u < r0).astype(float)
            refit = fit_liu(y_b, Xm, variant=variant, init=init, column_names=fit.column_names)
            if refit.converged:
                vals.append(_mean_prob(Xm, refit.beta_hat))
        failures = n_boot - len(vals)
        lower, upper = _bootstrap_bounds(vals, n_boot, conf_level, "parametric bootstrap")
    elif interval is IntervalMethod.DELTA:
        g = np.zeros(fit.covariance.shape[0])
        g[:p] = (Xm.T @ (pi_hat * (1.0 - pi_hat))) / n
        var = float(g @ fit.covariance @ g)
        if not var >= 0.0:
            raise NonConvergenceError(f"LIU delta interval has variance {var}")
        half = stats.norm.ppf(0.5 + conf_level / 2.0) * np.sqrt(var)
        lower, upper = max(0.0, point - half), min(1.0, point + half)
    else:
        raise ValueError(f"unsupported interval method for LIU prevalence: {interval}")

    lower, upper = min(float(lower), point), max(float(upper), point)
    return PrevalenceEstimate(
        model_tag=ModelTag.LIU,
        point=point,
        lower=lower,
        upper=upper,
        interval_method=interval,
        n_resample_failures=failures,
    )


def _beta_coordinates(draws):
    return [i for i, name in enumerate(draws.param_names) if name not in _ACCURACY_COORDS]


def posterior_prevalence_draws(draws, X, assay=None, batch=512):
    """Per-draw marginal prevalence, optionally externally corrected.

    Returns one value per retained draw. When an assay is given the
    correction is applied to each draw's averaged probability and
    truncated into [0, 1] there and then.
    """
    Xm = X.matrix if hasattr(X, "matrix") else np.asarray(X, dtype=float)
    beta_idx = _beta_coordinates(draws)
    if len(beta_idx) != Xm.shape[1]:
        raise ValueError(
            f"draws carry {len(beta_idx)} coefficients but the design has {Xm.shape[1]} columns"
        )
    flat = draws.flat()[:, beta_idx]
    out = np.empty(flat.shape[0])
    for start in range(0, flat.shape[0], batch):
        block = flat[start : start + batch]
        probs = logistic(Xm @ block.T)
        out[start : start + batch] = probs.mean(axis=0)
    if assay is not None:
        out = np.clip((out - (1.0 - assay.specificity)) / assay.youden, 0.0, 1.0)
    return out


def marginal_prevalence_bayes(
    draws, X, model_tag, assay=None, conf_level=0.95, allow_bad_chains=False
):
    """Posterior marginal prevalence with equal-tail quantile interval.

    ``assay`` switches on external correction (the BC pipeline); leave
    it None when the likelihood already handled misclassification.
    Refuses to summarize chains whose coefficient rhat is 1.05 or
    worse unless ``allow_bad_chains`` explicitly waives that.
    """
    beta_idx = _beta_coordinates(draws)
    bad = [
        (draws.param_names[i], draws.rhat[i])
        for i in beta_idx
        if not (np.isfinite(draws.rhat[i]) and draws.rhat[i] < 1.05)
    ]
    if bad:
        detail = ", ".join(f"{n}={v:.4f}" for n, v in bad)
        if not allow_bad_chains:
            raise DiagnosticsError(f"coefficient chains failed split rhat < 1.05: {detail}")
        log.warning("summarizing despite failed rhat checks: %s", detail)
    vals = posterior_prevalence_draws(draws, X, assay=assay)
    alpha = 1.0 - conf_level
    lower, upper = np.quantile(vals, [alpha / 2.0, 1.0 - alpha / 2.0])
    point = float(np.mean(vals))
    lower, upper = min(float(lower), point), max(float(upper), point)
    return PrevalenceEstimate(
        model_tag=ModelTag(model_tag),
        point=point,
        lower=lower,
        upper=upper,
        interval_method=IntervalMethod.POSTERIOR_QUANTILE,
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
    conf_level=0.95,
    allow_nonconverged=False,
):
    """Fit one of the four models and summarize its marginal prevalence.

    Returns ``(fit, prevalence, draws)``. ``prevalence`` is None for an
    STD or LIU fit let through unconverged by ``allow_nonconverged``,
    and ``draws`` is None for those two likelihood fits. ``assay`` is
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
        prev = marginal_prevalence_bayes(
            draws,
            X,
            tag,
            assay=assay.point_profile() if tag is ModelTag.BC else None,
            conf_level=conf_level,
            allow_bad_chains=allow_nonconverged,
        )
    elif not fit.converged:
        prev = None
    elif tag is ModelTag.STD:
        rng = np.random.default_rng([seed, 1])
        prev = marginal_prevalence_std(
            y, X, fit, assay.point_profile(), rng=rng, conf_level=conf_level, interval=interval, **boot
        )
    else:
        rng = np.random.default_rng([seed, 2])
        prev = marginal_prevalence_liu(
            X, fit, rng=rng, conf_level=conf_level, interval=interval, **boot
        )
    return fit, prev, draws


# ---------------------------------------------------------------------------
# Comparison report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientRow:
    name: str
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
    name: str
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

    prev_rows = []
    std_prev = prevalences.get(ModelTag.STD)
    for tag in (ModelTag.STD, ModelTag.LIU, ModelTag.BC, ModelTag.BEC):
        est = prevalences.get(tag)
        if est is None:
            continue
        est = replace(
            est,
            change_vs_crude_pct=_pct_change(est.point, crude.p_obs),
            change_vs_std_pct=(
                None if tag is ModelTag.STD else _pct_change(est.point, std_prev.point)
            )
            if std_prev is not None
            else None,
        )
        prev_rows.append(est)

    def fit_of(tag):
        return fits.get(tag)

    names = ()
    for tag in (ModelTag.STD, ModelTag.LIU, ModelTag.BC, ModelTag.BEC):
        if fit_of(tag) is not None:
            names = fit_of(tag).column_names
            break

    def coef(tag, j):
        f = fit_of(tag)
        if f is None or j >= len(f.beta_hat):
            return None, None
        se = None if f.beta_se is None else float(f.beta_se[j])
        return float(f.beta_hat[j]), se

    coef_rows = []
    se_rows = []
    for j, name in enumerate(names):
        std_v, std_se = coef(ModelTag.STD, j)
        liu_v, liu_se = coef(ModelTag.LIU, j)
        bc_v, bc_se = coef(ModelTag.BC, j)
        bec_v, bec_se = coef(ModelTag.BEC, j)
        coef_rows.append(
            CoefficientRow(
                name=name,
                std=std_v,
                std_se=std_se,
                liu=liu_v,
                liu_se=liu_se,
                liu_change_vs_std_pct=_pct_change(liu_v, std_v),
                bc=bc_v,
                bc_se=bc_se,
                bec=bec_v,
                bec_se=bec_se,
                bec_change_vs_std_pct=_pct_change(bec_v, std_v),
                bec_change_vs_bc_pct=_pct_change(bec_v, bc_v),
            )
        )
        rel = None
        if liu_se is not None and bec_se is not None and bec_se > 0:
            rel = liu_se / bec_se - 1.0
        se_rows.append(SeComparisonRow(name=name, se_liu=liu_se, se_bec=bec_se, relative_change=rel))

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


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


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
    rows = [list(PREVALENCE_HEADER)]
    c = report.crude
    rows.append(["CRUDE", _fmt(c.p_obs), "", "", "", "", "", ""])
    rows.append(
        [
            "CRUDE_CORRECTED",
            _fmt(c.p_adj),
            _fmt(c.lower),
            _fmt(c.upper),
            _fmt(c.width),
            "",
            "",
            c.interval_method.value if c.interval_method else "",
        ]
    )
    for est in report.prevalence:
        rows.append(
            [
                est.model_tag.value,
                _fmt(est.point),
                _fmt(est.lower),
                _fmt(est.upper),
                _fmt(est.ci_width),
                _fmt(est.change_vs_crude_pct),
                _fmt(est.change_vs_std_pct),
                est.interval_method.value,
            ]
        )
    return rows


COEFFICIENT_HEADER = (
    "coefficient",
    "std",
    "std_se",
    "liu",
    "liu_se",
    "liu_change_vs_std_pct",
    "bc",
    "bc_se",
    "bec",
    "bec_se",
    "bec_change_vs_std_pct",
    "bec_change_vs_bc_pct",
)


def coefficient_csv_rows(report):
    rows = [list(COEFFICIENT_HEADER)]
    for r in report.coefficients:
        rows.append(
            [
                r.name,
                _fmt(r.std),
                _fmt(r.std_se),
                _fmt(r.liu),
                _fmt(r.liu_se),
                _fmt(r.liu_change_vs_std_pct),
                _fmt(r.bc),
                _fmt(r.bc_se),
                _fmt(r.bec),
                _fmt(r.bec_se),
                _fmt(r.bec_change_vs_std_pct),
                _fmt(r.bec_change_vs_bc_pct),
            ]
        )
    return rows


SE_HEADER = ("coefficient", "se_liu", "se_bec", "relative_change")


def se_csv_rows(report):
    rows = [list(SE_HEADER)]
    for r in report.se_comparison:
        rows.append([r.name, _fmt(r.se_liu), _fmt(r.se_bec), _fmt(r.relative_change)])
    return rows


def write_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def read_prevalence_csv(path):
    """Parse a prevalence block back into estimate rows (crude, estimates)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != PREVALENCE_HEADER:
            raise ValueError(f"unexpected prevalence header: {header}")
        crude = {}
        out = []
        for row in reader:
            rec = dict(zip(header, row))
            if rec["model"] in ("CRUDE", "CRUDE_CORRECTED"):
                crude[rec["model"]] = rec
                continue
            out.append(
                PrevalenceEstimate(
                    model_tag=ModelTag(rec["model"]),
                    point=float(rec["point"]),
                    lower=float(rec["lower"]),
                    upper=float(rec["upper"]),
                    interval_method=IntervalMethod(rec["interval_method"]),
                    change_vs_crude_pct=float(rec["change_vs_crude_pct"])
                    if rec["change_vs_crude_pct"]
                    else None,
                    change_vs_std_pct=float(rec["change_vs_std_pct"])
                    if rec["change_vs_std_pct"]
                    else None,
                )
            )
    return crude, out


def _text_table(rows, sigfigs=6):
    def show(v):
        if v is None or v == "":
            return "."
        if isinstance(v, float):
            return f"{v:.{sigfigs}g}"
        return str(v)

    cells = [[show(v) for v in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(cells[0]))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _reparse(rows):
    """Turn repr'd floats back into floats so the text table can round them."""

    def cell(v):
        if isinstance(v, str) and v:
            try:
                return float(v)
            except ValueError:
                return v
        return v

    return [rows[0]] + [[cell(v) for v in row] for row in rows[1:]]


def render_csv_text(path):
    """Re-render any saved comparison csv as an aligned text table."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path} is empty")
    return _text_table(_reparse(rows)) + "\n"


def render_text(report):
    """Aligned plain-text rendering of all three blocks."""
    parts = []
    parts.append("Marginal prevalence")
    parts.append(_text_table(_reparse(prevalence_csv_rows(report))))
    parts.append("")
    parts.append("Coefficients")
    parts.append(_text_table(_reparse(coefficient_csv_rows(report))))
    parts.append("")
    parts.append("Standard errors (joint error-rate model vs internal correction)")
    parts.append(_text_table(_reparse(se_csv_rows(report))))
    if report.gaps:
        parts.append("")
        parts.append(f"missing models: {', '.join(report.gaps)}")
    return "\n".join(parts) + "\n"
