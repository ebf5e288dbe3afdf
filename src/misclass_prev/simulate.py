"""Synthetic cohort generation and Monte Carlo replication studies.

The generative chain is fixed: draw covariates, compute each subject's
true-status probability from the scenario coefficients, draw the latent
true status, then push it through the generating assay's sensitivity
and specificity to get the observed outcome. Co-test covariates are
drawn from their marginal rates upstream of the true status, so their
association with it is exactly the conditional odds ratio implied by
their coefficient; exp(beta) for the co-test column is the dependence
knob, with log(5) the conventional default.

Age is a truncated normal whose underlying location and scale are
solved by Levenberg-Marquardt steps with the analytic Jacobian, so the
truncated distribution itself matches the requested mean and standard
deviation between the bounds; ages are drawn by inverting the normal
cdf. The normal cdf is ``math.erfc`` and the quantile
``statistics.NormalDist().inv_cdf``, so the package needs no scipy.
Scenario files are read by ``data_model.read_ini`` against ``SCENARIO_KEYS``.
"""

from __future__ import annotations

import concurrent.futures
import logging
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from importlib import resources

import numpy as np

from .data_model import (
    ASSAY_KEYS,
    COLUMN_ORDER,
    GROUP_ORDER,
    AssayProfile,
    Cohort,
    assay_settings,
    build_design_matrix,
    design_from_columns,
    read_ini,
)
from .errors import InputError, SchemaError, StatisticalError
from .likelihoods import logistic
from .mcmc import SamplerConfig
from .rogan_gladen import IntervalMethod, rogan_gladen_interval
from .report import estimate

log = logging.getLogger(__name__)

# Cohort margins used as generator defaults: counts 6574 / 3248 / 224 /
# 193 / 1213 out of 11,452 for the five population groups, in GROUP_ORDER.
_GROUP_COUNTS = (6574.0, 3248.0, 224.0, 193.0, 1213.0)


@dataclass(frozen=True)
class CovariateSpec:
    """Marginal covariate distributions for the generator."""

    age_mean: float = 34.0
    age_sd: float = 14.0
    age_min: float = 15.0
    age_max: float = 80.0
    male_rate: float = 0.50
    group_probs: tuple = tuple(c / sum(_GROUP_COUNTS) for c in _GROUP_COUNTS)
    other_sti_rate: float = 0.079
    hepb_rate: float = 8.0 / 11452.0

    def __post_init__(self):
        if not (0.0 <= self.male_rate <= 1.0):
            raise ValueError("male_rate must be a probability")
        for name in ("other_sti_rate", "hepb_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a probability")
        probs = tuple(float(p) for p in self.group_probs)
        if len(probs) != len(GROUP_ORDER):
            raise ValueError(f"group_probs needs {len(GROUP_ORDER)} entries")
        if any(p < 0 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-12:
            raise ValueError("group probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "group_probs", probs)
        ages = (self.age_mean, self.age_sd, self.age_min, self.age_max)
        if not (all(map(math.isfinite, ages)) and self.age_min < self.age_max and self.age_sd > 0):
            raise ValueError("age moments must be finite, the bounds ordered and age_sd positive")


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _ndtr(x):
    """Standard normal cdf of a scalar."""
    return 0.5 * math.erfc(-x * math.sqrt(0.5))


def _mass(a, b):
    """Standard normal probability of [a, b], from the tail that keeps its digits."""
    return _ndtr(b) - _ndtr(a) if a <= 0.0 else _ndtr(-a) - _ndtr(-b)


def _ndtri(p):
    """Standard normal quantiles of an array of probabilities: -inf at 0 and inf at 1."""
    from statistics import NormalDist  # here, not at the top: it loads decimal, which only draws use

    inv = NormalDist().inv_cdf
    return np.array([inv(q) if 0.0 < q < 1.0 else math.copysign(math.inf, q - 0.5) for q in p.tolist()])


def _truncnorm_moments(mu, sigma, lo, hi):
    """Mean and sd of the normal(mu, sigma) truncated to [lo, hi], and their
    Jacobian by (mu, log sigma); nan and None where the variance is lost
    to cancellation or the interval's probability is below the smallest
    normal float, where it keeps too few digits for the moments or the
    draw.

    The derivatives are covariances of powers of the truncated variable
    with the scores of mu and log sigma, from the raw moments of the
    standardized truncation to [a, b] with probability Z:
    E z^k = (k - 1) E z^(k-2) + (a^(k-1) phi(a) - b^(k-1) phi(b)) / Z.
    """
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    z = _mass(a, b)
    if not z >= sys.float_info.min:
        return math.nan, math.nan, None
    pa, pb = _phi(a) / z, _phi(b) / z
    a, b = max(a, -40.0), min(b, 40.0)  # phi is 0 beyond; keeps a^3 * 0 from being nan
    e1 = pa - pb
    e2 = 1.0 + a * pa - b * pb
    var = e2 - e1 * e1
    if not var > 0:
        return math.nan, math.nan, None
    e3 = 2.0 * e1 + a * a * pa - b * b * pb
    e4 = 3.0 * e2 + a * a * a * pa - b * b * b * pb
    mu3 = e3 - 3.0 * e1 * e2 + 2.0 * e1**3
    mu4 = e4 - 4.0 * e1 * e3 + 6.0 * e1 * e1 * e2 - 3.0 * e1**4
    sd = math.sqrt(var)
    jac = np.array(
        [
            [var, sigma * (e3 - e1 * e2)],
            [mu3 / (2.0 * sd), sigma * (mu4 - var * var + 2.0 * e1 * mu3) / (2.0 * sd)],
        ]
    )
    return mu + sigma * e1, sigma * sd, jac


_TRUNCNORM_CACHE = {}


def _calibrated_truncnorm(mean, sd, lo, hi):
    """Underlying (mu, sigma) whose truncation to [lo, hi] has the target moments.

    Levenberg-Marquardt on the moments' residual over (r, log c), the
    coefficients of the log density -r u - c u^2 in u = x - e, where e
    is the bound nearer the mean, from the start mu = mean, sigma = sd.
    A target near the truncated exponential lies at c -> 0, down a
    valley that is straight in these coordinates but curved in
    (mu, log sigma); where the moments are lost before it is reached,
    the least-squares point near that edge can still pass the gate.
    """
    key = mean, sd, lo, hi = tuple(map(float, (mean, sd, lo, hi)))
    if key in _TRUNCNORM_CACHE:
        return _TRUNCNORM_CACHE[key]

    edge = lo if mean - lo <= hi - mean else hi

    def to_mu_sigma(r, log_c):
        sigma = math.exp(-0.5 * log_c) * math.sqrt(0.5)
        return edge - r * sigma * sigma, sigma

    def misfit(theta):
        """The moments' residual at theta = (r, log c), its Jacobian and its norm (nan where lost)."""
        r, log_c = map(float, theta)
        if abs(log_c) > 1400.0:  # sigma would leave the floats
            return None, None, math.nan
        mu, sigma = to_mu_sigma(r, log_c)
        m, s, jac = _truncnorm_moments(mu, sigma, lo, hi)
        if jac is None:
            return None, None, math.nan
        # chain rule: mu = e - r sigma^2 and log sigma = -log(2 c) / 2
        jac = jac @ np.array([[-sigma * sigma, r * sigma * sigma], [0.0, -0.5]])
        return np.array([m - mean, s - sd]), jac, math.hypot(m - mean, s - sd)

    theta = np.array([(edge - mean) / (sd * sd), math.log(0.5 / (sd * sd))])
    res, jac, norm = misfit(theta)
    damping = 0.0
    for _ in range(2000):
        if not (0.0 < norm < math.inf and damping < 1e20):
            break
        grad, gram = jac.T @ res, jac.T @ jac
        try:
            step = np.linalg.solve(gram + damping * np.diag(np.diag(gram)), grad)
        except np.linalg.LinAlgError:
            step = np.full(2, math.nan)
        cand = theta - step
        cand_res, cand_jac, cand_norm = misfit(cand)
        if cand_norm < norm:
            theta, res, jac, norm = cand, cand_res, cand_jac, cand_norm
            damping = damping / 10.0 if damping > 1e-12 else 0.0
        else:
            damping = max(10.0 * damping, 1e-9)
    mu, sigma = to_mu_sigma(*map(float, theta))
    m, s, _ = _truncnorm_moments(mu, sigma, lo, hi)
    if not (abs(m - mean) <= 1e-6 and abs(s - sd) <= 1e-6):
        raise InputError(
            f"cannot match age moments mean={mean}, sd={sd} inside [{lo}, {hi}]"
        )
    _TRUNCNORM_CACHE[key] = (mu, sigma)
    return mu, sigma


@dataclass(frozen=True)
class SimScenario:
    """Everything needed to draw one synthetic cohort.

    ``covariates`` lists the active non-intercept design columns in
    canonical order; ``beta_true`` pairs with (intercept,) + covariates.
    ``analysis_assay`` is what downstream estimators should assume,
    which may deliberately differ from ``assay_true``.
    """

    n: int
    beta_true: tuple
    assay_true: AssayProfile
    covariates: tuple = COLUMN_ORDER[1:]
    covariate_spec: CovariateSpec = field(default_factory=CovariateSpec)
    analysis_assay: AssayProfile = None
    seed: int = 0
    outcome_label: str = "SIM"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        covs = tuple(self.covariates)
        bad = [c for c in covs if c not in COLUMN_ORDER[1:]]
        if bad:
            raise ValueError(f"unknown covariates {bad}")
        ordered = tuple(c for c in COLUMN_ORDER[1:] if c in set(covs))
        object.__setattr__(self, "covariates", ordered)
        beta = tuple(float(b) for b in self.beta_true)
        if len(beta) != len(ordered) + 1:
            raise ValueError(
                f"beta_true has {len(beta)} entries; need {len(ordered) + 1} "
                f"(intercept + {list(ordered)})"
            )
        if not all(map(math.isfinite, beta)):
            raise ValueError(f"beta_true must be finite, got {beta}")
        object.__setattr__(self, "beta_true", beta)


@dataclass(frozen=True)
class SimTruth:
    """Per-subject generative state kept aside for scoring estimators."""

    pi: np.ndarray
    true_status: np.ndarray
    true_prevalence: float


def _truncnorm_draw(spec, u):
    """Ages for uniforms u on [0, 1], by inverting the calibrated truncated normal's cdf.

    When the interval lies above mu, the draw is mirrored, so the
    probabilities come from the lower tail, where they keep their digits.
    A probability that rounds onto 0 or 1 has an infinite quantile, which
    the clip puts on ``age_min`` or ``age_max``.
    """
    mu, sigma = _calibrated_truncnorm(spec.age_mean, spec.age_sd, spec.age_min, spec.age_max)
    a, b = (spec.age_min - mu) / sigma, (spec.age_max - mu) / sigma
    sign = -1.0 if a > 0.0 else 1.0
    lo_u, hi_u = _ndtr(sign * a), _ndtr(sign * b)
    age = mu + sign * sigma * _ndtri(lo_u + (hi_u - lo_u) * u)
    return np.clip(age, spec.age_min, spec.age_max)


def _draw_covariates(spec, n, rng):
    """Draw covariate columns in a fixed order; returns a dict of arrays."""
    age = _truncnorm_draw(spec, rng.random(n))

    sex = (rng.random(n) < spec.male_rate).astype(int)
    cum = np.cumsum(spec.group_probs)
    group = np.searchsorted(cum, rng.random(n), side="right")
    group = np.minimum(group, len(GROUP_ORDER) - 1)
    other_sti = (rng.random(n) < spec.other_sti_rate).astype(int)
    hepb = (rng.random(n) < spec.hepb_rate).astype(int)
    return {"age": age, "sex": sex, "group": group, "other_sti": other_sti, "hepb": hepb}


def simulate(scenario, rng=None):
    """Draw one cohort plus the latent truth needed to score estimators.

    Identical scenario and seed give identical output; passing an
    explicit generator overrides the scenario seed (used by replication
    studies to give each replicate its own stream).
    """
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    cols = _draw_covariates(scenario.covariate_spec, scenario.n, rng)
    X = design_from_columns(cols, scenario.covariates)
    pi = logistic(X.matrix @ np.asarray(scenario.beta_true))
    latent = (rng.random(scenario.n) < pi).astype(int)

    se = scenario.assay_true.sensitivity
    sp = scenario.assay_true.specificity
    u = rng.random(scenario.n)
    observed = np.where(latent == 1, u < se, u < 1.0 - sp).astype(int)

    cohort = Cohort.from_columns(outcome=observed, **cols, outcome_label=scenario.outcome_label)
    truth = SimTruth(pi=pi, true_status=latent, true_prevalence=float(pi.mean()))
    return cohort, truth


_INTERCEPT_XTOL = 1e-12


def calibrate_intercept(scenario, target_prevalence, probe_n=100_000):
    """Adjust the intercept so the mean true-status probability hits a target.

    Solves on one large probe draw of covariates, so the result is
    deterministic; the per-cohort realized prevalence still varies
    binomially around the target.
    """
    if not (0.0 < target_prevalence < 1.0):
        raise ValueError("target prevalence must lie in (0, 1)")
    rng = np.random.default_rng([7, 0xCA11])
    cols = _draw_covariates(scenario.covariate_spec, probe_n, rng)
    X = design_from_columns(cols, scenario.covariates).matrix
    beta = np.asarray(scenario.beta_true)

    def gap(intercept):
        """The mean probability's distance from the target, and its slope."""
        b = beta.copy()
        b[0] = intercept
        pi = logistic(X @ b)
        return float(np.mean(pi)) - target_prevalence, float(np.mean(pi * (1.0 - pi)))

    # Newton inside a bracket that shrinks around the root; a step that
    # would leave it bisects instead
    lo, hi = -30.0, 10.0
    if gap(lo)[0] > 0.0 or gap(hi)[0] < 0.0:
        raise ValueError(f"no intercept in [{lo}, {hi}] gives prevalence {target_prevalence}")
    b0 = 0.5 * (lo + hi)
    while hi - lo > _INTERCEPT_XTOL:
        g, slope = gap(b0)
        if g == 0.0:
            break
        lo, hi = (b0, hi) if g < 0.0 else (lo, b0)
        nxt = b0 - g / slope if slope > 0.0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        b0, moved = nxt, abs(nxt - b0)
        if moved <= _INTERCEPT_XTOL:
            break
    return replace(scenario, beta_true=(float(b0),) + scenario.beta_true[1:])


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


# [covariates] keys of a scenario file: a weight per population group, in
# GROUP_ORDER, and every scalar field of CovariateSpec
_GROUP_KEYS = tuple(f"group_{g.name.lower()}" for g in GROUP_ORDER)
_SCALAR_KEYS = tuple(f.name for f in fields(CovariateSpec) if f.name != "group_probs")

SCENARIO_KEYS = {
    "scenario": ("n", "seed", "outcome_label"),
    "generating_assay": ASSAY_KEYS,
    "analysis_assay": ASSAY_KEYS,
    "coefficients": COLUMN_ORDER,
    "covariates": (*_GROUP_KEYS, *_SCALAR_KEYS),
}


def read_scenario(source):
    """Parse a scenario definition from a key = value file; any fault in it is a SchemaError."""
    ini = read_ini(source, "scenario", SCENARIO_KEYS)
    try:
        return _scenario_from(ini)
    except KeyError as exc:  # a required section, or n or the intercept
        raise SchemaError(f"scenario file lacks {exc}") from None
    except ValueError as exc:
        raise SchemaError(f"bad scenario value: {exc}") from exc


def _scenario_from(ini):
    base = ini["scenario"]
    gen = AssayProfile(*assay_settings(ini["generating_assay"]).values())
    analysis = None
    if ini.has_section("analysis_assay"):
        analysis = AssayProfile(*assay_settings(ini["analysis_assay"]).values())

    coef = {k: float(v) for k, v in ini["coefficients"].items()}
    covariates = tuple(c for c in COLUMN_ORDER[1:] if c in coef)
    beta = (coef["intercept"],) + tuple(coef[c] for c in covariates)

    block = {k: float(v) for k, v in (ini["covariates"].items() if "covariates" in ini else ())}
    spec_kwargs = {k: v for k, v in block.items() if k in _SCALAR_KEYS}
    if any(k in _GROUP_KEYS for k in block):  # weights not given keep their default share
        weights = [block.get(k, p) for k, p in zip(_GROUP_KEYS, CovariateSpec().group_probs)]
        total = sum(weights)
        if not total > 0:
            raise ValueError(f"group weights must have a positive sum, got {total}")
        spec_kwargs["group_probs"] = tuple(w / total for w in weights)

    return SimScenario(
        n=int(base["n"]),
        beta_true=beta,
        assay_true=gen,
        covariates=covariates,
        covariate_spec=CovariateSpec(**spec_kwargs),
        analysis_assay=analysis,
        seed=int(base.get("seed", "0")),
        outcome_label=base.get("outcome_label", "SIM"),
    )


def load_bundled_scenario(name="demo_cohort"):
    """Read one of the scenario files shipped inside the package."""
    ref = resources.files("misclass_prev").joinpath(f"scenarios/{name}.ini")
    with ref.open("r", encoding="utf-8") as fh:
        return read_scenario(fh)


# ---------------------------------------------------------------------------
# Replication studies
# ---------------------------------------------------------------------------

ESTIMATOR_NAMES = ("observed", "rg", "std", "liu", "bc", "bec")
_PERFECT_ASSAY = AssayProfile(sensitivity=1.0, specificity=1.0)
# The sampler of a study's Bayesian estimators, unless the caller sets one.
STUDY_SAMPLER = SamplerConfig(chains=2, warmup=800, samples=800)


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator to run on every replicate."""

    name: str
    assay: AssayProfile = None  # analysis assay; defaults to the scenario's
    sampler: SamplerConfig = STUDY_SAMPLER

    def __post_init__(self):
        if self.name not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator {self.name!r}; valid: {ESTIMATOR_NAMES}")


@dataclass(frozen=True)
class ReplicationSummary:
    """One estimator's study results; its fields in order are the study table's columns."""

    estimator: str
    reps: int
    failures: int
    failure_rate: float = field(init=False)
    mean_bias: float
    coverage: float
    mean_width: float

    def __post_init__(self):
        object.__setattr__(self, "failure_rate", self.failures / self.reps)


def _run_estimator(spec, y, X, scenario, seed):
    """Returns (point, lower, upper); raises StatisticalError on statistical failure.

    ``observed`` is the crude Wald interval, the Rogan-Gladen one under a
    perfect assay; STD and LIU (both rates free) take delta intervals;
    every model uses the assay's point values. All intervals are 95%.
    """
    assay = (spec.assay or scenario.analysis_assay or scenario.assay_true).point_profile()
    if spec.name in ("observed", "rg"):
        crude = _PERFECT_ASSAY if spec.name == "observed" else assay
        est = rogan_gladen_interval(int(y.sum()), y.shape[0], crude)
        return est.p_adj, est.lower, est.upper

    _, est, _ = estimate(
        spec.name.upper(),
        y,
        X,
        assay,
        seed,
        sampler=spec.sampler,
        interval=IntervalMethod.DELTA,
    )
    return est.point, est.lower, est.upper


def _run_replicate(scenario, specs, rep_index):
    sim_rng = np.random.default_rng([int(scenario.seed), int(rep_index), 0])
    cohort, truth = simulate(scenario, rng=sim_rng)
    X = build_design_matrix(cohort, columns=scenario.covariates)
    y = cohort.outcomes()
    results = []
    for k, spec in enumerate(specs):
        est_seed = int(
            np.random.SeedSequence([int(scenario.seed), int(rep_index), 1000 + k]).generate_state(1)[0]
        )
        try:
            point, lower, upper = _run_estimator(spec, y, X, scenario, est_seed)
            results.append((True, point, lower, upper))
        except StatisticalError as exc:  # failures are data here; bugs still crash
            log.warning("replicate %d estimator %s failed: %s", rep_index, spec.name, exc)
            results.append((False, math.nan, math.nan, math.nan))
    return truth.true_prevalence, results


def _worker(payload):
    scenario, specs, rep_index = payload
    return _run_replicate(scenario, specs, rep_index)


def resolve_workers(requested, reps):
    """Worker count for a study of ``reps`` replicates: the request, or 1
    (serial) when None, capped by ``reps`` and ``os.cpu_count()``."""
    if requested is not None and requested < 1:
        raise InputError(f"workers must be at least 1, got {requested}")
    return min(requested or 1, reps, os.cpu_count() or 1)


def replicate_study(scenario, estimators, reps, workers=None):
    """Run every estimator on ``reps`` fresh cohorts and summarize.

    Each replicate owns seed streams derived from (scenario seed,
    replicate index), so results do not depend on scheduling; statistical
    failures are counted per estimator and excluded from the
    bias/coverage/width averages, and any other exception propagates.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    specs = tuple(estimators)
    workers = resolve_workers(workers, reps)

    outcomes = [None] * reps
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            payloads = [(scenario, specs, r) for r in range(reps)]
            for r, res in enumerate(pool.map(_worker, payloads)):
                outcomes[r] = res
    else:
        for r in range(reps):
            outcomes[r] = _run_replicate(scenario, specs, r)

    summaries = []
    for k, spec in enumerate(specs):
        biases, widths, covered = [], [], []
        failures = 0
        for truth_prev, results in outcomes:
            ok, point, lower, upper = results[k]
            if not ok:
                failures += 1
                continue
            biases.append(point - truth_prev)
            widths.append(upper - lower)
            covered.append(lower <= truth_prev <= upper)
        if biases:
            mean_bias = float(np.mean(biases))
            coverage = float(np.mean(covered))
            mean_width = float(np.mean(widths))
        else:
            mean_bias = coverage = mean_width = math.nan
        summaries.append(
            ReplicationSummary(
                estimator=spec.name,
                reps=reps,
                failures=failures,
                mean_bias=mean_bias,
                coverage=coverage,
                mean_width=mean_width,
            )
        )
    return summaries
