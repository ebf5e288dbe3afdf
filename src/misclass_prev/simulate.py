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
solved numerically so the truncated distribution itself matches the
requested mean and standard deviation between the bounds.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import logging
import math
import os
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np
from scipy import optimize, special, stats

from .data_model import (
    COLUMN_ORDER,
    AssayProfile,
    Cohort,
    PopulationGroup,
    SubjectRecord,
    build_design_matrix,
)
from .errors import InputError, SchemaError, StatisticalError
from .likelihoods import logistic
from .mcmc import SamplerConfig
from .mle import LiuVariant
from .rogan_gladen import IntervalMethod, rogan_gladen_interval
from .report import estimate

log = logging.getLogger(__name__)

THREADS_ENV_VAR = "MISCLASS_PREV_THREADS"

DEFAULT_COTEST_ODDS_RATIO = 5.0

# Cohort margins used as generator defaults: counts 6574 / 3248 / 224 /
# 193 / 1213 out of 11,452 for the five population groups.
_GROUP_COUNTS = (6574.0, 3248.0, 224.0, 193.0, 1213.0)
_GROUP_ORDER = (
    PopulationGroup.GENERAL,
    PopulationGroup.MSM,
    PopulationGroup.LGTBI,
    PopulationGroup.OTHER,
    PopulationGroup.SEX_WORKER,
)


def cotest_coefficient(odds_ratio=DEFAULT_COTEST_ODDS_RATIO):
    """Coefficient encoding a conditional odds ratio between co-test and status."""
    if odds_ratio <= 0:
        raise ValueError("odds ratio must be positive")
    return math.log(odds_ratio)


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
        if len(probs) != len(_GROUP_ORDER):
            raise ValueError(f"group_probs needs {len(_GROUP_ORDER)} entries")
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("group probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "group_probs", probs)
        if not (self.age_min < self.age_max and self.age_sd > 0):
            raise ValueError("age bounds must be ordered and age_sd positive")


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _truncnorm_moments(mu, sigma, lo, hi):
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    z = special.ndtr(b) - special.ndtr(a)
    if z <= 0:
        return math.nan, math.nan
    pa, pb = _phi(a), _phi(b)
    mean = mu + sigma * (pa - pb) / z
    var = sigma * sigma * (1.0 + (a * pa - b * pb) / z - ((pa - pb) / z) ** 2)
    return mean, math.sqrt(var)


_TRUNCNORM_CACHE = {}


def _calibrated_truncnorm(mean, sd, lo, hi):
    """Underlying (mu, sigma) whose truncation to [lo, hi] has the target moments."""
    key = (mean, sd, lo, hi)
    if key in _TRUNCNORM_CACHE:
        return _TRUNCNORM_CACHE[key]

    def residual(theta):
        m, s = _truncnorm_moments(theta[0], math.exp(theta[1]), lo, hi)
        if not (math.isfinite(m) and math.isfinite(s)):
            return [1e6, 1e6]
        return [m - mean, s - sd]

    sol = optimize.root(residual, [mean, math.log(sd)], method="hybr")
    mu, sigma = float(sol.x[0]), float(math.exp(sol.x[1]))
    m, s = _truncnorm_moments(mu, sigma, lo, hi)
    if not sol.success or abs(m - mean) > 1e-6 or abs(s - sd) > 1e-6:
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
        object.__setattr__(self, "beta_true", beta)

    @property
    def design_columns(self):
        return ("intercept",) + self.covariates


@dataclass(frozen=True)
class SimTruth:
    """Per-subject generative state kept aside for scoring estimators."""

    pi: np.ndarray
    true_status: np.ndarray
    true_prevalence: float


def _draw_covariates(spec, n, rng):
    """Draw covariate columns in a fixed order; returns a dict of arrays."""
    mu, sigma = _calibrated_truncnorm(spec.age_mean, spec.age_sd, spec.age_min, spec.age_max)
    lo_u = special.ndtr((spec.age_min - mu) / sigma)
    hi_u = special.ndtr((spec.age_max - mu) / sigma)
    u = lo_u + (hi_u - lo_u) * rng.random(n)
    age = mu + sigma * special.ndtri(u)
    age = np.clip(age, spec.age_min, spec.age_max)

    sex = (rng.random(n) < spec.male_rate).astype(int)
    cum = np.cumsum(spec.group_probs)
    group_idx = np.searchsorted(cum, rng.random(n), side="right")
    group_idx = np.minimum(group_idx, len(_GROUP_ORDER) - 1)
    other_sti = (rng.random(n) < spec.other_sti_rate).astype(int)
    hepb = (rng.random(n) < spec.hepb_rate).astype(int)
    return {
        "age": age,
        "sex": sex,
        "group_idx": group_idx,
        "other_sti": other_sti,
        "hepb": hepb,
    }


def _records_from_columns(cols, outcomes):
    groups = [_GROUP_ORDER[i] for i in cols["group_idx"]]
    return tuple(
        SubjectRecord(
            observed_outcome=int(y),
            age=float(a),
            sex=int(s),
            other_sti_result=int(o),
            hepb_result=int(h),
            population_group=g,
        )
        for y, a, s, o, h, g in zip(
            outcomes, cols["age"], cols["sex"], cols["other_sti"], cols["hepb"], groups
        )
    )


def simulate(scenario, rng=None):
    """Draw one cohort plus the latent truth needed to score estimators.

    Identical scenario and seed give identical output; passing an
    explicit generator overrides the scenario seed (used by replication
    studies to give each replicate its own stream).
    """
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    cols = _draw_covariates(scenario.covariate_spec, scenario.n, rng)

    placeholder = _records_from_columns(cols, np.zeros(scenario.n, dtype=int))
    X = build_design_matrix(
        Cohort(records=placeholder, outcome_label=scenario.outcome_label),
        columns=scenario.covariates,
    )
    pi = logistic(X.matrix @ np.asarray(scenario.beta_true))
    latent = (rng.random(scenario.n) < pi).astype(int)

    se = scenario.assay_true.sensitivity
    sp = scenario.assay_true.specificity
    u = rng.random(scenario.n)
    observed = np.where(latent == 1, u < se, u < 1.0 - sp).astype(int)

    cohort = Cohort(
        records=_records_from_columns(cols, observed),
        outcome_label=scenario.outcome_label,
    )
    truth = SimTruth(pi=pi, true_status=latent, true_prevalence=float(pi.mean()))
    return cohort, truth


def brute_force_prevalence(truth):
    """Fraction of latent positives, straight off the truth record."""
    return float(np.mean(truth.true_status))


def calibrate_intercept(scenario, target_prevalence, probe_n=100_000, probe_seed=7):
    """Adjust the intercept so the mean true-status probability hits a target.

    Solves on one large probe draw of covariates, so the result is
    deterministic; the per-cohort realized prevalence still varies
    binomially around the target.
    """
    if not (0.0 < target_prevalence < 1.0):
        raise ValueError("target prevalence must lie in (0, 1)")
    rng = np.random.default_rng([int(probe_seed), 0xCA11])
    cols = _draw_covariates(scenario.covariate_spec, probe_n, rng)
    placeholder = _records_from_columns(cols, np.zeros(probe_n, dtype=int))
    X = build_design_matrix(Cohort(records=placeholder), columns=scenario.covariates).matrix
    beta = np.asarray(scenario.beta_true)

    def gap(intercept):
        b = beta.copy()
        b[0] = intercept
        return float(np.mean(logistic(X @ b))) - target_prevalence

    b0 = optimize.brentq(gap, -30.0, 10.0, xtol=1e-10)
    return replace(scenario, beta_true=(float(b0),) + scenario.beta_true[1:])


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


def _assay_from_block(block):
    se = float(block["se"])
    sp = float(block["sp"])
    if "se_prior_n" in block or "sp_prior_n" in block:
        return AssayProfile.with_beta_priors(
            se,
            sp,
            se_prior_n=float(block.get("se_prior_n", 1000.0)),
            sp_prior_n=float(block.get("sp_prior_n", 1000.0)),
        )
    return AssayProfile(sensitivity=se, specificity=sp)


def read_scenario(source):
    """Parse a scenario definition from a key = value file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if hasattr(source, "read"):
            parser.read_file(source)
        else:
            with open(source, encoding="utf-8") as fh:
                parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise SchemaError(f"could not read scenario {source}: {exc}") from exc

    try:
        base = parser["scenario"]
        n = int(base["n"])
        seed = int(base.get("seed", "0"))
        label = base.get("outcome_label", "SIM").strip()
        gen = _assay_from_block(parser["generating_assay"])
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"scenario file is missing required keys: {exc}") from exc

    analysis = None
    if parser.has_section("analysis_assay"):
        analysis = _assay_from_block(parser["analysis_assay"])

    if not parser.has_section("coefficients") or "intercept" not in parser["coefficients"]:
        raise SchemaError("scenario needs a [coefficients] section with an intercept")
    coef = {k: float(v) for k, v in parser.items("coefficients")}
    unknown = [k for k in coef if k != "intercept" and k not in COLUMN_ORDER[1:]]
    if unknown:
        raise SchemaError(f"unknown coefficient names {unknown}")
    covariates = tuple(c for c in COLUMN_ORDER[1:] if c in coef)
    beta = (coef["intercept"],) + tuple(coef[c] for c in covariates)

    spec_kwargs = {}
    if parser.has_section("covariates"):
        block = dict(parser.items("covariates"))
        group_keys = {
            "group_general": 0,
            "group_msm": 1,
            "group_lgtbi": 2,
            "group_other": 3,
            "group_sex_worker": 4,
        }
        weights = None
        for k, v in block.items():
            if k in group_keys:
                if weights is None:
                    weights = list(CovariateSpec().group_probs)
                weights[group_keys[k]] = float(v)
            elif k in (
                "age_mean",
                "age_sd",
                "age_min",
                "age_max",
                "male_rate",
                "other_sti_rate",
                "hepb_rate",
            ):
                spec_kwargs[k] = float(v)
            else:
                raise SchemaError(f"unknown covariate key {k!r} in scenario")
        if weights is not None:
            total = sum(weights)
            spec_kwargs["group_probs"] = tuple(w / total for w in weights)

    return SimScenario(
        n=n,
        beta_true=beta,
        assay_true=gen,
        covariates=covariates,
        covariate_spec=CovariateSpec(**spec_kwargs),
        analysis_assay=analysis,
        seed=seed,
        outcome_label=label,
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


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator to run on every replicate."""

    name: str
    assay: AssayProfile = None  # analysis assay; defaults to the scenario's
    variant: LiuVariant = LiuVariant.BOTH_FREE
    sampler: SamplerConfig = SamplerConfig(chains=2, warmup=800, samples=800)
    conf_level: float = 0.95

    def __post_init__(self):
        if self.name not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator {self.name!r}; valid: {ESTIMATOR_NAMES}")


@dataclass(frozen=True)
class ReplicationSummary:
    estimator: str
    reps: int
    failures: int
    mean_bias: float
    coverage: float
    mean_width: float

    @property
    def failure_rate(self):
        return self.failures / self.reps


def _run_estimator(spec, y, X, scenario, seed):
    """Returns (point, lower, upper); raises StatisticalError on statistical failure.

    STD and LIU take delta intervals; every model uses the assay's point values.
    """
    assay = (spec.assay or scenario.analysis_assay or scenario.assay_true).point_profile()
    n = y.shape[0]

    if spec.name == "observed":
        z = stats.norm.ppf(0.5 + spec.conf_level / 2.0)
        point = float(y.mean())
        half = z * math.sqrt(point * (1.0 - point) / n)
        return point, max(0.0, point - half), min(1.0, point + half)

    if spec.name == "rg":
        est = rogan_gladen_interval(
            int(y.sum()), n, assay, method=IntervalMethod.WALD, conf_level=spec.conf_level
        )
        return est.p_adj, est.lower, est.upper

    _, est, _ = estimate(
        spec.name.upper(),
        y,
        X,
        assay,
        seed,
        sampler=spec.sampler,
        variant=spec.variant,
        interval=IntervalMethod.DELTA,
        conf_level=spec.conf_level,
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


def resolve_workers(requested=None, reps=None):
    """Worker count for a study: the request, or serial by default, capped by
    MISCLASS_PREV_THREADS and, given ``reps``, by ``min(reps, os.cpu_count())``."""
    if requested is not None and requested < 1:
        raise InputError(f"workers must be at least 1, got {requested}")
    cap = os.environ.get(THREADS_ENV_VAR)
    if cap is not None:
        try:
            cap = max(1, int(cap))
        except ValueError:
            raise InputError(f"{THREADS_ENV_VAR} must be an integer, got {cap!r}") from None
    wanted = requested if requested is not None else (cap or 1)
    if cap is not None:
        wanted = min(wanted, cap)
    if reps is not None:
        wanted = min(wanted, reps, os.cpu_count() or 1)
    return max(1, int(wanted))


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
