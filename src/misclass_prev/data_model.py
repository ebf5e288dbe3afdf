"""Cohorts, design matrices, assay profiles, and file ingestion.

A ``Cohort`` holds one read-only numpy column per field: ``outcome``,
``sex``, ``other_sti`` and ``hepb`` as 0/1, ``age`` as non-negative
floats, and ``group`` as indices into ``GROUP_ORDER``. The columns are
checked together, once, when the cohort is built, from records
(``Cohort(records=...)``) or from columns (``Cohort.from_columns``).
``cohort.records`` is a view of the same rows as ``SubjectRecord``s,
built on first read.

The canonical column order for all model matrices is fixed here and
used everywhere downstream so that coefficient vectors line up across
estimators:

    intercept, age, sex, other_sti, hepb, msm, lgtbi,
    other_populations, sex_worker

Population group is dummy coded against a general-population reference,
so a five-level group contributes four columns.

A design matrix groups its rows into covariate patterns (distinct rows,
with how many cohort rows share each) on first use and keeps them: the
likelihoods, fits and prevalence summaries all run over the patterns.
"""

from __future__ import annotations

import configparser
import csv
import io
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError

log = logging.getLogger(__name__)


class PopulationGroup(Enum):
    GENERAL = "general_population"
    MSM = "msm"
    LGTBI = "lgtbi"
    OTHER = "other_populations"
    SEX_WORKER = "sex_worker"


# The order a cohort's group indices refer to.
GROUP_ORDER = tuple(PopulationGroup)
_GROUP_INDEX = {g: i for i, g in enumerate(GROUP_ORDER)}

GROUP_DUMMY_COLUMNS = {
    "msm": PopulationGroup.MSM,
    "lgtbi": PopulationGroup.LGTBI,
    "other_populations": PopulationGroup.OTHER,
    "sex_worker": PopulationGroup.SEX_WORKER,
}

COLUMN_ORDER = (
    "intercept",
    "age",
    "sex",
    "other_sti",
    "hepb",
    "msm",
    "lgtbi",
    "other_populations",
    "sex_worker",
)

# A cohort's fields, in the order of its csv columns.
CANONICAL_FIELDS = ("outcome", "age", "sex", "other_sti", "hepb", "group")
_BINARY_FIELDS = ("outcome", "sex", "other_sti", "hepb")

_GROUP_TOKENS = {g.value: g for g in PopulationGroup}
_GROUP_TOKENS.update({g.name.lower(): g for g in PopulationGroup})


def _coerce_group(value):
    if isinstance(value, PopulationGroup):
        return value
    token = str(value).strip().lower()
    if token in _GROUP_TOKENS:
        return _GROUP_TOKENS[token]
    raise SchemaError(
        f"unrecognized population group {value!r}; expected one of "
        f"{sorted(g.value for g in PopulationGroup)}"
    )


def _check_binary(value, name):
    if value not in (0, 1):
        raise SchemaError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SubjectRecord:
    """One row of the cohort, already validated."""

    observed_outcome: int
    age: float
    sex: int
    other_sti_result: int
    hepb_result: int
    population_group: PopulationGroup

    def __post_init__(self):
        object.__setattr__(
            self, "observed_outcome", _check_binary(self.observed_outcome, "observed_outcome")
        )
        object.__setattr__(self, "sex", _check_binary(self.sex, "sex"))
        object.__setattr__(
            self, "other_sti_result", _check_binary(self.other_sti_result, "other_sti_result")
        )
        object.__setattr__(self, "hepb_result", _check_binary(self.hepb_result, "hepb_result"))
        age = float(self.age)
        if not np.isfinite(age) or age < 0:
            raise SchemaError(f"age must be a finite non-negative number, got {self.age!r}")
        object.__setattr__(self, "age", age)
        object.__setattr__(self, "population_group", _coerce_group(self.population_group))


def _validated_columns(columns):
    """The six fields of ``columns`` as read-only arrays, checked in bulk."""
    arrays = {name: np.asarray(columns[name]) for name in CANONICAL_FIELDS}
    shapes = {a.shape for a in arrays.values()}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise SchemaError(f"cohort columns must be 1-d and of equal length, got shapes {shapes}")
    if arrays["outcome"].shape[0] == 0:
        raise SchemaError("a cohort must contain at least one record")
    for name in _BINARY_FIELDS:
        if not np.all((arrays[name] == 0) | (arrays[name] == 1)):
            raise SchemaError(f"{name} must be 0 or 1 in every row")
        arrays[name] = arrays[name].astype(np.int8)
    try:
        arrays["age"] = arrays["age"].astype(float)
    except (TypeError, ValueError):
        raise SchemaError("age must be numeric in every row") from None
    if not np.all(np.isfinite(arrays["age"]) & (arrays["age"] >= 0.0)):
        raise SchemaError("age must be finite and non-negative in every row")
    group = arrays["group"]
    if group.dtype.kind not in "iu" or not np.all((group >= 0) & (group < len(GROUP_ORDER))):
        raise SchemaError(f"group must hold indices into GROUP_ORDER, 0 to {len(GROUP_ORDER) - 1}")
    arrays["group"] = group.astype(np.int8)
    for a in arrays.values():
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True, init=False, eq=False)
class Cohort:
    """An ordered, non-empty cohort: one validated, read-only column per field."""

    outcome: np.ndarray
    age: np.ndarray
    sex: np.ndarray
    other_sti: np.ndarray
    hepb: np.ndarray
    group: np.ndarray
    outcome_label: str = "outcome"

    def __init__(self, records, outcome_label="outcome"):
        rows = []
        for r in records:
            if not isinstance(r, SubjectRecord):
                raise SchemaError(f"cohort records must be SubjectRecord, got {type(r).__name__}")
            g = _GROUP_INDEX[r.population_group]
            rows.append((r.observed_outcome, r.age, r.sex, r.other_sti_result, r.hepb_result, g))
        self._set_columns(zip(*rows) if rows else [()] * len(CANONICAL_FIELDS), outcome_label)

    @classmethod
    def from_columns(cls, outcome, age, sex, other_sti, hepb, group, outcome_label="outcome"):
        """A cohort straight from its columns; ``group`` holds indices into GROUP_ORDER."""
        cohort = cls.__new__(cls)
        cohort._set_columns((outcome, age, sex, other_sti, hepb, group), outcome_label)
        return cohort

    def _set_columns(self, columns, outcome_label):
        """Validate and keep ``columns``, given in CANONICAL_FIELDS order."""
        for name, column in _validated_columns(dict(zip(CANONICAL_FIELDS, columns))).items():
            object.__setattr__(self, name, column)
        object.__setattr__(self, "outcome_label", outcome_label)

    @cached_property
    def records(self):
        """The rows as SubjectRecords, built on first read and then kept."""
        rows = zip(*(getattr(self, name).tolist() for name in CANONICAL_FIELDS))
        return tuple(SubjectRecord(y, a, s, o, h, GROUP_ORDER[g]) for y, a, s, o, h, g in rows)

    def __len__(self):
        return self.outcome.shape[0]

    def outcomes(self):
        return self.outcome.astype(float)


@dataclass(frozen=True)
class DesignMatrix:
    matrix: np.ndarray
    column_names: tuple

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if m.ndim != 2 or m.shape[1] != len(self.column_names):
            raise SchemaError("design matrix shape does not match its column names")
        if self.column_names[0] != "intercept" or not np.all(m[:, 0] == 1.0):
            raise SchemaError("first design column must be an all-ones intercept")
        dummies = [i for i, c in enumerate(self.column_names) if c in GROUP_DUMMY_COLUMNS]
        if dummies:
            rowsum = m[:, dummies].sum(axis=1)
            if not np.all((rowsum == 0.0) | (rowsum == 1.0)):
                raise SchemaError("group dummy columns must sum to 0 or 1 per row")

    @property
    def shape(self):
        return self.matrix.shape

    @cached_property
    def patterns(self):
        """The distinct rows of the matrix, grouped on first use and then kept."""
        return group_rows(self.matrix)


@dataclass(frozen=True)
class CovariatePatterns:
    """Distinct design rows, how many cohort rows share each, and which row has which.

    ``rows[inverse]`` is the design again, so per-row values sum into
    per-pattern ones with ``np.bincount(inverse, weights=...)``. A cohort
    whose rows are all distinct is the case of one trial per pattern.
    """

    rows: np.ndarray  # (m, p) distinct design rows
    trials: np.ndarray  # (m,) cohort rows per pattern, as floats
    inverse: np.ndarray  # (n,) pattern of each cohort row

    def positives(self, y):
        """Per-pattern sums of a per-row 0/1 outcome."""
        return np.bincount(self.inverse, weights=y, minlength=len(self.trials))

    def mean(self, values):
        """Row-weighted mean of one value per pattern."""
        return float(self.trials @ values) / len(self.inverse)


def group_rows(matrix):
    """Group a design matrix by distinct rows (a sort: O(n log n) over n rows)."""
    rows, inverse, trials = np.unique(
        matrix, axis=0, return_inverse=True, return_counts=True
    )
    return CovariatePatterns(rows=rows, trials=trials.astype(float), inverse=inverse.reshape(-1))


def design_patterns(X):
    """The covariate patterns of a design.

    A DesignMatrix is grouped once and the grouping kept on it, so every
    fit, bootstrap and summary of one cohort shares it; a plain array is
    taken as it stands, one trial per row.
    """
    if isinstance(X, DesignMatrix):
        return X.patterns
    rows = np.asarray(X, dtype=float)
    n = rows.shape[0]
    return CovariatePatterns(rows=rows, trials=np.ones(n), inverse=np.arange(n))


def design_from_columns(covariates, columns=None):
    """The model matrix of covariate columns, in canonical column order.

    ``covariates`` maps ``age``, ``sex``, ``other_sti``, ``hepb`` and
    ``group`` (indices into GROUP_ORDER) to one value per row.
    ``columns`` optionally restricts to a subset of the non-intercept
    columns (used by simulation scenarios with fewer active covariates);
    the intercept is always present and order is always canonical.
    """
    if columns is None:
        wanted = COLUMN_ORDER
    else:
        extra = [c for c in columns if c not in COLUMN_ORDER[1:]]
        if extra:
            raise SchemaError(f"unknown design columns {extra}; valid: {list(COLUMN_ORDER[1:])}")
        wanted = ("intercept",) + tuple(c for c in COLUMN_ORDER[1:] if c in set(columns))

    group = np.asarray(covariates["group"])
    source = {name: covariates[name] for name in ("age", "sex", "other_sti", "hepb")}
    source.update((name, group == _GROUP_INDEX[g]) for name, g in GROUP_DUMMY_COLUMNS.items())
    source["intercept"] = 1.0
    out = np.empty((group.shape[0], len(wanted)))
    for j, name in enumerate(wanted):
        out[:, j] = source[name]
    return DesignMatrix(out, wanted)


def build_design_matrix(cohort, columns=None):
    """The model matrix of a cohort; ``columns`` as in ``design_from_columns``."""
    covariates = {name: getattr(cohort, name) for name in CANONICAL_FIELDS[1:]}
    return design_from_columns(covariates, columns)


class AssayMode(Enum):
    FIXED = "fixed"
    BETA_PRIOR = "beta_prior"


# Prior effective sample size of a rate whose size is not given.
DEFAULT_PRIOR_N = 1000.0


@dataclass(frozen=True)
class AssayProfile:
    """Diagnostic test accuracy: known values, optionally with Beta priors.

    Sensitivity and specificity must each exceed 0.5 so the test is
    informative (positive Youden index). In BETA_PRIOR mode the prior
    shape pairs must be positive and finite and reproduce the stated
    values as their means.
    """

    sensitivity: float
    specificity: float
    mode: AssayMode = AssayMode.FIXED
    se_prior: tuple = None
    sp_prior: tuple = None

    def __post_init__(self):
        se, sp = float(self.sensitivity), float(self.specificity)
        for name, v in (("sensitivity", se), ("specificity", sp)):
            if not (0.5 < v <= 1.0):
                raise SchemaError(f"{name} must lie in (0.5, 1], got {v}")
        if se + sp <= 1.0:
            raise SchemaError("sensitivity + specificity must exceed 1")
        object.__setattr__(self, "sensitivity", se)
        object.__setattr__(self, "specificity", sp)
        if self.mode is AssayMode.BETA_PRIOR:
            for name, prior, target in (
                ("se_prior", self.se_prior, se),
                ("sp_prior", self.sp_prior, sp),
            ):
                if prior is None:
                    raise SchemaError(f"{name} is required in beta_prior mode")
                a, b = float(prior[0]), float(prior[1])
                if not (0 < a < math.inf and 0 < b < math.inf):
                    raise SchemaError(f"{name} shapes must be positive and finite, got {prior}")
                if abs(a / (a + b) - target) > 1e-9:
                    raise SchemaError(
                        f"{name} mean {a / (a + b):.12f} does not match the stated value {target}"
                    )
                object.__setattr__(self, name, (a, b))
        else:
            if self.se_prior is not None or self.sp_prior is not None:
                raise SchemaError("priors are only meaningful in beta_prior mode")

    @classmethod
    def with_beta_priors(cls, sensitivity, specificity, se_prior_n=None, sp_prior_n=None):
        """Build a BETA_PRIOR profile from prior effective sample sizes.

        The Beta shapes are (value * n, (1 - value) * n), so the prior
        mean equals the stated value and alpha + beta equals n; a size
        left out is ``DEFAULT_PRIOR_N``.
        """
        se, sp = float(sensitivity), float(specificity)
        se_n, sp_n = (DEFAULT_PRIOR_N if n is None else float(n) for n in (se_prior_n, sp_prior_n))
        return cls(
            sensitivity=se,
            specificity=sp,
            mode=AssayMode.BETA_PRIOR,
            se_prior=(se * se_n, (1.0 - se) * se_n),
            sp_prior=(sp * sp_n, (1.0 - sp) * sp_n),
        )

    @classmethod
    def from_settings(cls, sensitivity, specificity, se_prior_n=None, sp_prior_n=None):
        """The profile that assay settings describe: fixed unless a prior size is given."""
        if se_prior_n is None and sp_prior_n is None:
            return cls(sensitivity=float(sensitivity), specificity=float(specificity))
        return cls.with_beta_priors(sensitivity, specificity, se_prior_n, sp_prior_n)

    def point_profile(self):
        """The fixed (se, sp) view of this profile, for external corrections."""
        if self.mode is AssayMode.FIXED:
            return self
        return AssayProfile(sensitivity=self.sensitivity, specificity=self.specificity)

    @property
    def youden(self):
        return self.sensitivity + self.specificity - 1.0


# ---------------------------------------------------------------------------
# CSV ingestion and serialization
# ---------------------------------------------------------------------------

def _parse_binary_cell(token, row, column):
    t = token.strip()
    if t == "0":
        return 0
    if t == "1":
        return 1
    raise ParseError(f"expected 0 or 1, got {token!r}", row=row, column=column)


def _parse_age_cell(token, row, column):
    try:
        v = float(token)
    except ValueError:
        raise ParseError(f"could not parse age {token!r}", row=row, column=column) from None
    if not np.isfinite(v) or v < 0:
        raise ParseError(f"age must be finite and non-negative, got {token!r}", row=row, column=column)
    return v


def _parse_group_cell(token, row, column):
    t = token.strip().lower()
    if t in _GROUP_TOKENS:
        return _GROUP_INDEX[_GROUP_TOKENS[t]]
    raise ParseError(f"unrecognized population group {token!r}", row=row, column=column)


def load_cohort(source, column_map=None, outcome_label="outcome"):
    """Read a cohort from a delimiter-separated file.

    ``column_map`` maps canonical field names (``outcome``, ``age``,
    ``sex``, ``other_sti``, ``hepb``, ``group``) to the column names
    actually present in the file; unmapped fields default to their
    canonical names. Parse failures carry row and column coordinates,
    rows are counted from 1 at the first data row.
    """
    colmap = dict(column_map or {})
    unknown = [k for k in colmap if k not in CANONICAL_FIELDS]
    if unknown:
        raise SchemaError(f"unknown canonical fields in column map: {unknown}")
    resolved = {f: colmap.get(f, f) for f in CANONICAL_FIELDS}

    if hasattr(source, "read"):
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    else:
        text = Path(source).read_text(encoding="utf-8")

    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise SchemaError("input file is empty: no header row")
    missing = [src for src in resolved.values() if src not in reader.fieldnames]
    if missing:
        raise SchemaError(f"missing required columns: {missing}; found {reader.fieldnames}")

    parsers = dict.fromkeys(_BINARY_FIELDS, _parse_binary_cell)
    parsers.update(age=_parse_age_cell, group=_parse_group_cell)
    columns = {name: [] for name in parsers}
    for i, row in enumerate(reader, start=1):
        for name, parse in parsers.items():
            columns[name].append(parse(row[resolved[name]] or "", i, resolved[name]))
    if not columns["outcome"]:
        raise SchemaError("input file has a header but no data rows")
    log.info("loaded %d records (outcome label %r)", len(columns["outcome"]), outcome_label)
    return Cohort.from_columns(**columns, outcome_label=outcome_label)


def save_cohort(cohort, path):
    """Write a cohort back out in canonical form; round-trips exactly."""
    groups = [g.value for g in GROUP_ORDER]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CANONICAL_FIELDS)
        w.writerows(
            zip(
                cohort.outcome.tolist(),
                map(repr, cohort.age.tolist()),
                cohort.sex.tolist(),
                cohort.other_sti.tolist(),
                cohort.hepb.tolist(),
                [groups[g] for g in cohort.group.tolist()],
            )
        )


@dataclass(frozen=True)
class AnalysisConfig:
    """Parsed contents of an analysis configuration file."""

    column_map: dict = field(default_factory=dict)
    assays: dict = field(default_factory=dict)  # keyed by lower-case outcome name


def read_analysis_config(path):
    """Parse a key = value config file with column mapping and assay blocks.

    Layout::

        [columns]
        outcome = hiv_react     ; canonical field -> source column
        age = age_years

        [assay.hiv]
        se = 0.975
        sp = 0.999
        se_prior_n = 1000       ; optional, enables beta-prior mode
        sp_prior_n = 1000

    A bare ``[assay]`` section acts as the default for any outcome.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise SchemaError(f"could not read config {path}: {exc}") from exc

    column_map = {}
    if parser.has_section("columns"):
        for k, v in parser.items("columns"):
            if k not in CANONICAL_FIELDS:
                raise SchemaError(f"unknown canonical field {k!r} in [columns]")
            column_map[k] = v.strip()

    assays = {}
    for section in parser.sections():
        if section == "assay":
            key = ""
        elif section.startswith("assay."):
            key = section.split(".", 1)[1].strip().lower()
        else:
            continue
        block = dict(parser.items(section))
        try:
            spec = {
                "se": float(block["se"]),
                "sp": float(block["sp"]),
                "se_prior_n": float(block["se_prior_n"]) if "se_prior_n" in block else None,
                "sp_prior_n": float(block["sp_prior_n"]) if "sp_prior_n" in block else None,
            }
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"bad assay block [{section}]: {exc}") from exc
        assays[key] = spec
    return AnalysisConfig(column_map=column_map, assays=assays)
