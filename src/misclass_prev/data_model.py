"""Cohort records, design matrices, assay profiles, and file ingestion.

The canonical column order for all model matrices is fixed here and
used everywhere downstream so that coefficient vectors line up across
estimators:

    intercept, age, sex, other_sti, hepb, msm, lgtbi,
    other_populations, sex_worker

Population group is dummy coded against a general-population reference,
so a five-level group contributes four columns.
"""

from __future__ import annotations

import configparser
import csv
import io
import logging
from dataclasses import dataclass, field
from enum import Enum
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


# Reference category: absorbed into the intercept, never dummy coded.
REFERENCE_GROUP = PopulationGroup.GENERAL

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

# Covariate names accepted by the simulator / subset designs
# (everything except the intercept, group dummies collapsed to "group"
# happens at the record level, not here).
COVARIATE_COLUMNS = COLUMN_ORDER[1:]

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


@dataclass(frozen=True)
class Cohort:
    """An ordered, non-empty collection of subject records."""

    records: tuple
    outcome_label: str = "outcome"

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if len(self.records) == 0:
            raise SchemaError("a cohort must contain at least one record")
        for r in self.records:
            if not isinstance(r, SubjectRecord):
                raise SchemaError(f"cohort records must be SubjectRecord, got {type(r).__name__}")

    def __len__(self):
        return len(self.records)

    def outcomes(self):
        return np.array([r.observed_outcome for r in self.records], dtype=float)


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


def build_design_matrix(cohort, columns=None):
    """Assemble the model matrix for a cohort in canonical column order.

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

    n = len(cohort)
    out = np.empty((n, len(wanted)))
    for j, name in enumerate(wanted):
        if name == "intercept":
            out[:, j] = 1.0
        elif name == "age":
            out[:, j] = [r.age for r in cohort.records]
        elif name == "sex":
            out[:, j] = [r.sex for r in cohort.records]
        elif name == "other_sti":
            out[:, j] = [r.other_sti_result for r in cohort.records]
        elif name == "hepb":
            out[:, j] = [r.hepb_result for r in cohort.records]
        else:
            group = GROUP_DUMMY_COLUMNS[name]
            out[:, j] = [1.0 if r.population_group is group else 0.0 for r in cohort.records]
    return DesignMatrix(out, wanted)


class AssayMode(Enum):
    FIXED = "fixed"
    BETA_PRIOR = "beta_prior"


@dataclass(frozen=True)
class AssayProfile:
    """Diagnostic test accuracy: known values, optionally with Beta priors.

    Sensitivity and specificity must each exceed 0.5 so the test is
    informative (positive Youden index). In BETA_PRIOR mode the prior
    shape pairs must reproduce the stated values as their means.
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
                if a <= 0 or b <= 0:
                    raise SchemaError(f"{name} shapes must be positive, got {prior}")
                if abs(a / (a + b) - target) > 1e-9:
                    raise SchemaError(
                        f"{name} mean {a / (a + b):.12f} does not match the stated value {target}"
                    )
                object.__setattr__(self, name, (a, b))
        else:
            if self.se_prior is not None or self.sp_prior is not None:
                raise SchemaError("priors are only meaningful in beta_prior mode")

    @classmethod
    def with_beta_priors(cls, sensitivity, specificity, se_prior_n=1000.0, sp_prior_n=1000.0):
        """Build a BETA_PRIOR profile from prior effective sample sizes.

        The Beta shapes are (value * n, (1 - value) * n), so the prior
        mean equals the stated value and alpha + beta equals n.
        """
        se, sp = float(sensitivity), float(specificity)
        return cls(
            sensitivity=se,
            specificity=sp,
            mode=AssayMode.BETA_PRIOR,
            se_prior=(se * se_prior_n, (1.0 - se) * se_prior_n),
            sp_prior=(sp * sp_prior_n, (1.0 - sp) * sp_prior_n),
        )

    def point_profile(self):
        """The fixed (se, sp) view of this profile, for external corrections."""
        if self.mode is AssayMode.FIXED:
            return self
        return AssayProfile(sensitivity=self.sensitivity, specificity=self.specificity)

    @property
    def youden(self):
        return self.sensitivity + self.specificity - 1.0

    @property
    def false_positive_rate(self):
        return 1.0 - self.specificity

    @property
    def false_negative_rate(self):
        return 1.0 - self.sensitivity


# ---------------------------------------------------------------------------
# CSV ingestion and serialization
# ---------------------------------------------------------------------------

CANONICAL_FIELDS = ("outcome", "age", "sex", "other_sti", "hepb", "group")


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
        return _GROUP_TOKENS[t]
    raise ParseError(f"unrecognized population group {token!r}", row=row, column=column)


def load_cohort(source, column_map=None, outcome_label="outcome"):
    """Read subject records from a delimiter-separated file.

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

    records = []
    for i, row in enumerate(reader, start=1):
        vals = {}
        for canon in ("outcome", "sex", "other_sti", "hepb"):
            vals[canon] = _parse_binary_cell(row[resolved[canon]] or "", i, resolved[canon])
        age = _parse_age_cell(row[resolved["age"]] or "", i, resolved["age"])
        group = _parse_group_cell(row[resolved["group"]] or "", i, resolved["group"])
        records.append(
            SubjectRecord(
                observed_outcome=vals["outcome"],
                age=age,
                sex=vals["sex"],
                other_sti_result=vals["other_sti"],
                hepb_result=vals["hepb"],
                population_group=group,
            )
        )
    if not records:
        raise SchemaError("input file has a header but no data rows")
    log.info("loaded %d records (outcome label %r)", len(records), outcome_label)
    return Cohort(records=tuple(records), outcome_label=outcome_label)


def save_cohort(cohort, path):
    """Write a cohort back out in canonical form; round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CANONICAL_FIELDS)
        for r in cohort.records:
            w.writerow(
                [
                    r.observed_outcome,
                    repr(r.age),
                    r.sex,
                    r.other_sti_result,
                    r.hepb_result,
                    r.population_group.value,
                ]
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
