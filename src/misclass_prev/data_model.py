"""Cohorts, design matrices, assay profiles, and the file reader and writer.

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

Every file is read and written here. Input is read as UTF-8 with any
byte-order mark skipped (``read_text``): csv files as rectangular rows
(``read_csv_rows``) and key = value files against the caller's sections
and keys (``read_ini``). A file that cannot be read is a one-line
SchemaError. Output is written as UTF-8 with newlines as given
(``write_text``); a csv table goes in the same dialect, from rows of
raw cells, floats by ``repr`` so they read back exactly (``csv_text``).
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

    @cached_property
    def singular_values(self):
        """The singular values of ``rows``, computed on first use and then
        kept, so that every fit of one design checks its rank once."""
        return np.linalg.svd(self.rows, compute_uv=False)


# Grouping copies the matrix into a structured array for ``np.unique``,
# 8 bytes a cell; ``np.lexsort`` makes no such copy but pages in about
# 128 kB of its own stable-sort code. Below this many cells the copy is
# the smaller cost, above it the sort is, and it is also several times
# faster.
_LEXSORT_CELLS = 16_384


def group_rows(matrix):
    """Group a design matrix by distinct rows (a sort: O(n log n) over n rows).

    Patterns come in ``np.unique(matrix, axis=0)``'s order. A large
    matrix is sorted by one stable ``lexsort`` over the columns, first
    column first, which puts equal rows next to each other; a pattern
    starts wherever a row differs from the one before it.
    """
    if matrix.size < _LEXSORT_CELLS:
        rows, inverse, trials = np.unique(
            matrix, axis=0, return_inverse=True, return_counts=True
        )
        return CovariatePatterns(
            rows=rows, trials=trials.astype(float), inverse=inverse.reshape(-1)
        )
    n = matrix.shape[0]
    order = np.lexsort(matrix.T[::-1])
    ordered = matrix[order]
    starts = np.empty(n, dtype=bool)
    starts[:1] = True
    (ordered[1:] != ordered[:-1]).any(axis=1, out=starts[1:])
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    trials = np.diff(np.append(np.flatnonzero(starts), n)).astype(float)
    return CovariatePatterns(rows=ordered[starts], trials=trials, inverse=inverse)


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
    informative (positive Youden index). A prior effective sample size n
    for either switches on BETA_PRIOR mode (the other n is then
    ``DEFAULT_PRIOR_N``), with Beta shapes (value n, (1 - value) n).
    """

    sensitivity: float
    specificity: float
    se_prior_n: float = None
    sp_prior_n: float = None

    def __post_init__(self):
        se, sp = float(self.sensitivity), float(self.specificity)
        for name, v in (("sensitivity", se), ("specificity", sp)):
            if not (0.5 < v <= 1.0):
                raise SchemaError(f"{name} must lie in (0.5, 1], got {v}")
        if se + sp <= 1.0:
            raise SchemaError("sensitivity + specificity must exceed 1")
        object.__setattr__(self, "sensitivity", se)
        object.__setattr__(self, "specificity", sp)
        if self.se_prior_n is None and self.sp_prior_n is None:
            return
        for name in ("se_prior", "sp_prior"):
            n = getattr(self, f"{name}_n")
            object.__setattr__(self, f"{name}_n", DEFAULT_PRIOR_N if n is None else float(n))
            a, b = getattr(self, name)
            if not (0 < a < math.inf and 0 < b < math.inf):
                raise SchemaError(f"{name} shapes must be positive and finite, got {(a, b)}")

    @classmethod
    def with_beta_priors(cls, sensitivity, specificity, se_prior_n=None, sp_prior_n=None):
        """A BETA_PRIOR profile even when neither prior size is given."""
        se_n = DEFAULT_PRIOR_N if se_prior_n is None else se_prior_n
        return cls(sensitivity, specificity, se_n, sp_prior_n)

    @property
    def mode(self):
        return AssayMode.FIXED if self.se_prior_n is None else AssayMode.BETA_PRIOR

    @property
    def se_prior(self):
        """Beta shapes of the sensitivity prior; None in FIXED mode."""
        n = self.se_prior_n
        return None if n is None else (self.sensitivity * n, (1.0 - self.sensitivity) * n)

    @property
    def sp_prior(self):
        """Beta shapes of the specificity prior; None in FIXED mode."""
        n = self.sp_prior_n
        return None if n is None else (self.specificity * n, (1.0 - self.specificity) * n)

    def point_profile(self):
        """The fixed (se, sp) view of this profile, for external corrections."""
        return AssayProfile(self.sensitivity, self.specificity)

    @property
    def youden(self):
        return self.sensitivity + self.specificity - 1.0


# ---------------------------------------------------------------------------
# Files: one reader for text, csv and ini, one writer for text and csv
# ---------------------------------------------------------------------------


def read_text(source, what):
    """The text of an input file, a path or an open text file: UTF-8, any BOM skipped.

    A file that cannot be read or decoded is a one-line SchemaError
    naming ``what`` and the file.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, encoding="utf-8", newline="") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        name, reason = getattr(source, "name", source), getattr(exc, "strerror", None) or exc
        raise SchemaError(f"could not read {what} {name}: {reason}") from None
    return text.removeprefix("\ufeff")


def write_text(text, path):
    """Write ``text`` to the output file ``path`` as UTF-8, newlines untranslated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_csv_rows(source, what):
    """The rows of a csv input file as lists of strings, header first.

    Rows are yielded as read, not kept, and blank lines are skipped. A
    file the csv module refuses (a field over its size limit, say), a
    file with no rows, and a row whose cell count differs from the
    header's are one-line SchemaErrors.
    """
    reader = csv.reader(io.StringIO(read_text(source, what), newline=""))
    header = None
    try:
        for row in filter(None, reader):
            if header is None:
                header = row
            elif len(row) != len(header):
                raise SchemaError(f"{what} line {reader.line_num}: {len(row)} cells, not {len(header)}")
            yield row
    except csv.Error as exc:
        raise SchemaError(f"{what} line {reader.line_num}: {exc}") from None
    if header is None:
        raise SchemaError(f"{what} file is empty")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def csv_text(rows):
    """A table of raw cells as csv text: None as an empty cell, floats by ``repr``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def read_ini(source, what, keys):
    """A key = value input file as a ConfigParser, its sections and keys checked against ``keys``.

    ``keys`` maps each section name to the keys it may hold; a name
    ``"assay.*"`` covers ``[assay]`` and every ``[assay.<name>]``. Values
    are taken as written, without interpolation.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        parser.read_string(read_text(source, what), source=str(getattr(source, "name", source)))
    except configparser.Error as exc:  # configparser's reasons span lines
        raise SchemaError(f"could not read {what}: {' '.join(str(exc).split())}") from None
    for name in parser.sections():
        allowed = keys.get(name, keys.get(name.partition(".")[0] + ".*"))
        if allowed is None:
            raise SchemaError(f"unknown section [{name}] in {what}; valid: {sorted(keys)}")
        unknown = [k for k in parser[name] if k not in allowed]
        if unknown:
            raise SchemaError(f"unknown keys {unknown} in [{name}] of {what}; valid: {allowed}")
    return parser


# The keys of an assay block, in AssayProfile's field order.
ASSAY_KEYS = ("se", "sp", "se_prior_n", "sp_prior_n")


def assay_settings(section):
    """An assay block's numbers by ASSAY_KEYS: se and sp required, a prior size left out None."""
    missing = [k for k in ASSAY_KEYS[:2] if k not in section]
    if missing:
        raise SchemaError(f"[{section.name}] needs {' and '.join(missing)}")
    try:
        return {k: float(section[k]) if k in section else None for k in ASSAY_KEYS}
    except ValueError as exc:
        raise SchemaError(f"bad value in [{section.name}]: {exc}") from None


def _parse_binary_cell(token, row, column):
    t = token.strip()
    if t in ("0", "1"):
        return int(t)
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


# Rows parsed at a time: few enough that their tokens take little
# memory, enough that the per-chunk work is small against the cells.
_CHUNK_ROWS = 1024


def _parse_column(tokens, parse, column):
    """One column of a chunk as an array, or None if a cell in it is bad.

    Each distinct token of a 0/1 or group column is parsed once; ages
    are parsed as one array, with Python's ``float`` rules.
    """
    if parse is _parse_age_cell:
        try:
            values = np.array(tokens, dtype=float)
        except ValueError:
            return None
        return values if (np.isfinite(values) & (values >= 0.0)).all() else None
    try:
        lookup = {t: parse(t, 0, column) for t in set(tokens)}
    except ParseError:
        return None
    return np.fromiter(map(lookup.__getitem__, tokens), np.int8, len(tokens))


def _parse_chunk(rows, first, cells):
    """The columns of ``rows``, data rows ``first`` onward, one array each.

    A chunk with a bad cell is parsed again cell by cell, row by row,
    which raises the ParseError of its first bad cell in row and then
    column order.
    """
    tokens = list(zip(*rows))
    columns = [_parse_column(tokens[j], parse, column) for parse, j, column in cells]
    if any(c is None for c in columns):
        parsed = [
            [parse(row[j], i, column) for parse, j, column in cells]
            for i, row in enumerate(rows, start=first)
        ]
        columns = [np.array(values) for values in zip(*parsed)]
    return columns


def load_cohort(source, column_map=None, outcome_label="outcome"):
    """Read a cohort from a csv file, a path or an open text file, through ``read_csv_rows``.

    ``column_map`` maps canonical field names (``outcome``, ``age``,
    ``sex``, ``other_sti``, ``hepb``, ``group``) to the column names
    actually present in the file; unmapped fields default to their
    canonical names. Parse failures carry row and column coordinates,
    rows are counted from 1 at the first data row. The rows are parsed
    column by column, a chunk of them at a time as they are read.
    """
    colmap = dict(column_map or {})
    unknown = [k for k in colmap if k not in CANONICAL_FIELDS]
    if unknown:
        raise SchemaError(f"unknown canonical fields in column map: {unknown}")
    resolved = {f: colmap.get(f, f) for f in CANONICAL_FIELDS}

    rows = read_csv_rows(source, "cohort")
    header = next(rows)
    missing = [src for src in resolved.values() if src not in header]
    if missing:
        raise SchemaError(f"missing required columns: {missing}; found {header}")
    repeated = sorted({src for src in resolved.values() if header.count(src) > 1})
    if repeated:
        raise SchemaError(f"columns {repeated} appear more than once in the header")

    parsers = dict.fromkeys(_BINARY_FIELDS, _parse_binary_cell)
    parsers.update(age=_parse_age_cell, group=_parse_group_cell)
    cells = [(parse, header.index(resolved[name]), resolved[name]) for name, parse in parsers.items()]
    chunks, chunk, first = [], [], 1
    try:
        for row in rows:
            chunk.append(row)
            if len(chunk) == _CHUNK_ROWS:
                chunks.append(_parse_chunk(chunk, first, cells))
                chunk, first = [], first + _CHUNK_ROWS
    except SchemaError:
        if chunk:  # a bad cell above the bad row is met first
            _parse_chunk(chunk, first, cells)
        raise
    if chunk:
        chunks.append(_parse_chunk(chunk, first, cells))
    if not chunks:
        raise SchemaError("input file has a header but no data rows")
    columns = [np.concatenate(parts) for parts in zip(*chunks)]
    log.info("loaded %d records (outcome label %r)", len(columns[0]), outcome_label)
    return Cohort.from_columns(**dict(zip(parsers, columns)), outcome_label=outcome_label)


def save_cohort(cohort, path):
    """Write a cohort back out in canonical form; round-trips exactly."""
    groups = [g.value for g in GROUP_ORDER]
    columns = {name: getattr(cohort, name).tolist() for name in CANONICAL_FIELDS}
    columns["group"] = [groups[g] for g in columns["group"]]
    write_text(csv_text([CANONICAL_FIELDS, *zip(*columns.values())]), path)


@dataclass(frozen=True)
class AnalysisConfig:
    """Parsed contents of an analysis configuration file."""

    column_map: dict = field(default_factory=dict)
    assays: dict = field(default_factory=dict)  # keyed by lower-case outcome name


CONFIG_KEYS = {"columns": CANONICAL_FIELDS, "assay.*": ASSAY_KEYS}


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

    A bare ``[assay]`` section acts as the default for any outcome. Every
    assay block must be a valid ``AssayProfile``, whichever outcome it is for.
    Outcome names are matched stripped and lower-cased, so two blocks
    that name one outcome, such as ``[assay.HIV]`` and ``[assay.hiv]``,
    are an error.
    """
    ini = read_ini(path, "config", CONFIG_KEYS)
    column_map = dict(ini["columns"]) if ini.has_section("columns") else {}
    assays, sections = {}, {}
    for name in ini.sections():
        if name != "columns":
            settings = assay_settings(ini[name])
            AssayProfile(*settings.values())  # a broken block fails even if no outcome uses it
            outcome = name.partition(".")[2].strip().lower()
            if outcome in sections:
                raise SchemaError(
                    f"config sections [{sections[outcome]}] and [{name}] name one outcome"
                )
            assays[outcome], sections[outcome] = settings, name
    return AnalysisConfig(column_map=column_map, assays=assays)
