import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misclass_prev import (
    COLUMN_ORDER,
    AssayMode,
    AssayProfile,
    Cohort,
    ParseError,
    PopulationGroup,
    SchemaError,
    SubjectRecord,
    build_design_matrix,
    load_cohort,
    read_analysis_config,
    save_cohort,
)

from misclass_prev.data_model import CANONICAL_FIELDS, DEFAULT_PRIOR_N, GROUP_ORDER
from misclass_prev.simulate import calibrate_intercept, load_bundled_scenario, simulate

from conftest import make_record


class TestSubjectRecord:
    def test_valid_record(self):
        r = make_record(1, 34.0, 1, 0, 0, PopulationGroup.MSM)
        assert r.observed_outcome == 1
        assert r.population_group is PopulationGroup.MSM

    @pytest.mark.parametrize("field,value", [
        ("observed_outcome", 2),
        ("sex", -1),
        ("other_sti_result", 7),
        ("hepb_result", 0.5),
    ])
    def test_binary_fields_rejected(self, field, value):
        kwargs = dict(observed_outcome=0, age=30.0, sex=0, other_sti_result=0,
                      hepb_result=0, population_group=PopulationGroup.GENERAL)
        kwargs[field] = value
        with pytest.raises(SchemaError):
            SubjectRecord(**kwargs)

    @pytest.mark.parametrize("age", [-1.0, float("nan"), float("inf")])
    def test_bad_age_rejected(self, age):
        with pytest.raises(SchemaError):
            make_record(age=age)

    def test_group_coerced_from_string(self):
        r = make_record(group="msm")
        assert r.population_group is PopulationGroup.MSM
        r2 = make_record(group="SEX_WORKER")
        assert r2.population_group is PopulationGroup.SEX_WORKER

    def test_unknown_group_token(self):
        with pytest.raises(SchemaError):
            make_record(group="martian")


class TestCohort:
    def test_outcomes_vector(self, small_cohort):
        y = small_cohort.outcomes()
        assert y.dtype == float
        assert y.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Cohort(records=())

    def test_columns_are_read_only(self, small_cohort):
        for name in CANONICAL_FIELDS:
            with pytest.raises(ValueError):
                getattr(small_cohort, name)[0] = 1

    def test_records_view_round_trips(self, small_cohort):
        again = Cohort(records=small_cohort.records, outcome_label="HIV")
        assert again.records == small_cohort.records
        assert [r.population_group for r in again.records][:2] == [
            PopulationGroup.MSM,
            PopulationGroup.GENERAL,
        ]


GOOD_COLUMNS = dict(
    outcome=[1, 0, 1],
    age=[20.0, 35.5, 61.0],
    sex=[0, 1, 1],
    other_sti=[0, 0, 1],
    hepb=[1, 0, 0],
    group=[0, 4, 2],
)


class TestBulkValidation:
    def test_good_columns_accepted(self):
        cohort = Cohort.from_columns(**GOOD_COLUMNS)
        assert len(cohort) == 3
        assert cohort.records[1].population_group is GROUP_ORDER[4]

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("sex", [0, 2, 1], "sex must be 0 or 1"),
            ("age", [20.0, float("nan"), 61.0], "age must be finite"),
            ("age", [20.0, -1.0, 61.0], "age must be finite"),
            ("group", [0, 5, 2], "group must hold indices"),
            ("hepb", [1, 0], "equal length"),
            (None, [], "at least one record"),
        ],
        ids=["binary_2", "nan_age", "negative_age", "group_5", "unequal_lengths", "empty"],
    )
    def test_each_check_raises(self, field, value, match):
        columns = dict(GOOD_COLUMNS)
        if field is None:
            columns = {name: value for name in columns}
        else:
            columns[field] = value
        with pytest.raises(SchemaError, match=match):
            Cohort.from_columns(**columns)

    def test_caller_arrays_stay_writable(self):
        age = np.array(GOOD_COLUMNS["age"])
        Cohort.from_columns(**dict(GOOD_COLUMNS, age=age))
        age[0] = 1.0


rows = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.floats(0.0, 120.0, allow_nan=False),
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(0, len(GROUP_ORDER) - 1),
    ),
    min_size=1,
    max_size=25,
)


def _saved_bytes(cohort):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        save_cohort(cohort, path)
        return path.read_bytes()


class TestTwoEntryPoints:
    @given(rows, st.one_of(st.none(), st.sets(st.sampled_from(COLUMN_ORDER[1:]))))
    @settings(max_examples=60, deadline=None)
    def test_records_and_columns_agree(self, data, subset):
        from_records = Cohort(
            records=[
                SubjectRecord(
                    observed_outcome=y,
                    age=a,
                    sex=s,
                    other_sti_result=o,
                    hepb_result=h,
                    population_group=GROUP_ORDER[g],
                )
                for y, a, s, o, h, g in data
            ]
        )
        from_columns = Cohort.from_columns(
            **{name: [row[j] for row in data] for j, name in enumerate(CANONICAL_FIELDS)}
        )
        assert from_records.records == from_columns.records
        np.testing.assert_array_equal(from_records.outcomes(), from_columns.outcomes())
        for columns in (None, subset):
            a = build_design_matrix(from_records, columns=columns)
            b = build_design_matrix(from_columns, columns=columns)
            assert a.column_names == b.column_names
            np.testing.assert_array_equal(a.matrix, b.matrix)
        assert _saved_bytes(from_records) == _saved_bytes(from_columns)


class TestNoRecordsUntilRead:
    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        original = SubjectRecord.__post_init__

        def counted(self):
            count[0] += 1
            original(self)

        monkeypatch.setattr(SubjectRecord, "__post_init__", counted)
        return count

    def test_simulate(self, built):
        cohort, _ = simulate(load_bundled_scenario("demo_cohort"))
        assert built[0] == 0
        assert len(cohort.records) == len(cohort)
        assert built[0] == len(cohort)

    def test_calibrate_intercept(self, built):
        calibrate_intercept(load_bundled_scenario("demo_cohort"), 0.05, probe_n=5_000)
        assert built[0] == 0


class TestDesignMatrix:
    def test_canonical_layout(self, small_cohort):
        X = build_design_matrix(small_cohort)
        assert X.column_names == COLUMN_ORDER
        assert X.matrix.shape == (5, 9)
        np.testing.assert_array_equal(X.matrix[:, 0], 1.0)
        # row 0 is an msm subject aged 25
        assert X.matrix[0, 1] == 25.0
        assert X.matrix[0, COLUMN_ORDER.index("msm")] == 1.0
        # group dummies sum to at most one per row, zero for general
        dummies = X.matrix[:, 5:]
        assert set(dummies.sum(axis=1)) <= {0.0, 1.0}

    def test_column_subset(self, small_cohort):
        X = build_design_matrix(small_cohort, columns=("sex", "age"))
        assert X.column_names == ("intercept", "age", "sex")

    def test_unknown_column_rejected(self, small_cohort):
        with pytest.raises(SchemaError):
            build_design_matrix(small_cohort, columns=("height",))

    def test_matrix_write_protected(self, small_cohort):
        X = build_design_matrix(small_cohort)
        with pytest.raises(ValueError):
            X.matrix[0, 0] = 5.0


class TestCohortIO:
    def test_round_trip(self, small_cohort, tmp_path):
        path = tmp_path / "cohort.csv"
        save_cohort(small_cohort, path)
        back = load_cohort(path, outcome_label=small_cohort.outcome_label)
        assert back.records == small_cohort.records
        assert back.outcome_label == small_cohort.outcome_label

    def test_round_trip_is_byte_stable(self, small_cohort, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_cohort(small_cohort, p1)
        save_cohort(load_cohort(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_column_map(self, tmp_path):
        src = io.StringIO(
            "res,years,male,syph,hb,pop\n"
            "1,28.5,1,0,0,msm\n"
            "0,44,0,1,0,general_population\n"
        )
        cohort = load_cohort(
            src,
            column_map={
                "outcome": "res", "age": "years", "sex": "male",
                "other_sti": "syph", "hepb": "hb", "group": "pop",
            },
        )
        assert len(cohort.records) == 2
        assert cohort.records[0].age == 28.5

    def test_missing_column(self):
        src = io.StringIO("outcome,age,sex,other_sti,hepb\n1,20,1,0,0\n")
        with pytest.raises(SchemaError):
            load_cohort(src)

    def test_byte_order_mark_is_skipped(self, small_cohort, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        save_cohort(small_cohort, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_cohort(marked).records == load_cohort(plain).records

    def test_parse_error_carries_coordinates(self):
        src = io.StringIO(
            "outcome,age,sex,other_sti,hepb,group\n"
            "1,20,1,0,0,general_population\n"
            "1,twenty,1,0,0,general_population\n"
        )
        with pytest.raises(ParseError) as exc:
            load_cohort(src)
        msg = str(exc.value)
        assert "row 2" in msg and "age" in msg


class TestAssayProfile:
    def test_fixed_profile(self):
        a = AssayProfile(sensitivity=0.964, specificity=0.974)
        assert a.mode is AssayMode.FIXED
        assert a.youden == pytest.approx(0.938)

    @pytest.mark.parametrize("se,sp", [(0.4, 0.9), (0.9, 0.3), (1.2, 0.9)])
    def test_accuracy_bounds(self, se, sp):
        with pytest.raises(SchemaError):
            AssayProfile(sensitivity=se, specificity=sp)

    def test_beta_priors_match_stated_means(self):
        a = AssayProfile.with_beta_priors(0.964, 0.974, se_prior_n=1000, sp_prior_n=500)
        assert a.mode is AssayMode.BETA_PRIOR
        sa, sb = a.se_prior
        assert sa / (sa + sb) == pytest.approx(0.964, abs=1e-12)
        assert sa + sb == pytest.approx(1000.0)
        pa, pb = a.sp_prior
        assert pa + pb == pytest.approx(500.0)

    def test_settings_switch_on_priors_with_either_size(self):
        assert AssayProfile(0.964, 0.974).mode is AssayMode.FIXED
        assert AssayProfile(0.964, 0.974).se_prior is None
        a = AssayProfile("0.964", "0.974", sp_prior_n="500")
        assert a.mode is AssayMode.BETA_PRIOR
        assert a.se_prior_n == DEFAULT_PRIOR_N
        assert sum(a.se_prior) == pytest.approx(DEFAULT_PRIOR_N)
        assert sum(a.sp_prior) == pytest.approx(500.0)

    @pytest.mark.parametrize("n", [float("nan"), float("inf"), 0.0, -5.0])
    def test_prior_size_must_be_positive_and_finite(self, n):
        # nan slipped through: every comparison with it is False
        with pytest.raises(SchemaError, match="positive and finite"):
            AssayProfile.with_beta_priors(0.964, 0.974, se_prior_n=n)
        with pytest.raises(SchemaError, match="positive and finite"):
            AssayProfile(0.964, 0.974, sp_prior_n=n)

    def test_prior_on_a_perfect_value_is_rejected(self):
        # the shapes would be (n, 0): no Beta density
        with pytest.raises(SchemaError, match="positive and finite"):
            AssayProfile(1.0, 0.974, se_prior_n=100.0)


class TestAnalysisConfig:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "analysis.ini"
        cfg.write_text(
            "[columns]\noutcome = hiv_react\nage = age_years\n\n"
            "[assay]\nse = 0.90\nsp = 0.95\n\n"
            "[assay.hiv]\nse = 0.975\nsp = 0.999\nse_prior_n = 1000\nsp_prior_n = 1000\n"
        )
        got = read_analysis_config(cfg)
        assert got.column_map == {"outcome": "hiv_react", "age": "age_years"}
        assert got.assays[""]["se"] == 0.90
        assert got.assays["hiv"]["se_prior_n"] == 1000.0

    def test_unknown_field_rejected(self, tmp_path):
        cfg = tmp_path / "analysis.ini"
        cfg.write_text("[columns]\nheight = h\n")
        with pytest.raises(SchemaError):
            read_analysis_config(cfg)
