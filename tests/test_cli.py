"""Command line behavior: exit codes, artifact layout, determinism."""

import csv
import io

import numpy as np
import pytest

from misclass_prev.cli import main
from misclass_prev.data_model import (
    AssayProfile,
    PopulationGroup,
    SubjectRecord,
    Cohort,
    save_cohort,
)
from misclass_prev.simulate import (
    CovariateSpec,
    SimScenario,
    load_bundled_scenario,
    simulate,
)

SCENARIO_INI = """\
[scenario]
n = 400
seed = 21
outcome_label = SIM

[generating_assay]
se = 0.9
sp = 0.95

[coefficients]
intercept = -2.2
age = 0.02
sex = 0.5

[covariates]
hepb_rate = 0.05
"""


@pytest.fixture(scope="module")
def cohort_file(tmp_path_factory):
    """A 600-subject cohort with real misclassification and no degenerate columns."""
    path = tmp_path_factory.mktemp("data") / "cohort.csv"
    sc = SimScenario(
        n=600,
        beta_true=(-2.2, 0.02, 0.5),
        assay_true=AssayProfile(sensitivity=0.9, specificity=0.95),
        covariates=("age", "sex"),
        covariate_spec=CovariateSpec(hepb_rate=0.05),
        seed=42,
    )
    cohort, _ = simulate(sc)
    save_cohort(cohort, path)
    return str(path)


@pytest.fixture(scope="module")
def liu_cohort_file(tmp_path_factory):
    """A cohort with enough structure to identify both error rates jointly."""
    from dataclasses import replace

    path = tmp_path_factory.mktemp("data") / "liu_cohort.csv"
    sc = replace(load_bundled_scenario("demo_cohort"), n=3000, seed=11)
    cohort, _ = simulate(sc)
    save_cohort(cohort, path)
    return str(path)


@pytest.fixture(scope="module")
def separated_file(tmp_path_factory):
    """Outcome equals sex exactly, every other column varies: clean separation."""
    path = tmp_path_factory.mktemp("data") / "separated.csv"
    rng = np.random.default_rng(77)
    groups = tuple(PopulationGroup)
    records = tuple(
        SubjectRecord(
            observed_outcome=i % 2,
            age=float(20 + (i * 7) % 40),
            sex=i % 2,
            other_sti_result=int(rng.random() < 0.3),
            hepb_result=int(rng.random() < 0.3),
            population_group=groups[i % len(groups)],
        )
        for i in range(80)
    )
    save_cohort(Cohort(records=records), path)
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SCENARIO_INI)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulateCommand:
    def test_cohort_artifacts_are_byte_identical_across_runs(self, scenario_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--scenario", scenario_file, "--out", str(a)]) == 0
        assert main(["simulate", "--scenario", scenario_file, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = read_rows(a)
        assert rows[0] == ["outcome", "age", "sex", "other_sti", "hepb", "group"]
        assert len(rows) == 401

    def test_seed_override_changes_the_cohort(self, scenario_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--scenario", scenario_file, "--out", str(a)])
        main(["simulate", "--scenario", scenario_file, "--seed", "9", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_truth_sidecar_lines_up_with_the_cohort(self, scenario_file, tmp_path):
        out, truth = tmp_path / "c.csv", tmp_path / "truth.csv"
        rc = main(
            ["simulate", "--scenario", scenario_file, "--out", str(out), "--truth-out", str(truth)]
        )
        assert rc == 0
        rows = read_rows(truth)
        assert rows[0] == ["pi", "true_status"]
        assert len(rows) == 401
        assert all(0.0 <= float(r[0]) <= 1.0 for r in rows[1:])

    def test_cohort_mode_without_out_is_an_input_error(self, scenario_file):
        assert main(["simulate", "--scenario", scenario_file]) == 2

    def test_unknown_bundled_scenario_is_an_input_error(self, tmp_path):
        rc = main(["simulate", "--scenario", "no_such_thing", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_study_mode_summarizes_estimators(self, scenario_file, tmp_path):
        out = tmp_path / "study.csv"
        rc = main(
            [
                "simulate",
                "--scenario",
                scenario_file,
                "--reps",
                "2",
                "--estimators",
                "observed,rg",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_rows(out)
        assert rows[0] == [
            "estimator",
            "reps",
            "failures",
            "failure_rate",
            "mean_bias",
            "coverage",
            "mean_width",
        ]
        assert [r[0] for r in rows[1:]] == ["observed", "rg"]
        assert all(r[1] == "2" for r in rows[1:])

        rerun = tmp_path / "study2.csv"
        main(
            [
                "simulate",
                "--scenario",
                scenario_file,
                "--reps",
                "2",
                "--estimators",
                "observed,rg",
                "--format",
                "csv",
                "--out",
                str(rerun),
            ]
        )
        assert out.read_bytes() == rerun.read_bytes()

    def test_unknown_estimator_is_an_input_error(self, scenario_file, tmp_path):
        rc = main(
            [
                "simulate",
                "--scenario",
                scenario_file,
                "--reps",
                "2",
                "--estimators",
                "magic",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2


class TestFitCommand:
    def test_std_fit_writes_parseable_table(self, cohort_file, tmp_path):
        out = tmp_path / "fit.csv"
        rc = main(
            [
                "fit",
                "--data",
                cohort_file,
                "--model",
                "STD",
                "--se",
                "0.9",
                "--sp",
                "0.95",
                "--bootstrap",
                "100",
                "--seed",
                "4",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_rows(out)
        assert rows[0] == ["coefficient", "estimate", "se"]
        names = [r[0] for r in rows[1:]]
        assert names[0] == "intercept"
        assert "marginal_prevalence" in names
        assert "prevalence_lower" in names and "prevalence_upper" in names
        for r in rows[1:]:
            float(r[1])  # every estimate parses

    def test_fit_is_deterministic_at_fixed_seed(self, cohort_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "fit",
            "--data",
            cohort_file,
            "--model",
            "STD",
            "--se",
            "0.9",
            "--sp",
            "0.95",
            "--bootstrap",
            "100",
            "--seed",
            "4",
            "--format",
            "csv",
        ]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_liu_fit_reports_error_rates(self, liu_cohort_file, tmp_path):
        out = tmp_path / "liu.csv"
        rc = main(
            [
                "fit",
                "--data",
                liu_cohort_file,
                "--model",
                "LIU",
                "--bootstrap",
                "60",
                "--seed",
                "4",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_rows(out)
        names = [r[0] for r in rows[1:]]
        assert "error_rate_r0" in names and "error_rate_r1" in names
        r0 = float(next(r[1] for r in rows[1:] if r[0] == "error_rate_r0"))
        assert 0.0 <= r0 < 0.5

    def test_liu_fit_takes_a_delta_interval(self, liu_cohort_file, tmp_path):
        out = tmp_path / "liu.txt"
        argv = ["fit", "--data", liu_cohort_file, "--model", "LIU", "--interval", "delta"]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text().rstrip().endswith("(delta)")

    def test_bec_fit_with_priors_reports_accuracy_posteriors(self, cohort_file, tmp_path):
        out = tmp_path / "bec.csv"
        draws_out = tmp_path / "draws.csv"
        rc = main(
            [
                "fit",
                "--data",
                cohort_file,
                "--model",
                "BEC",
                "--se",
                "0.9",
                "--sp",
                "0.95",
                "--se-prior-n",
                "300",
                "--sp-prior-n",
                "300",
                "--chains",
                "2",
                "--warmup",
                "600",
                "--samples",
                "4000",
                "--seed",
                "5",
                "--save-draws",
                str(draws_out),
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_rows(out)
        names = [r[0] for r in rows[1:]]
        # all nine design coefficients, then the accuracy summaries
        assert names[:2] == ["intercept", "age"]
        assert "sex_worker" in names
        assert "sensitivity" in names and "specificity" in names
        se_row = rows[1 + names.index("sensitivity")]
        assert 0.5 < float(se_row[1]) < 1.0
        draw_rows = read_rows(draws_out)
        assert draw_rows[0][-4:] == ["sensitivity", "specificity", "chain", "draw"]
        assert len(draw_rows) == 1 + 2 * 4000

    def test_missing_assay_is_an_input_error(self, cohort_file, tmp_path):
        rc = main(
            ["fit", "--data", cohort_file, "--model", "STD", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2

    def test_missing_data_file_is_an_input_error(self, tmp_path):
        rc = main(
            [
                "fit",
                "--data",
                str(tmp_path / "nope.csv"),
                "--model",
                "STD",
                "--se",
                "0.9",
                "--sp",
                "0.95",
            ]
        )
        assert rc == 2

    def test_separation_is_a_statistical_error_unless_waived(self, separated_file, tmp_path):
        argv = [
            "fit",
            "--data",
            separated_file,
            "--model",
            "STD",
            "--se",
            "0.9",
            "--sp",
            "0.95",
            "--format",
            "csv",
            "--out",
            str(tmp_path / "x.csv"),
        ]
        assert main(argv) == 3
        assert main(argv + ["--allow-nonconverged"]) == 0


class TestCompareCommand:
    ARGS = [
        "--se",
        "0.9",
        "--sp",
        "0.95",
        "--bootstrap",
        "120",
        "--chains",
        "2",
        "--warmup",
        "600",
        "--samples",
        "4000",
        "--seed",
        "5",
        "--format",
        "csv",
    ]

    def test_csv_has_crude_rows_then_models(self, cohort_file, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = main(
            ["compare", "--data", cohort_file, "--models", "std,bc"]
            + self.ARGS
            + ["--out", str(out)]
        )
        assert rc == 0
        rows = read_rows(out)
        assert rows[0][0] == "model"
        assert [r[0] for r in rows[1:]] == ["CRUDE", "CRUDE_CORRECTED", "STD", "BC"]
        crude_obs = float(rows[1][1])
        assert 0.0 < crude_obs < 1.0

    def test_compare_run_is_byte_identical_at_fixed_seed(self, cohort_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["compare", "--data", cohort_file, "--models", "std,bc"] + self.ARGS
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_model_list_is_case_insensitive(self, cohort_file, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = main(
            ["compare", "--data", cohort_file, "--models", "STD"]
            + self.ARGS
            + ["--out", str(out)]
        )
        assert rc == 0

    def test_unknown_model_is_an_input_error(self, cohort_file, tmp_path):
        rc = main(
            ["compare", "--data", cohort_file, "--models", "std,xyz"]
            + self.ARGS
            + ["--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2

    def test_extra_blocks_can_be_saved(self, cohort_file, tmp_path):
        out = tmp_path / "cmp.csv"
        coef = tmp_path / "coef.csv"
        se = tmp_path / "se.csv"
        rc = main(
            ["compare", "--data", cohort_file, "--models", "std"]
            + self.ARGS
            + ["--out", str(out), "--coef-out", str(coef), "--se-out", str(se)]
        )
        assert rc == 0
        assert read_rows(coef)[0][0] == "coefficient"
        assert read_rows(se)[0] == ["coefficient", "se_liu", "se_bec", "relative_change"]


class TestOnePipeline:
    ARGS = [
        "--se",
        "0.964",
        "--sp",
        "0.974",
        "--bootstrap",
        "60",
        "--chains",
        "2",
        "--warmup",
        "200",
        "--samples",
        "200",
        "--seed",
        "5",
        "--allow-nonconverged",
        "--format",
        "csv",
    ]

    @pytest.mark.parametrize("model", ["STD", "LIU", "BC", "BEC"])
    def test_fit_prevalence_equals_the_compare_row(self, model, liu_cohort_file, tmp_path):
        fit_out, cmp_out = tmp_path / "fit.csv", tmp_path / "cmp.csv"
        argv = ["--data", liu_cohort_file] + self.ARGS
        assert main(["fit", "--model", model] + argv + ["--out", str(fit_out)]) == 0
        assert main(["compare", "--models", model.lower()] + argv + ["--out", str(cmp_out)]) == 0
        fit_rows = {r[0]: r[1] for r in read_rows(fit_out)[1:]}
        cmp_row = next(r for r in read_rows(cmp_out) if r[0] == model)
        names = ("marginal_prevalence", "prevalence_lower", "prevalence_upper")
        assert [fit_rows[n] for n in names] == cmp_row[1:4]


class TestFlagErrors:
    ASSAY = ["--se", "0.9", "--sp", "0.95"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--data", "DATA", "--model", "BC", *ASSAY, "--chains", "1"],
            ["fit", "--data", "DATA", "--model", "BEC", *ASSAY, "--warmup", "50"],
            ["fit", "--data", "DATA", "--model", "STD", *ASSAY, "--bootstrap", "0"],
            ["compare", "--data", "DATA", "--models", "std,bc", *ASSAY, "--chains", "1"],
            ["simulate", "--scenario", "SCENARIO", "--reps", "2", "--estimators", "bc"]
            + ["--chains", "1"],
            ["simulate", "--scenario", "SCENARIO", "--reps", "0", "--out", "OUT"],
            ["simulate", "--scenario", "SCENARIO", "--reps", "2", "--workers", "0"],
        ],
        ids=["chains", "warmup", "bootstrap", "compare-chains", "study-chains", "reps", "workers"],
    )
    def test_bad_value_is_a_one_line_input_error(
        self, argv, cohort_file, scenario_file, tmp_path, capsys
    ):
        paths = {"DATA": cohort_file, "SCENARIO": scenario_file, "OUT": str(tmp_path / "x.csv")}
        assert main([paths.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if line.startswith("input error:")]) == 1


class TestReportCommand:
    def test_rerenders_saved_comparison_csv(self, cohort_file, tmp_path):
        saved = tmp_path / "cmp.csv"
        main(
            ["compare", "--data", cohort_file, "--models", "std"]
            + TestCompareCommand.ARGS
            + ["--out", str(saved)]
        )
        rendered = tmp_path / "cmp.txt"
        rc = main(["report", "--in", str(saved), "--out", str(rendered)])
        assert rc == 0
        text = rendered.read_text()
        assert text.splitlines()[0].split()[0] == "model"
        assert "CRUDE_CORRECTED" in text

    def test_missing_input_is_an_input_error(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "nope.csv")]) == 2

    def test_empty_input_is_an_input_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["report", "--in", str(empty)]) == 2


class TestConfigFile:
    def test_column_map_and_assay_block_come_from_config(self, tmp_path):
        # cohort saved with renamed outcome and age columns
        rng = np.random.default_rng(50)
        groups = tuple(PopulationGroup)
        records = tuple(
            SubjectRecord(
                observed_outcome=int(rng.random() < 0.3),
                age=float(rng.uniform(18, 70)),
                sex=int(rng.random() < 0.5),
                other_sti_result=int(rng.random() < 0.3),
                hepb_result=int(rng.random() < 0.3),
                population_group=groups[int(rng.integers(len(groups)))],
            )
            for _ in range(300)
        )
        cohort = Cohort(records=records, outcome_label="HIV")
        canonical = tmp_path / "canonical.csv"
        save_cohort(cohort, canonical)
        renamed = tmp_path / "renamed.csv"
        text = canonical.read_text().splitlines()
        text[0] = text[0].replace("outcome", "hiv_react").replace("age", "age_years")
        renamed.write_text("\n".join(text) + "\n")

        cfg = tmp_path / "analysis.ini"
        cfg.write_text(
            "[columns]\noutcome = hiv_react\nage = age_years\n\n"
            "[assay.hiv]\nse = 0.9\nsp = 0.95\n"
        )
        out = tmp_path / "fit.csv"
        rc = main(
            [
                "fit",
                "--data",
                str(renamed),
                "--config",
                str(cfg),
                "--outcome",
                "HIV",
                "--model",
                "STD",
                "--bootstrap",
                "100",
                "--seed",
                "4",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        names = [r[0] for r in read_rows(out)[1:]]
        assert "marginal_prevalence" in names

    def test_flags_override_config_assay(self, tmp_path, cohort_file):
        cfg = tmp_path / "analysis.ini"
        cfg.write_text("[assay]\nse = 0.6\nsp = 0.6\n")
        out = tmp_path / "fit.csv"
        rc = main(
            [
                "fit",
                "--data",
                cohort_file,
                "--config",
                str(cfg),
                "--model",
                "STD",
                "--se",
                "0.9",
                "--sp",
                "0.95",
                "--interval",
                "delta",
                "--seed",
                "4",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_rows(out)
        point = float(next(r[1] for r in rows[1:] if r[0] == "marginal_prevalence"))
        # corrected with youden 0.85, not the config's 0.2
        assert 0.0 < point < 0.5
