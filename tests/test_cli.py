"""Command line behavior: exit codes, artifact layout, determinism."""

import contextlib
import csv
import io
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misclass_prev.cli import STUDY_DEFAULTS, build_parser, main
from misclass_prev.data_model import (
    AssayProfile,
    PopulationGroup,
    SubjectRecord,
    Cohort,
    save_cohort,
)
from misclass_prev.mcmc import SamplerConfig
from misclass_prev.simulate import (
    STUDY_SAMPLER,
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

    @pytest.mark.parametrize("name", ["my.cfg", "my_scenario"])
    def test_scenario_file_is_read_whatever_its_suffix(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path(name).write_text(SCENARIO_INI)
        assert main(["simulate", "--scenario", name, "--out", "x.csv"]) == 0
        assert len(read_rows(tmp_path / "x.csv")) == 401

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

    def test_package_and_fitting_commands_leave_scipy_unimported(
        self, liu_cohort_file, scenario_file, tmp_path
    ):
        # the fits are numpy throughout, the bootstrap refits included, and
        # the cohort draw is math, statistics and numpy; no interval loads
        # numpy.ma, which np.quantile imports on its first call
        assay = ["--se", "0.964", "--sp", "0.974", "--bootstrap", "20", "--seed", "5"]
        chains = ["--chains", "2", "--warmup", "200", "--samples", "200"]
        compare = ["compare", "--data", liu_cohort_file, "--models", "std,liu,bc,bec", *assay,
                   *chains, "--allow-nonconverged", "--out", str(tmp_path / "cmp.csv")]  # fmt: skip
        fit = ["fit", "--data", liu_cohort_file, "--model", "LIU", *assay,
               "--out", str(tmp_path / "fit.csv")]  # fmt: skip
        cohort = ["simulate", "--scenario", scenario_file, "--out", str(tmp_path / "sim.csv")]
        study = ["simulate", "--scenario", scenario_file, "--reps", "2", "--workers", "1",
                 "--estimators", "observed,rg,std,liu,bc,bec", *chains, "--format", "csv",
                 "--out", str(tmp_path / "study.csv")]  # fmt: skip
        report = ["report", "--in", str(tmp_path / "study.csv"), "--out", str(tmp_path / "study.txt")]
        code = (
            "import sys\n"
            "def check(after):\n"
            "    loaded = sorted(m for m in sys.modules if f'{m}.'.startswith(('scipy.', 'numpy.ma.')))\n"
            "    assert not loaded, f'{after} imported {loaded[:3]}'\n"
            "import misclass_prev\n"
            "check('import misclass_prev')\n"
            "from misclass_prev.cli import main\n"
            f"assert main({compare!r}) == 0\n"
            "check('compare')\n"
            f"assert main({fit!r}) == 0\n"
            "check('fit --model LIU')\n"
            f"assert main({cohort!r}) == 0\n"
            "check('simulate')\n"
            f"assert main({study!r}) == 0\n"
            "check('simulate --reps')\n"
            f"assert main({report!r}) == 0\n"
            "check('report')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for name in ("cmp.csv", "fit.csv", "sim.csv", "study.csv", "study.txt"):
            assert (tmp_path / name).exists()


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

    # fit --model takes any case, as compare --models does
    @pytest.mark.parametrize("model", ["STD", "LIU", "BC", "BEC", "std", "Bec"])
    def test_fit_prevalence_equals_the_compare_row(self, model, liu_cohort_file, tmp_path):
        fit_out, cmp_out = tmp_path / "fit.csv", tmp_path / "cmp.csv"
        argv = ["--data", liu_cohort_file] + self.ARGS
        assert main(["fit", "--model", model] + argv + ["--out", str(fit_out)]) == 0
        assert main(["compare", "--models", model.lower()] + argv + ["--out", str(cmp_out)]) == 0
        fit_rows = {r[0]: r[1] for r in read_rows(fit_out)[1:]}
        cmp_row = next(r for r in read_rows(cmp_out) if r[0] == model.upper())
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
            ["fit", "--data", "DATA", "--model", "BEC", *ASSAY, "--se-prior-n", "0"],
            ["simulate", "--scenario", "SCENARIO", "--reps", "2", "--se", "0.8"],
            ["compare", "--data", "DATA", "--models", ",", *ASSAY],
            ["simulate", "--scenario", "SCENARIO", "--reps", "2", "--estimators", ","],
            ["compare", "--data", "DATA", "--models", "std,bc,STD", *ASSAY],
            ["simulate", "--scenario", "SCENARIO", "--reps", "2", "--estimators", "rg,rg"],
            ["simulate", "--scenario", "SCENARIO", "--out", "OUT", "--estimators", "std"],
            ["simulate", "--scenario", "SCENARIO", "--out", "OUT", "--workers", "1"],
            ["simulate", "--scenario", "SCENARIO", "--out", "OUT", "--se", "0.8"],
            ["simulate", "--scenario", "SCENARIO", "--out", "OUT", "--sp", "0.9"],
            ["simulate", "--scenario", "SCENARIO", "--out", "OUT", "--chains", "2"],
            ["simulate", "--scenario", "SCENARIO", "--out", "OUT", "--warmup", "800"],
            ["simulate", "--scenario", "SCENARIO", "--out", "OUT", "--samples", "800"],
            ["simulate", "--scenario", "SCENARIO", "--out", "OUT", "--format", "csv"],
            ["fit", "--data", "DATA", "--model", "STD", *ASSAY, "--seed", "-1"],
            ["compare", "--data", "DATA", "--models", "std", *ASSAY, "--seed", "-3"],
            ["simulate", "--scenario", "SCENARIO", "--out", "OUT", "--seed", "-1"],
            ["simulate", "--scenario", "NEG_SEED_SCENARIO", "--out", "OUT"],
            ["fit", "--data", "DATA", "--model", "BEC", *ASSAY, "--se-prior-n", "nan"],
            ["fit", "--data", "DATA", "--model", "BEC", *ASSAY, "--sp-prior-n", "inf"],
            ["report", "--in", "SHORT_ROW"],
            ["report", "--in", "LONG_ROW"],
            ["report", "--in", "HUGE_FIELD"],
            ["fit", "--data", "DATA_NOT_UTF8", "--model", "STD", *ASSAY],
            ["fit", "--data", "DATA_HUGE_FIELD", "--model", "STD", *ASSAY],
            ["fit", "--data", "DATA_LONG_ROW", "--model", "STD", *ASSAY],
            ["fit", "--data", "DATA", "--config", "CONFIG_NOT_UTF8", "--model", "STD", *ASSAY],
            ["fit", "--data", "DATA", "--config", "CONFIG_NO_SECTION", "--model", "STD", *ASSAY],
            ["fit", "--data", "DATA", "--config", "CONFIG_UNKNOWN_KEY", "--model", "BEC"],
            ["fit", "--data", "DATA", "--config", "CONFIG_UNKNOWN_SECTION", "--model", "STD", *ASSAY],
            ["fit", "--data", "DATA", "--config", "CONFIG_TWO_BLOCKS", "--model", "BEC"],
            ["simulate", "--scenario", "SCENARIO_NOT_UTF8", "--out", "OUT"],
            ["simulate", "--scenario", "SCENARIO_NO_SECTION", "--out", "OUT"],
            ["simulate", "--scenario", "SCENARIO_UNKNOWN_KEY", "--out", "OUT"],
            ["simulate", "--scenario", "MISSING_SCENARIO", "--out", "OUT"],
            ["simulate", "--scenario", "no_such_thing", "--out", "OUT"],
            ["fit", "--data", "DATA", "--model", "STD", *ASSAY, "--save-draws", "OUT"],
            ["simulate", "--scenario", "SCENARIO", "--reps", "1", "--truth-out", "OUT"],
        ],
        ids=[
            "chains",
            "warmup",
            "bootstrap",
            "compare-chains",
            "study-chains",
            "reps",
            "workers",
            "se-prior-n",
            "study-se-alone",
            "compare-no-models",
            "study-no-estimators",
            "compare-repeated-model",
            "study-repeated-estimator",
            "cohort-estimators",
            "cohort-workers",
            "cohort-se",
            "cohort-sp",
            "cohort-chains",
            "cohort-warmup",
            "cohort-samples",
            "cohort-format",
            "fit-negative-seed",
            "compare-negative-seed",
            "simulate-negative-seed",
            "scenario-negative-seed",
            "se-prior-n-nan",
            "sp-prior-n-inf",
            "report-short-row",
            "report-long-row",
            "report-huge-field",
            "data-not-utf8",
            "data-huge-field",
            "data-long-row",
            "config-not-utf8",
            "config-no-section",
            "config-unknown-key",
            "config-unknown-section",
            "config-two-blocks-one-outcome",
            "scenario-not-utf8",
            "scenario-no-section",
            "scenario-unknown-key",
            "scenario-missing-file",
            "scenario-unknown-name",
            "fit-save-draws-std",
            "study-truth-out",
        ],
    )
    def test_bad_value_is_a_one_line_input_error(
        self, argv, cohort_file, scenario_file, tmp_path, capsys
    ):
        neg_seed = tmp_path / "neg_seed.ini"
        neg_seed.write_text(SCENARIO_INI.replace("seed = 21", "seed = -1"))
        (tmp_path / "short.csv").write_text("a,b,c\n1,2\n")
        (tmp_path / "long.csv").write_text("a,b\n1,2\n3,4,5\n")
        # one quoted cell past the csv module's 131,072-character field limit
        (tmp_path / "huge.csv").write_text(f'a,b\n1,"{"x" * 200_000}"\n')
        header = "outcome,age,sex,other_sti,hepb,group\n"
        files = {
            "DATA_NOT_UTF8": header.encode() + b"1,30,1,0,0,msm\xff\n",
            "DATA_HUGE_FIELD": f'{header}1,"{"9" * 200_000}",1,0,0,msm\n'.encode(),
            "DATA_LONG_ROW": f"{header}1,30,1,0,0,msm\n0,40,0,0,0,msm,7\n".encode(),
            "CONFIG_NOT_UTF8": b"[assay]\nse = 0.9\xff\nsp = 0.95\n",
            "CONFIG_NO_SECTION": b"se = 0.9\nsp = 0.95\n",
            # se_prior meant as se_prior_n would leave BEC in fixed mode
            "CONFIG_UNKNOWN_KEY": b"[assay]\nse = 0.9\nsp = 0.95\nse_prior = 50\n",
            "CONFIG_UNKNOWN_SECTION": b"[colums]\noutcome = outcome\n",
            # the later block used to replace the earlier one without a word
            "CONFIG_TWO_BLOCKS": b"[assay.HIV]\nse = 0.9\nsp = 0.95\n[assay.hiv]\nse = 0.8\n"
            b"sp = 0.99\n",
            "SCENARIO_NOT_UTF8": SCENARIO_INI.replace("SIM", "S\xc9").encode("latin-1"),
            "SCENARIO_NO_SECTION": SCENARIO_INI.replace("[scenario]\n", "").encode(),
            "SCENARIO_UNKNOWN_KEY": SCENARIO_INI.replace("sp = 0.95", "sp = 0.95\nse_n = 50").encode(),
        }
        paths = {name: str(tmp_path / (name + (".csv" if "DATA" in name else ".ini"))) for name in files}
        for name, data in files.items():
            Path(paths[name]).write_bytes(data)
        paths |= {
            "DATA": cohort_file,
            "SCENARIO": scenario_file,
            "NEG_SEED_SCENARIO": str(neg_seed),
            "OUT": str(tmp_path / "x.csv"),
            "SHORT_ROW": str(tmp_path / "short.csv"),
            "LONG_ROW": str(tmp_path / "long.csv"),
            "HUGE_FIELD": str(tmp_path / "huge.csv"),
            "MISSING_SCENARIO": str(tmp_path / "missing.cfg"),
        }
        assert main([paths.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert [line for line in lines if line.startswith("input error:")] == lines[-1:], err
        assert not Path(paths["OUT"]).exists()  # the error comes before any output
        if "MISSING_SCENARIO" in argv:  # the reason names the file given, not a package path
            assert paths["MISSING_SCENARIO"] in lines[-1]
        if "no_such_thing" in argv:  # and an unknown bundled name lists the bundled ones
            assert "demo_cohort" in lines[-1]


class TestSamplerDefaults:
    """The sampler's defaults are SamplerConfig's, and the study's STUDY_SAMPLER's."""

    FLAGS = ("chains", "warmup", "samples")

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--data", "x.csv", "--model", "BC"],
            ["compare", "--data", "x.csv"],
        ],
        ids=["fit", "compare"],
    )
    def test_fit_and_compare_take_sampler_config_defaults(self, argv):
        args = build_parser().parse_args(argv)
        default = SamplerConfig()
        assert {f: getattr(args, f) for f in self.FLAGS} == {
            f: getattr(default, f) for f in self.FLAGS
        }

    def test_study_defaults_are_the_study_sampler(self):
        assert {f: STUDY_DEFAULTS[f] for f in self.FLAGS} == {
            f: getattr(STUDY_SAMPLER, f) for f in self.FLAGS
        }


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


# Flag values for the property test below: each flag's valid values, and
# values each flag must refuse as an input error.
NAN, INF = float("nan"), float("inf")
BAD_RATES = (NAN, INF, -INF, 0.0, -0.9, 0.5, 1.5)
VALID_FIT_FLAGS = {
    "--seed": st.integers(0, 2**70),
    # 1.0 is valid too, but not with a prior: its Beta shape would be 0
    "--se": st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    "--sp": st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    "--se-prior-n": st.none() | st.floats(1e-3, 1e7),
    "--sp-prior-n": st.none() | st.floats(1e-3, 1e7),
    "--bootstrap": st.integers(1, 20),
    "--chains": st.integers(2, 4),
    "--warmup": st.integers(100, 250),
    "--samples": st.integers(100, 250),
}
BAD_FIT_FLAGS = {
    "--seed": st.integers(-(2**70), -1),
    "--se": st.sampled_from(BAD_RATES),
    "--sp": st.sampled_from(BAD_RATES),
    "--se-prior-n": st.sampled_from((NAN, INF, -INF, 0.0, -10.0)),
    "--sp-prior-n": st.sampled_from((NAN, INF, -INF, 0.0, -10.0)),
    "--bootstrap": st.integers(-5, 0),
    "--chains": st.integers(-2, 1),
    "--warmup": st.integers(-5, 99),
    "--samples": st.integers(-5, 99),
}
STUDY_FLAGS = ("--seed", "--se", "--sp")
VALID_STUDY_FLAGS = {
    **{flag: VALID_FIT_FLAGS[flag] for flag in STUDY_FLAGS},
    "--reps": st.integers(1, 3),
    "--workers": st.none() | st.integers(1, 3),
}
BAD_STUDY_FLAGS = {
    **{flag: BAD_FIT_FLAGS[flag] for flag in STUDY_FLAGS},
    "--reps": st.integers(-3, 0),
    "--workers": st.integers(-3, 0),
}


MODEL_NAMES = ("std", "liu", "bc", "bec")
UNKNOWN_MODELS = ("xyz", "rg", "observed", "st d", "bc2", "-")
VARIANTS = ("both", "fp", "fn", "equal")
BAD_VARIANTS = ("BOTH", "Fp", "none", "", "both,fp")


@st.composite
def model_lists(draw):
    """A ``--models`` value, and whether it is broken.

    Distinct model names in any case, then at most one fault: an empty
    entry (harmless), an unknown name, a name repeated in another case,
    or no name at all.
    """
    names = draw(st.lists(st.sampled_from(MODEL_NAMES), min_size=1, max_size=4, unique=True))
    spellings = [draw(st.sampled_from((n, n.upper(), n.capitalize(), f" {n} "))) for n in names]
    fault = draw(st.sampled_from((None, None, None, "empty", "unknown", "repeat", "none")))
    extra = {
        "empty": st.sampled_from(("", " ")),
        "unknown": st.sampled_from(UNKNOWN_MODELS),
        "repeat": st.sampled_from(names).map(str.upper),
    }.get(fault)
    if extra is not None:
        spellings.insert(draw(st.integers(0, len(spellings))), draw(extra))
    if fault == "none":
        spellings = draw(st.lists(st.sampled_from(("", " ")), max_size=3))
    return ",".join(spellings), fault in ("unknown", "repeat", "none")


@st.composite
def flag_values(draw, valid, bad):
    """Valid values for every flag, then up to two of them made invalid;
    returns the values and whether any is invalid."""
    values = {flag: draw(strategy) for flag, strategy in valid.items()}
    broken = draw(st.lists(st.sampled_from(sorted(bad)), max_size=2, unique=True))
    for flag in broken:
        values[flag] = draw(bad[flag])
    return values, bool(broken)


def run_flags(argv, values):
    """Exit code and stderr of ``main`` in process; ``flag=value`` keeps '-inf' a value."""
    argv = argv + [f"{flag}={value}" for flag, value in values.items() if value is not None]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A 300-row cohort whose fits mostly succeed, and a 300-row study scenario."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = CovariateSpec(group_probs=(0.2,) * 5, other_sti_rate=0.2, hepb_rate=0.2)
    sc = SimScenario(
        n=300,
        beta_true=(-3.0, 0.05, 1.5),
        assay_true=AssayProfile(sensitivity=0.9, specificity=0.95),
        covariates=("age", "sex"),
        covariate_spec=spec,
        seed=1,
    )
    cohort, _ = simulate(sc)
    save_cohort(cohort, root / "cohort.csv")
    groups = "".join(f"group_{g.name.lower()} = 1\n" for g in PopulationGroup)
    scenario = SCENARIO_INI.replace("n = 400", "n = 300")
    covariates = f"hepb_rate = 0.2\nother_sti_rate = 0.2\n{groups}"
    scenario = scenario.replace("hepb_rate = 0.05\n", covariates)
    (root / "study.ini").write_text(scenario)
    return str(root / "cohort.csv"), str(root / "study.ini")


class TestFlagDomains:
    """An invalid flag value exits 2; valid ones exit 0 or 3; none end in a traceback."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from(("STD", "LIU", "BC", "BEC")),
        drawn=flag_values(VALID_FIT_FLAGS, BAD_FIT_FLAGS),
    )
    def test_fit(self, fuzz_files, model, drawn):
        values, broken = drawn
        code, err = run_flags(["fit", "--data", fuzz_files[0], "--model", model], values)
        assert "Traceback" not in err
        assert code == 2 if broken else code in (0, 3), err

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(drawn=flag_values(VALID_STUDY_FLAGS, BAD_STUDY_FLAGS))
    def test_study(self, fuzz_files, drawn):
        values, broken = drawn
        argv = ["simulate", "--scenario", fuzz_files[1], "--estimators", "rg,std,liu"]
        code, err = run_flags(argv, values)
        assert "Traceback" not in err
        assert code == 2 if broken else code in (0, 3), err

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(models=model_lists(), variant=st.sampled_from(VARIANTS * 2 + BAD_VARIANTS))
    def test_compare_model_list_and_variant(self, fuzz_files, models, variant):
        text, broken = models
        argv = ["compare", "--data", fuzz_files[0], "--se", "0.9", "--sp", "0.95"]
        argv += ["--bootstrap", "5", "--chains", "2", "--warmup", "100", "--samples", "100"]
        code, err = run_flags(argv, {"--models": text, "--variant": variant})
        assert "Traceback" not in err
        assert code == 2 if broken or variant in BAD_VARIANTS else code in (0, 3), err


# Keys of a scenario file for the property test below, by section: each
# key's valid values, and values the reader must refuse. The age keys
# are drawn together (see scenario_files).
PROB = st.floats(0.0, 1.0)
BAD_PROBS = ("nan", "inf", "-0.1", "1.5", "x")
SCENARIO_KEYS = {
    "scenario": {
        "n": (st.integers(1, 40), ("0", "-3", "2.5", "x", "")),
        "seed": (st.integers(0, 2**63), ("-1", "x")),
    },
    "generating_assay": {
        "se": (st.floats(0.5, 1.0, exclude_min=True), BAD_PROBS),
        "sp": (st.floats(0.5, 1.0, exclude_min=True), BAD_PROBS),
    },
    "coefficients": {
        "intercept": (st.floats(-6.0, 2.0), ("nan", "inf", "x")),
        "age": (st.none() | st.floats(-0.2, 0.2), ("nan", "-inf")),
        "sex": (st.none() | st.floats(-3.0, 3.0), ("nan",)),
        "other_sti": (st.none() | st.floats(-3.0, 3.0), ("inf",)),
    },
    "covariates": {
        "age_mean": (st.none(), ("nan", "x")),
        "age_sd": (st.none(), ("0", "-2", "inf")),
        "age_min": (st.none(), ("nan", "-5")),
        "age_max": (st.none(), ("-inf",)),
        "male_rate": (st.none() | PROB, BAD_PROBS),
        "other_sti_rate": (st.none() | PROB, BAD_PROBS),
        "hepb_rate": (st.none() | PROB, BAD_PROBS),
        "group_msm": (st.none() | st.floats(0.0, 5.0), ("-1", "nan")),
        "group_sex_worker": (st.none() | st.floats(0.0, 5.0), ("-1",)),
    },
}


@st.composite
def scenario_files(draw):
    """The text of a scenario file, and whether a value in it is invalid.

    Every key gets a valid value or is left out (where it may be); then
    up to two values are made invalid. The age moments are set inside
    their bounds, at up to half the bounds' width for the sd, so some
    ask for what no truncated normal has and take the age solver's
    failure path.
    """
    values = {
        (section, key): draw(valid)
        for section, keys in SCENARIO_KEYS.items()
        for key, (valid, _) in keys.items()
    }
    ages = st.tuples(st.floats(0.0, 40.0), st.floats(1.0, 100.0), st.floats(0.0, 1.0), st.floats(1e-3, 0.5))
    drawn_ages = draw(st.none() | ages)
    if drawn_ages is not None:
        lo, width, at, spread = drawn_ages
        moments = {"age_min": lo, "age_max": lo + width, "age_mean": lo + at * width, "age_sd": spread * width}
        values.update({("covariates", k): v for k, v in moments.items()})
    slots = sorted(values)
    broken = draw(st.lists(st.sampled_from(slots), max_size=2, unique=True))
    for section, key in broken:
        values[section, key] = draw(st.sampled_from(SCENARIO_KEYS[section][key][1]))
    lines = []
    for section in SCENARIO_KEYS:
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for (s, k), v in values.items() if s == section and v is not None]
    return "\n".join(lines) + "\n", bool(broken)


class TestScenarioFileDomains:
    """A scenario file drawn whole: simulate exits 0, or 2 or 3 with one line, never a traceback."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(drawn=scenario_files())
    def test_simulate(self, tmp_path_factory, drawn):
        text, broken = drawn
        root = tmp_path_factory.mktemp("scenario")
        (root / "s.ini").write_text(text)
        argv = ["simulate", "--scenario", str(root / "s.ini"), "--out", str(root / "c.csv")]
        code, err = run_flags(argv, {})
        assert "Traceback" not in err
        reasons = [line for line in err.splitlines() if line.startswith(("input error:", "statistical error:"))]
        if broken:
            assert code == 2, text
        assert code in (0, 2, 3), err
        assert reasons == (err.splitlines()[-1:] if code else []), err


# Keys of an analysis config for the property test below, by section:
# each key's valid values, and values the reader must refuse (None: the
# key is left out). The fuzz cohort has the canonical column names.
BAD_ACCURACY = (None, "nan", "0.4", "1.5", "x", "")
BAD_PRIOR_SIZES = ("0", "-1", "nan", "inf", "x")
ASSAY_BLOCK = {
    "se": (st.floats(0.55, 0.999), BAD_ACCURACY),
    "sp": (st.floats(0.55, 0.999), BAD_ACCURACY),
    "se_prior_n": (st.none() | st.floats(1.0, 1e4), BAD_PRIOR_SIZES),
    "sp_prior_n": (st.none() | st.floats(1.0, 1e4), BAD_PRIOR_SIZES),
}
CONFIG_KEYS = {
    "columns": {f: (st.none() | st.just(f), ("nope", "")) for f in ("outcome", "age", "group")},
    "assay": ASSAY_BLOCK,
    "assay.outcome": ASSAY_BLOCK,
}
# lines that no value makes valid: an unknown key or section
UNKNOWN_LINES = (
    ("assay", "se_prior = 50"),
    ("assay.outcome", "sp_prior = 50"),
    ("columns", "height = age"),
    ("colums", "outcome = outcome"),
    ("assay_hiv", "se = 0.9"),
)


@st.composite
def config_files(draw):
    """The text of an analysis config, and whether something in it is invalid.

    ``[columns]`` and ``[assay]`` are always there and ``[assay.outcome]``
    sometimes; every key gets a valid value or is left out (where it may
    be). Then up to two values are made invalid, and an unknown key or
    section may be added.
    """
    sections = ["columns", "assay"] + (["assay.outcome"] if draw(st.booleans()) else [])
    values = {
        (section, key): draw(valid)
        for section in sections
        for key, (valid, _) in CONFIG_KEYS[section].items()
    }
    broken = draw(st.lists(st.sampled_from(sorted(values)), max_size=2, unique=True))
    for section, key in broken:
        values[section, key] = draw(st.sampled_from(CONFIG_KEYS[section][key][1]))
    # one draw in three adds an unknown line
    unknown = dict(draw(st.sampled_from([[]] * 10 + [[pair] for pair in UNKNOWN_LINES])))
    lines = []
    for section in sections + [s for s in unknown if s not in sections]:
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for (s, k), v in values.items() if s == section and v is not None]
        lines += [unknown[section]] if section in unknown else []
    return "\n".join(lines) + "\n", bool(broken or unknown)


class TestConfigFileDomains:
    """A config file drawn whole: fit exits 0, or 2 or 3 with one line, never a traceback."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(drawn=config_files())
    def test_fit(self, fuzz_files, tmp_path_factory, drawn):
        text, broken = drawn
        path = tmp_path_factory.mktemp("config") / "analysis.ini"
        path.write_text(text)
        argv = ["fit", "--data", fuzz_files[0], "--config", str(path)]
        code, err = run_flags(argv + ["--model", "STD", "--interval", "delta"], {})
        assert "Traceback" not in err
        reasons = [line for line in err.splitlines() if line.startswith(("input error:", "statistical error:"))]
        if broken:
            assert code == 2, text
        assert code in (0, 2, 3), err
        assert reasons == (err.splitlines()[-1:] if code else []), err
