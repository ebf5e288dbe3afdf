"""Golden outputs: what the CLI writes at fixed seeds, compared byte for byte.

Both renderings are held: the csv files that scripts parse and the
aligned text tables that people read.

Each command below runs in process and its files are held against the
expected copies in ``tests/golden/``. The simulated demo cohort is too
large to keep (about 460 kB), so only its SHA-256 digest is stored; the
commands that read it check it downstream as well.

The commands run in a child interpreter with OpenBLAS, OpenMP and MKL
held to one thread, as ``perfbench/run.py`` runs them. A threaded BLAS
splits long reductions (a dot product over the ~11,000 cohort rows, the
score ``U.T @ r``) across threads, so their last bits, and with them the
STD and LIU rows of ``prevalence.csv``, depend on the machine's core
count; one thread makes the expected files hold on any host.

A change that alters an algorithm on purpose regenerates the expected
files with ``PYTHONPATH=src python tests/test_golden.py`` and says so in
CHANGES.md.
"""

import hashlib
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from misclass_prev.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

PRIORS = ["--se", "0.964", "--sp", "0.974", "--se-prior-n", "1000", "--sp-prior-n", "1000"]
SHORT_CHAINS = ["--chains", "2", "--warmup", "100", "--samples", "100"]

# 600 rows; the analysis block gives only one prior n, so the other
# takes its default
STUDY_INI = """\
[scenario]
n = 600
seed = 5
outcome_label = SIM

[generating_assay]
se = 0.9
sp = 0.95

[analysis_assay]
se = 0.9
sp = 0.95
se_prior_n = 500

[coefficients]
intercept = -1.8
age = 0.02
sex = 0.5
other_sti = 0.7
"""

# At seed 7, 100 draws per chain leave BEC's intercept at split R-hat
# 1.0684, so the Bayesian runs pass --allow-nonconverged and the warnings
# that report the R-hat are kept as a golden file too. The text files pin
# the aligned renderings: every compare block, the missing-models line,
# LIU's note, error-rate and prevalence lines, BEC's accuracy rows, a
# saved csv read back, and the study table.
OUTPUTS = (
    "prevalence.csv",
    "coefficients.csv",
    "standard_errors.csv",
    "compare_warnings.txt",
    "fit_bec.csv",
    "draws_bec.csv",
    "study.csv",
    "compare.txt",
    "compare_std_bc.txt",
    "fit_liu.txt",
    "fit_bec.txt",
    "report_coefficients.txt",
    "study.txt",
)


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines = []

    def emit(self, record):
        self.lines.append(f"{record.levelname} {record.name}: {record.getMessage()}\n")


def _run(*argv):
    rc = main(list(argv))
    assert rc == 0, f"{' '.join(argv[:1])} exited {rc}"


def run_commands(out):
    """Run every golden command, writing its outputs into directory ``out``."""
    out = Path(out)
    cohort = str(out / "cohort.csv")
    _run("simulate", "--scenario", "demo_cohort", "--out", cohort)

    warnings = _Warnings()
    logger = logging.getLogger("misclass_prev")
    logger.addHandler(warnings)
    try:
        _run(
            "compare", "--data", cohort, "--bootstrap", "20", *SHORT_CHAINS, *PRIORS,
            "--seed", "7", "--allow-nonconverged", "--format", "csv",
            "--coef-out", str(out / "coefficients.csv"),
            "--se-out", str(out / "standard_errors.csv"),
            "--out", str(out / "prevalence.csv"),
        )
    finally:
        logger.removeHandler(warnings)
    (out / "compare_warnings.txt").write_text("".join(warnings.lines), encoding="utf-8")

    _run(
        "fit", "--data", cohort, "--model", "BEC", *SHORT_CHAINS, *PRIORS,
        "--seed", "7", "--allow-nonconverged", "--format", "csv",
        "--save-draws", str(out / "draws_bec.csv"), "--out", str(out / "fit_bec.csv"),
    )

    compare_text = ("compare", "--data", cohort, "--bootstrap", "20", *SHORT_CHAINS, *PRIORS,
                    "--seed", "7", "--allow-nonconverged")
    _run(*compare_text, "--out", str(out / "compare.txt"))
    _run(*compare_text, "--models", "std,bc", "--out", str(out / "compare_std_bc.txt"))
    _run(
        "fit", "--data", cohort, "--model", "LIU", "--bootstrap", "20", "--seed", "7",
        "--out", str(out / "fit_liu.txt"),
    )
    _run(
        "fit", "--data", cohort, "--model", "BEC", *SHORT_CHAINS, *PRIORS,
        "--seed", "7", "--allow-nonconverged", "--out", str(out / "fit_bec.txt"),
    )
    _run(
        "report", "--in", str(out / "coefficients.csv"),
        "--out", str(out / "report_coefficients.txt"),
    )

    ini = out / "study.ini"
    ini.write_text(STUDY_INI, encoding="utf-8")
    study = ("simulate", "--scenario", str(ini), "--reps", "2", "--workers", "1",
             "--estimators", "observed,rg,std,liu,bc,bec", *SHORT_CHAINS)
    _run(*study, "--format", "csv", "--out", str(out / "study.csv"))
    _run(*study, "--out", str(out / "study.txt"))


def produce(out):
    """Run every golden command in a child interpreter with one BLAS thread,
    writing its outputs into directory ``out``; return the cohort's digest."""
    env = dict(os.environ, **ONE_BLAS_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, __file__, "--into", str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, f"golden commands exited {child.returncode}:\n{child.stderr}"
    return hashlib.sha256((Path(out) / "cohort.csv").read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    digest = produce(out)
    return out, digest


def test_simulated_cohort_matches_its_digest(produced):
    _, digest = produced
    assert digest == (GOLDEN / "cohort.csv.sha256").read_text().split()[0]


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_is_byte_identical_to_golden(produced, name):
    out, _ = produced
    got = (out / name).read_bytes()
    want = (GOLDEN / name).read_bytes()
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        first = next(
            (i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
            min(len(got_lines), len(want_lines)),
        )
        pytest.fail(
            f"{name} differs from tests/golden/{name} first at line {first + 1}:\n"
            f"  got:  {got_lines[first] if first < len(got_lines) else b'<end of file>'!r}\n"
            f"  want: {want_lines[first] if first < len(want_lines) else b'<end of file>'!r}"
        )


def regenerate():
    """Rewrite the expected files from the current tree."""
    GOLDEN.mkdir(exist_ok=True)
    digest = produce(GOLDEN)
    (GOLDEN / "cohort.csv").unlink()
    (GOLDEN / "study.ini").unlink()
    (GOLDEN / "cohort.csv.sha256").write_text(f"{digest}  cohort.csv\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--into"]:
        run_commands(sys.argv[2])
    else:
        regenerate()
