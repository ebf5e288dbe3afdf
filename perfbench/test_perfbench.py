"""Tests of the benchmark's own yardstick and output checks (no child processes)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import ess
import run


def ar1(rng, rho, chains, n):
    e = rng.standard_normal((chains, n))
    x = np.empty_like(e)
    x[:, 0] = e[:, 0]
    for t in range(1, n):
        x[:, t] = rho * x[:, t - 1] + np.sqrt(1.0 - rho * rho) * e[:, t]
    return x


def test_ess_of_iid_draws_is_close_to_the_draw_count():
    x = np.random.default_rng(3).standard_normal((4, 2000))
    assert ess.ess_bulk(x) == pytest.approx(8000, rel=0.1)
    assert ess.ess_tail(x) == pytest.approx(8000, rel=0.2)


@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_bulk_ess_of_ar1_draws_matches_the_closed_form(rho):
    x = ar1(np.random.default_rng(5), rho, 4, 5000)
    assert ess.ess_bulk(x) == pytest.approx(20000 * (1 - rho) / (1 + rho), rel=0.15)


def test_ess_is_rank_based_so_a_monotone_transform_leaves_bulk_ess_unchanged():
    x = ar1(np.random.default_rng(7), 0.6, 4, 1000)
    assert ess.ess_bulk(np.exp(x)) == pytest.approx(ess.ess_bulk(x), rel=1e-12)


def test_ess_min_takes_the_worst_coordinate():
    rng = np.random.default_rng(11)
    draws = np.stack([rng.standard_normal((4, 1000)), ar1(rng, 0.9, 4, 1000)], axis=2)
    assert ess.ess_min(draws, [0, 1]) == pytest.approx(ess.ess_min(draws, [1]))
    assert ess.ess_min(draws, [1]) < 0.2 * ess.ess_min(draws, [0])


COMPARE_OK = """\
model,point,lower,upper,ci_width,change_vs_crude_pct,change_vs_std_pct,interval_method
CRUDE,0.06,,,,,,
CRUDE_CORRECTED,0.0362,0.0316,0.0409,0.0093,,,wald
STD,0.0362,0.0318,0.0405,0.0087,-39.6,,bootstrap
LIU,0.0784,0.0650,0.0930,0.0280,30.6,116.5,bootstrap
BC,0.0375,0.0332,0.0420,0.0088,-37.3,3.6,posterior_quantile
BEC,0.0572,0.0528,0.0618,0.0090,-4.6,58.0,posterior_quantile
"""

R = run.STUDY_REPS
STUDY_OK = f"""\
estimator,reps,failures,failure_rate,mean_bias,coverage,mean_width
observed,{R},0,0.0,0.002,0.9,0.02
rg,{R},0,0.0,-0.001,0.93,0.021
std,{R},0,0.0,-0.001,0.93,0.02
liu,{R},1,{1 / R!r},0.004,0.9,0.05
bc,{R},4,{4 / R!r},-0.001,0.92,0.02
bec,{R},2,{2 / R!r},0.0005,0.95,0.021
"""


def test_compare_check_accepts_a_well_formed_table():
    assert checks.check_compare(COMPARE_OK) == []


@pytest.mark.parametrize(
    "old,new",
    [
        ("BEC,0.0572,0.0528", "BEC,0.0512,0.0528"),  # point below its interval
        ("STD,0.0362,", "STD,0.0363,"),  # STD no longer the corrected crude value
        ("LIU,0.0784,0.0650,0.0930", "LIU,0.0552,0.0500,0.0930"),  # LIU below BEC
        ("LIU,0.0784,0.0650,0.0930", "LIU,0.0784,0.0760,0.0800"),  # LIU narrower than BEC
        ("BC,0.0375", "XX,0.0375"),  # a model missing
    ],
)
def test_compare_check_rejects_a_perturbed_table(old, new):
    assert checks.check_compare(COMPARE_OK.replace(old, new)) != []


def test_compare_check_holds_the_default_seed_to_its_reference():
    val = {}
    for line in COMPARE_OK.splitlines()[2:]:
        name, point, lower, upper = line.split(",")[:4]
        val[name] = {"point": float(point), "lower": float(lower), "upper": float(upper)}
    assert checks.check_compare(COMPARE_OK, ref=val) == []
    moved = dict(val, BEC=dict(val["BEC"], point=0.0545))
    assert checks.check_compare(COMPARE_OK, ref=moved) != []


def test_compare_check_lets_a_flagged_fit_drop_its_row_but_nothing_else():
    without_liu = "".join(line for line in COMPARE_OK.splitlines(True) if not line.startswith("LIU"))
    assert checks.check_compare(without_liu, flagged=["LIU"]) == []
    assert checks.check_compare(without_liu) != []
    without_bc = "".join(line for line in COMPARE_OK.splitlines(True) if not line.startswith("BC,"))
    assert checks.check_compare(without_bc, flagged=["BC"]) != []


def test_compare_finds_the_fits_the_cli_lets_through_unconverged(caplog):
    from misclass_prev import cli
    from misclass_prev.mle import FitResult, ModelTag

    with caplog.at_level("WARNING"):
        for tag in (ModelTag.LIU, ModelTag.BC):
            fit = FitResult(tag, np.zeros(2), None, 0.0, False, 1, condition_warning="rhat 1.06")
            cli._gate_convergence(fit, allow=True)
    assert checks.flagged_fits(caplog.text) == ["LIU", "BC"]


def test_study_check_counts_fit_failures():
    problems, frac = checks.check_study(STUDY_OK, R)
    assert problems == []
    assert frac == pytest.approx(7 / (6 * R))


@pytest.mark.parametrize(
    "old,new",
    [
        (f"bec,{R},", f"bec,{R - 1},"),  # fewer replicates than requested
        (f"rg,{R},0,", f"rg,{R},1,"),  # a closed-form estimator failed
        ("-0.001,0.93,0.02\n", "-0.001,1.93,0.02\n"),  # coverage above 1
    ],
)
def test_study_check_rejects_a_perturbed_table(old, new):
    assert old in STUDY_OK
    assert checks.check_study(STUDY_OK.replace(old, new), R)[0] != []


def test_study_check_holds_the_default_seed_to_its_reference():
    ref = {
        name: {"mean_bias": b, "coverage": c, "mean_width": w}
        for name, b, c, w in [
            ("observed", 0.002, 0.9, 0.02),
            ("rg", -0.001, 0.93, 0.021),
            ("std", -0.001, 0.93, 0.02),
        ]
    }
    assert checks.check_study(STUDY_OK, R, ref)[0] == []
    ref["std"]["mean_width"] = 0.0201
    assert checks.check_study(STUDY_OK, R, ref)[0] != []


class FakeRun:
    """Stands in for ``run.Run``: every command exits 0 with the given stdout."""

    def __init__(self, outputs):
        self.outputs = list(outputs)

    def child(self, job):
        result = {"exit": 0, "end": 12.5, "rss_mb": 100.0}
        return result, 10.0, self.outputs.pop(0), ""


def test_a_perturbed_study_output_counts_as_a_failed_command():
    wl = run.WORKLOADS["study_small"]
    fake = FakeRun([STUDY_OK, STUDY_OK.replace(f"bec,{R},", f"bec,{R - 1},")])
    recs = [run.invoke(fake, wl, "study.ini", s, False, None) for s in (1, 2)]
    assert [r["ok"] for r in recs] == [True, False]
    assert run.tally(recs) == (2, 1)
    assert recs[0]["wall_s"] == pytest.approx(2.5)


def test_tracer_wraps_names_imported_by_value(tmp_path):
    # In a child interpreter, so the patched package never leaks into other tests.
    scenario = tmp_path / "small.ini"
    scenario.write_text(run.STUDY_SCENARIO.format(seed=3).replace("n = 2000", "n = 300"))
    argv = ["simulate", "--scenario", str(scenario), "--reps", "2", "--estimators", "observed,std,liu"]
    code = f"""
import json, sys
sys.path.insert(0, {str(run.HERE)!r})
import misclass_prev, tracer
from misclass_prev import cli
tr = tracer.Tracer()
tr.install()
assert cli.main({argv!r} + ["--workers", "1", "--format", "csv"]) == 0
names = ("simulate.replicate", "simulate.simulate", "mle.fit_liu", "mle.observed_information")
print(json.dumps([len(tr.select(n)) for n in names]))
print(json.dumps(tracer.self_check(tr, [], {{"calls": {{"simulate.simulate": 3}}}})))
"""
    env = dict(os.environ, PYTHONPATH=str(run.HERE.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    counts, problems = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert counts == [2, 2, 2, 2]
    assert problems == ["calls to simulate.simulate: recorded 2, expected 3"]
