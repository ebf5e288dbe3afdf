"""Benchmark of the ``misclass-prev`` CLI: serial workloads, two of them in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare_demo_intage --seed 42 --seconds 50 --trace 0

Each CLI command runs in a fresh single-process interpreter with BLAS
pinned to one thread. The inputs are drawn from ``--seed`` before the
timed region. Invocations repeat until ``--seconds`` would be overrun
(at least one), each output is checked, and every metric is printed by
name with its unit. A command takes 4-13 s, so a run reports the median
of several: on a shared host one command can run 40% slower than the
next. The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: the median command wall
time, the median of three fresh set-ups (import, then load and build
the design, or read the scenario) and the peak RSS. ``--trace 1`` runs the
command once untraced and once with every layer's public functions
wrapped from outside (see ``tracer.py``), reports the per-layer
metrics and the tracing overhead, and fails when a recorded count
differs from what the command must do. The overhead is reported two
ways: ``trace.overhead_s``, traced minus untraced wall time, which
machine-speed drift between the two commands can swamp, and
``trace.cost_s``, the time the tracer's wrappers spent on bookkeeping.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

DEFAULT_SEED = 42  # the seed of the bundled demo_cohort scenario
SETUP_REPEATS = 3
DEADLINE_S = 170.0

# Work per compare command. At the CLI defaults (1,000 STD and 500 LIU
# bootstrap refits, 4 chains x (2,000 + 2,000)) one command takes about
# 60 s, and a run could time one command, whose wall time host noise
# moves by up to 40%. These sizes make it 10-13 s, so a run takes the
# median of three or four. The report layer needs 50 clean refits; on
# some cohorts a fifth of the LIU refits fail, so 100 leaves room for
# that (60 did not). With these short chains BC and BEC almost always
# miss the split R-hat < 1.05 gate, and LIU sometimes fails to converge,
# so compare runs with --allow-nonconverged: the command completes and
# the bench counts the flagged fits (fit_fail_frac) instead of losing
# the run.
BOOTSTRAP = 100
SAMPLER = ("--chains", "2", "--warmup", "500", "--samples", "500")
# Replicates per study command: about 5 s, so a run takes the median of
# seven to nine.
STUDY_REPS = 4
# Cohorts a compare run draws. A cohort sets how hard the LIU fits are:
# mean BFGS iterations per refit range from about 27 to 51 across
# seeds, moving command time by 20%, so the commands of a run cycle
# through several cohorts rather than timing one.
COHORTS = 5

STUDY_SCENARIO = """\
# Acceptance criterion 6's design at a fifth of the size: n = 2,000,
# about 5% latent prevalence, other_sti the strong covariate.
[scenario]
n = 2000
seed = {seed}
outcome_label = SIM

[generating_assay]
se = 0.964
sp = 0.974

[coefficients]
intercept = -9.976701575668823
age = 0.14
sex = 0.3
other_sti = 2.5

[covariates]
other_sti_rate = 0.08
"""


@dataclass(frozen=True)
class Workload:
    kind: str  # "compare" on a simulated demo cohort csv, or "study" on a scenario file
    file: str  # the input file the bench writes from the seed (per cohort, for compare)
    round_age: bool = False
    text: str = ""  # scenario text, formatted with the seed

    def input_path(self, work, k):
        """The input file of a run's k-th command."""
        if self.kind == "compare":
            name = Path(self.file)
            return work / f"{name.stem}_{k % COHORTS}{name.suffix}"
        return work / self.file

    def argv(self, path, seed):
        if self.kind == "compare":
            return [
                "compare", "--data", str(path), "--models", "std,liu,bc,bec",
                "--se", "0.964", "--sp", "0.974", "--se-prior-n", "1000", "--sp-prior-n", "1000",
                "--bootstrap", str(BOOTSTRAP), *SAMPLER, "--seed", str(seed), "--format", "csv",
                "--allow-nonconverged",
            ]  # fmt: skip
        return [
            "simulate", "--scenario", str(path), "--seed", str(seed), "--reps", str(STUDY_REPS),
            "--estimators", ",".join(checks.STUDY_ESTIMATORS), "--workers", "1", "--format", "csv",
        ]  # fmt: skip

    def expect(self):
        """Counts the traced command must record."""
        if self.kind == "compare":
            return {
                "calls": {
                    "data_model.load_cohort": 1,
                    "bayes.fit_bc": 1,
                    "bayes.fit_bec": 1,
                    "report.prevalence_bayes": 2,
                },
                "bootstrap": BOOTSTRAP,
            }
        names = ("simulate.replicate", "simulate.simulate", "mle.fit_liu", "bayes.fit_bc", "bayes.fit_bec")
        return {"calls": dict.fromkeys(names, STUDY_REPS)}

    def check(self, out, err, ref):
        """(problems with the output, share of estimator fits that failed)."""
        if self.kind == "compare":
            flagged = checks.flagged_fits(err)
            return checks.check_compare(out, flagged, ref), len(flagged) / 4
        return checks.check_study(out, STUDY_REPS, ref)


WORKLOADS = {
    # `compare` on the demo cohort as `simulate` draws it (n = 11,452),
    # with age rounded to whole years, leaving about 900 distinct
    # covariate rows: the workload where a grouped likelihood or
    # posterior-prevalence kernel can pay off. Bootstraps do most work.
    "compare_demo_intage": Workload("compare", "demo_intage.csv", round_age=True),
    # A replication study: a fresh cohort per replicate (simulation and
    # design build do work), delta intervals instead of bootstraps, and
    # short chains at n = 2,000 where per-step Python overhead outweighs
    # per-row arithmetic. The only workload that counts fit failures.
    # Age is continuous, so every covariate row is distinct: the
    # workload on which a grouping change must show no slowdown.
    "study_small": Workload("study", "study_small.ini", text=STUDY_SCENARIO),
    # Not in BENCHMARK.json: two workloads leave runs long enough to be
    # steady within the benchmark's time limit. The same compare with
    # continuous age, for checking a grouping change on the cohort it
    # cannot help at full size.
    "compare_demo": Workload("compare", "demo.csv"),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_units(name):
    base = name.split(".")[1]
    for suffix, unit in (
        ("_calls", "count"), ("_evals", "count"), ("_iters", "count"), ("_per_fit", "count"),
        ("_per_ess", "count"), ("_frac", "fraction"), ("_rate", "fraction"), ("_per_s", "1/s"),
        ("_us_per_draw", "us"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("ess_min", "draws"),
    ):  # fmt: skip
        if base.endswith(suffix):
            return unit
    raise KeyError(name)


class Run:
    """One benchmark run: a scratch directory and the child processes in it."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        env = dict(os.environ)
        env.pop("MISCLASS_PREV_THREADS", None)
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self.env = env
        self.jobs = 0

    def child(self, job):
        """Run one child step; returns (result or None, spawn time, stdout, stderr)."""
        self.jobs += 1
        tag = f"{job['step']}{self.jobs}"
        job = dict(job, workdir=str(self.work), result=str(self.work / f"{tag}.json"))
        job_path = self.work / f"{tag}.job"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.monotonic()
            try:
                subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(job_path)],
                    stdout=out,
                    stderr=err,
                    env=self.env,
                    cwd=self.root,
                    timeout=max(1.0, self.deadline - spawned),
                    check=False,
                )
            except subprocess.TimeoutExpired:
                pass
        result_path = Path(job["result"])
        result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else None
        return result, spawned, out_path.read_text(encoding="utf-8"), err_path.read_text("utf-8")


def _median(values):
    return statistics.median(values) if values else 0.0


def _report(name, value, unit):
    print(f"{name} = {value:.6g} {unit}")
    return {"value": value, "unit": unit}


def unit_seed(seed, k):
    """Seed of a run's k-th command: the run's own for the first, then
    seeds that no other small run seed's commands use."""
    return seed if k == 0 else 1000 * seed + k


def invoke(run, wl, path, seed, trace, ref):
    """One CLI command; returns a record with its timings and check outcome."""
    load_before = os.getloadavg()
    job = {"step": "cli", "argv": wl.argv(path, seed), "trace": trace, "expect": wl.expect()}
    result, spawned, out, err = run.child(job)
    rec = {"load": (load_before[0], os.getloadavg()[0]), "ok": False, "result": result}
    if result is None or result["exit"] != 0:
        reason = err.strip().splitlines()[-1:] if err.strip() else ["no result"]
        print(f"# command failed: {' '.join(job['argv'])}: {reason[0]}", file=sys.stderr)
        return rec
    rec["wall_s"] = result["end"] - spawned
    problems, fit_fail = wl.check(out, err, ref)
    rec["fit_fail_frac"] = fit_fail
    for p in problems:
        print(f"# output check failed: {p}", file=sys.stderr)
    rec["ok"] = not problems
    return rec


def tally(recs):
    """(commands attempted, commands failed): a non-zero exit or a rejected output fails."""
    return len(recs), sum(not r["ok"] for r in recs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "misclass_prev" / "cli.py").is_file():
        print(f"perfbench: no misclass_prev sources under {root / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run = Run(root, args.workload, args.seed)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(run, wl, args)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(run, wl, args):
    spec = asdict(wl)
    inputs = [(unit_seed(args.seed, k), str(wl.input_path(run.work, k))) for k in range(COHORTS)]
    made, _, _, err = run.child({"step": "inputs", "seed": args.seed, "inputs": inputs, "workload": spec})
    if made is None:
        print(f"perfbench: could not generate inputs: {err.strip()}", file=sys.stderr)
        return 1
    path = wl.input_path(run.work, 0)
    ref = None
    if args.seed == DEFAULT_SEED:
        ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[args.workload]
    v = made["versions"]
    print(
        f"# {args.workload} seed={args.seed} nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))} python={v['python']} numpy={v['numpy']} "
        f"scipy={v['scipy']} blas={v['blas']}"
    )

    if args.trace:
        return measure_traced(run, wl, args, path, ref)

    setups = []
    for _ in range(SETUP_REPEATS):
        ready, spawned, _, _ = run.child({"step": "setup", "path": str(path), "workload": spec})
        if ready:
            setups.append(ready["ready"] - spawned)

    recs = []
    start = time.monotonic()
    while True:
        k = len(recs)
        unit_path, seed = wl.input_path(run.work, k), unit_seed(args.seed, k)
        recs.append(invoke(run, wl, unit_path, seed, False, ref if not k else None))
        elapsed = time.monotonic() - start
        if elapsed * (len(recs) + 1) / len(recs) > args.seconds:
            break

    done = [r for r in recs if r["ok"]]
    attempted, failed = tally(recs)
    for i, r in enumerate(recs):
        wall = f"{r['wall_s']:.3f} s" if "wall_s" in r else "failed"
        print(f"# command {i}: wall {wall}, load average {r['load'][0]:.2f} -> {r['load'][1]:.2f}")
    print(f"# setup samples (s): {' '.join(f'{s:.3f}' for s in setups)}")
    print(f"failed_frac = {failed / attempted:.6g} fraction ({failed} of {attempted} commands)")
    # every command fits the same number of estimators, so the mean pools them
    fit_fail = statistics.fmean([r["fit_fail_frac"] for r in done]) if done else 0.0
    print(f"fit_fail_frac = {fit_fail:.6g} fraction")
    values = {
        "wall_s": _median([r["wall_s"] for r in done]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([r["result"]["rss_mb"] for r in done]),
    }
    metrics = {k: _report(k, values[k], END_TO_END[k]) for k in END_TO_END}
    ok = failed == 0 and len(setups) == SETUP_REPEATS
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def measure_traced(run, wl, args, path, ref):
    plain = invoke(run, wl, path, args.seed, False, ref)
    traced = invoke(run, wl, path, args.seed, True, ref)
    attempted, failed = tally([plain, traced])
    if traced["result"] is None:
        print("perfbench: the traced command produced no result", file=sys.stderr)
        return 1
    res = traced["result"]
    if res["self_check"]:
        for p in res["self_check"]:
            print(f"perfbench: tracer self-check failed: {p}", file=sys.stderr)
        return 1
    layers = dict(res["layers"])
    layers["trace.overhead_s"] = traced.get("wall_s", 0.0) - plain.get("wall_s", 0.0)
    print(f"# untraced wall {plain.get('wall_s', 0.0):.3f} s, traced wall {traced.get('wall_s', 0.0):.3f} s")
    metrics = {k: _report(k, float(layers[k]), layer_units(k)) for k in sorted(layers)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
