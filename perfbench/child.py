"""One benchmark step in a fresh interpreter: ``python3 child.py JOB.json``.

The job file names the step and where to write its result:

- ``inputs``: draw the workload's input files from the seeds given and
  report library versions (untimed);
- ``setup``: import the package and get ready to fit, then stamp the
  monotonic clock, which the parent compares with its spawn time;
- ``cli``: run ``misclass_prev.cli.main`` on the job's argv and stamp
  the clock and peak RSS when it returns; when traced, turn the spans
  into per-layer metrics only after that.

``time.monotonic`` reads CLOCK_MONOTONIC, which is shared by every
process on the machine, so parent and child stamps are comparable.
"""

import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def _versions():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_inputs(job):
    from dataclasses import replace

    import misclass_prev
    from misclass_prev import data_model

    spec = job["workload"]
    if spec["kind"] == "compare":
        for seed, path in job["inputs"]:
            scenario = replace(misclass_prev.load_bundled_scenario("demo_cohort"), seed=seed)
            cohort, _ = misclass_prev.simulate(scenario)
            if spec["round_age"]:
                records = tuple(replace(r, age=float(round(r.age))) for r in cohort.records)
                cohort = data_model.Cohort(records=records, outcome_label=cohort.outcome_label)
            misclass_prev.save_cohort(cohort, path)
    else:
        text = spec["text"].format(seed=job["seed"])
        Path(job["workdir"], spec["file"]).write_text(text, encoding="utf-8")
    return {"versions": _versions()}


def run_setup(job):
    import misclass_prev

    spec = job["workload"]
    path = Path(job["path"])
    if spec["kind"] == "compare":
        misclass_prev.build_design_matrix(misclass_prev.load_cohort(path))
    else:
        misclass_prev.read_scenario(path)
    return {"ready": time.monotonic()}


def run_cli(job):
    import misclass_prev  # noqa: F401 - loads every submodule before patching
    from misclass_prev import cli

    tr = None
    if job["trace"]:
        import tracer

        tr = tracer.Tracer()
        tr.install()
    code = cli.main(job["argv"])
    end = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.flush()

    result = {"exit": code, "end": end, "rss_mb": rss_mb}
    if tr:
        layers, per_fit = tracer.layer_metrics(tr)
        result["layers"] = layers
        result["self_check"] = tracer.self_check(tr, per_fit, job["expect"])
    return result


STEPS = {"inputs": run_inputs, "setup": run_setup, "cli": run_cli}


def main():
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = STEPS[job["step"]](job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return result.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main())
