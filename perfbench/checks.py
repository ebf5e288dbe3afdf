"""Output checks for the benchmark's CLI commands.

Each check takes the command's stdout and returns a list of problems;
an empty list means the output is accepted. ``ref`` is the workload's
entry in ``reference.json`` when the run uses the default seed, else
None, and then only the seed-independent properties are checked.
"""

import csv
import io
import math
import re

COMPARE_HEADER = [
    "model",
    "point",
    "lower",
    "upper",
    "ci_width",
    "change_vs_crude_pct",
    "change_vs_std_pct",
    "interval_method",
]
COMPARE_MODELS = ["CRUDE", "CRUDE_CORRECTED", "STD", "LIU", "BC", "BEC"]
STUDY_HEADER = ["estimator", "reps", "failures", "failure_rate", "mean_bias", "coverage", "mean_width"]
STUDY_ESTIMATORS = ["observed", "rg", "std", "liu", "bc", "bec"]


def _table(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"header is {rows[0] if rows else None}, expected {header}")
    return {r[0]: dict(zip(header, r)) for r in rows[1:]}


def _num(row, key):
    return float(row[key]) if row[key] != "" else None


def flagged_fits(stderr):
    """Models the CLI flagged non-converged and let through (``--allow-nonconverged``)."""
    return re.findall(r"\b(STD|LIU|BC|BEC) fit flagged non-converged", stderr)


def check_compare(text, flagged=(), ref=None):
    """Problems with a ``compare --format csv`` table.

    A flagged STD or LIU fit gets no prevalence row, so its row may be
    missing; BC and BEC are summarized even when flagged.
    """
    try:
        rows = _table(text, COMPARE_HEADER)
    except ValueError as exc:
        return [str(exc)]
    models = [m for m in COMPARE_MODELS if not (m in ("STD", "LIU") and m in flagged)]
    if sorted(rows) != sorted(models):
        return [f"models {sorted(rows)}, expected {sorted(models)}"]
    val = {m: {k: _num(rows[m], k) for k in ("point", "lower", "upper")} for m in models}
    problems = []
    for m in models[1:]:
        lo, pt, up = val[m]["lower"], val[m]["point"], val[m]["upper"]
        if None in (lo, pt, up) or not lo <= pt <= up:
            problems.append(f"{m}: interval out of order ({lo}, {pt}, {up})")
    if problems:
        return problems
    # A logistic MLE with an intercept has mean fitted probability equal
    # to the observed proportion, so STD must equal the corrected crude value.
    if "STD" in val and abs(val["STD"]["point"] - val["CRUDE_CORRECTED"]["point"]) > 1e-9:
        problems.append("STD point differs from the corrected crude proportion")
    # The ordering the comparison exists to show (acceptance criterion 8).
    points = [val[m]["point"] for m in ("STD", "BEC", "LIU") if m in val]
    if any(a >= b for a, b in zip(points, points[1:])):
        problems.append("points not ordered STD < BEC < LIU")
    width = {m: val[m]["upper"] - val[m]["lower"] for m in ("LIU", "BEC") if m in val}
    if "LIU" in width and not width["BEC"] < width["LIU"]:
        problems.append("BEC interval not narrower than LIU interval")
    if ref is not None:
        problems += _against_reference(val, ref)
    return problems


def _against_reference(val, ref):
    problems = []

    def near(what, got, want, tol):
        if not abs(got - want) <= tol:
            problems.append(f"{what} = {got!r}, reference {want!r} (tolerance {tol:.3g})")

    for key in ("point", "lower", "upper"):
        near(f"CRUDE_CORRECTED {key}", val["CRUDE_CORRECTED"][key], ref["CRUDE_CORRECTED"][key], 0.0)
    if "STD" in val:
        near("STD point", val["STD"]["point"], ref["STD"]["point"], 1e-9)
    if "LIU" in val:
        near("LIU point", val["LIU"]["point"], ref["LIU"]["point"], 1e-6)
    # Monte Carlo error: a 2.5% quantile of B bootstrap values has a
    # standard error of about 0.07 interval widths at B = 100; the mean of
    # 2 x 500 posterior draws, with an effective size of 20 to 40, about
    # 0.05.
    for m in ("STD", "LIU"):
        w = ref[m]["upper"] - ref[m]["lower"]
        for key in ("lower", "upper"):
            if m in val:
                near(f"{m} {key}", val[m][key], ref[m][key], 0.3 * w)
    for m in ("BC", "BEC"):
        w = ref[m]["upper"] - ref[m]["lower"]
        near(f"{m} point", val[m]["point"], ref[m]["point"], 0.2 * w)
    return problems


def check_study(text, reps, ref=None):
    """Returns (problems, fit failures over reps x estimators)."""
    try:
        rows = _table(text, STUDY_HEADER)
    except ValueError as exc:
        return [str(exc)], None
    if list(rows) != STUDY_ESTIMATORS:
        return [f"estimators {list(rows)}, expected {STUDY_ESTIMATORS}"], None
    problems = []
    failures = 0
    for name, row in rows.items():
        if int(row["reps"]) != reps:
            problems.append(f"{name}: reps {row['reps']}, requested {reps}")
        f = int(row["failures"])
        failures += f
        if not 0 <= f <= reps:
            problems.append(f"{name}: {f} failures out of {reps}")
            continue
        if f == reps:
            continue
        cov, width = float(row["coverage"]), float(row["mean_width"])
        if not (0.0 <= cov <= 1.0 and width > 0.0 and math.isfinite(float(row["mean_bias"]))):
            problems.append(f"{name}: summary out of range {row}")
    for name in ("observed", "rg", "std"):
        if int(rows[name]["failures"]) != 0:
            problems.append(f"{name}: a closed-form estimator failed")
        if ref is None:
            continue
        for key in ("mean_bias", "coverage", "mean_width"):
            got, want = float(rows[name][key]), ref[name][key]
            if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
                problems.append(f"{name} {key} = {got!r}, reference {want!r}")
    return problems, failures / (reps * len(STUDY_ESTIMATORS))
