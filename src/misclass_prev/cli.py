"""Command line front end.

Four subcommands: ``fit`` runs one estimator on a cohort file,
``compare`` runs the full estimator battery and writes the comparison
report, ``simulate`` draws synthetic cohorts or replication studies
from a scenario file, and ``report`` re-renders a saved comparison csv
as an aligned text table.

``fit``, ``compare`` and study mode all run a model through
``report.estimate``, so a model gives the same fit and prevalence at
the same seed whichever command runs it. Each command builds its tables
as rows of raw values and writes them through ``data_model.csv_text``
or ``report.text_table``. Every output file, the tables, ``--truth-out``
and ``--save-draws`` alike, is written by ``data_model.write_text``.

Results go to stdout or ``--out``; logs, the resolved seed, and the
effective configuration echo go to stderr. Every input file goes through
``data_model``'s one reader. Exit codes: 0 on success, 2 for input
problems (bad files, bad flags), 3 for statistical failures
(non-convergence, failed chain diagnostics), each with a one-line reason.

A fixed ``--seed`` reproduces results bit for bit only at a fixed BLAS
thread count. OpenBLAS splits long dot products and matrix-vector
products across its threads, so the STD and LIU figures move in their
last digits when the count changes; BC and BEC do not.
``OPENBLAS_NUM_THREADS=1`` reproduces the expected files in
``tests/golden/``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .bayes import ACCURACY_NAMES
from .data_model import (
    ASSAY_KEYS,
    AnalysisConfig,
    AssayProfile,
    build_design_matrix,
    csv_text,
    load_cohort,
    read_analysis_config,
    save_cohort,
    write_text,
)
from .errors import InputError, StatisticalError
from .mcmc import SamplerConfig
from .mle import LiuVariant, ModelTag
from .report import (
    build_comparison_report,
    coefficient_csv_rows,
    draws_rows,
    estimate,
    prevalence_csv_rows,
    record_rows,
    render_csv_text,
    render_text,
    require_converged as _gate_convergence,  # perfbench's tests call the gate by this name
    se_csv_rows,
    text_table,
)
from .rogan_gladen import IntervalMethod, rogan_gladen_interval
from .simulate import (
    ESTIMATOR_NAMES,
    STUDY_SAMPLER,
    ReplicationSummary,
    load_bundled_scenario,
    read_scenario,
    replicate_study,
    simulate,
)

log = logging.getLogger("misclass_prev.cli")

VARIANT_NAMES = {
    "both": LiuVariant.BOTH_FREE,
    "fp": LiuVariant.FALSE_POSITIVE_ONLY,
    "fn": LiuVariant.FALSE_NEGATIVE_ONLY,
    "equal": LiuVariant.ERRORS_EQUAL,
}
# Study-only flags of simulate, with their defaults under --reps; without
# --reps each of them is an input error rather than silently unused.
STUDY_DEFAULTS = {
    "estimators": "observed,rg,std,liu",
    "workers": None,
    "se": None,
    "sp": None,
    "chains": STUDY_SAMPLER.chains,
    "warmup": STUDY_SAMPLER.warmup,
    "samples": STUDY_SAMPLER.samples,
    "format": "text",
}
SEED_HELP = (
    "non-negative; a fixed seed repeats results bit for bit only at a fixed "
    "BLAS thread count (OPENBLAS_NUM_THREADS)"
)
VARIANT_HELP = (
    "error rates the liu model frees: both = false-positive and false-negative rates, "
    "fp = false-positive rate only (false-negative pinned at 0), "
    "fn = false-negative rate only (false-positive pinned at 0), "
    "equal = one rate shared by both"
)


def _add_data_flags(sub):
    sub.add_argument("--data", required=True, help="cohort csv file")
    sub.add_argument("--config", help="analysis config (column map, assay blocks)")
    sub.add_argument("--outcome", default="outcome", help="outcome label, selects assay block")


def _add_assay_flags(sub):
    sub.add_argument("--se", type=float, help="assay sensitivity")
    sub.add_argument("--sp", type=float, help="assay specificity")
    sub.add_argument(
        "--se-prior-n",
        type=float,
        help="prior effective sample size for sensitivity (switches on beta priors)",
    )
    sub.add_argument("--sp-prior-n", type=float, help="prior effective sample size for specificity")


def _add_sampler_flags(sub, study=False):
    """--chains, --warmup and --samples with SamplerConfig's defaults; under simulate
    (``study``) they parse to None, and ``_run_simulate`` fills in STUDY_DEFAULTS."""
    config = STUDY_SAMPLER if study else SamplerConfig()
    for flag, text in (
        ("chains", "independent chains"),
        ("warmup", "burn-in iterations per chain, discarded"),
        ("samples", "retained draws per chain"),
    ):
        value = getattr(config, flag)
        sub.add_argument(
            f"--{flag}",
            type=int,
            default=None if study else value,
            help=f"{text} (default {value}{' in study mode' if study else ''})",
        )


def _add_estimate_flags(sub):
    """The flags ``fit`` and ``compare`` share, read back by ``_estimate_options``."""
    sub.add_argument("--variant", choices=tuple(VARIANT_NAMES), default="both", help=VARIANT_HELP)
    _add_sampler_flags(sub)
    sub.add_argument("--bootstrap", type=int, help="interval resamples (std/liu)")
    sub.add_argument("--seed", type=int, default=0, help=f"random seed, {SEED_HELP}")
    sub.add_argument("--allow-nonconverged", action="store_true")


def _add_output_flags(sub, study=False):
    """--format and --out; under simulate (``study``) --format parses to None,
    and ``_run_simulate`` fills in STUDY_DEFAULTS."""
    sub.add_argument(
        "--format",
        choices=("text", "csv"),
        default=None if study else "text",
        help=f"table format (study mode; default {STUDY_DEFAULTS['format']})" if study else None,
    )
    sub.add_argument("--out", help="write the result here instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="misclass-prev",
        description="prevalence and covariate estimation under outcome misclassification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one model on a cohort file")
    _add_data_flags(fit)
    fit.add_argument(
        "--model", required=True, type=str.upper, choices=tuple(t.value for t in ModelTag)
    )
    _add_assay_flags(fit)
    _add_estimate_flags(fit)
    fit.add_argument(
        "--interval",
        choices=("bootstrap", "delta"),
        default="bootstrap",
        help="interval construction for the std and liu models",
    )
    fit.add_argument("--save-draws", help="write posterior draws csv (bc/bec)")
    _add_output_flags(fit)

    comp = sub.add_parser("compare", help="run the estimator battery and compare")
    _add_data_flags(comp)
    comp.add_argument(
        "--models",
        default="std,liu,bc,bec",
        help="comma separated subset of std,liu,bc,bec",
    )
    _add_assay_flags(comp)
    _add_estimate_flags(comp)
    comp.add_argument("--coef-out", help="also write the coefficient block csv here")
    comp.add_argument("--se-out", help="also write the standard-error block csv here")
    _add_output_flags(comp)

    sim = sub.add_parser("simulate", help="draw synthetic cohorts or run a study")
    sim.add_argument(
        "--scenario", required=True, help="scenario file, or the name of a bundled scenario"
    )
    sim.add_argument("--seed", type=int, help=f"override the scenario seed, {SEED_HELP}")
    sim.add_argument("--truth-out", help="write per-subject latent truth csv here")
    sim.add_argument("--reps", type=int, help="run a replication study with this many cohorts")
    sim.add_argument(
        "--estimators",
        help=f"comma separated subset of {','.join(ESTIMATOR_NAMES)} "
        f"(study mode; default {STUDY_DEFAULTS['estimators']})",
    )
    sim.add_argument("--workers", type=int, help="parallel replicate workers (study mode)")
    _add_sampler_flags(sim, study=True)
    sim.add_argument("--se", type=float, help="analysis sensitivity override (study mode)")
    sim.add_argument("--sp", type=float, help="analysis specificity override (study mode)")
    _add_output_flags(sim, study=True)

    rep = sub.add_parser("report", help="re-render a saved comparison csv as text")
    rep.add_argument("--in", dest="infile", required=True, help="csv written by fit or compare")
    rep.add_argument("--out", help="write the result here instead of stdout")

    return parser


def _emit(text, out_path):
    if out_path:
        write_text(text, out_path)
        log.info("wrote %s", out_path)
    else:
        sys.stdout.write(text)


def _echo(args, extra=""):
    seed = getattr(args, "seed", None)
    line = f"misclass-prev {args.command}: seed = {seed if seed is not None else 'n/a'}"
    if extra:
        line += f"; {extra}"
    print(line, file=sys.stderr)


def _config_and_assay(args, required):
    """The ``--config`` column map, and the ``--outcome`` assay block with the flags over it."""
    config = read_analysis_config(args.config) if args.config else AnalysisConfig()
    outcome = args.outcome.lower()
    block = config.assays.get(outcome) or config.assays.get("") or {}
    flags = {k: getattr(args, k) for k in ASSAY_KEYS}  # --se, --sp, --se-prior-n, --sp-prior-n
    se, sp, se_n, sp_n = (block.get(k) if v is None else v for k, v in flags.items())
    if se is None or sp is None:
        if required:
            raise InputError(
                "assay accuracy is required here; pass --se/--sp or provide an "
                f"[assay] or [assay.{outcome}] config block"
            )
        return config.column_map, None
    return config.column_map, AssayProfile(se, sp, se_n, sp_n)


def _assay_echo(assay):
    if assay is None:
        return "no assay"
    return f"assay Se = {assay.sensitivity} Sp = {assay.specificity} ({assay.mode.value})"


def _sampler(args):
    """The sampler flags as a SamplerConfig; out-of-range values are input errors."""
    try:
        return SamplerConfig(chains=args.chains, warmup=args.warmup, samples=args.samples)
    except ValueError as exc:
        raise InputError(f"sampler flags: {exc}") from None


def _estimate_options(args):
    """The ``estimate`` keywords that fit and compare take from the same flags."""
    if args.bootstrap is not None and args.bootstrap < 1:
        raise InputError(f"--bootstrap must be at least 1, got {args.bootstrap}")
    return dict(
        sampler=_sampler(args),
        variant=VARIANT_NAMES[args.variant],
        n_boot=args.bootstrap,
        allow_nonconverged=args.allow_nonconverged,
    )


def _cohort_data(args, column_map):
    """The outcomes and the design matrix of the ``--data`` cohort."""
    cohort = load_cohort(args.data, column_map=column_map, outcome_label=args.outcome)
    return cohort.outcomes(), build_design_matrix(cohort)


def _name_list(flag, text, valid, noun):
    """The names a comma-separated flag lists, in lower case and in order.

    Names compare case-insensitively and empty entries are skipped; an
    unknown name, a name given twice or a list with no name is an input
    error.
    """
    names = [w.strip().lower() for w in text.split(",") if w.strip()]
    bad = [w for w in names if w not in valid]
    if bad:
        raise InputError(f"unknown {noun}s {bad}; valid: {list(valid)}")
    repeated = sorted({w for w in names if names.count(w) > 1})
    if repeated:
        raise InputError(f"{flag} names {', '.join(repeated)} more than once")
    if not names:
        raise InputError(f"{flag} {text!r} names no {noun}")
    return names


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _fit_rows(fit, prev, draws):
    """One rectangular table for a single fit: coefficients, extras, prevalence."""
    rows = [["coefficient", "estimate", "se"]]
    for j, name in enumerate(fit.column_names):
        se = None if fit.beta_se is None else float(fit.beta_se[j])
        rows.append([name, float(fit.beta_hat[j]), se])
    rates = fit.error_rates_hat
    if rates is not None:
        rows.append(["error_rate_r0", rates.r0, rates.se_r0])
        rows.append(["error_rate_r1", rates.r1, rates.se_r1])
    if draws is not None:
        # accuracy coordinates sampled by BEC with beta priors
        flat = draws.flat()
        for j, name in enumerate(draws.param_names):
            if name in ACCURACY_NAMES:
                rows.append([name, float(flat[:, j].mean()), float(flat[:, j].std(ddof=1))])
    if prev is not None:
        rows.append(["marginal_prevalence", prev.point, None])
        rows.append(["prevalence_lower", prev.lower, None])
        rows.append(["prevalence_upper", prev.upper, None])
    return rows


def _run_fit(args):
    model = ModelTag(args.model)
    if args.save_draws and model in (ModelTag.STD, ModelTag.LIU):
        raise InputError(f"--save-draws needs a Bayesian model (BC or BEC), not {model.value}")
    column_map, assay = _config_and_assay(args, required=model is not ModelTag.LIU)
    options = _estimate_options(args)
    _echo(args, f"model = {args.model}; {_assay_echo(assay)}")

    y, X = _cohort_data(args, column_map)

    fit, prev, draws = estimate(
        model, y, X, assay, args.seed, interval=IntervalMethod(args.interval), **options
    )
    if args.save_draws:
        _emit(csv_text(draws_rows(draws)), args.save_draws)
    rows = _fit_rows(fit, prev, draws)

    if args.format == "csv":
        out = csv_text(rows)
    else:
        head = (
            f"model: {fit.model_tag.value}  loglik: {fit.loglik:.6f}  "
            f"converged: {str(fit.converged).lower()}\n"
        )
        if fit.condition_warning:
            head += f"note: {fit.condition_warning}\n"
        out = head + "\n" + text_table(rows) + "\n"
        if prev is not None:
            out += (
                f"\nmarginal prevalence: {prev.point:.6g} "
                f"[{prev.lower:.6g}, {prev.upper:.6g}] ({prev.interval_method.value})\n"
            )
    _emit(out, args.out)
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _run_compare(args):
    column_map, assay = _config_and_assay(args, required=True)
    valid = [t.value.lower() for t in ModelTag]
    wanted = [w.upper() for w in _name_list("--models", args.models, valid, "model")]
    options = _estimate_options(args)
    _echo(args, f"models = {','.join(wanted)}; {_assay_echo(assay)}")

    y, X = _cohort_data(args, column_map)

    crude = rogan_gladen_interval(int(y.sum()), y.shape[0], assay.point_profile())

    fits, prevalences = {}, {}
    for name in wanted:
        tag = ModelTag(name)
        fits[tag], prev, _ = estimate(tag, y, X, assay, args.seed, **options)
        if prev is not None:
            prevalences[tag] = prev

    report = build_comparison_report(crude, fits=fits, prevalences=prevalences)

    for path, table in ((args.coef_out, coefficient_csv_rows), (args.se_out, se_csv_rows)):
        if path:
            _emit(csv_text(table(report)), path)

    if args.format == "csv":
        out = csv_text(prevalence_csv_rows(report))
    else:
        out = render_text(report)
    _emit(out, args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _load_scenario(value):
    """A --scenario value that names a file, or has a directory or a suffix, is a file.

    Only a bare name is looked up among the bundled scenarios.
    """
    path = Path(value)
    if path.is_file() or path.suffix or path.name != value:
        return read_scenario(value)
    return load_bundled_scenario(value)


def _run_simulate(args):
    if args.reps is not None and args.truth_out:
        raise InputError("--truth-out writes a simulated cohort's truth; a study (--reps) has none")
    if args.reps is None:
        given = [f"--{flag}" for flag in STUDY_DEFAULTS if getattr(args, flag) is not None]
        if given:
            raise InputError(f"study-only flags without --reps: {', '.join(given)}")
    else:
        for flag, default in STUDY_DEFAULTS.items():
            if getattr(args, flag) is None:
                setattr(args, flag, default)
    scenario = _load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=int(args.seed))
    print(f"misclass-prev simulate: seed = {scenario.seed}; n = {scenario.n}", file=sys.stderr)

    if args.reps is not None:
        if args.reps < 1:
            raise InputError(f"--reps must be at least 1, got {args.reps}")
        wanted = _name_list("--estimators", args.estimators, ESTIMATOR_NAMES, "estimator")
        if (args.se is None) != (args.sp is None):
            raise InputError("--se and --sp override the study assay together; pass both or neither")
        override = None
        if args.se is not None:
            override = AssayProfile(sensitivity=args.se, specificity=args.sp)
        summaries = replicate_study(
            scenario, wanted, args.reps, args.workers, assay=override, sampler=_sampler(args)
        )
        rows = record_rows(summaries, ReplicationSummary)
        if args.format == "csv":
            out = csv_text(rows)
        else:
            out = text_table(rows) + "\n"
        _emit(out, args.out)
        return 0

    if not args.out:
        raise InputError("simulate needs --out for the cohort csv (or --reps for a study)")
    cohort, truth = simulate(scenario)
    save_cohort(cohort, args.out)
    log.info("wrote %d records to %s", len(cohort), args.out)
    if args.truth_out:
        rows = [[float(p), int(t)] for p, t in zip(truth.pi, truth.true_status)]
        _emit(csv_text([["pi", "true_status"], *rows]), args.truth_out)
    print(
        f"misclass-prev simulate: true prevalence = {truth.true_prevalence!r}; "
        f"observed = {float(cohort.outcomes().mean())!r}",
        file=sys.stderr,
    )
    return 0


def _run_report(args):
    _emit(render_csv_text(args.infile), args.out)
    return 0


_COMMANDS = {
    "fit": _run_fit,
    "compare": _run_compare,
    "simulate": _run_simulate,
    "report": _run_report,
}


def main(argv=None):
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise InputError(f"--seed must be non-negative, got {args.seed}")
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except StatisticalError as exc:
        print(f"statistical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
