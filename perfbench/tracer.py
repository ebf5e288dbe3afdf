"""Span tracer that wraps the package's public functions from outside.

Names are imported by value (``from .mle import fit_std`` in ``cli``,
``report``, ``simulate`` and ``bayes``), so patching a function in its
home module alone records nothing for those callers. ``install``
therefore rebinds every module-level name that refers to the original
function object, across all loaded ``misclass_prev`` modules, unless a
layer is to be counted only where one module calls it.

Spans (name, start, end, parent, info) stay in memory; ``layer_metrics``
turns them into the per-layer numbers after the command has returned.
"""

import statistics
import sys
import time

import numpy as np

import ess

PKG = "misclass_prev"
TAGS = ("bc", "bec")


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs.get(key)


def _prevalence_note(args, kwargs, result):
    interval = _arg(args, kwargs, 7, "interval") or "bootstrap"  # only std takes one
    return {
        "bootstrap": getattr(interval, "value", interval) == "bootstrap",
        "failures": result.n_resample_failures,
    }


# Small facts a span keeps about its call; arguments and most results
# are dropped so that tracing does not hold bootstrap resamples alive.
NOTES = {
    "mle.fit_std": lambda a, k, r: {"iterations": r.iterations, "converged": r.converged},
    "mle.fit_liu": lambda a, k, r: {"iterations": r.iterations, "converged": r.converged},
    "report.prevalence_std": _prevalence_note,
    "report.prevalence_liu": _prevalence_note,
    "report.prevalence_bayes": lambda a, k, r: {
        "tag": getattr(_arg(a, k, 2, "model_tag"), "value", "").lower(),
        "draws": _arg(a, k, 0, "draws").n_total,
    },
    "bayes.fit_bc": lambda a, k, r: {"draws": r[1], "converged": r[0].converged},
    "bayes.fit_bec": lambda a, k, r: {"draws": r[1], "converged": r[0].converged},
}

# (home module, function, span name, modules to patch or None for all).
# The likelihoods and the observed information are counted where mle
# calls them; bayes calls them too, and that time is part of bayes'
# own fit time (mode finding and the whitening basis).
TARGETS = (
    ("data_model", "load_cohort", "data_model.load_cohort", None),
    ("data_model", "build_design_matrix", "data_model.build_design_matrix", None),
    ("simulate", "simulate", "simulate.simulate", None),
    ("simulate", "_run_replicate", "simulate.replicate", ("simulate",)),
    ("likelihoods", "std_loglik", "likelihoods.std_loglik", ("mle",)),
    ("likelihoods", "liu_loglik", "likelihoods.liu_loglik", ("mle",)),
    ("mle", "fit_std", "mle.fit_std", None),
    ("mle", "fit_liu", "mle.fit_liu", None),
    ("mle", "observed_information", "mle.observed_information", ("mle",)),
    ("report", "marginal_prevalence_std", "report.prevalence_std", None),
    ("report", "marginal_prevalence_liu", "report.prevalence_liu", None),
    ("report", "marginal_prevalence_bayes", "report.prevalence_bayes", None),
    ("bayes", "fit_bc", "bayes.fit_bc", None),
    ("bayes", "fit_bec", "bayes.fit_bec", None),
    ("mcmc", "sample", "mcmc.sample", ("bayes",)),
    ("mcmc", "rhat", "mcmc.diagnostics", ("mcmc",)),
    ("mcmc", "ess_bulk", "mcmc.diagnostics", ("mcmc",)),
)


def submodule(name):
    """The loaded submodule ``misclass_prev.<name>``.

    Goes through ``sys.modules`` on purpose: the package attribute
    ``misclass_prev.simulate`` is the ``simulate()`` function, not the
    module, and patching a function's attributes records nothing.
    """
    mod = sys.modules[f"{PKG}.{name}"]
    if not isinstance(mod, type(sys)):
        raise TypeError(f"{PKG}.{name} is not a module")
    return mod


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.info = {}
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.cost_s = 0.0  # time spent in the tracer's own bookkeeping

    def wrap(self, name, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            try:
                if name == "mcmc.sample":
                    args = (self._counted(span, args[0]),) + args[1:]
                    cfg = _arg(args, kwargs, 2, "config")
                    span.info.update(chains=cfg.chains, iterations=cfg.chains * (cfg.warmup + cfg.samples))
                result = fn(*args, **kwargs)
                span.end = time.perf_counter()
                if note:
                    span.info.update(note(args, kwargs, result))
                return result
            finally:
                if span.end is None:
                    span.end = time.perf_counter()
                self._stack.pop()
                self.cost_s += span.start - entered + time.perf_counter() - span.end

        traced.__wrapped__ = fn
        return traced

    def _counted(self, span, log_post):
        """Count and time the log-density evaluations made inside ``sample``."""
        span.info.update(evals=0, logp_s=0.0)

        def counted(x):
            t0 = time.perf_counter()
            try:
                return log_post(x)
            finally:
                t1 = time.perf_counter()
                span.info["logp_s"] += t1 - t0
                span.info["evals"] += 1
                self.cost_s += time.perf_counter() - t1

        return counted

    def install(self):
        """Patch every target; raises when one binds nowhere, as it would record nothing."""
        modules = [m for k, m in sys.modules.items() if k == PKG or k.startswith(PKG + ".")]
        for home, func, name, where in TARGETS:
            original = getattr(submodule(home), func)
            wrapper = self.wrap(name, original)
            scope = modules if where is None else [submodule(w) for w in where]
            bound = 0
            for mod in scope:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"tracer found no binding of {home}.{func} to wrap")

    def select(self, name, within=None):
        out = [s for s in self.spans if s.name == name]
        if within is not None:
            out = [s for s in out if self.ancestor(s, within) is not None]
        return out

    @staticmethod
    def ancestor(span, names):
        p = span.parent
        while p is not None and p.name not in names:
            p = p.parent
        return p

    def children(self, span):
        return [s for s in self.spans if s.parent is span]

    def self_time(self, span):
        # One thread, so direct children never overlap: the part of the
        # span they cover is the sum of their durations.
        return span.duration - sum(c.duration for c in self.children(span))


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _fit_tag(span):
    return "bc" if span.name == "bayes.fit_bc" else "bec"


def layer_metrics(tr):
    """Per-layer numbers for one traced command, plus per-fit raw records."""
    m = {}
    dur = lambda spans: [s.duration for s in spans]  # noqa: E731

    m["trace.cost_s"] = tr.cost_s
    m["data_model.load_cohort_s"] = sum(dur(tr.select("data_model.load_cohort")))
    m["data_model.build_design_matrix_s"] = sum(dur(tr.select("data_model.build_design_matrix")))
    m["simulate.simulate_ms"] = 1e3 * _mean(dur(tr.select("simulate.simulate")))
    m["simulate.replicate_ms"] = 1e3 * _mean(dur(tr.select("simulate.replicate")))

    for short in ("std", "liu"):
        calls = tr.select(f"likelihoods.{short}_loglik")
        m[f"likelihoods.{short}_loglik_calls"] = len(calls)
        m[f"likelihoods.{short}_loglik_ms"] = 1e3 * _mean(dur(calls))
        fits = tr.select(f"mle.fit_{short}")
        m[f"mle.fit_{short}_ms"] = 1e3 * _mean(dur(fits))
        m[f"mle.fit_{short}_iters"] = _mean([s.info["iterations"] for s in fits if s.info])
    n_liu = len(tr.select("mle.fit_liu"))
    m["mle.liu_loglik_calls_per_fit"] = m["likelihoods.liu_loglik_calls"] / n_liu if n_liu else 0.0
    info = tr.select("mle.observed_information")
    m["mle.observed_information_calls"] = len(info)
    m["mle.observed_information_ms"] = 1e3 * _mean(dur(info))

    for short in ("std", "liu"):
        boots = [s for s in tr.select(f"report.prevalence_{short}") if s.info.get("bootstrap")]
        refits = [
            s for s in tr.select(f"mle.fit_{short}") if tr.ancestor(s, {f"report.prevalence_{short}"}) in boots
        ]
        failed = sum(s.info["failures"] for s in boots)
        m[f"report.{short}_boot_s"] = sum(dur(boots))
        m[f"report.{short}_boot_refit_ms"] = 1e3 * _mean(dur(refits))
        m[f"report.{short}_boot_fail_frac"] = failed / len(refits) if refits else 0.0

    fits = []
    for s in tr.select("bayes.fit_bc") + tr.select("bayes.fit_bec"):
        if "draws" not in s.info:
            continue  # the fit raised
        draws = s.info["draws"]
        smp = next(c for c in tr.children(s) if c.name == "mcmc.sample")
        diag = [d for d in tr.spans if d.name == "mcmc.diagnostics" and tr.ancestor(d, {s.name}) is s]
        iters = smp.info["iterations"]
        diag_in_sample = sum(d.duration for d in diag if tr.ancestor(d, {"mcmc.sample"}) is smp)
        coefs = [j for j, n in enumerate(draws.param_names) if n not in ("sensitivity", "specificity")]
        e = ess.ess_min(draws.draws, coefs)
        fits.append(
            {
                "tag": _fit_tag(s),
                "nonconverged_frac": float(not s.info["converged"]),
                "fit_s": s.duration,
                "fit_self_s": tr.self_time(s),
                "sample_s": smp.duration,
                "logp_evals": smp.info["evals"],
                "expected_evals": iters + smp.info["chains"],
                "logp_eval_ms": 1e3 * smp.info["logp_s"] / smp.info["evals"],
                "step_overhead_us": 1e6 * (smp.duration - smp.info["logp_s"] - diag_in_sample) / iters,
                "accept_rate": float(np.mean(draws.accept_rate)),
                "ess_min": e,
                "ess_per_s": e / s.duration,
                "logp_evals_per_ess": smp.info["evals"] / e,
                "diagnostics_ms": 1e3 * sum(d.duration for d in diag),
            }
        )
    prev = {t: [] for t in TAGS}
    for s in tr.select("report.prevalence_bayes"):
        if s.info:
            prev[s.info["tag"]].append((s.duration, s.info["draws"]))
    for tag in TAGS:
        mine = [f for f in fits if f["tag"] == tag]
        for key in ("fit_s", "fit_self_s"):
            m[f"bayes.{key}.{tag}"] = _median([f[key] for f in mine])
        m[f"bayes.nonconverged_frac.{tag}"] = _mean([f["nonconverged_frac"] for f in mine])
        for key in (
            "sample_s",
            "logp_evals",
            "logp_eval_ms",
            "step_overhead_us",
            "accept_rate",
            "ess_min",
            "ess_per_s",
            "logp_evals_per_ess",
            "diagnostics_ms",
        ):
            m[f"mcmc.{key}.{tag}"] = _median([f[key] for f in mine])
        m[f"report.posterior_prev_s.{tag}"] = _median([d for d, _ in prev[tag]])
        m[f"report.posterior_prev_us_per_draw.{tag}"] = _median([1e6 * d / n for d, n in prev[tag]])
    return m, fits


def self_check(tr, fits, expect):
    """Compare the recorded counts with what the command must do; returns problems."""
    problems = []

    def want(what, got, expected):
        if got != expected:
            problems.append(f"{what}: recorded {got}, expected {expected}")

    for name, n in expect.get("calls", {}).items():
        want(f"calls to {name}", len(tr.select(name)), n)
    # every joint fit takes one observed information matrix
    n_info, n_liu = len(tr.select("mle.observed_information")), len(tr.select("mle.fit_liu"))
    want("calls to mle.observed_information", n_info, n_liu)
    boot = expect.get("bootstrap")
    if boot is not None:
        for short in ("std", "liu"):
            main = [s for s in tr.select(f"mle.fit_{short}") if s.parent is None]
            want(f"top-level {short} fits", len(main), 1)
            # a fit the CLI let through unconverged gets no bootstrap
            n = boot if main and main[0].info.get("converged") else 0
            within = {f"report.prevalence_{short}"}
            want(f"{short} bootstrap refits", len(tr.select(f"mle.fit_{short}", within)), n)
    for f in fits:
        want(f"{f['tag']} log-density evaluations", f["logp_evals"], f["expected_evals"])
    return problems
