from dataclasses import replace

import numpy as np
import pytest

from misclass_prev import Cohort, PopulationGroup, SubjectRecord
from misclass_prev.data_model import build_design_matrix
from misclass_prev.simulate import load_bundled_scenario, simulate


def fd_gradient(f, theta, step=1e-6):
    """Central finite-difference gradient with relative step sizes."""
    theta = np.asarray(theta, dtype=float)
    g = np.empty(theta.shape[0])
    for j in range(theta.shape[0]):
        h = step * max(1.0, abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (f(up) - f(dn)) / (2.0 * h)
    return g


def fd_jacobian(score, theta, step=1e-5):
    """Central differences of a score, column by column, with relative steps."""
    cols = []
    for j in range(theta.shape[0]):
        h = step * max(1.0, abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        cols.append((np.asarray(score(up)) - np.asarray(score(dn))) / (2.0 * h))
    return np.column_stack(cols)


def fd_information(score, theta, step=1e-5):
    """Negative Hessian by central differences of an analytic score, symmetrized."""
    H = fd_jacobian(score, np.asarray(theta, dtype=float), step)
    return -0.5 * (H + H.T)


def assert_hessian_close(analytic, numeric):
    # relative to the matrix's scale: some cross entries nearly cancel
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6 * np.max(np.abs(numeric)))


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))


def random_logit_data(rng, n, p, beta=None):
    """Design with intercept plus (p-1) standard normal columns, plus outcomes."""
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    if beta is None:
        beta = rng.normal(scale=0.8, size=p)
    eta = X @ beta
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return y, X, np.asarray(beta, dtype=float)


def make_record(outcome=0, age=30.0, sex=1, sti=0, hepb=0, group=PopulationGroup.GENERAL):
    return SubjectRecord(
        observed_outcome=outcome,
        age=age,
        sex=sex,
        other_sti_result=sti,
        hepb_result=hepb,
        population_group=group,
    )


@pytest.fixture
def small_cohort():
    records = (
        make_record(1, 25.0, 1, 0, 0, PopulationGroup.MSM),
        make_record(0, 40.5, 0, 1, 0, PopulationGroup.GENERAL),
        make_record(0, 33.0, 1, 0, 1, PopulationGroup.SEX_WORKER),
        make_record(1, 19.0, 0, 0, 0, PopulationGroup.LGTBI),
        make_record(0, 61.0, 1, 1, 0, PopulationGroup.OTHER),
    )
    return Cohort(records=records, outcome_label="HIV")


@pytest.fixture(scope="session")
def intage_demo():
    """``(y, X)`` of the bundled demo cohort at seed 42 with ages rounded to whole years.

    The benchmark's first compare cohort: n = 11,452, about 900 covariate
    patterns, and a joint fit whose false-positive rate sits on its bound.
    """
    cohort, _ = simulate(replace(load_bundled_scenario("demo_cohort"), seed=42))
    records = tuple(replace(r, age=float(round(r.age))) for r in cohort.records)
    cohort = Cohort(records=records, outcome_label=cohort.outcome_label)
    return cohort.outcomes(), build_design_matrix(cohort)
