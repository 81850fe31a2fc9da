"""Reported stderrs checked over seeds: each estimator runs at seeds 0-31,
and the z-scores of its values against an exact value, or against a
reference with its own stderr, must look standard.

At sigma = 1 and u0 = 0 the solution is the additive Gaussian field, so the
exact values are closed forms of the scheme: mean 0, the variance
additive_variance_exact, and the Picard difference v_1 - v_0, which is that
field itself.  At the default sigma (shifted_sine) the references are the
same estimators over 2^20 replicas at another seed.  The estimators are the
ones the CLI rows write (test_cli pins the rows to them).
"""

import math

import numpy as np
import pytest

from levyheat import (GridSpec, RunConfig, additive_variance_exact, get_sigma,
                      hnorm_samples, make_power_exponent,
                      negative_moment_estimate, picard_sequence, run_ensemble)

SEEDS = range(32)
EXP2 = make_power_exponent(1.0, 2.0)
GRID = GridSpec(m_space=16, k_time=16, horizon=0.5)


def assert_calibrated(pairs, exact, exact_stderr=0.0):
    """The (value, stderr) pairs of seeds 0-31 are calibrated against the
    exact value, or a reference with its own stderr: z = (value - exact) /
    sqrt(stderr^2 + exact_stderr^2) has max |z| <= 4, |mean z| <= 0.6 and
    sample sd in [0.6, 1.5]."""
    values, stderrs = np.array(pairs, dtype=float).T
    assert len(values) == len(SEEDS)
    z = (values - exact) / np.hypot(stderrs, exact_stderr)
    summary = (f"max |z| {np.max(np.abs(z)):.3f}, mean z {z.mean():.3f}, "
               f"sd {z.std(ddof=1):.3f}")
    assert np.max(np.abs(z)) <= 4.0, summary
    assert abs(z.mean()) <= 0.6, summary
    assert 0.6 <= z.std(ddof=1) <= 1.5, summary


def make_config(sigma, seed, replicas=256):
    return RunConfig(grid=GRID, exponent=EXP2, sigma=get_sigma(sigma),
                     u0=np.zeros(GRID.m_space), seed=seed, replicas=replicas)


def additive_config(seed):
    return make_config("one", seed)


# the tail windows of CI's malliavin run with deltas=0.05,0.1
DELTAS = (0.05, 0.1)


def default_sigma_rows(seed, replicas=256):
    """(value, stderr) of the u_mean and u_var rows of simulate and the
    hnorm_mean, tail-window and default negative-moment rows of malliavin,
    at the default sigma.  The CLI writes the tail rows with stderr 0 (the
    benchmark pins them so); the stderr checked here is their SampleSet's."""
    cfg = make_config("shifted_sine", seed, replicas)
    ss = run_ensemble(cfg)
    mass, tails = hnorm_samples(cfg, deltas=DELTAS)
    nm = negative_moment_estimate(mass.values, p=2, floor=1e-8)
    return {"u_mean": (ss.mean(), ss.stderr()),
            "u_var": (ss.variance(), ss.variance_stderr()),
            "hnorm_mean": (mass.mean(), mass.stderr()),
            "negative_moment/p=2/floor=1.000e-08": (nm.estimate, nm.stderr),
            **{f"hnorm_tail_mean/delta={d:.6e}": (tails[d].mean(),
                                                  tails[d].stderr())
               for d in DELTAS}}


def test_simulate_stderrs_are_calibrated():
    # the u_mean and u_var rows of simulate at the probe (horizon, 0)
    sets = [run_ensemble(additive_config(seed)) for seed in SEEDS]
    assert_calibrated([(ss.mean(), ss.stderr()) for ss in sets], 0.0)
    assert_calibrated([(ss.variance(), ss.variance_stderr()) for ss in sets],
                      additive_variance_exact(EXP2, GRID))


# default_sigma_rows(2026, 2 ** 20), as (value, stderr), made by
#   cd tests && PYTHONPATH=../src:. python -c "from test_calibration import \
#   default_sigma_rows as r; print(r(2026, 2 ** 20))"
# in 57 s on 2 cores (numpy 2.4.6, scipy 1.17.1); the tail windows were
# added later, by the same command, which gave the other four to the last
# digit in 38 s
DEFAULT_SIGMA_REFERENCE = {
    "u_mean": (-0.00011105738254085983, 0.00038138880567544316),
    "u_var": (0.15252316078162936, 0.0002319916822024171),
    "hnorm_mean": (0.15597264429568444, 5.504448275497131e-05),
    "negative_moment/p=2/floor=1.000e-08": (7.293845114792344,
                                            0.002629685114759701),
    "hnorm_tail_mean/delta=5.000000e-02": (0.03932416825609021,
                                           1.2969156115280028e-05),
    "hnorm_tail_mean/delta=1.000000e-01": (0.05276995015532732,
                                           1.7497074437814066e-05),
}


@pytest.fixture(scope="module")
def default_sigma_runs():
    return [default_sigma_rows(seed) for seed in SEEDS]


@pytest.mark.parametrize("row", sorted(DEFAULT_SIGMA_REFERENCE))
def test_default_sigma_stderrs_are_calibrated(default_sigma_runs, row):
    assert_calibrated([rows[row] for rows in default_sigma_runs],
                      *DEFAULT_SIGMA_REFERENCE[row])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 9: picard_diff/n=0 is a sup over noisy cell estimates, "
    "biased upward (mean z about +1.7 here, +2.06 at 64 x 64)"))
def test_picard_first_difference_stderr_is_calibrated():
    # v_1 - v_0 is the additive field, whose variance after k steps is
    # additive_variance_exact on the first k steps at every x; its p = 2
    # weighted norm is max_k (e^(-beta t_k) V_k)^(1/2)
    beta = 64.0
    dt = GRID.dt
    exact = max(math.sqrt(math.exp(-beta * k * dt) * additive_variance_exact(
        EXP2, GridSpec(m_space=GRID.m_space, k_time=k, horizon=k * dt)))
        for k in range(1, GRID.k_time + 1))
    reports = [picard_sequence(additive_config(seed), 2, beta)
               for seed in SEEDS]
    assert_calibrated([(r.norms[0], r.stderrs[0]) for r in reports], exact)
