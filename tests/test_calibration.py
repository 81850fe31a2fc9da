"""Reported stderrs checked over seeds: each estimator runs at seeds 0-31,
and the z-scores of its values against an exact value must look standard.

At sigma = 1 and u0 = 0 the solution is the additive Gaussian field, so the
exact values are closed forms of the scheme: mean 0, the variance
additive_variance_exact, and the Picard difference v_1 - v_0, which is that
field itself.  The estimators are the ones the CLI rows write (test_cli pins
the rows to them).
"""

import math

import numpy as np
import pytest

from levyheat import (GridSpec, RunConfig, additive_variance_exact, get_sigma,
                      make_power_exponent, picard_sequence, run_ensemble)

SEEDS = range(32)
EXP2 = make_power_exponent(1.0, 2.0)
GRID = GridSpec(m_space=16, k_time=16, horizon=0.5)


def assert_calibrated(pairs, exact):
    """The (value, stderr) pairs of seeds 0-31 are calibrated against the
    exact value: z = (value - exact) / stderr has max |z| <= 4,
    |mean z| <= 0.6 and sample sd in [0.6, 1.5]."""
    values, stderrs = np.array(pairs, dtype=float).T
    assert len(values) == len(SEEDS)
    z = (values - exact) / stderrs
    summary = (f"max |z| {np.max(np.abs(z)):.3f}, mean z {z.mean():.3f}, "
               f"sd {z.std(ddof=1):.3f}")
    assert np.max(np.abs(z)) <= 4.0, summary
    assert abs(z.mean()) <= 0.6, summary
    assert 0.6 <= z.std(ddof=1) <= 1.5, summary


def additive_config(seed):
    return RunConfig(grid=GRID, exponent=EXP2, sigma=get_sigma("one"),
                     u0=np.zeros(GRID.m_space), seed=seed, replicas=256)


def test_simulate_stderrs_are_calibrated():
    # the u_mean and u_var rows of simulate at the probe (horizon, 0)
    sets = [run_ensemble(additive_config(seed)) for seed in SEEDS]
    assert_calibrated([(ss.mean(), ss.stderr()) for ss in sets], 0.0)
    assert_calibrated([(ss.variance(), ss.variance_stderr()) for ss in sets],
                      additive_variance_exact(EXP2, GRID))


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
