"""Noise-field tests: determinism, word addressing, and white-noise statistics.

Statistical checks run on fixed seeds with margins of several standard errors,
so they are deterministic despite being empirical.
"""

import math

import numpy as np
import pytest

from levyheat import (
    RNG_SCHEME,
    GridSpec,
    noise_density_scale,
    noise_row,
    sample_noise,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# grid


def test_grid_spacing():
    g = GridSpec(m_space=8, k_time=5, horizon=0.5)
    assert g.dt == pytest.approx(0.1)
    assert g.dx == pytest.approx(TWO_PI / 8)
    assert g.x_points() == pytest.approx(TWO_PI * np.arange(8) / 8)
    assert g.t_points() == pytest.approx(0.1 * np.arange(6))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(m_space=3, k_time=4, horizon=0.5)
    with pytest.raises(ValueError):
        GridSpec(m_space=8, k_time=0, horizon=0.5)
    with pytest.raises(ValueError):
        GridSpec(m_space=8, k_time=4, horizon=0.0)
    with pytest.raises(ValueError):
        GridSpec(m_space=8, k_time=4, horizon=math.inf)


# ---------------------------------------------------------------------------
# determinism and addressing


def test_same_key_bit_identical():
    g = GridSpec(m_space=32, k_time=16, horizon=0.5)
    a = sample_noise(g, seed=42, replica=3)
    b = sample_noise(g, seed=42, replica=3)
    assert np.array_equal(a.xi, b.xi)


def test_row_matches_full_field():
    g = GridSpec(m_space=17, k_time=9, horizon=0.3)
    full = sample_noise(g, seed=5, replica=1)
    for k in (0, 3, 8):
        assert np.array_equal(noise_row(g, 5, 1, k), full.xi[k])


def test_frozen_variates():
    # regression pins for the addressed variate scheme; a change here means the
    # scheme changed and RNG_SCHEME must be bumped
    g = GridSpec(m_space=8, k_time=4, horizon=0.5)
    f = sample_noise(g, seed=7, replica=2)
    assert f.xi[0, 0] == -0.34100879470827106
    assert f.xi[1, 3] == -0.5786249913716273
    assert f.xi[3, 7] == 0.39172087098784547


def test_rng_scheme_string_frozen():
    assert RNG_SCHEME == "philox4x64/word-indexed/ndtri/v1"


def test_replica_must_be_nonnegative():
    g = GridSpec(m_space=8, k_time=4, horizon=0.5)
    with pytest.raises(ValueError):
        sample_noise(g, seed=1, replica=-1)


def test_all_variates_finite():
    g = GridSpec(m_space=512, k_time=200, horizon=1.0)
    f = sample_noise(g, seed=2024, replica=0)
    assert np.all(np.isfinite(f.xi))


# ---------------------------------------------------------------------------
# standard-normal statistics


def test_cell_statistics_million_cells():
    g = GridSpec(m_space=1000, k_time=1000, horizon=1.0)
    f = sample_noise(g, seed=123, replica=0)
    n = f.xi.size
    assert n == 1_000_000
    assert abs(float(np.mean(f.xi))) < 4.0 / math.sqrt(n)
    assert float(np.var(f.xi)) == pytest.approx(1.0, rel=0.01)


def test_replicas_uncorrelated():
    g = GridSpec(m_space=1000, k_time=100, horizon=1.0)
    a = sample_noise(g, seed=55, replica=0).xi.ravel()
    b = sample_noise(g, seed=55, replica=1).xi.ravel()
    assert a.size == 100_000
    assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.01


def test_disjoint_cells_uncorrelated():
    g = GridSpec(m_space=500, k_time=200, horizon=1.0)
    xi = sample_noise(g, seed=31, replica=0).xi
    # neighboring columns are disjoint cells of the same replica
    assert abs(float(np.corrcoef(xi[:, ::2].ravel(), xi[:, 1::2].ravel())[0, 1])) < 0.01


# ---------------------------------------------------------------------------
# increments


def test_increment_scaling_and_bounds():
    # the increment of cell (k, i) is xi[k, i] * sqrt(dt * dx); the solver's
    # density scale spreads exactly that over a cell of unit-mass measure
    g = GridSpec(m_space=16, k_time=8, horizon=0.4)
    root = math.sqrt(g.dt * g.dx)
    assert noise_density_scale(g) * g.dx * math.sqrt(TWO_PI) == pytest.approx(
        root, rel=1e-15)
    with pytest.raises(IndexError):
        noise_row(g, 3, 0, 8)
    with pytest.raises(IndexError):
        noise_row(g, 3, 0, -1)


def test_increment_quadratic_variation():
    # sum of squared increments over all cells estimates T * 2pi
    g = GridSpec(m_space=256, k_time=256, horizon=0.3)
    f = sample_noise(g, seed=9, replica=0)
    total = float(np.sum((f.xi * math.sqrt(g.dt * g.dx)) ** 2))
    assert total / (g.horizon * TWO_PI) == pytest.approx(1.0, rel=0.05)


def test_refinement_variance_additivity():
    # summing the 2x2 fine increments inside one coarse cell reproduces the
    # coarse cell variance dt * dx
    coarse = GridSpec(m_space=32, k_time=32, horizon=0.25)
    fine = GridSpec(m_space=64, k_time=64, horizon=0.25)
    root = math.sqrt(fine.dt * fine.dx)
    sums = []
    for rep in range(40):
        xi = sample_noise(fine, seed=77, replica=rep).xi * root
        sums.append(xi.reshape(32, 2, 32, 2).sum(axis=(1, 3)).ravel())
    agg = np.concatenate(sums)
    assert float(np.var(agg)) == pytest.approx(coarse.dt * coarse.dx, rel=0.03)
