"""Noise-field tests: determinism, word addressing, and white-noise statistics.

Statistical checks run on fixed seeds with margins of several standard errors,
so they are deterministic despite being empirical.
"""

import math
import sys
import threading
import types

import numpy as np
import pytest
from scipy.special import ndtri

from levyheat import (
    RNG_SCHEME,
    GridSpec,
    noise_density_scale,
    sample_noise,
)
from levyheat import noise
from levyheat.noise import XI_MAX, _HALF_ULP, _NoiseRows, _normal_block

from conftest import traced_peak

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
    # a size that is not an integer is refused by its key, not later in a
    # transform or as an off-grid default probe
    with pytest.raises(ValueError, match="integer m_space .* got 16.0$"):
        GridSpec(m_space=16.0, k_time=8, horizon=0.5)
    with pytest.raises(ValueError, match="integer k_time .* got 8.5$"):
        GridSpec(m_space=16, k_time=8.5, horizon=0.5)
    assert GridSpec(np.int64(16), np.int32(8), 0.5).k_time == 8


def test_index_of_refuses_a_point_past_float_resolution():
    # from 2^23 cells on, ulp(x / dx) > 1e-9: x / dx holds no fraction to
    # test, and any float there would pass as a grid point
    g = GridSpec(m_space=64, k_time=8, horizon=0.5)
    assert g.index_of(0.5, g.dx * 2.0 ** 22) == (8, 0)
    for x in (g.dx * 2.0 ** 23, -g.dx * 2.0 ** 23, 1e17, 1e300):
        with pytest.raises(ValueError, match="too large to place on the grid"):
            g.index_of(0.5, x)
    assert g.index_of(0.0, 0.0) == (0, 0)


# ---------------------------------------------------------------------------
# determinism and addressing


def test_same_key_bit_identical():
    g = GridSpec(m_space=32, k_time=16, horizon=0.5)
    a = sample_noise(g, seed=42, replica=3)
    b = sample_noise(g, seed=42, replica=3)
    assert np.array_equal(a, b)


def test_row_matches_full_field():
    g = GridSpec(m_space=17, k_time=9, horizon=0.3)
    full = sample_noise(g, seed=5, replica=1)
    for k in (0, 3, 8):
        assert np.array_equal(_NoiseRows(g, 5, (1,))[:, k:k + 1][0, 0],
                              full[k])


def test_frozen_variates():
    # regression pins for the addressed variate scheme; a change here means the
    # scheme changed and RNG_SCHEME must be bumped
    g = GridSpec(m_space=8, k_time=4, horizon=0.5)
    f = sample_noise(g, seed=7, replica=2)
    assert f[0, 0] == -0.34100879470827106
    assert f[1, 3] == -0.5786249913716273
    assert f[3, 7] == 0.39172087098784547


def test_rng_scheme_string_frozen():
    assert RNG_SCHEME == "philox4x64/word-indexed/ndtri/v1"


def test_replica_must_be_nonnegative():
    g = GridSpec(m_space=8, k_time=4, horizon=0.5)
    with pytest.raises(ValueError):
        sample_noise(g, seed=1, replica=-1)


def constructed_stream(seed, replica, first_word, count):
    """The variate derivation of RNG_SCHEME, one freshly built Generator per
    stream: the reference the reused per-thread Philox must match."""
    key = np.array([seed % 2 ** 64, replica % 2 ** 64], dtype=np.uint64)
    gen = np.random.Generator(
        np.random.Philox(counter=[first_word // 4, 0, 0, 0], key=key))
    skip = first_word % 4
    return ndtri(gen.random(skip + count)[skip:] + _HALF_ULP)


def random_cases(n, rng):
    seeds = [0, 7, 2 ** 63, 2 ** 64 - 1, 2 ** 63 + 12345, -1, -2 ** 40, 99]
    for _ in range(n):
        yield (seeds[rng.integers(len(seeds))], int(rng.integers(0, 3)),
               int(rng.integers(0, 1000)), int(rng.integers(1, 40)))


def test_block_filler_matches_constructed_generators():
    rng = np.random.default_rng(2)
    for seed, lo, first_word, count in random_cases(60, rng):
        replicas = range(lo, lo + int(rng.integers(1, 4)))
        block = _normal_block(seed, replicas, first_word, count)
        assert block.shape == (len(replicas), count)
        for row, r in zip(block, replicas):
            ref = constructed_stream(seed, r, first_word, count)
            assert np.array_equal(row, ref)
    # count = 1 at every offset within a 4-word Philox block
    for first_word in range(8):
        assert np.array_equal(_normal_block(2 ** 63, (5,), first_word, 1)[0],
                              constructed_stream(2 ** 63, 5, first_word, 1))


def test_odd_rows_and_blocks_match_constructed_generators():
    # with m_space odd, row k starts at word k * m_space, mostly mid-block
    g = GridSpec(m_space=13, k_time=7, horizon=0.2)
    for k in range(g.k_time):
        assert np.array_equal(_NoiseRows(g, -3, (4,))[:, k:k + 1][0, 0],
                              constructed_stream(-3, 4, k * 13, 13))
    xi = _NoiseRows(g, 2 ** 64 - 2, range(3, 6))[:, :]
    for b, r in enumerate(range(3, 6)):
        ref = constructed_stream(2 ** 64 - 2, r, 0, 13 * 7).reshape(7, 13)
        assert np.array_equal(xi[b], ref)
        assert np.array_equal(sample_noise(g, 2 ** 64 - 2, r), ref)


def test_block_filler_is_thread_safe():
    # a tiny switch interval interleaves the two threads between resetting a
    # generator's state and drawing from it
    cases = list(random_cases(400, np.random.default_rng(9)))
    results = {}
    start = threading.Barrier(2)

    def fill(name):
        start.wait()
        results[name] = [_normal_block(seed, range(lo, lo + 3), fw, count)
                         for seed, lo, fw, count in cases]

    threads = [threading.Thread(target=fill, args=(n,)) for n in "ab"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for (seed, lo, fw, count), a, b in zip(cases, results["a"], results["b"]):
        for row_a, row_b, r in zip(a, b, range(lo, lo + 3)):
            ref = constructed_stream(seed, r, fw, count)
            assert np.array_equal(row_a, ref) and np.array_equal(row_b, ref)


def test_noise_rows_take_only_a_unit_step_time_slice():
    # the rows of a range of replicas are read as xi[:, k0:k1] alone: a
    # replica index or a strided time slice would be silently dropped
    xi = _NoiseRows(GridSpec(8, 10, 0.5), 0, range(4))
    assert xi[:, 2:4].shape == xi[:, 2:4:1].shape == (4, 2, 8)
    assert xi[:, 5:3].shape == (4, 0, 8)
    for index in (np.s_[:2, 0:6:2], np.s_[1:3, 2:4], 0, np.s_[:, 0:6:2],
                  np.s_[:, 3], np.s_[:, ::-1], np.s_[:, :, :]):
        with pytest.raises(IndexError, match=r"xi\[:, k0:k1\]"):
            xi[index]


def test_negative_replica_in_a_block_raises():
    g = GridSpec(m_space=8, k_time=4, horizon=0.5)
    with pytest.raises(ValueError):
        _normal_block(1, (0, -1), 0, 4)
    with pytest.raises(ValueError):
        _NoiseRows(g, 1, (2, -2))[:, :]


def test_noise_block_memory_is_the_block():
    # 256 replicas at 64 x 64 are an 8 MiB block; building rows in a list and
    # stacking them holds the block twice
    g = GridSpec(m_space=64, k_time=64, horizon=0.5)
    xi, peak = traced_peak(_NoiseRows(g, 3, range(256)).__getitem__,
                           np.s_[:, :])
    assert xi.nbytes == 8 * 2 ** 20
    assert peak <= 1.25 * xi.nbytes


def test_all_variates_finite():
    g = GridSpec(m_space=512, k_time=200, horizon=1.0)
    f = sample_noise(g, seed=2024, replica=0)
    assert np.all(np.isfinite(f))


class FixedUniforms:
    """Stands in for the per-thread Philox generator: every stream it is
    asked for holds the given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = uniforms
        self.bit_generator = types.SimpleNamespace(state=None)

    def random(self, out):
        out[:] = self.uniforms


def test_the_half_ulp_shift_ties_above_one_half(monkeypatch):
    # the frozen transform of RNG_SCHEME, through the block filler itself.
    # Below 1/2 the shift is exact and every uniform keeps its own variate.
    # At u >= 1/2 every shift is a tie that rounds to even: (2j - 1) 2^-53
    # and 2j 2^-53 share a variate, and the top uniform, (2^53 - 1) 2^-53,
    # rounds to 1.0, whose variate is +inf
    low = (2 ** 51 + np.arange(6)) * 2.0 ** -53
    high = (2 ** 53 - 6 + np.arange(6)) * 2.0 ** -53
    fake = FixedUniforms(np.concatenate(([0.0], low, high)))
    monkeypatch.setattr(noise._per_thread, "gen", fake, raising=False)
    xi = _normal_block(0, (0,), 0, 13)[0]
    assert xi[0] == -XI_MAX == ndtri(_HALF_ULP)
    assert len(np.unique(xi[1:7])) == 6
    top = xi[7:]
    assert top[1] == top[2] and top[3] == top[4]
    assert len(np.unique(top)) == 4
    assert top[5] == math.inf
    # XI_MAX bounds every finite variate, the largest of which is top[4]
    assert top[4] == ndtri(1.0 - 2.0 ** -52) < XI_MAX


# ---------------------------------------------------------------------------
# standard-normal statistics


def test_cell_statistics_million_cells():
    g = GridSpec(m_space=1000, k_time=1000, horizon=1.0)
    f = sample_noise(g, seed=123, replica=0)
    n = f.size
    assert n == 1_000_000
    assert abs(float(np.mean(f))) < 4.0 / math.sqrt(n)
    assert float(np.var(f)) == pytest.approx(1.0, rel=0.01)


def test_replicas_uncorrelated():
    g = GridSpec(m_space=1000, k_time=100, horizon=1.0)
    a = sample_noise(g, seed=55, replica=0).ravel()
    b = sample_noise(g, seed=55, replica=1).ravel()
    assert a.size == 100_000
    assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.01


def test_disjoint_cells_uncorrelated():
    g = GridSpec(m_space=500, k_time=200, horizon=1.0)
    xi = sample_noise(g, seed=31, replica=0)
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


def test_increment_quadratic_variation():
    # sum of squared increments over all cells estimates T * 2pi
    g = GridSpec(m_space=256, k_time=256, horizon=0.3)
    f = sample_noise(g, seed=9, replica=0)
    total = float(np.sum((f * math.sqrt(g.dt * g.dx)) ** 2))
    assert total / (g.horizon * TWO_PI) == pytest.approx(1.0, rel=0.05)


def test_refinement_variance_additivity():
    # summing the 2x2 fine increments inside one coarse cell reproduces the
    # coarse cell variance dt * dx
    coarse = GridSpec(m_space=32, k_time=32, horizon=0.25)
    fine = GridSpec(m_space=64, k_time=64, horizon=0.25)
    root = math.sqrt(fine.dt * fine.dx)
    sums = []
    for rep in range(40):
        xi = sample_noise(fine, seed=77, replica=rep) * root
        sums.append(xi.reshape(32, 2, 32, 2).sum(axis=(1, 3)).ravel())
    agg = np.concatenate(sums)
    assert float(np.var(agg)) == pytest.approx(coarse.dt * coarse.dx, rel=0.03)
