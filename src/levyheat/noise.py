"""Counter-addressed space-time white noise on the simulation grid.

Each cell (k, i) of a (k_time x m_space) grid carries an independent standard
normal variate xi(k, i); the white-noise increment over the cell is
xi * sqrt(dt * dx).  Variates are a pure function of (seed, replica, k, i):
cell (k, i) owns the 64-bit Philox word at position k*m_space + i of the
stream keyed by (seed, replica), mapped through the Gaussian inverse CDF.
One word per cell, no rejection sampling, so any access order, slicing, or
thread layout reproduces identical values bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .kernels import TWO_PI

# recorded in run metadata; bump if the variate derivation ever changes
RNG_SCHEME = "philox4x64/word-indexed/ndtri/v1"

_HALF_ULP = 2.0 ** -54  # centers the dyadic uniform grid away from 0 and 1


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: m_space points on [0, 2pi), k_time steps on [0, horizon]."""

    m_space: int
    k_time: int
    horizon: float

    def __post_init__(self):
        if self.m_space < 4:
            raise ValueError("need m_space >= 4")
        if self.k_time < 1:
            raise ValueError("need k_time >= 1")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError("need a finite positive horizon")

    @property
    def dt(self):
        return self.horizon / self.k_time

    @property
    def dx(self):
        return TWO_PI / self.m_space

    def x_points(self):
        return TWO_PI * np.arange(self.m_space) / self.m_space

    def t_points(self):
        return self.dt * np.arange(self.k_time + 1)

    def index_of(self, t, x):
        """Grid cell (k, i) of the point (t, x), with x wrapped onto the torus.

        The point must lie on the grid to within 1e-9 of a cell in each
        coordinate, with 0 <= t <= horizon.
        """
        k = t / self.dt
        i = x / self.dx
        if not (0.0 <= t <= self.horizon * (1 + 1e-12)):
            raise ValueError(f"probe time {t} outside [0, {self.horizon}]")
        if abs(k - round(k)) > 1e-9 or abs(i - round(i)) > 1e-9:
            raise ValueError(f"probe ({t}, {x}) is not a grid point")
        return int(round(k)), int(round(i)) % self.m_space


def _key(seed, replica):
    if replica < 0:
        raise ValueError("replica index must be nonnegative")
    return np.array([seed % (1 << 64), replica % (1 << 64)], dtype=np.uint64)


def _words_as_normals(seed, replica, first_word, count):
    """Standard normals for stream words [first_word, first_word + count)."""
    block = first_word // 4
    skip = first_word % 4
    gen = np.random.Generator(
        np.random.Philox(counter=[block, 0, 0, 0], key=_key(seed, replica))
    )
    u = gen.random(skip + count)[skip:]
    # Generator.random is (word >> 11) * 2^-53; recenter each dyadic cell so the
    # inverse CDF never sees 0.0 or 1.0
    return ndtri(u + _HALF_ULP)


@dataclass(frozen=True)
class NoiseField:
    """Materialized variates xi of one replica, tagged with its key.

    Only (seed, replica) identify the noise; the array itself is never
    serialized.
    """

    xi: np.ndarray
    seed: int
    replica: int
    grid: GridSpec


def sample_noise(grid, seed, replica=0):
    """All variates of one replica as a (k_time, m_space) array."""
    m, k = grid.m_space, grid.k_time
    xi = _words_as_normals(seed, replica, 0, k * m).reshape(k, m)
    return NoiseField(xi=xi, seed=seed, replica=replica, grid=grid)


def noise_row(grid, seed, replica, k):
    """Row k alone; bit-identical to sample_noise(...).xi[k]."""
    if not (0 <= k < grid.k_time):
        raise IndexError(f"time index {k} outside [0, {grid.k_time})")
    m = grid.m_space
    return _words_as_normals(seed, replica, k * m, m)
