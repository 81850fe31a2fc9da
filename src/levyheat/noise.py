"""Counter-addressed space-time white noise on the simulation grid.

Each cell (k, i) of a (k_time x m_space) grid carries an independent standard
normal variate xi(k, i); the white-noise increment over the cell is
xi * sqrt(dt * dx).  Variates are a pure function of (seed, replica, k, i):
cell (k, i) owns the 64-bit Philox word at position k*m_space + i of the
stream keyed by (seed, replica), mapped through the Gaussian inverse CDF.
One word per cell, no rejection sampling, so any access order, slicing, or
thread layout reproduces identical values bit for bit.

Every variate comes from one block filler.  Each thread keeps a single
Philox generator; for each replica of a block it resets the generator's counter
and key to the stream position, which for a counter-based generator is the
same as building a fresh one (Salmon et al., SC'11), and Generator.random
writes the stream's uniforms straight into its row of the preallocated
(replicas, count) block, one call per stream.  One ndtri call then maps the
whole block.  This is an evaluation order only: RNG_SCHEME is unchanged.
Every reader, sample_noise and the drivers alike, takes time rows of the
streams from a _NoiseRows slice.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .kernels import TWO_PI

# recorded in run metadata; bump if the variate derivation ever changes
RNG_SCHEME = "philox4x64/word-indexed/ndtri/v1"

# shifts each uniform k * 2^-53 by half its cell; see _normal_block
_HALF_ULP = 2.0 ** -54
# bounds |xi| of every finite variate: the smallest shifted uniform is
# 2^-54, and the largest below 1.0 is 1 - 2^-52, farther from 1 than 2^-54
# is from 0
XI_MAX = -float(ndtri(_HALF_ULP))


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
        if not abs(x) < math.inf:
            raise ValueError(f"probe point {x} is not finite")
        if abs(k - round(k)) > 1e-9 or abs(i - round(i)) > 1e-9:
            raise ValueError(f"probe ({t}, {x}) is not a grid point")
        return int(round(k)), int(round(i)) % self.m_space


_per_thread = threading.local()


def _normal_block(seed, replicas, first_word, count):
    """Standard normals for words [first_word, first_word + count) of the
    streams (seed, r), one row per replica r, as a (len(replicas), count)
    array: ndtri(u + 2^-54) of each word's uniform u, finite except for the
    top uniform, whose variate is +inf."""
    skip = first_word % 4
    gen = getattr(_per_thread, "gen", None)
    if gen is None:
        gen = _per_thread.gen = np.random.Generator(np.random.Philox())
    bitgen = gen.bit_generator
    # a freshly constructed Philox(counter=, key=) has an empty buffer
    state = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    counter = (first_word // 4, 0, 0, 0)
    out = np.empty((len(replicas), count))
    for row, r in zip(out, replicas):
        if r < 0:
            raise ValueError("replica index must be nonnegative")
        key = (seed % (1 << 64), r % (1 << 64))
        state["state"] = {"counter": counter, "key": key}
        bitgen.state = state
        if skip:  # first_word sits inside a 4-word Philox block
            bitgen.random_raw(skip)
        gen.random(out=row)
    # the shift keeps the inverse CDF off 0.0, but not off 1.0: at u >= 1/2
    # doubles are 2^-53 apart, so every shift there is a tie that rounds to
    # the even neighbour.  The uniforms (2j - 1) 2^-53 and 2j 2^-53 share
    # one variate, and the top one, (2^53 - 1) 2^-53, rounds to 1.0, whose
    # variate is +inf (probability 2^-53 per cell).  RNG_SCHEME freezes both
    out += _HALF_ULP
    return ndtri(out, out=out)


class _NoiseRows:
    """The (len(replicas), k_time, m_space) variates of a range of replicas,
    drawn on demand: xi[:, k0:k1] fills steps k0..k1-1 from their word
    counters, bit-identical to the same slice of the whole block."""

    def __init__(self, grid, seed, replicas):
        self.grid, self.seed, self.replicas = grid, seed, replicas
        self.shape = (len(replicas), grid.k_time, grid.m_space)

    def __getitem__(self, index):
        k0, k1, _ = index[1].indices(self.grid.k_time)
        m = self.grid.m_space
        block = _normal_block(self.seed, self.replicas, k0 * m, (k1 - k0) * m)
        return block.reshape(len(self.replicas), k1 - k0, m)


def sample_noise(grid, seed, replica=0):
    """All variates xi of one replica as a (k_time, m_space) array.

    Only (seed, replica) identify the noise; the array itself is never
    serialized.
    """
    return _NoiseRows(grid, seed, (replica,))[:, :][0]
