"""Exponential-Euler solver for the mild stochastic heat equation on the torus.

One step of the scheme, in frequency space:

    u_{k+1}(n) = exp(-dt phi(n)) * (u_k(n) + g_k(n)),

where g_k is the multiplicative-noise term sigma(u_k(x_i)) * xi(k, i) scaled to
a density: a raw cell increment has variance dt*dx, and dividing by
dx*sqrt(2pi) converts it into a density against the unit-mass torus measure
that the kernel normalization uses.  The noise enters at the left endpoint of
each step (Ito evaluation), and each increment is smoothed by the semigroup
for the remaining steps, which is exactly the stochastic convolution with the
transition kernel.

The additive case (sigma constant) makes the solution Gaussian with variance
sum_k dt ||q_{(K-k) dt}||^2; `walsh_variance` evaluates that target on the
scheme's own time grid and `additive_variance_exact` gives the band-limited
discrete value, so Monte Carlo error and discretization bias can be told
apart.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernels import (
    DEFAULT_SERIES_TOL,
    FOUR_PI_SQ,
    TWO_PI,
    _norm_series,
    _sum_series,
    rfft_symbol,
    rfft_weights,
)
from .noise import GridSpec, _NoiseRows
from ._parallel import map_chunks

BLOWUP_THRESHOLD = 1e12
# the stepper draws at least this many words of each noise stream at a time
_ROW_BLOCK_WORDS = 2048


class BlowUpError(RuntimeError):
    """A replica exceeded the amplitude threshold and was aborted."""

    def __init__(self, step_index, max_abs, replica=0):
        self.step_index = step_index
        self.max_abs = max_abs
        self.replica = replica
        super().__init__(
            f"field blew up at step {step_index} (max |u| = {max_abs:.3e}, "
            f"replica {replica})"
        )


@dataclass(frozen=True)
class SigmaSpec:
    """Noise coefficient sigma with its derivative and a lower bound on |sigma|.

    kappa is that lower bound: 0 for degenerate choices, and the small-ball
    and negative-moment estimators insist on kappa > 0.
    """

    name: str
    sigma: Callable
    sigma_prime: Callable
    kappa: float

    def __post_init__(self):
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")


def _const(value):
    return lambda u: np.full_like(np.asarray(u, dtype=float), value)


SIGMA_REGISTRY = {
    "zero": SigmaSpec("zero", _const(0.0), _const(0.0), kappa=0.0),
    "one": SigmaSpec("one", _const(1.0), _const(0.0), kappa=1.0),
    "two": SigmaSpec("two", _const(2.0), _const(0.0), kappa=2.0),
    "shifted_sine": SigmaSpec("shifted_sine", lambda u: 2.0 + np.sin(u), np.cos,
                              kappa=1.0),
}


def get_sigma(name):
    try:
        return SIGMA_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown sigma {name!r}; choices: {sorted(SIGMA_REGISTRY)}"
        ) from None


def noise_density_scale(grid):
    """Factor turning sigma(u) * xi into the density the spectral step convolves."""
    return math.sqrt(grid.dt * grid.dx) / (grid.dx * math.sqrt(TWO_PI))


def rfft_multiplier(exp_, grid):
    """Per-step semigroup multiplier exp(-dt phi(n)) on the rfft modes 0..m/2."""
    return rfft_symbol(exp_, grid.m_space, lambda p: np.exp(-grid.dt * p))


def _smooth(fields, mult, m):
    return np.fft.irfft(np.fft.rfft(fields, axis=-1) * mult, n=m, axis=-1)


@dataclass(frozen=True)
class RunConfig:
    """Everything a deterministic run needs.

    u0 is the initial field as its m_space grid values, stored as a
    read-only float copy.  probe is the (t, x) point whose law the run
    samples; it must sit exactly on the grid and defaults to (horizon, 0),
    resolved when the config is built (dataclasses.replace with a new grid
    keeps the old probe).  Moment estimates need at least 2 replicas.
    """

    grid: GridSpec
    exponent: object
    sigma: SigmaSpec
    u0: np.ndarray
    seed: int = 0
    replicas: int = 10000
    probe: Optional[tuple] = None

    def __post_init__(self):
        u0 = np.array(self.u0, dtype=float)
        if u0.shape != (self.grid.m_space,):
            raise ValueError(f"u0 has shape {u0.shape}, the grid needs "
                             f"({self.grid.m_space},)")
        if not np.all(np.isfinite(u0)):
            raise ValueError("u0 values must be finite")
        u0.flags.writeable = False
        object.__setattr__(self, "u0", u0)
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas")
        if self.probe is None:
            object.__setattr__(self, "probe", (self.grid.horizon, 0.0))
        self.grid.index_of(*self.probe)  # an off-grid probe raises here

    @property
    def probe_cell(self):
        """Grid cell (k, i) of the probe."""
        return self.grid.index_of(*self.probe)


class _Scheme:
    """The exponential-Euler step of one run: the multiplier S, the noise
    density scale and sigma, written once for every driver."""

    def __init__(self, exp_, sigma, grid):
        self.m = grid.m_space
        self.mult = rfft_multiplier(exp_, grid)
        self.scale = noise_density_scale(grid)
        self.sigma = sigma

    def smooth(self, u, transpose=False):
        # S is a real circulant, so S^T has the conjugate symbol; S^T != S
        # under drift
        return _smooth(u, np.conj(self.mult) if transpose else self.mult,
                       self.m)

    def step(self, u, xi_k, w=None):
        """S(u + sigma(w) xi_k scale), w being u unless given (Picard's
        iterate n + 1 takes sigma of iterate n)."""
        return self.smooth(u + self.sigma.sigma(u if w is None else w)
                           * xi_k * self.scale)

    def tangent(self, u, xi_k):
        """F_k = 1 + sigma'(u_k) xi_k scale, the linearized step's factor."""
        return 1.0 + self.sigma.sigma_prime(u) * xi_k * self.scale

    def rows(self, xi, until_k):
        """xi[:, 0], ..., xi[:, until_k - 1] in order, drawn in blocks of
        max(1, _ROW_BLOCK_WORDS // m_space) time rows.  A caller that takes
        each row with next() and keeps none holds one block at a time."""
        rb = max(1, _ROW_BLOCK_WORDS // self.m)
        for k0 in range(0, until_k, rb):
            block = xi[:, k0:min(k0 + rb, until_k)]
            for j in range(block.shape[1]):
                yield block[:, j]
            del block  # release the last block before drawing the next


def _evolve_batch(u0_values, xi, exp_, sigma, grid, until_k, keep_path=False):
    """Drive a batch of replicas through steps 0..until_k-1 and stop.

    xi is the batch's noise: anything with shape (B, >= until_k, m_space)
    whose xi[:, k0:k1] is the (B, k1-k0, m_space) array of the variates of
    steps k0..k1-1, so an array or a noise._NoiseRows.  Returns (u, path,
    blowups): u is the (B, m_space) field at step until_k, path is
    (B, until_k+1, m_space) when keep_path, blowups is a list of
    (batch_row, step_index, max_abs).  Rows that blow up are frozen to NaN
    and reported, not raised; a row that would blow up only after until_k
    is not seen, so the drivers, which stop at the probe, keep it.
    """
    scheme = _Scheme(exp_, sigma, grid)
    rows = scheme.rows(xi, until_k)
    b, m = xi.shape[0], grid.m_space
    u = np.broadcast_to(np.asarray(u0_values, dtype=float), (b, m)).copy()
    alive = np.ones(b, dtype=bool)
    blowups = []
    path = np.empty((b, until_k + 1, m)) if keep_path else None
    if keep_path:
        path[:, 0] = u
    for k in range(until_k):
        u = scheme.step(u, next(rows))
        top = np.max(np.abs(u), axis=-1)
        bad = alive & ~(top <= BLOWUP_THRESHOLD)
        for r in np.flatnonzero(bad):
            blowups.append((int(r), k + 1, float(top[r])))
            u[r] = np.nan
        alive &= ~bad
        if keep_path:
            path[:, k + 1] = u
    return u, path, blowups


def _drop_blowups(lo, blowups, *arrays):
    """Drop the blown-up rows of a chunk's arrays.

    blowups are _evolve_batch's (batch_row, step, magnitude) triples for the
    chunk whose first replica is lo.  Returns the filtered arrays and the
    blow-ups as (replica, step, magnitude) in replica order, so the report
    does not depend on the chunk size.
    """
    if blowups:
        keep = np.ones(len(arrays[0]), dtype=bool)
        keep[[r for r, _, _ in blowups]] = False
        arrays = tuple(a[keep] for a in arrays)
    return arrays, sorted((lo + r, k, mag) for r, k, mag in blowups)


def solve_path(config, replica=0):
    """Full (k_time+1, m_space) trajectory of replica `replica`, driven by
    noise stream (config.seed, replica).  A blow-up raises BlowUpError."""
    grid = config.grid
    _, path, blowups = _evolve_batch(
        config.u0, _NoiseRows(grid, config.seed, (replica,)), config.exponent,
        config.sigma, grid, grid.k_time, keep_path=True,
    )
    if blowups:
        _, k_bad, max_abs = blowups[0]
        raise BlowUpError(k_bad, max_abs, replica)
    return path[0]


# ---------------------------------------------------------------------------
# additive-case variance targets


def walsh_variance(exp_, grid, tol=DEFAULT_SERIES_TOL):
    """Isometry variance int_0^T ||q_s||^2 ds on the scheme's time grid.

    Right-endpoint sum: the increment injected at step k is smoothed for the
    remaining K-k steps, so the scheme's additive variance is
    sum_{j=1..K} dt ||q_{j dt}||^2 up to band truncation.
    """
    dt = grid.dt
    norms = _sum_series(exp_, [_norm_series(exp_, j * dt, tol)
                               for j in range(1, grid.k_time + 1)])
    return dt * math.fsum(value for value, _ in norms)


def additive_variance_exact(exp_, grid):
    """Exact variance of the scheme's additive solution at the horizon.

    Geometric sum per band-limited mode; isolates Monte Carlo error in tests.
    """
    rho_sq = np.abs(rfft_multiplier(exp_, grid)) ** 2
    weights = rfft_weights(grid.m_space)
    k = grid.k_time
    total = 0.0
    for w, r in zip(weights, rho_sq):
        if r >= 1.0:
            total += w * k
        else:
            total += w * r * (1.0 - r ** k) / (1.0 - r)
    return grid.dt * total / FOUR_PI_SQ


# ---------------------------------------------------------------------------
# Picard iteration


@dataclass
class PicardReport:
    """Successive-difference norms of the Picard iterates.

    norms[n] is ||v_{n+1} - v_n|| in the weighted norm, ratios the successive
    quotients; contracting flags whether every ratio stayed below one (a
    failed flag usually means beta_param is too small for the coefficient).
    """

    norms: np.ndarray
    stderrs: np.ndarray
    ratios: np.ndarray
    contracting: bool


PICARD_CHUNK = 128


def picard_sequence(config, n_max, beta_param, p=2, workers=1):
    """Successive Picard iterates against frozen noise paths.

    v_0 is the deterministic flow of u0; v_{n+1} re-runs the stochastic
    convolution with integrand sigma(v_n) on the same noise.  Expectations are
    replica averages; the report carries the weighted norms of the successive
    differences, their Monte Carlo standard errors (delta method at the
    argmax probe), and the contraction ratios.  The weighted norm is
    sup_{t, x} (e^{-beta_param t} E|f(t, x)|^p)^(1/p): p >= 2 and
    beta_param >= 0, and beta_param = 0 gives the plain sup-L^p norm.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if not 2 <= p < math.inf:
        raise ValueError("need p >= 2 and finite")
    if not 0 <= beta_param < math.inf:
        raise ValueError("need beta_param >= 0 and finite")
    grid = config.grid
    r_total = config.replicas
    m, k_time = grid.m_space, grid.k_time
    scheme = _Scheme(config.exponent, config.sigma, grid)

    def one_chunk(lo, hi):
        # v[n] is iterate n at step k; iterate n + 1 needs iterate n only at
        # step k, so all of them advance together, row 0 being the flow of u0
        rows = scheme.rows(_NoiseRows(grid, config.seed, range(lo, hi)), k_time)
        v0 = config.u0
        v = np.broadcast_to(v0, (n_max + 1, hi - lo, m)).copy()
        conv = np.zeros((n_max, hi - lo, m))
        moments = np.zeros((2, n_max, k_time + 1, m))
        mom, mom_sq = moments
        for k in range(k_time):
            conv = scheme.step(conv, next(rows), v[:-1])
            v0 = scheme.smooth(v0)
            v[0] = v0
            v[1:] = v0 + conv
            d = np.abs(v[1:] - v[:-1]) ** p
            mom[:, k + 1] = d.sum(axis=1)
            mom_sq[:, k + 1] = (d * d).sum(axis=1)
        return moments

    # a wave of one chunk per worker at a time, folded in chunk order into the
    # sum over all chunks, so memory does not grow with the replica count
    moments, wave = 0, PICARD_CHUNK * max(1, workers)
    for start in range(0, r_total, wave):
        moments = sum(map_chunks(lambda lo, hi: one_chunk(start + lo, start + hi),
                                 min(wave, r_total - start), PICARD_CHUNK,
                                 workers), moments)
    mom, mom_sq = moments / r_total

    t_weights = np.exp(-beta_param * grid.t_points())[:, None]
    norms = np.empty(n_max)
    stderrs = np.empty(n_max)
    for n in range(n_max):
        weighted = t_weights * mom[n]
        flat = int(np.argmax(weighted))
        k_star, i_star = np.unravel_index(flat, weighted.shape)
        norms[n] = weighted[k_star, i_star] ** (1.0 / p)
        m1 = mom[n][k_star, i_star]
        var_m = max(mom_sq[n][k_star, i_star] - m1 * m1, 0.0)
        se_m = math.sqrt(var_m / r_total)
        stderrs[n] = norms[n] * se_m / (p * m1) if m1 > 0 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(norms[:-1] > 0, norms[1:] / norms[:-1], 0.0)
    return PicardReport(
        norms=norms, stderrs=stderrs, ratios=ratios,
        contracting=bool(np.all(ratios < 1.0)),
    )
