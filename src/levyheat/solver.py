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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import (
    FOUR_PI_SQ,
    TWO_PI,
    SpectralField,
    kernel_l2_norm_sq,
    rfft_symbol,
    rfft_weights,
)
from .noise import GridSpec, sample_noise
from ._parallel import map_chunks

BLOWUP_THRESHOLD = 1e12


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
    """Noise coefficient sigma with its derivative and regularity data.

    kappa is a lower bound on |sigma| (0 for degenerate choices; the
    small-ball and negative-moment estimators insist on kappa > 0), lip a
    Lipschitz bound, sup_abs / sup_abs_prime optional uniform bounds used only
    for reporting.
    """

    name: str
    sigma: Callable
    sigma_prime: Callable
    lip: float
    kappa: float
    sup_abs: Optional[float] = None
    sup_abs_prime: Optional[float] = None

    def __post_init__(self):
        if self.kappa < 0.0 or self.lip < 0.0:
            raise ValueError("kappa and lip must be nonnegative")


def _const(value):
    return lambda u: np.full_like(np.asarray(u, dtype=float), value)


SIGMA_REGISTRY = {
    "zero": SigmaSpec("zero", _const(0.0), _const(0.0), lip=0.0, kappa=0.0,
                      sup_abs=0.0, sup_abs_prime=0.0),
    "one": SigmaSpec("one", _const(1.0), _const(0.0), lip=0.0, kappa=1.0,
                     sup_abs=1.0, sup_abs_prime=0.0),
    "two": SigmaSpec("two", _const(2.0), _const(0.0), lip=0.0, kappa=2.0,
                     sup_abs=2.0, sup_abs_prime=0.0),
    "shifted_sine": SigmaSpec("shifted_sine", lambda u: 2.0 + np.sin(u), np.cos,
                              lip=1.0, kappa=1.0, sup_abs=3.0, sup_abs_prime=1.0),
}


def get_sigma(name):
    try:
        return SIGMA_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown sigma {name!r}; choices: {sorted(SIGMA_REGISTRY)}"
        ) from None


@dataclass
class FieldState:
    """Solution snapshot at time index k."""

    k: int
    values: np.ndarray


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

    observables are (t, x) probe points that must sit exactly on the grid.
    """

    grid: GridSpec
    exponent: object
    sigma: SigmaSpec
    u0: SpectralField
    seed: int = 0
    replicas: int = 10000
    observables: Sequence = field(default_factory=list)

    def __post_init__(self):
        if self.u0.m_space != self.grid.m_space:
            raise ValueError(
                f"u0 lives on {self.u0.m_space} points, grid has {self.grid.m_space}"
            )
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        self.probe_indices()

    def probe_indices(self):
        """Map (t, x) observables to exact (k, i) grid indices."""
        return [self.grid.index_of(t, x) for t, x in self.observables]


def _evolve_batch(u0_values, xi, exp_, sigma, grid, record_ks=(), keep_path=False):
    """Drive a batch of replicas through all k_time steps.

    xi has shape (B, k_time, m_space).  Returns (records, path, blowups):
    records maps k -> (B, m_space) snapshot, path is (B, k_time+1, m_space)
    when keep_path, blowups is a list of (batch_row, step_index, max_abs).
    Rows that blow up are frozen to NaN and reported, not raised.
    """
    m, k_time = grid.m_space, grid.k_time
    b = xi.shape[0]
    mult = rfft_multiplier(exp_, grid)
    scale = noise_density_scale(grid)
    u = np.broadcast_to(np.asarray(u0_values, dtype=float), (b, m)).copy()
    alive = np.ones(b, dtype=bool)
    blowups = []
    records = {}
    path = np.empty((b, k_time + 1, m)) if keep_path else None
    if keep_path:
        path[:, 0] = u
    if 0 in record_ks:
        records[0] = u.copy()
    for k in range(k_time):
        g = sigma.sigma(u) * xi[:, k, :] * scale
        u = _smooth(u + g, mult, m)
        if np.any(alive):
            max_abs = np.max(np.abs(u[alive]), axis=-1)
            bad = ~np.isfinite(max_abs) | (max_abs > BLOWUP_THRESHOLD)
            if np.any(bad):
                rows = np.flatnonzero(alive)[bad]
                for r in rows:
                    top = float(np.max(np.abs(u[r])))
                    blowups.append((int(r), k + 1, top))
                u[rows] = np.nan
                alive[rows] = False
        if keep_path:
            path[:, k + 1] = u
        if (k + 1) in record_ks:
            records[k + 1] = u.copy()
    return records, path, blowups


def _noise_block(grid, seed, replicas):
    """Stacked xi arrays for a list of replica indices."""
    return np.stack([sample_noise(grid, seed, r).xi for r in replicas])


def solve_path(config, replica=0, noise=None, times=None, keep_path=False):
    """Solve one replica; returns FieldStates at the requested times.

    times defaults to the probe times plus the horizon.  A blow-up raises
    BlowUpError.  Pass keep_path=True to get (states, full path array).
    """
    grid = config.grid
    if noise is None:
        noise = sample_noise(grid, config.seed, replica)
    if times is None:
        ks = sorted({k for k, _ in config.probe_indices()} | {grid.k_time})
    else:
        ks = sorted({grid.index_of(t, 0.0)[0] for t in times})
    records, path, blowups = _evolve_batch(
        config.u0.values, noise.xi[None], config.exponent, config.sigma, grid,
        record_ks=set(ks), keep_path=keep_path,
    )
    if blowups:
        _, k_bad, max_abs = blowups[0]
        raise BlowUpError(k_bad, max_abs, replica)
    states = [FieldState(k=k, values=records[k][0]) for k in ks]
    if keep_path:
        return states, path[0]
    return states


def solve_path_values(config, replica=0, noise=None):
    """Full (k_time+1, m_space) trajectory of one replica."""
    _, path = solve_path(config, replica, noise, times=[config.grid.horizon],
                         keep_path=True)
    return path


# ---------------------------------------------------------------------------
# additive-case variance targets


def walsh_variance(exp_, grid, tol=1e-10):
    """Isometry variance int_0^T ||q_s||^2 ds on the scheme's time grid.

    Right-endpoint sum: the increment injected at step k is smoothed for the
    remaining K-k steps, so the scheme's additive variance is
    sum_{j=1..K} dt ||q_{j dt}||^2 up to band truncation.
    """
    dt = grid.dt
    return dt * math.fsum(
        kernel_l2_norm_sq(exp_, j * dt, tol) for j in range(1, grid.k_time + 1)
    )


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
# weighted norms and Picard iteration


def weighted_norm(times, pth_moments, beta_param, p):
    """sup over probes of (e^{-beta t} * E|f|^p)^(1/p).

    times and pth_moments are aligned arrays; beta_param = 0 gives the plain
    sup-L^p norm.
    """
    times = np.asarray(times, dtype=float)
    moments = np.asarray(pth_moments, dtype=float)
    if times.shape != moments.shape or times.size == 0:
        raise ValueError("times and moments must be aligned and nonempty")
    if p < 2:
        raise ValueError("need p >= 2")
    if beta_param < 0:
        raise ValueError("need beta_param >= 0")
    if np.any(moments < 0):
        raise ValueError("moments must be nonnegative")
    return float(np.max(np.exp(-beta_param * times) * moments) ** (1.0 / p))


@dataclass
class PicardReport:
    """Successive-difference norms of the Picard iterates.

    norms[n] is ||v_{n+1} - v_n|| in the weighted norm, ratios the successive
    quotients; contracting flags whether every ratio stayed below one (a
    failed flag usually means beta_param is too small for the coefficient).
    """

    beta_param: float
    p: float
    replicas: int
    norms: np.ndarray
    stderrs: np.ndarray
    ratios: np.ndarray
    contracting: bool

    def to_rows(self, run_id="picard", seed=0, alpha=None, beta=None):
        from .mcstats import make_row  # mcstats imports this module

        head = (run_id, seed, alpha, beta)
        rows = [make_row(*head, f"picard_diff/n={n}", float(v), float(se),
                         replica_count=self.replicas)
                for n, (v, se) in enumerate(zip(self.norms, self.stderrs))]
        rows += [make_row(*head, f"picard_ratio/n={n}", float(r),
                          replica_count=self.replicas)
                 for n, r in enumerate(self.ratios, start=1)]
        return rows


PICARD_CHUNK = 128


def picard_sequence(config, n_max, beta_param, p=2, replicas=None, workers=1):
    """Successive Picard iterates against frozen noise paths.

    v_0 is the deterministic flow of u0; v_{n+1} re-runs the stochastic
    convolution with integrand sigma(v_n) on the same noise.  Expectations are
    replica averages; the report carries the weighted norms of the successive
    differences, their Monte Carlo standard errors (delta method at the
    argmax probe), and the contraction ratios.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    grid = config.grid
    r_total = config.replicas if replicas is None else replicas
    if r_total < 2:
        raise ValueError("need at least 2 replicas for moment estimates")
    m, k_time = grid.m_space, grid.k_time
    mult = rfft_multiplier(config.exponent, grid)
    scale = noise_density_scale(grid)
    sig = config.sigma.sigma

    v0_path = np.empty((k_time + 1, m))
    v0_path[0] = config.u0.values
    for k in range(k_time):
        v0_path[k + 1] = _smooth(v0_path[k], mult, m)

    def one_chunk(lo, hi):
        b = hi - lo
        xi = _noise_block(grid, config.seed, range(lo, hi))
        prev = np.broadcast_to(v0_path, (b, k_time + 1, m)).copy()
        mom = np.zeros((n_max, k_time + 1, m))
        mom_sq = np.zeros((n_max, k_time + 1, m))
        for n in range(n_max):
            nxt = np.empty_like(prev)
            nxt[:, 0] = v0_path[0]
            conv = np.zeros((b, m))
            for k in range(k_time):
                g = sig(prev[:, k]) * xi[:, k] * scale
                conv = _smooth(conv + g, mult, m)
                nxt[:, k + 1] = v0_path[k + 1] + conv
            d = np.abs(nxt - prev) ** p
            mom[n] = d.sum(axis=0)
            mom_sq[n] = (d * d).sum(axis=0)
            prev = nxt
        return mom, mom_sq

    parts = map_chunks(one_chunk, r_total, PICARD_CHUNK, workers)
    mom = sum(p_[0] for p_ in parts) / r_total
    mom_sq = sum(p_[1] for p_ in parts) / r_total

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
        beta_param=float(beta_param), p=float(p), replicas=r_total,
        norms=norms, stderrs=stderrs, ratios=ratios,
        contracting=bool(np.all(ratios < 1.0)),
    )
