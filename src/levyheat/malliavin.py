"""Pathwise differentiation of the scheme with respect to single noise cells.

The derivative of u(t, x) in the noise variate of cell (k_s, i_s), normalized
by sqrt(dt*dx), obeys the exact linearization of the exponential-Euler step:
it starts one step after the source as the smoothed point density

    D_{k_s+1} = S_dt [ sigma(u_{k_s}(y)) * delta_y / (dx sqrt(2pi)) ],

and then propagates through the same smoothing with the multiplicative factor
1 + sigma'(u_k) xi_k * scale picked up at every later step.  In the additive
case D equals the transition kernel divided by sqrt(2pi) (the same measure
normalization the solver's noise density uses), so the squared quadrature
sum_{cells} |D|^2 dt dx reproduces int_0^t ||q_s||^2 ds in the kernel's
unit-mass convention.

`noise_gradient_oracle` is the independent check: a central finite difference
of two full re-solves with one variate shifted, Richardson-tested against the
half-step quotient.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import TWO_PI, kernel_l2_time_integral
from .mcstats import make_row
from .noise import sample_noise
from .solver import (
    _evolve_batch,
    _smooth,
    noise_density_scale,
    rfft_multiplier,
    solve_path_values,
)
from ._parallel import map_chunks

HNORM_CHUNK = 64


@dataclass(frozen=True)
class MalliavinState:
    """Derivative field of one source cell, at time index k."""

    source: tuple
    k: int
    values: np.ndarray


@dataclass(frozen=True)
class MalliavinField:
    """Derivative fields of a whole (possibly strided) lattice of source cells.

    data[r] is the derivative field of source cell sources[r]; weight is the
    quadrature mass dt*stride_k * dx*stride_i each cell represents.
    """

    data: np.ndarray
    sources: np.ndarray
    k: int
    grid: object
    weight: float


def _point_scale(grid):
    # point density against the unit-mass measure, cf. noise_density_scale
    return 1.0 / (grid.dx * math.sqrt(TWO_PI))


def propagate_derivative(path, noise, exp_, sigma, grid, source, until_k=None):
    """Derivative field of one source cell at time index until_k.

    path is the (k_time+1, m_space) solved trajectory and noise its variates;
    both must come from the same replica.  Sources at or after until_k return
    the zero field (the solution is adapted: it cannot see future noise).
    """
    k_s, i_s = source
    if not (0 <= k_s < grid.k_time) or not (0 <= i_s < grid.m_space):
        raise IndexError(f"source cell {source} outside the grid")
    until_k = grid.k_time if until_k is None else until_k
    if not (0 <= until_k <= grid.k_time):
        raise ValueError(f"until_k={until_k} outside [0, {grid.k_time}]")
    m = grid.m_space
    if k_s >= until_k:
        return MalliavinState(source=(k_s, i_s), k=until_k, values=np.zeros(m))
    xi = noise.xi if hasattr(noise, "xi") else np.asarray(noise)
    mult = rfft_multiplier(exp_, grid)
    scale = noise_density_scale(grid)
    d = np.zeros(m)
    d[i_s] = float(sigma.sigma(path[k_s, i_s])) * _point_scale(grid)
    d = _smooth(d, mult, m)
    for k in range(k_s + 1, until_k):
        d = _smooth(d * (1.0 + sigma.sigma_prime(path[k]) * xi[k] * scale), mult, m)
    return MalliavinState(source=(k_s, i_s), k=until_k, values=d)


def propagate_all(path, noise, exp_, sigma, grid, until_k=None,
                  stride_k=1, stride_i=1):
    """Derivative fields of every (strided) source cell before until_k.

    All rows share the per-step factor, so the whole lattice advances with one
    batched FFT per step; rows are injected as their source step is reached.
    """
    until_k = grid.k_time if until_k is None else until_k
    if stride_k < 1 or stride_i < 1:
        raise ValueError("strides must be >= 1")
    m = grid.m_space
    xi = noise.xi if hasattr(noise, "xi") else np.asarray(noise)
    mult = rfft_multiplier(exp_, grid)
    scale = noise_density_scale(grid)
    pscale = _point_scale(grid)
    ks_list = list(range(0, until_k, stride_k))
    is_list = list(range(0, m, stride_i))
    n_i = len(is_list)
    sources = np.array([(ks, i) for ks in ks_list for i in is_list],
                       dtype=int).reshape(-1, 2)
    data = np.zeros((len(ks_list) * n_i, m))
    block_of = {ks: j * n_i for j, ks in enumerate(ks_list)}
    n_active = 0
    for k in range(until_k):
        if n_active:
            factor = 1.0 + sigma.sigma_prime(path[k]) * xi[k] * scale
            data[:n_active] *= factor
        if k in block_of:
            b = block_of[k]
            amp = sigma.sigma(path[k, is_list]) * pscale
            data[b + np.arange(n_i), is_list] = amp
            n_active = b + n_i
        data[:n_active] = _smooth(data[:n_active], mult, m)
    weight = grid.dt * stride_k * grid.dx * stride_i
    return MalliavinField(data=data, sources=sources, k=until_k, grid=grid,
                          weight=weight)


@dataclass(frozen=True)
class HNormReport:
    """Quadrature of |D u(t, x)|^2 over source cells, with trailing-window tails."""

    t: float
    x: float
    hnorm_sq: float
    tail: dict
    replica: Optional[int] = None


def hnorm_sq(field, x_index, deltas=(), replica=None, grid=None):
    """Sum_{source cells} |D(t, x)|^2 * quadrature weight, plus window tails.

    tail[delta] restricts the sum to sources in (t - delta, t], the windowed
    mass that drives the small-ball bounds.  field is a MalliavinField, or a
    list of unit-stride MalliavinStates sharing a probe time (pass grid too).
    """
    if not isinstance(field, MalliavinField):
        states = list(field)
        if not states:
            raise ValueError("need at least one source state")
        if len({s.k for s in states}) > 1:
            raise ValueError("all source states must share the probe time")
        if grid is None:
            raise ValueError("a list of states needs the grid argument")
        field = MalliavinField(
            data=np.stack([s.values for s in states]),
            sources=np.array([s.source for s in states], dtype=int),
            k=states[0].k, grid=grid, weight=grid.dt * grid.dx,
        )
    grid = field.grid
    col = field.data[:, x_index] ** 2
    total = float(col.sum() * field.weight)
    t = field.k * grid.dt
    tail = {}
    for delta in deltas:
        if delta <= 0:
            raise ValueError("tail windows must be positive")
        k_lo = field.k - int(round(delta / grid.dt))
        mask = field.sources[:, 0] >= k_lo
        tail[float(delta)] = float(col[mask].sum() * field.weight)
    return HNormReport(t=t, x=x_index * grid.dx, hnorm_sq=total, tail=tail,
                       replica=replica)


@dataclass(frozen=True)
class OracleResult:
    """Central-difference gradient with its Richardson consistency check."""

    value: float
    value_half: float
    richardson_err: float
    reliable: bool
    h: float


def noise_gradient_oracle(config, replica, source, probe, h=0.5, rel_tol=0.05):
    """Finite-difference derivative of u(probe) in one noise variate.

    Re-solves the full scheme with xi(source) shifted by +-h and +-h/2 and
    returns (u+ - u-)/(2h), divided by sqrt(dt*dx) to match the cell
    normalization of propagate_derivative.  The two step sizes give a
    3-point Richardson error estimate; `reliable` flags whether h sits in the
    window where nonlinearity and roundoff are both under control.
    """
    grid = config.grid
    k_s, i_s = source
    if not (0 <= k_s < grid.k_time) or not (0 <= i_s < grid.m_space):
        raise IndexError(f"source cell {source} outside the grid")
    k_p, i_p = grid.index_of(*probe)
    base = sample_noise(grid, config.seed, replica).xi
    variants = np.stack([base, base, base, base])
    variants[0, k_s, i_s] += h
    variants[1, k_s, i_s] -= h
    variants[2, k_s, i_s] += 0.5 * h
    variants[3, k_s, i_s] -= 0.5 * h
    records, _, blowups = _evolve_batch(
        config.u0.values, variants, config.exponent, config.sigma, grid,
        record_ks={k_p},
    )
    if blowups:
        raise RuntimeError(f"oracle re-solve blew up: {blowups}")
    u = records[k_p][:, i_p]
    cell = math.sqrt(grid.dt * grid.dx)
    v_h = (u[0] - u[1]) / (2.0 * h * cell)
    v_half = (u[2] - u[3]) / (h * cell)
    err = abs(v_half - v_h) / 3.0
    reliable = err <= max(rel_tol * abs(v_half), 1e-12)
    return OracleResult(value=float(v_h), value_half=float(v_half),
                        richardson_err=float(err), reliable=bool(reliable), h=h)


# ---------------------------------------------------------------------------
# sampling drivers


def _probe(config, probe):
    """The probe (t, x), defaulting to the first observable or (horizon, 0),
    and its grid cell (k, i)."""
    if probe is None:
        probe = (config.observables[0] if config.observables
                 else (config.grid.horizon, 0.0))
    return tuple(probe), config.grid.index_of(*probe)


def hnorm_samples(config, probe=None, replicas=None, workers=1,
                  stride_k=1, stride_i=1, deltas=()):
    """Replica samples of the derivative mass |D u(t, x)|^2_H.

    Returns (samples, tails) where tails maps each window delta to its
    per-replica array.  Deterministic in (config, probe, strides) regardless
    of worker count.
    """
    grid = config.grid
    _, (k_p, i_p) = _probe(config, probe)
    r_total = config.replicas if replicas is None else replicas

    def one_chunk(lo, hi):
        vals = np.empty(hi - lo)
        tails = {float(d): np.empty(hi - lo) for d in deltas}
        for j, r in enumerate(range(lo, hi)):
            nf = sample_noise(grid, config.seed, r)
            path = solve_path_values(config, r, nf)
            mf = propagate_all(path, nf, config.exponent, config.sigma, grid,
                               until_k=k_p, stride_k=stride_k, stride_i=stride_i)
            rep = hnorm_sq(mf, i_p, deltas=deltas, replica=r)
            vals[j] = rep.hnorm_sq
            for d in deltas:
                tails[float(d)][j] = rep.tail[float(d)]
        return vals, tails

    parts = map_chunks(one_chunk, r_total, HNORM_CHUNK, workers)
    samples = np.concatenate([p[0] for p in parts])
    tails = {float(d): np.concatenate([p[1][float(d)] for p in parts])
             for d in deltas}
    return samples, tails


def smallball_lower_mass(exp_, kappa, delta, tol=1e-10):
    """(kappa^2 / 2) * int_0^delta ||q_s||^2 ds, the guaranteed derivative mass
    contributed by the window (t - delta, t] when |sigma| >= kappa."""
    if kappa <= 0:
        raise ValueError("needs a positive lower bound kappa on |sigma|")
    return 0.5 * kappa ** 2 * kernel_l2_time_integral(exp_, delta, tol)


def _wilson(successes, n, z=1.959963984540054):
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


@dataclass
class SmallBallReport:
    """Empirical small-ball frequencies of |D u(t,x)|^2_H with diagnostics.

    For each eps: the frequency P(mass < eps) with a Wilson interval, the
    window delta = (4 eps / c_fit)^(beta/(beta-1)) suggested by the lower-mass
    scaling, and lower_mass(delta) - eps, which must stay positive for the
    window argument to have any force.
    """

    probe: tuple
    replicas: int
    eps: np.ndarray
    freq: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    delta: np.ndarray
    lower_mass: np.ndarray
    lower_mass_minus_eps: np.ndarray
    c_fit: float
    samples: np.ndarray

    def to_rows(self, run_id="smallball", seed=0, alpha=None, beta=None):
        rows = []
        t, x = self.probe
        for j, e in enumerate(self.eps):
            for quantity, val, se in (
                (f"smallball_freq/eps={e:.6e}", self.freq[j],
                 0.5 * (self.ci_hi[j] - self.ci_lo[j])),
                (f"smallball_window/eps={e:.6e}", self.delta[j], 0.0),
                (f"smallball_lower_mass_minus_eps/eps={e:.6e}",
                 self.lower_mass_minus_eps[j], 0.0),
            ):
                rows.append(make_row(run_id, seed, alpha, beta, quantity,
                                     float(val), float(se), t=t, x=x,
                                     replica_count=self.replicas))
        return rows


def smallball_probability(config, eps_list=None, replicas=None, probe=None,
                          levels=None, workers=1, stride_k=1, stride_i=1):
    """Monte Carlo small-ball frequencies of the derivative mass at a probe.

    eps defaults to empirical quantiles over the resolvable range (levels
    2%..50%), where frequencies are neither all-zero nor saturated.  Zero-hit
    eps still get a positive Wilson upper bound.
    """
    if config.sigma.kappa <= 0:
        raise ValueError("small-ball analysis needs sigma bounded below: kappa > 0")
    (t, x), _ = _probe(config, probe)
    samples, _ = hnorm_samples(config, probe=(t, x), replicas=replicas,
                               workers=workers, stride_k=stride_k,
                               stride_i=stride_i)
    n = len(samples)
    if eps_list is None:
        if levels is None:
            levels = [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
        eps = np.quantile(samples, levels)
        eps = np.unique(eps[eps > 0])
    else:
        eps = np.sort(np.asarray(eps_list, dtype=float))
        if np.any(eps <= 0):
            raise ValueError("eps values must be positive")
    freq = np.array([(samples < e).mean() for e in eps])
    ci = np.array([_wilson(int((samples < e).sum()), n) for e in eps])

    exp_ = config.exponent
    beta = exp_.beta
    # scale constant of the lower mass: J(delta) >= (c/2) delta^(1-1/beta)
    d_grid = np.geomspace(max(t * 1e-3, config.grid.dt * 1e-2), t, 16)
    j_vals = np.array([smallball_lower_mass(exp_, config.sigma.kappa, d)
                       for d in d_grid])
    c_fit = float(np.min(2.0 * j_vals / d_grid ** (1.0 - 1.0 / beta)))
    delta = np.minimum((4.0 * eps / c_fit) ** (beta / (beta - 1.0)), t)
    lower = np.array([smallball_lower_mass(exp_, config.sigma.kappa, d)
                      for d in delta])
    return SmallBallReport(
        probe=(t, x), replicas=n, eps=eps, freq=freq,
        ci_lo=ci[:, 0], ci_hi=ci[:, 1], delta=delta, lower_mass=lower,
        lower_mass_minus_eps=lower - eps, c_fit=c_fit, samples=samples,
    )


@dataclass
class NegativeMomentReport:
    """Floor-regularized estimate of E[ |D u|^{-p} ] (mass to the -p/2)."""

    estimate: float
    stderr: float
    p: float
    floor: float
    floor_fraction: float
    reliable: bool
    sensitivity: dict
    replicas: int

    def to_rows(self, run_id="negmoment", seed=0, alpha=None, beta=None,
                probe=(0.0, 0.0)):
        head = (run_id, seed, alpha, beta)
        where = dict(t=probe[0], x=probe[1], replica_count=self.replicas)
        rows = [make_row(
            *head, f"negative_moment/p={self.p:g}/floor={self.floor:.3e}",
            self.estimate, self.stderr, **where)]
        for fl, est in sorted(self.sensitivity.items(), reverse=True):
            rows.append(make_row(
                *head, f"negative_moment_floor_sweep/floor={fl:.3e}", est,
                **where))
        return rows


def negative_moment_estimate(config, p=2, replicas=None, floor=1e-8,
                             probe=None, workers=1, stride_k=1, stride_i=1,
                             samples=None):
    """Replica average of max(|D u|^2_H, floor)^(-p/2).

    More than 1% of replicas hitting the floor marks the estimate unreliable;
    the sweep re-evaluates at floor/sqrt(10) and floor/10 so floor sensitivity
    is visible across one decade.  Pass samples to reuse mass samples already
    drawn for the same config and probe.
    """
    if config.sigma.kappa <= 0:
        raise ValueError("negative moments need sigma bounded below: kappa > 0")
    if p < 2:
        raise ValueError("need p >= 2")
    if floor <= 0:
        raise ValueError("need floor > 0")
    (t, x), _ = _probe(config, probe)
    if samples is None:
        samples, _ = hnorm_samples(config, probe=(t, x), replicas=replicas,
                                   workers=workers, stride_k=stride_k,
                                   stride_i=stride_i)
    else:
        samples = np.asarray(samples, dtype=float)
    n = len(samples)

    def est_at(fl):
        vals = np.maximum(samples, fl) ** (-p / 2.0)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    estimate, stderr = est_at(floor)
    frac = float((samples <= floor).mean())
    sweep = {float(floor * 10 ** (-j / 2)): est_at(floor * 10 ** (-j / 2))[0]
             for j in range(3)}
    return NegativeMomentReport(
        estimate=estimate, stderr=stderr, p=float(p), floor=float(floor),
        floor_fraction=frac, reliable=bool(frac <= 0.01), sensitivity=sweep,
        replicas=n,
    )
