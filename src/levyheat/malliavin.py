"""Pathwise derivative of the scheme in its noise variates.

The exponential-Euler step u_{k+1} = S (u_k + sigma(u_k) xi_k * scale) is
differentiated exactly: `solver.adjoint_gradient` reads the whole gradient
of the probe value off one reverse sweep.  In the additive case the rows
are the transition kernel divided by sqrt(2pi) (the measure normalization of
the solver's noise density), so the squared quadrature
sum_{cells} |D|^2 dt dx that `hnorm_sq` forms reproduces
int_0^t ||q_s||^2 ds in the kernel's unit-mass convention.  There the
derivative is the rows of `solver.linearize`'s one sweep of the flow, which
the solver's Wiener sampler reads too, so `hnorm_samples` draws no noise.

Two independent oracles check the sweep: `propagate_derivative` pushes the
derivative of a single source cell forward through the linearized scheme,
and `noise_gradient_oracle` takes a central finite difference of two full
re-solves with one variate shifted, Richardson-tested against the half-step
quotient.  Like the sweep, both take the RunConfig and stop at its probe.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .noise import _NoiseRows
from .solver import (BlowUpError, SampleSet, _Scheme, _evolve_batch,
                     adjoint_gradient, check_moment_order, get_sigma,
                     linearize, sample_at_probe)


def _check_source(grid, source):
    k_s, i_s = source
    if not (0 <= k_s < grid.k_time) or not (0 <= i_s < grid.m_space):
        raise IndexError(f"source cell {source} outside the grid")
    return k_s, i_s


def propagate_derivative(config, path, xi, source):
    """Derivative field of one source cell at the probe step k_p of config.

    path is the run's (k_time+1, m_space) solved trajectory and xi its
    (k_time, m_space) variates; both must come from the same replica.
    Sources at or after k_p return the zero field (the solution is adapted:
    it cannot see future noise).
    """
    k_s, i_s = _check_source(config.grid, source)
    k_p, _ = config.probe_cell
    d = np.zeros(config.grid.m_space)
    if k_s >= k_p:
        return d
    scheme = _Scheme(config)
    d[i_s] = float(scheme.sigma.sigma(path[k_s, i_s])) * scheme.point_scale
    scheme.smooth(d)
    for k in range(k_s + 1, k_p):
        d *= scheme.tangent(path[k], xi[k])
        scheme.smooth(d)
    return d


def check_windows(deltas, dt):
    """Refuse a tail window that is not finite or that rounds to no step."""
    if not all(0 < delta < math.inf for delta in deltas):
        raise ValueError(f"tail windows must be positive and finite, got "
                         f"{list(deltas)}")
    if not all(round(delta / dt) for delta in deltas):
        raise ValueError(f"tail windows must exceed half a time step, "
                         f"dt = {dt:.6g}, got {list(deltas)}")


def hnorm_sq(rows, grid, deltas=()):
    """Per-replica quadrature sum_{cells} |D u(t, x)|^2 dt dx of gradient rows.

    rows is the (B, k_p, m_space) output of adjoint_gradient.  Returns
    (mass, tails): mass has shape (B,), and tails[delta] restricts the sum to
    sources in the window (t - delta, t], rounded to whole steps.
    """
    check_windows(deltas, grid.dt)
    weight = grid.dt * grid.dx
    per_step = np.sum(rows ** 2, axis=-1)
    k_p = rows.shape[1]
    tails = {}
    for delta in deltas:
        k_lo = max(k_p - int(round(delta / grid.dt)), 0)
        tails[float(delta)] = per_step[:, k_lo:].sum(axis=1) * weight
    return per_step.sum(axis=1) * weight, tails


@dataclass(frozen=True)
class OracleResult:
    """Central-difference gradient with its Richardson consistency check."""

    value: float
    value_half: float
    richardson_err: float
    reliable: bool


def noise_gradient_oracle(config, replica, source):
    """Finite-difference derivative of u(config.probe) in one noise variate.

    Re-solves the full scheme with xi(source) shifted by +-h and +-h/2,
    h = 0.5, and returns (u+ - u-)/(2h), divided by sqrt(dt*dx) to match the
    cell normalization of propagate_derivative.  The two step sizes give a
    3-point Richardson error estimate; `reliable` flags whether it is within
    5% of the value, that is whether h sits in the window where nonlinearity
    and roundoff are both under control.  It certifies config again for
    variates shifted by h.
    """
    h, rel_tol = 0.5, 0.05
    grid = config.grid
    k_s, i_s = _check_source(grid, source)
    config.certify(shift=h)
    k_p, i_p = config.probe_cell
    # the steps up to the probe read only the first k_p rows
    variants = np.repeat(_NoiseRows(grid, config.seed, (replica,))[:, :k_p],
                         4, axis=0)
    if k_s < k_p:  # a source at or after the probe leaves u(probe) as it is
        variants[:, k_s, i_s] += (h, -h, 0.5 * h, -0.5 * h)
    u, _ = _evolve_batch(config, variants, k_p)
    u = u[:, i_p]
    if not np.all(np.isfinite(u)):
        raise BlowUpError(replica)
    cell = math.sqrt(grid.dt * grid.dx)
    v_h = (u[0] - u[1]) / (2.0 * h * cell)
    v_half = (u[2] - u[3]) / (h * cell)
    err = abs(v_half - v_h) / 3.0
    reliable = err <= max(rel_tol * abs(v_half), 1e-12)
    return OracleResult(value=float(v_h), value_half=float(v_half),
                        richardson_err=float(err), reliable=bool(reliable))


def certified_floor(config):
    """m_kappa = kappa^2 |W_{k_p-1}|^2 dt dx, below which no mass lies: the
    sweep's last row is sigma(u_{k_p-1}) W_{k_p-1}, W the row of a unit
    sigma, every earlier row adds to the mass, and |sigma| >= kappa.  A
    probe at t = 0 has mass 0 and floor 0."""
    _, rows = linearize(replace(config, sigma=get_sigma("one")))
    weight = config.grid.dt * config.grid.dx
    return config.sigma.kappa ** 2 * float(np.sum(rows[0, -1:] ** 2)) * weight


# ---------------------------------------------------------------------------
# sampling drivers


def hnorm_samples(config, workers=1, deltas=()):
    """Replica samples of the derivative mass |D u(t, x)|^2_H at the probe.

    Returns (mass, tails): the SampleSet of the mass, and tails mapping each
    window delta to the SampleSet of its windowed mass, one value per
    replica (BlowUpError for a non-finite one, as in run_ensemble).
    Deterministic in config regardless of worker count.
    """
    grid = config.grid
    check_windows(deltas, grid.dt)
    if config.sigma.lip == 0:  # no noise: every replica has the flow's rows
        mass, tails = hnorm_sq(linearize(config)[1], grid, deltas)
        return (SampleSet(np.repeat(mass, config.replicas)),
                {d: SampleSet(np.repeat(a, config.replicas))
                 for d, a in tails.items()})

    def read(u_p, path, xi):
        mass, tails = hnorm_sq(adjoint_gradient(config, path, xi), grid,
                               deltas)
        return (mass, *(tails[float(d)] for d in deltas))

    mass, *tails = sample_at_probe(config, read, workers, keep_path=True)
    return mass, dict(zip(map(float, deltas), tails))


@dataclass
class NegativeMomentReport:
    """Floor-regularized estimate of E[ |D u|^{-p} ] (mass to the -p/2)."""

    estimate: float
    stderr: float
    floor_fraction: float
    reliable: bool
    sensitivity: dict


def check_floor(floor):
    """Refuse a negative-moment floor that is not positive and finite."""
    if not 0 < floor < math.inf:
        raise ValueError(f"need floor > 0 and finite, got {floor!r}")


def negative_moment_estimate(samples, p=2, floor=1e-8):
    """Replica average of max(|D u|^2_H, floor)^(-p/2) over mass samples.

    More than 1% of samples hitting the floor marks the estimate unreliable;
    the sweep re-evaluates at floor/sqrt(10) and floor/10 so floor sensitivity
    is visible across one decade.
    """
    check_moment_order(p)
    check_floor(floor)
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")

    def moment(fl):
        return SampleSet(np.maximum(samples, fl) ** (-p / 2.0))

    at_floor = moment(floor)
    frac = float((samples <= floor).mean())
    sweep = {float(fl): moment(fl).mean()
             for fl in (floor * 10 ** (-j / 2) for j in range(3))}
    return NegativeMomentReport(
        estimate=at_floor.mean(), stderr=at_floor.stderr(),
        floor_fraction=frac, reliable=bool(frac <= 0.01), sensitivity=sweep,
    )
