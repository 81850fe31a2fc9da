"""Derivative tests: kernel agreement, adjoint sweep against forward
propagation, gradient oracle, H-norm quadrature, non-finite replicas, memory,
small-ball quantiles and floor, negative moments.

The additive case (constant sigma) makes every quantity deterministic and
closed-form, so most checks here are exact; the nonlinear checks lean on the
finite-difference oracle.
"""

import dataclasses
import math

import numpy as np
import pytest

from levyheat import (
    BlowUpError,
    GridSpec,
    OracleResult,
    RunConfig,
    SampleSet,
    SigmaSpec,
    additive_variance_exact,
    adjoint_gradient,
    certified_floor,
    field_from_function,
    get_sigma,
    hnorm_samples,
    hnorm_sq,
    kernel_coefficients,
    kernel_l2_time_integral,
    make_power_exponent,
    negative_moment_estimate,
    noise_gradient_oracle,
    propagate_derivative,
    sample_noise,
    solve_path,
)
from levyheat import noise, solver
from levyheat.solver import SMALLBALL_LEVELS, _evolve_batch

from conftest import planted_infinity, traced_peak

TWO_PI = 2.0 * math.pi

EXP2 = make_power_exponent(1.0, 2.0)
EXP15 = make_power_exponent(1.0, 1.5)


def make_config(m, k, horizon, sigma_name, seed=9, exponent=EXP2, u0=None,
                replicas=4, probe=None):
    grid = GridSpec(m_space=m, k_time=k, horizon=horizon)
    u0_field = field_from_function(u0 or (lambda x: 0.0 * x), m)
    return RunConfig(grid=grid, exponent=exponent, sigma=get_sigma(sigma_name),
                     u0=u0_field, seed=seed, replicas=replicas, probe=probe)


def solved(config, replica=0):
    """Path and variates of one replica."""
    return (solve_path(config, replica),
            sample_noise(config.grid, config.seed, replica))


def mass_of(config, path, xi, i_p, deltas=()):
    """Derivative mass at (horizon, x_{i_p}) of one solved replica."""
    grid = config.grid
    at_x = dataclasses.replace(config, probe=(grid.horizon, i_p * grid.dx))
    rows = adjoint_gradient(at_x, path[None], xi[None])
    mass, tails = hnorm_sq(rows, grid, deltas)
    return float(mass[0]), {d: float(v[0]) for d, v in tails.items()}


# ---------------------------------------------------------------------------
# propagation against the kernel (additive case)


def test_additive_derivative_is_the_kernel():
    # sigma' = 0 kills the convolution term, so D is the transition kernel
    # from the source cell, in the unit-mass normalization
    cfg = make_config(32, 32, 0.5, "one")
    path, xi = solved(cfg)
    grid = cfg.grid
    k_s, i_s = 4, 7
    d = propagate_derivative(cfg, path, xi, (k_s, i_s))
    kc = kernel_coefficients(EXP2, (grid.k_time - k_s) * grid.dt, tol=1e-14)
    xs = grid.x_points()
    target = kc.evaluate(xs - xs[i_s]) / math.sqrt(TWO_PI)
    rel = np.max(np.abs(d - target)) / np.max(np.abs(target))
    assert rel < 1e-8


def test_adaptedness_is_exact():
    cfg = make_config(16, 8, 0.2, "shifted_sine")
    path, xi = solved(cfg)
    at_4 = dataclasses.replace(cfg, probe=(0.1, 0.0))  # probe step 4
    d = propagate_derivative(at_4, path, xi, (5, 3))
    assert np.all(d == 0.0)
    same = propagate_derivative(at_4, path, xi, (4, 3))
    assert np.all(same == 0.0)
    orc = noise_gradient_oracle(at_4, 0, (5, 3))
    assert orc.value == 0.0 and orc.value_half == 0.0


def test_source_validation():
    cfg = make_config(16, 8, 0.2, "one")
    path, xi = solved(cfg)
    with pytest.raises(IndexError):
        propagate_derivative(cfg, path, xi, (8, 0))
    with pytest.raises(IndexError):
        propagate_derivative(cfg, path, xi, (0, 16))
    # the derivative stops at the config's probe, which lies within the grid
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, probe=(9 * cfg.grid.dt, 0.0))


@pytest.mark.parametrize("m, k, drift, probe", [
    (16, 8, 0.0, (8, 5)),
    (16, 8, 3.0, (6, 11)),
    (15, 12, 2.5, (12, 4)),
], ids=["shifted_sine_16x8", "drift", "odd_m"])
def test_adjoint_matches_propagation(m, k, drift, probe):
    # the reverse sweep is an exact transpose of the forward linearization:
    # every source row equals the forward derivative read at the probe; with
    # drift the multiplier is complex and S^T != S
    exp_ = make_power_exponent(1.0, 2.0, drift=drift)
    cfg = make_config(m, k, 0.2, "shifted_sine", exponent=exp_, u0=np.sin)
    path, xi = solved(cfg, replica=3)
    k_p, i_p = probe
    cfg = dataclasses.replace(cfg, probe=(k_p * cfg.grid.dt,
                                          i_p * cfg.grid.dx))
    rows = adjoint_gradient(cfg, path[None], xi[None])[0]
    assert rows.shape == (k_p, m)
    ref = np.array([[propagate_derivative(cfg, path, xi, (k_s, j))[i_p]
                     for j in range(m)] for k_s in range(k_p)])
    np.testing.assert_allclose(rows, ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))


def test_additive_linearity_in_sigma():
    cfg1 = make_config(16, 8, 0.2, "one", seed=4)
    cfg2 = make_config(16, 8, 0.2, "two", seed=4)
    path1, xi = solved(cfg1)
    path2, _ = solved(cfg2)
    a = propagate_derivative(cfg1, path1, xi, (2, 5))
    b = propagate_derivative(cfg2, path2, xi, (2, 5))
    assert np.array_equal(b, 2.0 * a)


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_oracle_matches_propagation_nonlinear():
    cfg = make_config(16, 16, 0.25, "shifted_sine", seed=12, u0=np.sin)
    path, xi = solved(cfg, replica=1)
    grid = cfg.grid
    for src in ((2, 3), (5, 0), (9, 11)):
        for probe in ((0.25, 0.0), (0.1875, math.pi)):
            probed = dataclasses.replace(cfg, probe=probe)
            i_p = int(round(probe[1] / grid.dx))
            d = propagate_derivative(probed, path, xi, src)
            orc = noise_gradient_oracle(probed, 1, src)
            assert orc.reliable
            assert d[i_p] == pytest.approx(orc.value, rel=1e-2)


def whole_noise_oracle(cfg, replica, source, h=0.5, rel_tol=0.05):
    """The oracle on four perturbed copies of the replica's whole noise,
    stepped to the probe: the reference for the oracle's first k_p rows."""
    grid = cfg.grid
    k_p, i_p = cfg.probe_cell
    variants = np.stack([sample_noise(grid, cfg.seed, replica)] * 4)
    for row, shift in zip(variants, (h, -h, 0.5 * h, -0.5 * h)):
        row[source] += shift
    u = _evolve_batch(cfg, variants, k_p)[0][:, i_p]
    cell = math.sqrt(grid.dt * grid.dx)
    v_h = (u[0] - u[1]) / (2.0 * h * cell)
    v_half = (u[2] - u[3]) / (h * cell)
    err = abs(v_half - v_h) / 3.0
    return OracleResult(value=float(v_h), value_half=float(v_half),
                        richardson_err=float(err),
                        reliable=bool(err <= max(rel_tol * abs(v_half),
                                                 1e-12)))


@pytest.mark.parametrize("source", [(2, 3), (5, 0), (6, 4), (13, 11)],
                         ids=["interior", "interior_last_row", "at_probe",
                              "after_probe"])
def test_oracle_reads_the_rows_up_to_the_probe(source):
    # probe at step 6 of 16: the oracle draws and perturbs rows 0..5 only;
    # a source at or after the probe moves nothing and gives an exact 0
    cfg = make_config(16, 16, 0.25, "shifted_sine", seed=12, u0=np.sin)
    cfg = dataclasses.replace(cfg, probe=(6 * cfg.grid.dt, 3 * cfg.grid.dx))
    orc = noise_gradient_oracle(cfg, 1, source)
    assert orc == whole_noise_oracle(cfg, 1, source)
    if source[0] >= 6:
        assert orc == OracleResult(0.0, 0.0, 0.0, True)
    else:
        assert orc.reliable and orc.value != 0.0


def test_oracle_zero_sigma():
    cfg = make_config(16, 8, 0.2, "zero", u0=np.cos)
    orc = noise_gradient_oracle(cfg, 0, (1, 2))
    assert orc.value == 0.0
    assert orc.reliable


def test_oracle_additive_is_path_independent():
    # for constant sigma the scheme is affine in the noise, so the central
    # difference is exact and identical across replicas
    cfg = make_config(16, 8, 0.2, "one")
    a = noise_gradient_oracle(cfg, 0, (3, 4))
    b = noise_gradient_oracle(cfg, 5, (3, 4))
    assert a.value == pytest.approx(b.value, rel=1e-9)
    path, xi = solved(cfg)
    d = propagate_derivative(cfg, path, xi, (3, 4))
    assert a.value == pytest.approx(d[0], rel=1e-9)


def test_oracle_additive_matches_continuum_kernel():
    # on a band-resolved grid the difference quotient reproduces the
    # continuum transition kernel
    cfg = make_config(32, 8, 0.2, "one")
    orc = noise_gradient_oracle(cfg, 0, (3, 4))
    kc = kernel_coefficients(EXP2, 5 * cfg.grid.dt, tol=1e-14)
    target = float(kc.evaluate(np.array([0.0 - cfg.grid.dx * 4]))[0])
    assert orc.value == pytest.approx(target / math.sqrt(TWO_PI), rel=1e-6)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_oracle_blowup_is_blowup_error(monkeypatch):
    # an infinite variate in cell (2, 5) of replica 2 makes its field
    # non-finite: the oracle raises for it the way solve_path does
    cfg = make_config(16, 8, 0.2, "shifted_sine", seed=0)
    planted_infinity(monkeypatch, 2, 2 * 16 + 5)
    with pytest.raises(BlowUpError) as orc_err:
        noise_gradient_oracle(cfg, 2, (3, 4))
    with pytest.raises(BlowUpError) as path_err:
        solve_path(cfg, replica=2)
    assert orc_err.value.replica == path_err.value.replica == 2
    assert str(orc_err.value) == str(path_err.value)


def test_oracle_probe_validation():
    cfg = make_config(16, 8, 0.2, "one")
    # the oracle probes the config's probe, which lies on the grid
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, probe=(0.013, 0.0))
    with pytest.raises(IndexError):
        noise_gradient_oracle(cfg, 0, (9, 0))


def _probed(probe):
    return make_config(16, 8, 0.2, "one", replicas=2, probe=probe)


@pytest.mark.parametrize("probe", [(0.2, 0.1), (-0.025, 0.0), (0.225, 0.0)],
                         ids=["off_grid_x", "t_negative", "t_past_horizon"])
@pytest.mark.parametrize("call", [
    lambda probe: hnorm_samples(_probed(probe)),
    lambda probe: negative_moment_estimate(
        hnorm_samples(_probed(probe))[0].values),
    lambda probe: hnorm_samples(_probed(probe))[0].quantile(0.5),
    lambda probe: noise_gradient_oracle(_probed(probe), 0, (1, 1)),
], ids=["hnorm_samples", "negative_moment_estimate", "sample_quantile",
        "noise_gradient_oracle"])
def test_probe_off_grid_rejected(call, probe):
    # every probe maps to a cell through GridSpec.index_of, once, when the
    # RunConfig is built: no silent snapping of x, no zero masses before
    # t = 0, no bare IndexError past T
    with pytest.raises(ValueError):
        call(probe)


# ---------------------------------------------------------------------------
# H-norm quadrature


def test_additive_hnorm_equals_geometric_sum():
    cfg = make_config(32, 16, 0.2, "one", exponent=EXP15)
    path, xi = solved(cfg)
    mass, _ = mass_of(cfg, path, xi, 0)
    assert mass == pytest.approx(
        additive_variance_exact(EXP15, cfg.grid), rel=1e-12)


def test_hnorm_quadrature_deficit_shrinks():
    # right-endpoint quadrature undershoots the continuum mass; refining the
    # time grid reduces the deficit
    cont, _ = kernel_l2_time_integral(EXP15, 0.2)
    d32 = cont - additive_variance_exact(EXP15, GridSpec(32, 32, 0.2))
    d64 = cont - additive_variance_exact(EXP15, GridSpec(64, 64, 0.2))
    assert 0.0 < d64 < d32 < 0.35 * cont


def test_hnorm_time_scaling_additive():
    # at fixed step count the scheme mass inherits the continuum rate
    # t^(1 - 1/alpha); alpha = 1.5 gives slope 1/3
    ts = [4e-3, 1e-2, 2.5e-2, 6.3e-2]
    vals = [additive_variance_exact(EXP15, GridSpec(1024, 64, t)) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert slope == pytest.approx(1.0 - 1.0 / 1.5, rel=0.05)


def test_tail_window_identity_and_monotonicity():
    # the window (t - delta, t] sees kernels up to age delta, so the additive
    # tail equals the full mass of a delta-horizon grid with the same step
    cfg = make_config(32, 32, 0.2, "one", exponent=EXP15)
    path, xi = solved(cfg)
    grid = cfg.grid
    deltas = tuple(j * grid.dt for j in (4, 8, 16, 32))
    mass, tail = mass_of(cfg, path, xi, 3, deltas=deltas)
    for j, d in zip((4, 8, 16, 32), deltas):
        ref = additive_variance_exact(EXP15, GridSpec(32, j, j * grid.dt))
        assert tail[float(d)] == pytest.approx(ref, rel=1e-12)
    tails = [tail[float(d)] for d in deltas]
    assert all(a < b for a, b in zip(tails, tails[1:]))
    assert tails[-1] == mass
    assert all(0.0 <= v <= mass for v in tails)


def test_tail_bounded_nonlinear():
    cfg = make_config(16, 16, 0.25, "shifted_sine", seed=3)
    path, xi = solved(cfg, replica=2)
    mass, tail = mass_of(cfg, path, xi, 5, deltas=(4 * cfg.grid.dt, 0.25))
    assert 0.0 < tail[float(4 * cfg.grid.dt)] <= mass
    assert tail[0.25] == mass
    with pytest.raises(ValueError):
        mass_of(cfg, path, xi, 5, deltas=(-0.1,))


def test_a_window_holds_at_least_one_step():
    # windows round to whole steps: one of at most dt/2 would hold no source
    # cell and read 0, so the window check refuses it, naming dt
    cfg = make_config(16, 8, 0.2, "one", replicas=2)
    path, xi = solved(cfg)
    dt = cfg.grid.dt
    for short in (1e-9, 0.49 * dt, 0.5 * dt):
        with pytest.raises(ValueError, match=f"half a time step, dt = {dt:g}"):
            mass_of(cfg, path, xi, 3, deltas=(short,))
        with pytest.raises(ValueError, match="half a time step"):
            hnorm_samples(cfg, deltas=(0.1, short))
    _, tail = mass_of(cfg, path, xi, 3, deltas=(0.51 * dt, dt))
    assert tail[0.51 * dt] == tail[dt] > 0.0


# ---------------------------------------------------------------------------
# sampling driver


def test_hnorm_samples_deterministic_across_workers():
    cfg = make_config(16, 8, 0.2, "shifted_sine", seed=8, replicas=6)
    a, tails_a = hnorm_samples(cfg, workers=1, deltas=(0.1,))
    b, tails_b = hnorm_samples(cfg, workers=4, deltas=(0.1,))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(tails_a[0.1].values, tails_b[0.1].values)
    assert a.values.shape == (6,)
    assert np.all(tails_a[0.1].values <= a.values)


def test_hnorm_samples_additive_degenerate():
    # constant sigma makes the mass a deterministic functional
    cfg = make_config(16, 8, 0.2, "one", replicas=5)
    samples = hnorm_samples(cfg)[0].values
    assert float(np.ptp(samples)) == 0.0
    assert samples[0] == pytest.approx(additive_variance_exact(EXP2, cfg.grid),
                                       rel=1e-12)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_hnorm_samples_blowups_reported_not_silently_dropped(monkeypatch):
    # an infinite variate in replica 1 makes its path non-finite: the
    # sampler raises for it rather than dropping it (the small-ball
    # quantiles take its samples)
    cfg = make_config(16, 8, 0.2, "shifted_sine", seed=0, replicas=3)
    planted_infinity(monkeypatch, 1, 4 * 16 + 3)
    with pytest.raises(BlowUpError) as err:
        hnorm_samples(cfg, deltas=(0.1,))
    assert err.value.replica == 1


def test_hnorm_samples_at_an_interior_probe():
    # the chunks stop at step k_p = 5 of 8; each mass is the one of the
    # replica's whole path swept back from the probe
    cfg = make_config(16, 8, 0.2, "shifted_sine", replicas=3,
                      probe=(0.125, 0.0))
    samples, tails = hnorm_samples(cfg, deltas=(0.05,))
    for r in range(3):
        path, xi = solved(cfg, r)
        rows = adjoint_gradient(cfg, path[None], xi[None])
        mass, tail = hnorm_sq(rows, cfg.grid, (0.05,))
        assert (samples.values[r] == mass[0]
                and tails[0.05].values[r] == tail[0.05][0])
    # a probe at t = 0 stops before the first step and draws no noise row
    at_zero = dataclasses.replace(cfg, probe=(0.0, 0.0))
    assert np.array_equal(hnorm_samples(at_zero)[0].values, np.zeros(3))


THREE_QUARTERS = SigmaSpec("three_quarters", lambda u: np.full_like(u, 0.75),
                           np.zeros_like, kappa=0.75, lip=0.0, sup=0.75)


def constant_sigma_config(sigma, case):
    """The command line's default run (64 x 64 to t = 0.5, probe (0.5, 0))
    with a constant sigma, or an interior probe (0.25, x_10) under alpha =
    1.4, drift and u0 = sin, at odd m_space."""
    sigma = sigma if isinstance(sigma, SigmaSpec) else get_sigma(sigma)
    if case == "default":
        return dataclasses.replace(
            make_config(64, 64, 0.5, "one", seed=0, replicas=3), sigma=sigma)
    grid = GridSpec(33, 40, 0.5)
    return RunConfig(grid=grid, exponent=make_power_exponent(1.0, 1.4, 0.7),
                     sigma=sigma, u0=field_from_function(np.sin, 33), seed=5,
                     replicas=3, probe=(20 * grid.dt, 10 * grid.dx))


@pytest.mark.parametrize("case", ["default", "interior"])
@pytest.mark.parametrize("sigma", ["one", "two", THREE_QUARTERS],
                         ids=["one", "two", "three_quarters"])
def test_constant_sigma_masses_are_each_replicas_own(sigma, case):
    # the flow's rows draw no noise, and each mass and tail has the bits of
    # the replica's own solved path swept back from the probe
    cfg = constant_sigma_config(sigma, case)
    k_p, _ = cfg.probe_cell
    deltas = (0.05, 3 * cfg.grid.dt)
    samples, tails = hnorm_samples(cfg, deltas=deltas)
    assert len(samples) == 3
    for r in range(3):
        path, xi = solved(cfg, r)
        rows = adjoint_gradient(cfg, path[None, :k_p + 1], xi[None, :k_p])
        mass, tail = hnorm_sq(rows, cfg.grid, deltas)
        assert samples.values[r] == mass[0]
        assert all(tails[d].values[r] == tail[d][0] for d in deltas)


@pytest.mark.parametrize("sigma_name", ["one", "two"])
def test_a_certified_constant_sigma_mass_draws_no_noise(monkeypatch,
                                                        sigma_name):
    def refuse(*args):
        raise AssertionError("noise drawn")

    cfg = make_config(16, 8, 0.2, sigma_name, replicas=65536)
    monkeypatch.setattr(noise, "_normal_block", refuse)
    mass, tails = hnorm_samples(cfg, deltas=(0.1,))
    assert len(mass) == len(tails[0.1]) == 65536
    assert float(np.ptp(mass.values)) == 0.0
    # a sigma the certificate refuses is refused before any noise is drawn,
    # naming the keys of the noise term
    huge = SigmaSpec("huge", lambda u: np.full_like(u, 3e12), np.zeros_like,
                     kappa=3e12, lip=0.0, sup=3e12)
    with pytest.raises(ValueError, match="^sigma, horizon, k_time, m_space: "):
        dataclasses.replace(cfg, sigma=huge)


@pytest.mark.parametrize("workers", [1, 2])
def test_hnorm_samples_are_the_same_for_every_chunk_budget(monkeypatch,
                                                           workers):
    # each replica's pass and sweep do not depend on the batch: budgets of
    # one replica, of 7 (42 chunks of 7 and an uneven last one of 6), of 64
    # (5 chunks of 60) and of all 300 replicas in one chunk give the same
    # masses and tails
    cfg = make_config(16, 8, 0.2, "shifted_sine", seed=0, replicas=300,
                      u0=np.sin)
    seen = []
    real = solver.map_chunks

    def spy(fn, n_items, chunk, workers=1):
        seen.append((n_items, chunk))
        return real(fn, n_items, chunk, workers)

    monkeypatch.setattr(solver, "map_chunks", spy)
    results = []
    for fit in (1, 7, 64, 300):
        monkeypatch.setattr(solver, "_PATH_CHUNK_WORDS", fit * 9 * 16)
        results.append(hnorm_samples(cfg, workers=workers, deltas=(0.05,)))
    assert seen == [(300, 1), (300, 7), (300, 60), (300, 300)]
    samples, tails = results[0]
    for other, other_tails in results[1:]:
        assert np.array_equal(other.values, samples.values)
        assert np.array_equal(other_tails[0.05].values, tails[0.05].values)


@pytest.mark.parametrize("m, replicas, chunk", [
    (128, 64, 32),  # budget 63: 2 chunks of 32, not 63 + 1
    (256, 64, 13),  # budget 15: 5 chunks, 4 of 13 and 1 of 12
    (64, 16, 16),   # budget 252: one chunk
    (1024, 4, 1),   # budget below one replica: one replica per chunk
])
def test_hnorm_chunks_split_the_replicas_evenly(monkeypatch, m, replicas,
                                                chunk):
    # the budget is 2^20 words of (k_p + 1) m_space path rows per chunk;
    # the chunk bodies are not run
    seen = []

    def record(fn, n_items, chunk, workers=1):
        seen.append(chunk)
        return iter([((np.zeros(n_items),), [])])

    monkeypatch.setattr(solver, "map_chunks", record)
    hnorm_samples(make_config(m, m, 0.2, "shifted_sine", replicas=replicas))
    assert seen == [chunk]


def test_hnorm_memory_is_bounded_at_256():
    # 64 replicas at 256 x 256 took 128 MiB in 64-replica chunks; chunks of
    # 2^20 words of (k_p + 1) m_space rows hold 15 replicas here
    cfg = make_config(256, 256, 0.2, "shifted_sine", replicas=64)
    _, peak = traced_peak(hnorm_samples, cfg)
    assert peak <= 32 * 2 ** 20


def test_hnorm_memory_is_linear_in_the_grid():
    # the adjoint sweep holds O(k_time * m_space) per replica, about 0.5 MiB
    # each here; any O(k_time * m_space^2) derivative lattice needs 16 MiB of
    # rows per replica alone at 128 x 128
    cfg = make_config(128, 128, 0.2, "shifted_sine", replicas=2)
    _, peak = traced_peak(hnorm_samples, cfg, deltas=(0.1,))
    assert peak < 8 * 2 ** 20


# ---------------------------------------------------------------------------
# small-ball analysis


def test_smallball_additive_step_function():
    # a constant sigma makes the mass deterministic: its empirical law is one
    # step at the mass, every quantile sits on it and every interval has
    # width 0 (256 replicas put X_(j) >= X_(1) even at level 0.02)
    cfg = make_config(16, 8, 0.2, "one", replicas=256)
    v = additive_variance_exact(EXP2, cfg.grid)
    mass = hnorm_samples(cfg)[0]
    for q in SMALLBALL_LEVELS + (0.9,):
        value, lo, hi = mass.quantile(q)
        assert value == lo == hi == pytest.approx(v, rel=1e-12)


def test_smallball_monotone_and_rows():
    cfg = make_config(16, 16, 0.25, "shifted_sine", seed=14, replicas=48)
    mass = hnorm_samples(cfg)[0]
    value, lo, hi = np.array([mass.quantile(q)
                              for q in (0.1, 0.25, 0.5, 0.75)]).T
    assert np.all(np.diff(value) > 0)
    assert np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)
    assert np.all((lo <= value) & (value <= hi) & (lo < hi))
    # 48 samples put j >= 1 at each level: both ends are samples
    assert set(lo) | set(hi) <= set(mass.values)


def test_smallball_probability_draws_no_noise(monkeypatch):
    # the quantiles read the mass samples they are given; the patched block
    # filler, which every noise draw goes through, would raise
    cfg = make_config(16, 8, 0.2, "shifted_sine", seed=3, replicas=40)
    mass = hnorm_samples(cfg)[0]
    want = [mass.quantile(q) for q in SMALLBALL_LEVELS]

    def refuse(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(noise, "_normal_block", refuse)
    with pytest.raises(AssertionError, match="noise drawn"):
        hnorm_samples(cfg)
    assert [mass.quantile(q) for q in SMALLBALL_LEVELS] == want
    assert [value for value, _, _ in want] == list(
        np.quantile(mass.values, SMALLBALL_LEVELS))


def test_smallball_validation():
    # a 0 or 1 quantile has no two-sided interval; nor has the median of 2
    # samples, whose upper end would need X_(3)
    mass = SampleSet(np.arange(1.0, 5.0))
    for q in (0.0, 1.0, 1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="quantile level, each in"):
            mass.quantile(q)
    with pytest.raises(ValueError, match=r"level 0\.5 .* n = 2 samples"):
        SampleSet(np.array([1.0, 2.0])).quantile(0.5)


# the command line's smallball quantiles at 16 x 16 (horizon 0.5, probe
# (0.5, 0), default sigma) from 2^18 replicas, made by
#   levyheat smallball --set m_space=16 --set k_time=16 \
#     --set replicas=262144 --seed 1000
# whose interval half-widths, 1.9e-4 to 2.9e-4, are under 5% of those that
# 256 replicas give
REFERENCE_QUANTILES = dict(zip(SMALLBALL_LEVELS, (
    0.070807265647102893, 0.080497017169067819, 0.091031283119354545,
    0.10653289515987951, 0.11988818628177175, 0.13295332904185067,
    0.14665684079388275)))


def test_smallball_intervals_cover_the_reference_over_seeds():
    # each level's 95% interval from 256 replicas covers the reference on
    # at least 28 of seeds 0-31 (a binomial(32, 0.95) count is below 28
    # with probability 0.02)
    covered = dict.fromkeys(SMALLBALL_LEVELS, 0)
    for seed in range(32):
        cfg = make_config(16, 16, 0.5, "shifted_sine", seed=seed,
                          replicas=256)
        mass = hnorm_samples(cfg)[0]
        for q, ref in REFERENCE_QUANTILES.items():
            _, lo, hi = mass.quantile(q)
            covered[q] += lo <= ref <= hi
    assert min(covered.values()) >= 28, covered


@pytest.mark.parametrize("alpha", [1.1, 1.4, 2.0])
def test_every_mass_is_at_least_the_certified_floor(alpha):
    # the sweep's last row is sigma(u_{k_p-1}) W_{k_p-1} and the earlier
    # rows only add, so no replica's mass lies below m_kappa; odd m_space,
    # drift, u0 = sin and an interior probe (k_p = 16 of 24)
    grid = GridSpec(33, 24, 0.3)
    cfg = RunConfig(grid=grid, exponent=make_power_exponent(1.0, alpha, 0.7),
                    sigma=get_sigma("shifted_sine"),
                    u0=field_from_function(np.sin, 33), seed=2, replicas=64,
                    probe=(16 * grid.dt, 10 * grid.dx))
    floor = certified_floor(cfg)
    mass, last = hnorm_samples(cfg, deltas=(grid.dt,))
    assert 0.0 < floor
    assert mass.values.min() >= floor * (1.0 - 1e-12)
    assert last[grid.dt].values.min() >= floor * (1.0 - 1e-12)
    # under sigma = 1 the bound is the last row's mass itself
    one = dataclasses.replace(cfg, sigma=get_sigma("one"))
    _, last = hnorm_samples(one, deltas=(grid.dt,))
    assert certified_floor(one) == pytest.approx(last[grid.dt].values[0],
                                                 rel=1e-12)
    # a probe at t = 0 has mass 0 and floor 0
    assert certified_floor(dataclasses.replace(cfg, probe=(0.0, 0.0))) == 0.0


# ---------------------------------------------------------------------------
# negative moments


def test_negative_moment_additive_exact():
    cfg = make_config(16, 8, 0.2, "one")
    v = additive_variance_exact(EXP2, cfg.grid)
    samples = hnorm_samples(cfg)[0].values
    rep = negative_moment_estimate(samples, p=2)
    assert rep.estimate == pytest.approx(v ** -1.0, rel=1e-12)
    assert rep.stderr == 0.0
    assert rep.reliable and rep.floor_fraction == 0.0
    # floor never binds, so the decade sweep is flat
    sweep = list(rep.sensitivity.values())
    assert all(s == pytest.approx(rep.estimate, rel=1e-12) for s in sweep)
    rep4 = negative_moment_estimate(samples, p=4)
    assert rep4.estimate == pytest.approx(v ** -2.0, rel=1e-12)


def test_negative_moment_decreasing_in_time():
    early, _ = hnorm_samples(make_config(16, 8, 0.1, "one"))
    late, _ = hnorm_samples(make_config(16, 8, 0.4, "one"))
    assert (negative_moment_estimate(late.values, p=2).estimate
            < negative_moment_estimate(early.values, p=2).estimate)


def test_negative_moment_floor_flag():
    fake = np.array([1e-12, 1.0, 1.0, 1.0])
    rep = negative_moment_estimate(fake, p=2, floor=1e-8)
    assert rep.floor_fraction == pytest.approx(0.25)
    assert not rep.reliable


def test_negative_moment_validation():
    samples = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        negative_moment_estimate(samples, p=1)
    with pytest.raises(ValueError):
        negative_moment_estimate(samples, p=2, floor=0.0)
    # one sample has no standard error
    with pytest.raises(ValueError):
        negative_moment_estimate(samples[:1], p=2)
