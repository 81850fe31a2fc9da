"""Derivative tests: kernel agreement, adjoint sweep against forward
propagation, gradient oracle, H-norm quadrature, blow-up policy, memory,
small-ball frequencies, negative moments.

The additive case (constant sigma) makes every quantity deterministic and
closed-form, so most checks here are exact; the nonlinear checks lean on the
finite-difference oracle.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from levyheat import (
    BlowUpError,
    GridSpec,
    LevyExponent,
    OracleResult,
    RunConfig,
    SampleSet,
    SigmaSpec,
    additive_variance_exact,
    adjoint_gradient,
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
    run_ensemble,
    sample_noise,
    smallball_lower_mass,
    smallball_probability,
    solve_path,
)
from levyheat import malliavin, mcstats, noise
from levyheat.malliavin import _wilson
from levyheat.solver import _evolve_batch

from conftest import traced_peak

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
    rows = adjoint_gradient(path[None], xi[None], config.exponent,
                            config.sigma, grid, grid.k_time, i_p)
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
    d = propagate_derivative(path, xi, EXP2, cfg.sigma, grid, (k_s, i_s))
    kc = kernel_coefficients(EXP2, (grid.k_time - k_s) * grid.dt, tol=1e-14)
    xs = grid.x_points()
    target = kc.evaluate(xs - xs[i_s]) / math.sqrt(TWO_PI)
    rel = np.max(np.abs(d - target)) / np.max(np.abs(target))
    assert rel < 1e-8


def test_adaptedness_is_exact():
    cfg = make_config(16, 8, 0.2, "shifted_sine")
    path, xi = solved(cfg)
    d = propagate_derivative(path, xi, EXP2, cfg.sigma, cfg.grid, (5, 3),
                             until_k=4)
    assert np.all(d == 0.0)
    same = propagate_derivative(path, xi, EXP2, cfg.sigma, cfg.grid, (4, 3),
                                until_k=4)
    assert np.all(same == 0.0)
    orc = noise_gradient_oracle(cfg, 0, (5, 3), (0.1, 0.0))
    assert orc.value == 0.0 and orc.value_half == 0.0


def test_source_validation():
    cfg = make_config(16, 8, 0.2, "one")
    path, xi = solved(cfg)
    with pytest.raises(IndexError):
        propagate_derivative(path, xi, EXP2, cfg.sigma, cfg.grid, (8, 0))
    with pytest.raises(IndexError):
        propagate_derivative(path, xi, EXP2, cfg.sigma, cfg.grid, (0, 16))
    with pytest.raises(ValueError):
        propagate_derivative(path, xi, EXP2, cfg.sigma, cfg.grid, (0, 0),
                             until_k=9)


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
    rows = adjoint_gradient(path[None], xi[None], exp_, cfg.sigma,
                            cfg.grid, k_p, i_p)[0]
    assert rows.shape == (k_p, m)
    ref = np.array([[propagate_derivative(path, xi, exp_, cfg.sigma,
                                          cfg.grid, (k_s, j), until_k=k_p)[i_p]
                     for j in range(m)] for k_s in range(k_p)])
    np.testing.assert_allclose(rows, ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))


def test_additive_linearity_in_sigma():
    cfg1 = make_config(16, 8, 0.2, "one", seed=4)
    cfg2 = make_config(16, 8, 0.2, "two", seed=4)
    path1, xi = solved(cfg1)
    path2, _ = solved(cfg2)
    a = propagate_derivative(path1, xi, EXP2, cfg1.sigma, cfg1.grid, (2, 5))
    b = propagate_derivative(path2, xi, EXP2, cfg2.sigma, cfg2.grid, (2, 5))
    assert np.array_equal(b, 2.0 * a)


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_oracle_matches_propagation_nonlinear():
    cfg = make_config(16, 16, 0.25, "shifted_sine", seed=12, u0=np.sin)
    path, xi = solved(cfg, replica=1)
    grid = cfg.grid
    for src in ((2, 3), (5, 0), (9, 11)):
        for probe in ((0.25, 0.0), (0.1875, math.pi)):
            k_p = int(round(probe[0] / grid.dt))
            i_p = int(round(probe[1] / grid.dx))
            d = propagate_derivative(path, xi, EXP2, cfg.sigma, grid, src,
                                     until_k=k_p)
            orc = noise_gradient_oracle(cfg, 1, src, probe)
            assert orc.reliable
            assert d[i_p] == pytest.approx(orc.value, rel=1e-2)


def whole_noise_oracle(cfg, replica, source, probe, h=0.5, rel_tol=0.05):
    """The oracle on four perturbed copies of the replica's whole noise,
    stepped to the probe: the reference for the oracle's first k_p rows."""
    grid = cfg.grid
    k_p, i_p = grid.index_of(*probe)
    variants = np.stack([sample_noise(grid, cfg.seed, replica)] * 4)
    for row, shift in zip(variants, (h, -h, 0.5 * h, -0.5 * h)):
        row[source] += shift
    u = _evolve_batch(cfg.u0, variants, cfg.exponent, cfg.sigma, grid,
                      k_p)[0][:, i_p]
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
    probe = (6 * cfg.grid.dt, 3 * cfg.grid.dx)
    orc = noise_gradient_oracle(cfg, 1, source, probe)
    assert orc == whole_noise_oracle(cfg, 1, source, probe)
    if source[0] >= 6:
        assert orc == OracleResult(0.0, 0.0, 0.0, True)
    else:
        assert orc.reliable and orc.value != 0.0


def test_oracle_zero_sigma():
    cfg = make_config(16, 8, 0.2, "zero", u0=np.cos)
    orc = noise_gradient_oracle(cfg, 0, (1, 2), (0.2, 0.0))
    assert orc.value == 0.0
    assert orc.reliable


def test_oracle_additive_is_path_independent():
    # for constant sigma the scheme is affine in the noise, so the central
    # difference is exact and identical across replicas
    cfg = make_config(16, 8, 0.2, "one")
    a = noise_gradient_oracle(cfg, 0, (3, 4), (0.2, 0.0))
    b = noise_gradient_oracle(cfg, 5, (3, 4), (0.2, 0.0))
    assert a.value == pytest.approx(b.value, rel=1e-9)
    path, xi = solved(cfg)
    d = propagate_derivative(path, xi, EXP2, cfg.sigma, cfg.grid, (3, 4))
    assert a.value == pytest.approx(d[0], rel=1e-9)


def test_oracle_additive_matches_continuum_kernel():
    # on a band-resolved grid the difference quotient reproduces the
    # continuum transition kernel
    cfg = make_config(32, 8, 0.2, "one")
    orc = noise_gradient_oracle(cfg, 0, (3, 4), (0.2, 0.0))
    kc = kernel_coefficients(EXP2, 5 * cfg.grid.dt, tol=1e-14)
    target = float(kc.evaluate(np.array([0.0 - cfg.grid.dx * 4]))[0])
    assert orc.value == pytest.approx(target / math.sqrt(TWO_PI), rel=1e-6)


def test_oracle_blowup_is_blowup_error():
    # the oracle reports a blow-up the way solve_path does: the first one,
    # with its step, magnitude and replica
    cfg = make_config(16, 8, 0.2, "shifted_sine", seed=0,
                      u0=lambda x: 1e13 * np.sin(x))
    with pytest.raises(BlowUpError) as orc_err:
        noise_gradient_oracle(cfg, 2, (3, 4), (0.2, 0.0))
    with pytest.raises(BlowUpError) as path_err:
        solve_path(cfg, replica=2)
    assert orc_err.value.step_index == path_err.value.step_index == 1
    assert orc_err.value.max_abs == path_err.value.max_abs > 1e12
    assert orc_err.value.replica == 2


def test_oracle_probe_validation():
    cfg = make_config(16, 8, 0.2, "one")
    with pytest.raises(ValueError):
        noise_gradient_oracle(cfg, 0, (1, 1), (0.013, 0.0))
    with pytest.raises(IndexError):
        noise_gradient_oracle(cfg, 0, (9, 0), (0.2, 0.0))


def _probed(probe):
    return make_config(16, 8, 0.2, "one", replicas=2, probe=probe)


@pytest.mark.parametrize("probe", [(0.2, 0.1), (-0.025, 0.0), (0.225, 0.0)],
                         ids=["off_grid_x", "t_negative", "t_past_horizon"])
@pytest.mark.parametrize("call", [
    lambda probe: hnorm_samples(_probed(probe)),
    lambda probe: negative_moment_estimate(
        hnorm_samples(_probed(probe))[0].values),
    lambda probe: smallball_probability(_probed(probe), np.ones(2)),
    lambda probe: noise_gradient_oracle(_probed(None), 0, (1, 1), probe),
], ids=["hnorm_samples", "negative_moment_estimate", "smallball_probability",
        "noise_gradient_oracle"])
def test_probe_off_grid_rejected(call, probe):
    # every probe maps to a cell through GridSpec.index_of, once, when the
    # RunConfig is built (the oracle takes its own probe): no silent
    # snapping of x, no zero masses before t = 0, no bare IndexError past T
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


# ---------------------------------------------------------------------------
# sampling driver


def test_hnorm_samples_deterministic_across_workers():
    cfg = make_config(16, 8, 0.2, "shifted_sine", seed=8, replicas=6)
    a, tails_a = hnorm_samples(cfg, workers=1, deltas=(0.1,))
    b, tails_b = hnorm_samples(cfg, workers=4, deltas=(0.1,))
    assert a.blowups == b.blowups == []
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


def test_hnorm_samples_blowups_reported_not_silently_dropped():
    cfg = make_config(16, 8, 0.2, "shifted_sine", seed=0,
                      u0=lambda x: 1e13 * np.sin(x), replicas=3)
    # every replica blows up: fewer than 2 survive, so the sampler raises
    # the first blow-up (smallball_probability takes its samples)
    with pytest.raises(BlowUpError) as err:
        hnorm_samples(cfg, deltas=(0.1,))
    assert err.value.replica == 0 and err.value.step_index == 1
    assert err.value.max_abs > 1e12


def test_hnorm_samples_excludes_exactly_the_ensemble_blowups(monkeypatch):
    # a huge constant sigma crosses the blow-up threshold on some noise
    # paths only; the survivors keep the additive mass c^2 * v, and the
    # excluded replicas are the ones run_ensemble excludes.  300 replicas
    # span several chunks of both drivers (run_ensemble's of 256 and
    # hnorm_samples' of 60 under a budget of 64 at m_space = 16, k_p = 8), so
    # the chunk offset of the replica index is exercised
    monkeypatch.setattr(mcstats, "ENSEMBLE_CHUNK_WORDS", 256 * 16)
    monkeypatch.setattr(malliavin, "HNORM_CHUNK_WORDS", 64 * 9 * 16)
    c = 3e12
    huge = SigmaSpec("huge", lambda u: np.full_like(u, c), np.zeros_like,
                     kappa=c, lip=0.0)
    cfg = dataclasses.replace(
        make_config(16, 8, 0.2, "one", seed=0, replicas=300), sigma=huge)
    mass, tails = hnorm_samples(cfg, deltas=(0.1,))
    blowups = mass.blowups
    assert blowups == tails[0.1].blowups == run_ensemble(cfg).blowups
    assert 0 < len(blowups) < 300
    assert max(r for r, _, _ in blowups) >= 256
    assert len(mass) == len(tails[0.1]) == 300 - len(blowups)
    v = additive_variance_exact(EXP2, cfg.grid)
    np.testing.assert_allclose(mass.values, c * c * v, rtol=1e-12)


def test_hnorm_samples_at_an_interior_probe():
    # the chunks stop at step k_p = 5 of 8; each mass is the one of the
    # replica's whole path swept back from the probe
    cfg = make_config(16, 8, 0.2, "shifted_sine", replicas=3,
                      probe=(0.125, 0.0))
    samples, tails = hnorm_samples(cfg, deltas=(0.05,))
    assert samples.blowups == []
    for r in range(3):
        path, xi = solved(cfg, r)
        rows = adjoint_gradient(path[None], xi[None], cfg.exponent,
                                cfg.sigma, cfg.grid, 5, 0)
        mass, tail = hnorm_sq(rows, cfg.grid, (0.05,))
        assert (samples.values[r] == mass[0]
                and tails[0.05].values[r] == tail[0.05][0])
    # a probe at t = 0 stops before the first step and draws no noise row
    at_zero = dataclasses.replace(cfg, probe=(0.0, 0.0))
    assert np.array_equal(hnorm_samples(at_zero)[0].values, np.zeros(3))


@pytest.mark.parametrize("workers", [1, 2])
def test_hnorm_samples_are_the_same_for_every_chunk_budget(monkeypatch,
                                                           workers):
    # each replica's pass and sweep do not depend on the batch: chunks of 1,
    # 7, 60 and all 300 replicas (budgets of 1, 7, 64 and 300) give the same
    # masses, tails and blow-ups, and the 7-replica chunks split runs of
    # blown-up replicas
    cfg = make_config(16, 8, 0.2, "shifted_sine", seed=0, replicas=300,
                      u0=lambda x: 1025315120524.2238 * np.sin(x))
    results = []
    for chunk in (1, 7, 64, 300):
        monkeypatch.setattr(malliavin, "HNORM_CHUNK_WORDS", chunk * 9 * 16)
        results.append(hnorm_samples(cfg, workers=workers, deltas=(0.05,)))
    samples, tails = results[0]
    blown = {r for r, _, _ in samples.blowups}
    assert 0 < len(blown) < 300
    assert any(0 < len(blown & set(range(lo, lo + 7))) < 7
               for lo in range(0, 300, 7))
    for other, other_tails in results[1:]:
        assert np.array_equal(other.values, samples.values)
        assert np.array_equal(other_tails[0.05].values, tails[0.05].values)
        assert other.blowups == samples.blowups


@pytest.mark.parametrize("m, replicas, chunk", [
    (128, 64, 32),  # budget 63: 2 chunks of 32, not 63 + 1
    (256, 64, 13),  # budget 15: 5 chunks, 4 of 13 and 1 of 12
    (64, 16, 16),   # budget 252: one chunk
    (1024, 4, 1),   # budget below one replica: one replica per chunk
])
def test_hnorm_chunks_split_the_replicas_evenly(monkeypatch, m, replicas,
                                                chunk):
    seen = []

    def spy(config, chunk, read, workers=1, keep_path=False):
        seen.append(chunk)
        return (SampleSet(np.zeros(config.replicas)),)

    monkeypatch.setattr(malliavin, "sample_at_probe", spy)
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


def test_lower_mass_scaling():
    v1 = smallball_lower_mass(EXP15, 1.0, 1e-9)
    v2 = smallball_lower_mass(EXP15, 1.0, 1e-6)
    v3 = smallball_lower_mass(EXP15, 1.0, 1e-3)
    assert 0.0 < v1 < v2 < v3
    assert v1 < 1e-2
    # kappa enters squared
    assert smallball_lower_mass(EXP15, 2.0, 1e-3) == pytest.approx(4.0 * v3)
    with pytest.raises(ValueError):
        smallball_lower_mass(EXP15, 0.0, 1e-3)


def test_lower_mass_slope():
    ds = np.geomspace(1e-3, 1e-1, 7)
    vals = [smallball_lower_mass(EXP15, 1.0, d) for d in ds]
    slope = np.polyfit(np.log(ds), np.log(vals), 1)[0]
    assert slope == pytest.approx(1.0 - 1.0 / 1.5, rel=0.03)


def test_wilson_interval_values():
    # frozen against the standard score-interval formula at z for 95%
    lo, hi = _wilson(3, 10)
    assert lo == pytest.approx(0.10779126740630099, abs=1e-12)
    assert hi == pytest.approx(0.6032218525388546, abs=1e-12)
    lo0, hi0 = _wilson(0, 100)
    assert lo0 < 1e-12
    assert hi0 == pytest.approx(0.03699349820698568, abs=1e-12)
    lo1, hi1 = _wilson(10, 10)
    assert hi1 == pytest.approx(1.0, abs=1e-12)
    assert 0.7 < lo1 < 1.0


def test_smallball_additive_step_function():
    # deterministic mass: frequencies jump 0 -> 1 across the value, and the
    # zero-hit side still reports a positive upper confidence bound
    cfg = make_config(16, 8, 0.2, "one", replicas=8)
    v = additive_variance_exact(EXP2, cfg.grid)
    samples = hnorm_samples(cfg)[0].values
    rep = smallball_probability(cfg, samples, eps_list=[0.5 * v, 2.0 * v])
    assert float(np.ptp(samples)) == 0.0
    assert rep.freq[0] == 0.0 and rep.freq[1] == 1.0
    assert rep.ci_hi[0] > 0.0
    assert rep.ci_lo[1] < 1.0
    assert np.all(rep.delta <= cfg.grid.horizon * (1 + 1e-12))


def test_smallball_monotone_and_rows():
    cfg = make_config(16, 16, 0.25, "shifted_sine", seed=14, replicas=48)
    rep = smallball_probability(cfg, hnorm_samples(cfg)[0].values,
                                levels=[0.1, 0.25, 0.5, 0.75])
    assert np.all(np.diff(rep.eps) > 0)
    assert np.all(np.diff(rep.freq) >= 0)
    assert np.all((rep.ci_lo <= rep.freq) & (rep.freq <= rep.ci_hi))
    assert rep.c_fit > 0


def test_smallball_evaluates_each_series_mode_at_most_twice():
    # the 16 fit windows share one streamed series pass and the eps windows
    # a second; one pass per lower mass evaluated mode 1 23 times.  Series
    # blocks start at a mode lo + 1 >= 1, grid symbols at mode 0
    starts = []

    def counting_phi(n):
        n = np.asarray(n)
        if n.size and n.min() >= 1:
            starts.append(int(n.min()))
        return EXP15.phi(n)

    exp_ = LevyExponent(phi=counting_phi, alpha=1.5, beta=1.5, c_lower=1.0,
                        c_upper=1.0)
    cfg = make_config(16, 8, 0.2, "shifted_sine", exponent=exp_, replicas=16)
    samples = hnorm_samples(cfg)[0].values
    starts.clear()
    rep = smallball_probability(cfg, samples)
    counts = Counter(starts)
    assert counts[1] == 2 and max(counts.values()) == 2
    # a shared pass gives each window the bits of its own series
    assert list(rep.lower_mass) == [
        smallball_lower_mass(exp_, cfg.sigma.kappa, d) for d in rep.delta]


def test_smallball_probability_draws_no_noise(monkeypatch):
    # the estimator reads the mass samples it is given; the patched block
    # filler, which every noise draw goes through, would raise
    cfg = make_config(16, 8, 0.2, "shifted_sine", seed=3, replicas=40)
    samples = hnorm_samples(cfg)[0].values
    want = smallball_probability(cfg, samples)

    def refuse(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(noise, "_normal_block", refuse)
    with pytest.raises(AssertionError, match="noise drawn"):
        hnorm_samples(cfg)
    got = smallball_probability(cfg, samples)
    for name in ("eps", "freq", "ci_lo", "ci_hi", "delta", "lower_mass"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    # hits are counted once; hits / n has the bits of the mean of the hits
    assert got.freq.tolist() == [(samples < e).mean() for e in got.eps]


def test_smallball_validation():
    cfg = make_config(16, 8, 0.2, "zero")
    with pytest.raises(ValueError):
        smallball_probability(cfg, np.ones(4))
    cfg2 = make_config(16, 8, 0.2, "one")
    with pytest.raises(ValueError):
        smallball_probability(cfg2, np.ones(4), eps_list=[-1.0, 0.5])


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
