"""Solver tests: scheme consistency, additive-case law, Picard contraction.

Monte Carlo checks use fixed seeds and multi-standard-error margins; the
additive-case targets come from the geometric per-mode sum, so statistical and
discretization error are separated.
"""

import math

import numpy as np
import pytest

from levyheat import (
    BlowUpError,
    GridSpec,
    RunConfig,
    SigmaSpec,
    SpectralField,
    additive_variance_exact,
    apply_semigroup,
    field_from_function,
    get_sigma,
    kernel_l2_time_integral,
    make_power_exponent,
    noise_density_scale,
    picard_sequence,
    rfft_multiplier,
    sample_noise,
    solve_path,
    solve_path_values,
    walsh_variance,
    weighted_norm,
)
from levyheat.kernels import rfft_weights
from levyheat.solver import _evolve_batch, _noise_block

TWO_PI = 2.0 * math.pi

EXP2 = make_power_exponent(1.0, 2.0)


def zero_field(m):
    return field_from_function(lambda x: 0.0 * x, m)


# ---------------------------------------------------------------------------
# sigma registry


def test_sigma_registry():
    s = get_sigma("shifted_sine")
    assert s.sigma(np.array([0.0]))[0] == pytest.approx(2.0)
    assert s.sigma_prime(np.array([0.0]))[0] == pytest.approx(1.0)
    assert s.kappa == 1.0 and s.lip == 1.0
    assert get_sigma("zero").kappa == 0.0
    with pytest.raises(ValueError):
        get_sigma("cubic")
    with pytest.raises(ValueError):
        SigmaSpec("bad", lambda u: u, lambda u: u, lip=1.0, kappa=-0.5)


# ---------------------------------------------------------------------------
# single step


def test_step_matches_direct_convolution_oracle():
    # one step on m=8 against an O(m^2) direct sum over modes -3..3 plus the
    # Nyquist cosine harmonic, written without any FFT
    grid = GridSpec(m_space=8, k_time=4, horizon=0.2)
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal(8)
    noise = sample_noise(grid, seed=8, replica=0)
    sigma = get_sigma("shifted_sine")
    records, _, _ = _evolve_batch(u0, noise.xi[None], EXP2, sigma, grid,
                                  record_ks={1})
    out = records[1][0]

    g = sigma.sigma(u0) + 0.0
    w = u0 + g * noise.xi[0] * noise_density_scale(grid)
    x = grid.x_points()
    dt = grid.dt
    oracle = np.zeros(8)
    for i in range(8):
        acc = 0.0
        for n in range(-3, 4):
            c = np.mean(w * np.exp(-1j * n * x))
            acc += (np.exp(-dt * EXP2.phi(np.array([n]))[0]) * c
                    * np.exp(1j * n * x[i])).real
        c4 = np.mean(w * np.cos(4 * x))
        acc += np.exp(-dt * EXP2.phi(np.array([4]))[0]).real * c4 * np.cos(4 * x[i])
        oracle[i] = acc
    assert out == pytest.approx(oracle, abs=1e-12)


def test_rfft_multiplier_nyquist_real():
    grid = GridSpec(m_space=16, k_time=4, horizon=0.2)
    drifted = make_power_exponent(1.0, 2.0, drift=0.7)
    mult = rfft_multiplier(drifted, grid)
    assert mult.shape == (9,)
    assert mult[-1].imag == 0.0
    assert abs(mult[1]) < 1.0


# ---------------------------------------------------------------------------
# deterministic flows


def test_zero_sigma_matches_semigroup():
    grid = GridSpec(m_space=32, k_time=10, horizon=0.3)
    u0 = field_from_function(lambda x: np.sin(x) + 0.4 * np.cos(3 * x), 32)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("zero"), u0=u0,
                    seed=0, replicas=2, observables=[(0.3, 0.0)])
    states = solve_path(cfg, times=[0.0, 0.15, 0.3])
    for st in states:
        target = apply_semigroup(EXP2, st.k * grid.dt, u0)
        assert st.values == pytest.approx(target.values, abs=1e-12)


def test_constant_initial_state_is_preserved():
    # phi(0) = 0, so the spatial mean never decays and sigma = 0 leaves it alone
    grid = GridSpec(m_space=16, k_time=8, horizon=0.4)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("zero"),
                    u0=field_from_function(lambda x: 0.0 * x + 1.7, 16),
                    seed=0, replicas=2)
    states = solve_path(cfg, times=[0.4])
    assert states[0].values == pytest.approx(np.full(16, 1.7), abs=1e-13)


def test_additive_superposition():
    # with constant sigma the noise response is u0-independent, so the paths
    # for two initial states differ by the deterministic semigroup flow
    grid = GridSpec(m_space=32, k_time=20, horizon=0.25)
    u0 = field_from_function(np.sin, 32)
    base = dict(grid=grid, exponent=EXP2, sigma=get_sigma("one"), seed=4,
                replicas=2, observables=[(0.25, 0.0)])
    path_sin = solve_path_values(RunConfig(u0=u0, **base))
    path_zero = solve_path_values(RunConfig(u0=zero_field(32), **base))
    for k in (5, 20):
        target = apply_semigroup(EXP2, k * grid.dt, u0)
        assert path_sin[k] - path_zero[k] == pytest.approx(target.values, abs=1e-12)


def test_torus_periodicity():
    grid = GridSpec(m_space=16, k_time=8, horizon=0.2)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("shifted_sine"),
                    u0=field_from_function(np.cos, 16), seed=11, replicas=2)
    st = solve_path(cfg, times=[0.2])[0]
    modes = SpectralField.from_values(st.values).modes
    n = np.arange(len(modes))

    def synth(x):
        return float(np.sum(rfft_weights(16) * (modes * np.exp(1j * n * x)).real))

    at_zero, at_two_pi = synth(0.0), synth(TWO_PI)
    assert at_zero == pytest.approx(at_two_pi, rel=1e-12, abs=1e-14)
    assert at_zero == pytest.approx(st.values[0], rel=1e-10, abs=1e-12)


def test_solve_path_time_validation():
    grid = GridSpec(m_space=16, k_time=8, horizon=0.2)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("one"),
                    u0=zero_field(16), seed=0, replicas=2)
    with pytest.raises(ValueError):
        solve_path(cfg, times=[0.013])
    with pytest.raises(ValueError):
        solve_path(cfg, times=[0.4])


def test_probe_indices_mapping():
    grid = GridSpec(m_space=16, k_time=8, horizon=0.2)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("one"),
                    u0=zero_field(16), seed=0, replicas=2,
                    observables=[(0.1, math.pi)])
    assert cfg.probe_indices() == [(4, 8)]
    with pytest.raises(ValueError):
        RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("one"),
                  u0=zero_field(16), seed=0, replicas=2,
                  observables=[(0.1, 1.0)])


def test_config_validation():
    grid = GridSpec(m_space=16, k_time=8, horizon=0.2)
    with pytest.raises(ValueError):
        RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("one"),
                  u0=zero_field(32), seed=0, replicas=2)
    with pytest.raises(ValueError):
        RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("one"),
                  u0=zero_field(16), seed=0, replicas=0)


def test_blow_up_reported():
    grid = GridSpec(m_space=16, k_time=8, horizon=0.2)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("shifted_sine"),
                    u0=field_from_function(lambda x: 1e13 * np.sin(x), 16),
                    seed=0, replicas=2)
    with pytest.raises(BlowUpError) as err:
        solve_path(cfg, times=[0.2])
    assert err.value.step_index == 1
    assert err.value.max_abs > 1e12


# ---------------------------------------------------------------------------
# additive-case law


def test_additive_variance_and_skewness():
    grid = GridSpec(m_space=64, k_time=64, horizon=0.5)
    xi = _noise_block(grid, 21, range(4000))
    rec, _, blowups = _evolve_batch(zero_field(64).values, xi, EXP2,
                                    get_sigma("one"), grid, record_ks={64})
    assert not blowups
    u = rec[64][:, 0]
    n = len(u)
    var = float(np.var(u, ddof=1))
    m4 = float(np.mean((u - u.mean()) ** 4))
    se_var = math.sqrt((m4 - var ** 2) / n)
    exact = additive_variance_exact(EXP2, grid)
    assert abs(var - exact) < 3.0 * se_var
    # the on-grid Walsh quadrature and the geometric sum are the same number
    # up to band truncation
    assert walsh_variance(EXP2, grid) == pytest.approx(exact, rel=1e-6)
    skew = float(np.mean(((u - u.mean()) / u.std()) ** 3))
    assert abs(skew) < 4.0 * math.sqrt(6.0 / n)


def test_scheme_variance_approaches_time_integral():
    # right-endpoint quadrature bias is order sqrt(dt): halving dt cuts the
    # distance to the continuum integral by about sqrt(2)
    target = kernel_l2_time_integral(EXP2, 0.5)
    coarse = additive_variance_exact(EXP2, GridSpec(64, 64, 0.5))
    fine = additive_variance_exact(EXP2, GridSpec(128, 128, 0.5))
    assert abs(fine - target) < abs(coarse - target)
    ratio = abs(coarse - target) / abs(fine - target)
    assert 1.25 < ratio < 1.55
    assert fine == pytest.approx(target, rel=0.10)


def test_second_moment_stability_and_self_convergence():
    def m2(grid_, reps):
        xi = _noise_block(grid_, 77, range(reps))
        rec, _, _ = _evolve_batch(zero_field(grid_.m_space).values, xi, EXP2,
                                  get_sigma("shifted_sine"), grid_,
                                  record_ks={grid_.k_time})
        u = rec[grid_.k_time][:, 0]
        return float(np.mean(u ** 2)), float(np.std(u ** 2, ddof=1) / math.sqrt(reps))

    g64 = GridSpec(64, 64, 0.5)
    small, se_small = m2(g64, 400)
    big, se_big = m2(g64, 4000)
    assert abs(small - big) < 4.0 * (se_small + se_big)
    fine, _ = m2(GridSpec(128, 128, 0.5), 4000)
    assert abs(big - fine) < 0.1 * fine


def test_trajectory_deterministic():
    grid = GridSpec(m_space=32, k_time=16, horizon=0.3)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("shifted_sine"),
                    u0=field_from_function(np.sin, 32), seed=13, replicas=2)
    a = solve_path_values(cfg, replica=5)
    b = solve_path_values(cfg, replica=5)
    assert np.array_equal(a, b)
    c = solve_path_values(cfg, replica=6)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# weighted norm


def test_weighted_norm_values():
    times = np.array([0.0, 0.5, 1.0])
    zero = np.zeros(3)
    assert weighted_norm(times, zero, 4.0, 2) == 0.0
    moments = np.array([1.0, 4.0, 9.0])
    assert weighted_norm(times, moments, 0.0, 2) == pytest.approx(3.0)
    # beta = 2: weighted moments 1, 4/e, 9/e^2; the middle probe wins
    assert weighted_norm(times, moments, 2.0, 2) == pytest.approx(
        math.sqrt(4.0 * math.exp(-1.0)))


def test_weighted_norm_monotone_in_beta():
    rng = np.random.default_rng(2)
    times = np.linspace(0.0, 1.0, 20)
    moments = rng.uniform(0.5, 2.0, 20)
    values = [weighted_norm(times, moments, b, 2) for b in (0.0, 1.0, 4.0, 16.0)]
    assert all(values[j + 1] <= values[j] + 1e-15 for j in range(3))


def test_weighted_norm_validation():
    times = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        weighted_norm(times, np.array([1.0]), 1.0, 2)
    with pytest.raises(ValueError):
        weighted_norm(times, np.array([1.0, 2.0]), 1.0, 1)
    with pytest.raises(ValueError):
        weighted_norm(times, np.array([1.0, 2.0]), -1.0, 2)
    with pytest.raises(ValueError):
        weighted_norm(times, np.array([1.0, -2.0]), 1.0, 2)


# ---------------------------------------------------------------------------
# Picard iteration


def picard_config(m, k, horizon, sigma_name, seed=3):
    grid = GridSpec(m_space=m, k_time=k, horizon=horizon)
    return RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma(sigma_name),
                     u0=zero_field(m), seed=seed, replicas=64,
                     observables=[(horizon, 0.0)])


def test_picard_zero_sigma_is_fixed_point():
    rep = picard_sequence(picard_config(16, 8, 0.2, "zero"), n_max=3,
                          beta_param=8.0, replicas=16)
    assert np.all(rep.norms == 0.0)


def test_picard_additive_settles_after_one_iterate():
    rep = picard_sequence(picard_config(16, 8, 0.2, "one"), n_max=4,
                          beta_param=8.0, replicas=16)
    assert rep.norms[0] > 0.0
    assert np.all(rep.norms[1:] == 0.0)


def test_picard_exact_after_k_time_iterates():
    # each sweep settles one more time level, so with k_time = 4 the iterates
    # coincide with the discrete solution from n = 4 on
    rep = picard_sequence(picard_config(16, 4, 0.2, "shifted_sine"), n_max=6,
                          beta_param=8.0, replicas=64)
    assert np.all(rep.norms[:4] > 0.0)
    assert rep.norms[4] == 0.0 and rep.norms[5] == 0.0


def test_picard_contraction_large_beta():
    rep = picard_sequence(picard_config(16, 16, 0.5, "shifted_sine"), n_max=6,
                          beta_param=64.0, replicas=256)
    live = rep.ratios[rep.norms[:-1] > 0]
    assert np.all(live < 1.0)
    assert rep.contracting
    assert np.all(rep.stderrs >= 0.0)


def test_picard_worker_count_invariance():
    cfg = picard_config(16, 8, 0.2, "shifted_sine")
    a = picard_sequence(cfg, n_max=3, beta_param=16.0, replicas=300, workers=1)
    b = picard_sequence(cfg, n_max=3, beta_param=16.0, replicas=300, workers=4)
    assert np.array_equal(a.norms, b.norms)
    assert np.array_equal(a.stderrs, b.stderrs)


def test_picard_rows_schema():
    rep = picard_sequence(picard_config(16, 4, 0.2, "one"), n_max=2,
                          beta_param=8.0, replicas=16)
    rows = rep.to_rows(run_id="r", seed=3, alpha=2.0, beta=2.0)
    names = [r["quantity"] for r in rows]
    assert "picard_diff/n=0" in names and "picard_ratio/n=1" in names


def test_picard_validation():
    cfg = picard_config(16, 4, 0.2, "one")
    with pytest.raises(ValueError):
        picard_sequence(cfg, n_max=0, beta_param=8.0, replicas=16)
    with pytest.raises(ValueError):
        picard_sequence(cfg, n_max=2, beta_param=8.0, replicas=1)
