"""Derivative-propagation tests: kernel agreement, gradient oracle, H-norm
quadrature, small-ball frequencies, negative moments.

The additive case (constant sigma) makes every quantity deterministic and
closed-form, so most checks here are exact; the nonlinear checks lean on the
finite-difference oracle.
"""

import math

import numpy as np
import pytest

from levyheat import (
    GridSpec,
    RunConfig,
    additive_variance_exact,
    field_from_function,
    get_sigma,
    hnorm_samples,
    hnorm_sq,
    kernel_coefficients,
    kernel_l2_time_integral,
    make_power_exponent,
    negative_moment_estimate,
    noise_gradient_oracle,
    propagate_all,
    propagate_derivative,
    sample_noise,
    smallball_lower_mass,
    smallball_probability,
    solve_path_values,
)
from levyheat.malliavin import _wilson

TWO_PI = 2.0 * math.pi

EXP2 = make_power_exponent(1.0, 2.0)
EXP15 = make_power_exponent(1.0, 1.5)


def make_config(m, k, horizon, sigma_name, seed=9, exponent=EXP2, u0=None):
    grid = GridSpec(m_space=m, k_time=k, horizon=horizon)
    u0_field = field_from_function(u0 or (lambda x: 0.0 * x), m)
    return RunConfig(grid=grid, exponent=exponent, sigma=get_sigma(sigma_name),
                     u0=u0_field, seed=seed, replicas=4)


def solved(config, replica=0):
    noise = sample_noise(config.grid, config.seed, replica)
    path = solve_path_values(config, replica, noise=noise)
    return path, noise


# ---------------------------------------------------------------------------
# propagation against the kernel (additive case)


def test_additive_derivative_is_the_kernel():
    # sigma' = 0 kills the convolution term, so D is the transition kernel
    # from the source cell, in the unit-mass normalization
    cfg = make_config(32, 32, 0.5, "one")
    path, noise = solved(cfg)
    grid = cfg.grid
    k_s, i_s = 4, 7
    st = propagate_derivative(path, noise, EXP2, cfg.sigma, grid, (k_s, i_s))
    kc = kernel_coefficients(EXP2, (grid.k_time - k_s) * grid.dt, tol=1e-14)
    xs = grid.x_points()
    target = kc.evaluate(xs - xs[i_s]) / math.sqrt(TWO_PI)
    rel = np.max(np.abs(st.values - target)) / np.max(np.abs(target))
    assert rel < 1e-8


def test_adaptedness_is_exact():
    cfg = make_config(16, 8, 0.2, "shifted_sine")
    path, noise = solved(cfg)
    st = propagate_derivative(path, noise, EXP2, cfg.sigma, cfg.grid, (5, 3),
                              until_k=4)
    assert np.all(st.values == 0.0)
    same = propagate_derivative(path, noise, EXP2, cfg.sigma, cfg.grid, (4, 3),
                                until_k=4)
    assert np.all(same.values == 0.0)
    orc = noise_gradient_oracle(cfg, 0, (5, 3), (0.1, 0.0))
    assert orc.value == 0.0 and orc.value_half == 0.0


def test_source_validation():
    cfg = make_config(16, 8, 0.2, "one")
    path, noise = solved(cfg)
    with pytest.raises(IndexError):
        propagate_derivative(path, noise, EXP2, cfg.sigma, cfg.grid, (8, 0))
    with pytest.raises(IndexError):
        propagate_derivative(path, noise, EXP2, cfg.sigma, cfg.grid, (0, 16))
    with pytest.raises(ValueError):
        propagate_derivative(path, noise, EXP2, cfg.sigma, cfg.grid, (0, 0),
                             until_k=9)
    with pytest.raises(ValueError):
        propagate_all(path, noise, EXP2, cfg.sigma, cfg.grid, stride_k=0)


def test_batched_matches_single_propagation():
    cfg = make_config(16, 8, 0.2, "shifted_sine", u0=np.sin)
    path, noise = solved(cfg, replica=3)
    field = propagate_all(path, noise, EXP2, cfg.sigma, cfg.grid)
    assert field.data.shape == (8 * 16, 16)
    for row, (k_s, i_s) in ((0, (0, 0)), (37, (2, 5)), (127, (7, 15))):
        assert tuple(field.sources[row]) == (k_s, i_s)
        single = propagate_derivative(path, noise, EXP2, cfg.sigma, cfg.grid,
                                      (k_s, i_s))
        assert np.array_equal(field.data[row], single.values)


def test_additive_linearity_in_sigma():
    cfg1 = make_config(16, 8, 0.2, "one", seed=4)
    cfg2 = make_config(16, 8, 0.2, "two", seed=4)
    path1, noise = solved(cfg1)
    path2, _ = solved(cfg2)
    a = propagate_derivative(path1, noise, EXP2, cfg1.sigma, cfg1.grid, (2, 5))
    b = propagate_derivative(path2, noise, EXP2, cfg2.sigma, cfg2.grid, (2, 5))
    assert np.array_equal(b.values, 2.0 * a.values)


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_oracle_matches_propagation_nonlinear():
    cfg = make_config(16, 16, 0.25, "shifted_sine", seed=12, u0=np.sin)
    path, noise = solved(cfg, replica=1)
    grid = cfg.grid
    for src in ((2, 3), (5, 0), (9, 11)):
        for probe in ((0.25, 0.0), (0.1875, math.pi)):
            k_p = int(round(probe[0] / grid.dt))
            i_p = int(round(probe[1] / grid.dx))
            st = propagate_derivative(path, noise, EXP2, cfg.sigma, grid, src,
                                      until_k=k_p)
            orc = noise_gradient_oracle(cfg, 1, src, probe)
            assert orc.reliable
            assert st.values[i_p] == pytest.approx(orc.value, rel=1e-2)


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
    path, noise = solved(cfg)
    st = propagate_derivative(path, noise, EXP2, cfg.sigma, cfg.grid, (3, 4))
    assert a.value == pytest.approx(st.values[0], rel=1e-9)


def test_oracle_additive_matches_continuum_kernel():
    # on a band-resolved grid the difference quotient reproduces the
    # continuum transition kernel
    cfg = make_config(32, 8, 0.2, "one")
    orc = noise_gradient_oracle(cfg, 0, (3, 4), (0.2, 0.0))
    kc = kernel_coefficients(EXP2, 5 * cfg.grid.dt, tol=1e-14)
    target = float(kc.evaluate(np.array([0.0 - cfg.grid.dx * 4]))[0])
    assert orc.value == pytest.approx(target / math.sqrt(TWO_PI), rel=1e-6)


def test_oracle_probe_validation():
    cfg = make_config(16, 8, 0.2, "one")
    with pytest.raises(ValueError):
        noise_gradient_oracle(cfg, 0, (1, 1), (0.013, 0.0))
    with pytest.raises(IndexError):
        noise_gradient_oracle(cfg, 0, (9, 0), (0.2, 0.0))


@pytest.mark.parametrize("probe", [(0.2, 0.1), (-0.025, 0.0), (0.225, 0.0)],
                         ids=["off_grid_x", "t_negative", "t_past_horizon"])
@pytest.mark.parametrize("call", [
    lambda cfg, probe: hnorm_samples(cfg, probe=probe, replicas=2),
    lambda cfg, probe: negative_moment_estimate(cfg, probe=probe, replicas=2),
    lambda cfg, probe: smallball_probability(cfg, probe=probe, replicas=2),
    lambda cfg, probe: noise_gradient_oracle(cfg, 0, (1, 1), probe),
], ids=["hnorm_samples", "negative_moment_estimate", "smallball_probability",
        "noise_gradient_oracle"])
def test_probe_off_grid_rejected(call, probe):
    # every probe maps to a cell through GridSpec.index_of: no silent
    # snapping of x, no zero masses before t = 0, no bare IndexError past T
    with pytest.raises(ValueError):
        call(make_config(16, 8, 0.2, "one"), probe)


# ---------------------------------------------------------------------------
# H-norm quadrature


def test_additive_hnorm_equals_geometric_sum():
    cfg = make_config(32, 16, 0.2, "one", exponent=EXP15)
    path, noise = solved(cfg)
    field = propagate_all(path, noise, EXP15, cfg.sigma, cfg.grid)
    rep = hnorm_sq(field, 0)
    assert rep.hnorm_sq == pytest.approx(
        additive_variance_exact(EXP15, cfg.grid), rel=1e-12)


def test_hnorm_quadrature_deficit_shrinks():
    # right-endpoint quadrature undershoots the continuum mass; refining the
    # time grid reduces the deficit
    cont = kernel_l2_time_integral(EXP15, 0.2)
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
    path, noise = solved(cfg)
    grid = cfg.grid
    field = propagate_all(path, noise, EXP15, cfg.sigma, grid)
    deltas = tuple(j * grid.dt for j in (4, 8, 16, 32))
    rep = hnorm_sq(field, 3, deltas=deltas)
    for j, d in zip((4, 8, 16, 32), deltas):
        ref = additive_variance_exact(EXP15, GridSpec(32, j, j * grid.dt))
        assert rep.tail[float(d)] == pytest.approx(ref, rel=1e-12)
    tails = [rep.tail[float(d)] for d in deltas]
    assert all(a < b for a, b in zip(tails, tails[1:]))
    assert tails[-1] == rep.hnorm_sq
    assert all(0.0 <= v <= rep.hnorm_sq for v in tails)


def test_tail_bounded_nonlinear():
    cfg = make_config(16, 16, 0.25, "shifted_sine", seed=3)
    path, noise = solved(cfg, replica=2)
    field = propagate_all(path, noise, EXP2, cfg.sigma, cfg.grid)
    rep = hnorm_sq(field, 5, deltas=(4 * cfg.grid.dt, 0.25))
    assert 0.0 < rep.tail[float(4 * cfg.grid.dt)] <= rep.hnorm_sq
    assert rep.tail[0.25] == rep.hnorm_sq
    with pytest.raises(ValueError):
        hnorm_sq(field, 5, deltas=(-0.1,))


def test_hnorm_from_state_list():
    cfg = make_config(16, 4, 0.1, "shifted_sine")
    path, noise = solved(cfg)
    grid = cfg.grid
    states = [propagate_derivative(path, noise, EXP2, cfg.sigma, grid, (k, i))
              for k in range(4) for i in range(16)]
    via_list = hnorm_sq(states, 2, grid=grid)
    via_field = hnorm_sq(propagate_all(path, noise, EXP2, cfg.sigma, grid), 2)
    assert via_list.hnorm_sq == pytest.approx(via_field.hnorm_sq, rel=1e-13)
    with pytest.raises(ValueError):
        hnorm_sq(states, 2)
    with pytest.raises(ValueError):
        hnorm_sq([], 2, grid=grid)


def test_strided_quadrature_consistency():
    cfg = make_config(16, 16, 0.25, "shifted_sine", seed=5)
    path, noise = solved(cfg)
    grid = cfg.grid
    full_field = propagate_all(path, noise, EXP2, cfg.sigma, grid)
    strided = propagate_all(path, noise, EXP2, cfg.sigma, grid,
                            stride_k=2, stride_i=2)
    assert full_field.data.shape[0] == 16 * 16
    assert strided.data.shape[0] == 8 * 8
    assert strided.weight == pytest.approx(4.0 * full_field.weight)
    full = hnorm_sq(full_field, 0).hnorm_sq
    sub = hnorm_sq(strided, 0).hnorm_sq
    assert 0.7 * full < sub < 1.35 * full


# ---------------------------------------------------------------------------
# sampling driver


def test_hnorm_samples_deterministic_across_workers():
    cfg = make_config(16, 8, 0.2, "shifted_sine", seed=8)
    a, tails_a = hnorm_samples(cfg, replicas=6, workers=1, deltas=(0.1,))
    b, tails_b = hnorm_samples(cfg, replicas=6, workers=4, deltas=(0.1,))
    assert np.array_equal(a, b)
    assert np.array_equal(tails_a[0.1], tails_b[0.1])
    assert a.shape == (6,)
    assert np.all(tails_a[0.1] <= a)


def test_hnorm_samples_additive_degenerate():
    # constant sigma makes the mass a deterministic functional
    cfg = make_config(16, 8, 0.2, "one")
    samples, _ = hnorm_samples(cfg, replicas=5)
    assert float(np.ptp(samples)) == 0.0
    assert samples[0] == pytest.approx(additive_variance_exact(EXP2, cfg.grid),
                                       rel=1e-12)


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
    cfg = make_config(16, 8, 0.2, "one")
    v = additive_variance_exact(EXP2, cfg.grid)
    rep = smallball_probability(cfg, eps_list=[0.5 * v, 2.0 * v], replicas=8)
    assert float(np.ptp(rep.samples)) == 0.0
    assert rep.freq[0] == 0.0 and rep.freq[1] == 1.0
    assert rep.ci_hi[0] > 0.0
    assert rep.ci_lo[1] < 1.0
    assert np.all(rep.delta <= cfg.grid.horizon * (1 + 1e-12))


def test_smallball_monotone_and_rows():
    cfg = make_config(16, 16, 0.25, "shifted_sine", seed=14)
    rep = smallball_probability(cfg, replicas=48,
                                levels=[0.1, 0.25, 0.5, 0.75])
    assert np.all(np.diff(rep.eps) > 0)
    assert np.all(np.diff(rep.freq) >= 0)
    assert np.all((rep.ci_lo <= rep.freq) & (rep.freq <= rep.ci_hi))
    assert rep.c_fit > 0
    rows = rep.to_rows(run_id="r", seed=14, alpha=2.0, beta=2.0)
    names = {r["quantity"] for r in rows}
    assert any(n.startswith("smallball_freq/eps=") for n in names)
    assert any(n.startswith("smallball_window/eps=") for n in names)
    assert any(n.startswith("smallball_lower_mass_minus_eps/eps=") for n in names)
    assert len(rows) == 3 * len(rep.eps)


def test_smallball_validation():
    cfg = make_config(16, 8, 0.2, "zero")
    with pytest.raises(ValueError):
        smallball_probability(cfg, replicas=4)
    cfg2 = make_config(16, 8, 0.2, "one")
    with pytest.raises(ValueError):
        smallball_probability(cfg2, eps_list=[-1.0, 0.5], replicas=4)


# ---------------------------------------------------------------------------
# negative moments


def test_negative_moment_additive_exact():
    cfg = make_config(16, 8, 0.2, "one")
    v = additive_variance_exact(EXP2, cfg.grid)
    rep = negative_moment_estimate(cfg, p=2, replicas=4)
    assert rep.estimate == pytest.approx(v ** -1.0, rel=1e-12)
    assert rep.stderr == 0.0
    assert rep.reliable and rep.floor_fraction == 0.0
    # floor never binds, so the decade sweep is flat
    sweep = list(rep.sensitivity.values())
    assert all(s == pytest.approx(rep.estimate, rel=1e-12) for s in sweep)
    rep4 = negative_moment_estimate(cfg, p=4, replicas=4)
    assert rep4.estimate == pytest.approx(v ** -2.0, rel=1e-12)


def test_negative_moment_decreasing_in_time():
    early = negative_moment_estimate(make_config(16, 8, 0.1, "one"),
                                     p=2, replicas=4)
    late = negative_moment_estimate(make_config(16, 8, 0.4, "one"),
                                    p=2, replicas=4)
    assert late.estimate < early.estimate


def test_negative_moment_floor_flag():
    cfg = make_config(16, 8, 0.2, "one")
    fake = np.array([1e-12, 1.0, 1.0, 1.0])
    rep = negative_moment_estimate(cfg, p=2, replicas=4, floor=1e-8,
                                   samples=fake)
    assert rep.floor_fraction == pytest.approx(0.25)
    assert not rep.reliable
    rows = rep.to_rows(run_id="r", seed=0, alpha=2.0, beta=2.0, probe=(0.2, 0.0))
    names = [r["quantity"] for r in rows]
    assert names[0].startswith("negative_moment/p=2")
    assert sum(n.startswith("negative_moment_floor_sweep/") for n in names) == 3


def test_negative_moment_validation():
    cfg = make_config(16, 8, 0.2, "one")
    with pytest.raises(ValueError):
        negative_moment_estimate(cfg, p=1, replicas=4)
    with pytest.raises(ValueError):
        negative_moment_estimate(cfg, p=2, replicas=4, floor=0.0)
    with pytest.raises(ValueError):
        negative_moment_estimate(make_config(16, 8, 0.2, "zero"), p=2,
                                 replicas=4)
