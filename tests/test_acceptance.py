"""End-to-end acceptance gate.  Each test covers one headline behavior of the
package at desk scale, prints a single PASS/FAIL line (run pytest -s to see
them), and asserts.  Tolerances were fixed from pre-run measurements with
comfortable margins; none of them are tuned to the observed values."""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

import levyheat as lh
from levyheat.cli import parse_and_dispatch
from levyheat.solver import SMALLBALL_LEVELS

EXP2 = lh.make_power_exponent(1.0, 2.0)
EXP15 = lh.make_power_exponent(1.0, 1.5)


def verdict(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def zero_field(m):
    return lh.field_from_function(lambda x: 0.0 * x, m)


def test_kernel_norm_scaling():
    # squared kernel norm decays like t^(-1/alpha) for the power family
    t0 = time.monotonic()
    ts = np.geomspace(1e-5, 1e-3, 9)
    norms = np.array([lh.kernel_l2_norm_sq(EXP15, t)[0] for t in ts])
    fit = lh.fit_slope(ts, norms)
    elapsed = time.monotonic() - t0
    ok = (abs(fit.slope - (-2.0 / 3.0)) <= 0.03 * (2.0 / 3.0)
          and fit.r2 > 0.999 and elapsed < 5.0)
    assert verdict(1, "kernel-norm-scaling", ok)


def test_limit_constant():
    # lam^(1/2) sum exp(-lam n^2) approaches int_0^inf exp(-u^2) du; the
    # oracle is an independent midpoint Riemann sum of the limiting integral
    du = 1e-4
    u = (np.arange(120000) + 0.5) * du
    oracle = float(np.sum(np.exp(-u ** 2)) * du)
    probe, _ = lh.limit_constant_probe(2.0, 1e-6)
    ok = (abs(oracle - math.gamma(1.5)) < 1e-6
          and abs(probe - oracle) < 1e-3)
    assert verdict(2, "limit-constant", ok)


def test_wrapped_kernel_equivalence():
    # spectral synthesis vs image-sum Gaussian on the circle
    xs = 2.0 * math.pi * np.arange(64) / 64
    spectral = lh.kernel_coefficients(EXP2, 0.05).evaluate(xs)
    wrapped = lh.wrapped_gaussian_kernel(0.05, xs)
    ok = float(np.max(np.abs(spectral - wrapped))) < 1e-8
    assert verdict(3, "wrapped-kernel-equivalence", ok)


def test_additive_noise_law():
    # constant sigma: u(T, x) is centered Gaussian with the scheme's exact
    # variance, the time-quadrature of the squared kernel norm on its grid
    grid = lh.GridSpec(m_space=256, k_time=128, horizon=0.1)
    cfg = lh.RunConfig(grid=grid, exponent=EXP2, sigma=lh.get_sigma("one"),
                       u0=zero_field(256), seed=2026, replicas=10000)
    sset = lh.run_ensemble(cfg)
    samples = sset.values
    n = len(samples)
    var = sset.variance()
    se_var = sset.variance_stderr()
    target = lh.additive_variance_exact(EXP2, grid)

    dens = lh.kde(samples)
    ks = float(np.max(np.abs(dens.cdf() - ndtr(dens.points / math.sqrt(target)))))

    ok = (n == 10000
          and abs(var - target) < 3.0 * se_var
          and ks < 0.02)
    assert verdict(4, "additive-noise-law", ok)


def test_gradient_oracle_agreement():
    # pathwise derivative propagation vs bumped-noise finite differences,
    # plus exact adaptedness (no response before the source acts)
    grid = lh.GridSpec(m_space=16, k_time=16, horizon=0.25)
    cfg = lh.RunConfig(grid=grid, exponent=EXP2,
                       sigma=lh.get_sigma("shifted_sine"),
                       u0=lh.field_from_function(np.sin, 16), seed=12,
                       replicas=4)
    xi = lh.sample_noise(grid, cfg.seed, 1)
    path = lh.solve_path(cfg, 1)

    agree = True
    for src in ((2, 3), (5, 0), (9, 11)):
        for probe in ((0.25, 0.0), (0.1875, math.pi),
                      (0.234375, 0.5 * math.pi)):
            k_p = int(round(probe[0] / grid.dt))
            i_p = int(round(probe[1] / grid.dx))
            d = lh.propagate_derivative(path, xi, EXP2, cfg.sigma,
                                        grid, src, until_k=k_p)
            orc = lh.noise_gradient_oracle(cfg, 1, src, probe)
            agree = agree and orc.reliable and \
                abs(d[i_p] - orc.value) <= 1e-2 * abs(orc.value)

    early = lh.propagate_derivative(path, xi, EXP2, cfg.sigma, grid,
                                    (9, 11), until_k=8)
    orc = lh.noise_gradient_oracle(cfg, 1, (9, 11), (0.125, 0.0))
    adapted = bool(np.all(early == 0.0)) and orc.value == 0.0

    assert verdict(5, "gradient-oracle-agreement", agree and adapted)


def test_derivative_mass_scaling():
    # additive derivative mass grows like t^(1 - 1/alpha); the adjoint
    # mass agrees with the per-mode geometric sum, whose continuum limit is
    # the closed-form time integral swept here
    cfg = lh.RunConfig(grid=lh.GridSpec(m_space=32, k_time=16, horizon=0.2),
                       exponent=EXP15, sigma=lh.get_sigma("one"),
                       u0=zero_field(32), seed=9, replicas=4)
    xi = lh.sample_noise(cfg.grid, cfg.seed, 0)
    path = lh.solve_path(cfg, 0)
    rows = lh.adjoint_gradient(path[None], xi[None], EXP15, cfg.sigma,
                               cfg.grid, cfg.grid.k_time, 0)
    mass, _ = lh.hnorm_sq(rows, cfg.grid)
    anchored = mass[0] == pytest.approx(
        lh.additive_variance_exact(EXP15, cfg.grid), rel=1e-9)

    ts = np.geomspace(1e-3, 1e-1, 9)
    mass = np.array([lh.kernel_l2_time_integral(EXP15, t)[0] for t in ts])
    fit = lh.fit_slope(ts, mass)
    ok = anchored and abs(fit.slope - 1.0 / 3.0) <= 0.05 / 3.0
    assert verdict(6, "derivative-mass-scaling", ok)


def test_picard_contraction():
    # successive fixed-point iterates contract in the weighted norm once the
    # exponential weight is heavy enough
    cfg = lh.RunConfig(grid=lh.GridSpec(m_space=16, k_time=16, horizon=0.5),
                       exponent=EXP2, sigma=lh.get_sigma("shifted_sine"),
                       u0=zero_field(16), seed=3, replicas=256)
    rep = lh.picard_sequence(cfg, n_max=6, beta_param=64.0)
    ok = (len(rep.ratios) == 5
          and bool(np.all(rep.ratios < 1.0))
          and rep.contracting)
    assert verdict(7, "picard-contraction", ok)


def test_exponent_checker():
    a = lh.check_exponent_condition(2.0, 2.0)
    b = lh.check_exponent_condition(4.0 / 3.0, 2.0)
    c = lh.check_exponent_condition(1.2, 2.0)
    ok = (abs(a.theta - 1.0) <= 1e-12 and a.admissible
          and abs(b.theta) <= 1e-12 and b.admissible
          and c.theta < -1e-12 and not c.admissible)
    assert verdict(8, "exponent-checker", ok)


def test_output_determinism(tmp_path):
    # identical config and seed give byte-identical files, regardless of
    # worker count
    args = ["simulate", "--set", "m_space=16", "--set", "k_time=8",
            "--set", "horizon=0.2", "--set", "replicas=32", "--seed", "5"]
    outs = {}
    for name, extra in (("a", ["--workers", "1"]), ("b", ["--workers", "1"]),
                        ("c", ["--workers", "8"])):
        out = tmp_path / name
        code = parse_and_dispatch(args + extra + ["--out", str(out)])
        assert code == 0
        outs[name] = ((out / "simulate.csv").read_bytes(),
                      (out / "simulate.meta.json").read_bytes())
    ok = outs["a"] == outs["b"] == outs["c"]
    assert verdict(9, "output-determinism", ok)


def test_smallball_qualitative():
    # bounded-below sigma: the derivative-mass quantiles rise with the
    # level, above the certified floor, and log level against log quantile
    # is a clean positive trend (the small-ball exponent); constant sigma
    # collapses the mass to a deterministic point
    grid = lh.GridSpec(m_space=16, k_time=16, horizon=0.25)
    cfg = lh.RunConfig(grid=grid, exponent=EXP2,
                       sigma=lh.get_sigma("shifted_sine"),
                       u0=zero_field(16), seed=7, replicas=512)
    mass = lh.hnorm_samples(cfg)[0]
    levels = SMALLBALL_LEVELS
    value, lo, hi = np.array([mass.quantile(q) for q in levels]).T
    monotone = bool(np.all(np.diff(value) > 0.0))
    floored = bool(lh.certified_floor(cfg) <= mass.values.min())
    fit = lh.fit_slope(value, levels)

    cfg1 = lh.RunConfig(grid=grid, exponent=EXP2, sigma=lh.get_sigma("one"),
                        u0=zero_field(16), seed=7, replicas=512)
    v = lh.additive_variance_exact(EXP2, grid)
    mass1 = lh.hnorm_samples(cfg1)[0]
    additive_exact = all(value1 == lo1 == hi1 == pytest.approx(v, rel=1e-12)
                         for value1, lo1, hi1 in map(mass1.quantile, levels))

    ok = (monotone and floored and bool(np.all(lo < hi)) and fit.slope > 0.0
          and fit.r2 > 0.9 and additive_exact)
    assert verdict(10, "smallball-qualitative", ok)
