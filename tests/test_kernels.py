"""Spectral machinery tests.

Series values are checked against brute-force partial sums carrying their own
integral tail brackets, so every comparison tolerance is the sum of the two
certified errors rather than a guessed constant.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

from levyheat import (
    ExponentRangeError,
    GeneratorDomainError,
    LevyExponent,
    SpectralField,
    apply_generator,
    apply_semigroup,
    check_exponent_condition,
    field_from_function,
    in_generator_domain,
    kernel_coefficients,
    kernel_l2_laplace,
    kernel_l2_norm_sq,
    kernel_l2_time_integral,
    limit_constant_probe,
    make_power_exponent,
    verify_kernel_bounds,
    wrapped_gaussian_kernel,
)
from levyheat.kernels import FOUR_PI_SQ, TWO_PI, rfft_weights

GAMMA_3_2 = math.gamma(1.5)  # = sqrt(pi)/2, the alpha=2 limit constant


# ---------------------------------------------------------------------------
# oracles


def brute_norm_sq(exp_, t, n_terms):
    """Direct partial sum of (1/4pi^2) sum e^(-2t re phi), with a one-sided
    integral bound on the dropped tail (re phi >= c n^alpha)."""
    n = np.arange(1, n_terms + 1)
    re = np.array([exp_.re_phi(int(k)) for k in n])
    body = (1.0 + 2.0 * np.exp(-2.0 * t * re).sum()) / FOUR_PI_SQ
    lam = 2.0 * t * exp_.c_lower
    a = exp_.alpha
    tail = math.exp(-lam * n_terms ** a) / (lam * a * n_terms ** (a - 1))
    return body, 2.0 * tail / FOUR_PI_SQ


def brute_laplace(exp_, beta, n_terms):
    """Direct partial sum of (1/4pi^2) sum 1/(beta + 2 re phi), tail bounded
    by the integral of 1/(2 c x^alpha)."""
    n = np.arange(1, n_terms + 1)
    re = np.array([exp_.re_phi(int(k)) for k in n])
    body = (1.0 / beta + 2.0 * (1.0 / (beta + 2.0 * re)).sum()) / FOUR_PI_SQ
    a = exp_.alpha
    tail = n_terms ** (1 - a) / (2.0 * exp_.c_lower * (a - 1))
    return body, 2.0 * tail / FOUR_PI_SQ


def riemann_exp_integral(alpha, step=1e-4, upper=40.0):
    """Midpoint Riemann sum of int_0^inf e^(-x^alpha) dx = Gamma(1 + 1/alpha)."""
    x = np.arange(step / 2, upper, step)
    return float(np.exp(-x ** alpha).sum() * step)


# ---------------------------------------------------------------------------
# LevyExponent validation


def test_power_exponent_values():
    exp_ = make_power_exponent(1.0, 2.0)
    assert exp_.phi(3) == pytest.approx(9.0)
    assert exp_.phi(0) == 0.0
    assert exp_.alpha == 2.0 and exp_.beta == 2.0


def test_power_exponent_hermitian_with_drift():
    exp_ = make_power_exponent(0.5, 1.5, drift=0.7)
    for n in (1, 2, 5, 17):
        assert exp_.phi(-n) == pytest.approx(np.conj(exp_.phi(n)))


def test_threshold_family_accepted():
    exp_ = make_power_exponent(1.0, 4.0 / 3.0 + 0.1)
    assert exp_.alpha == pytest.approx(4.0 / 3.0 + 0.1)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.1, 3.0])
def test_power_exponent_rejects_bad_alpha(alpha):
    with pytest.raises(ExponentRangeError):
        make_power_exponent(1.0, alpha)


def test_exponent_rejects_nonzero_origin():
    with pytest.raises(ValueError):
        LevyExponent(phi=lambda n: np.asarray(n) ** 2 + 1.0 + 0j, alpha=2.0,
                     beta=2.0, c_lower=1.0, c_upper=2.0)


def test_exponent_rejects_negative_real_part():
    with pytest.raises(ValueError):
        LevyExponent(phi=lambda n: -np.abs(n) ** 1.5 + 0j, alpha=1.5,
                     beta=1.5, c_lower=1.0, c_upper=1.0)


def test_exponent_rejects_broken_symmetry():
    # imaginary part even in n instead of odd
    def phi(n):
        n = np.asarray(n, dtype=float)
        return n * n + 0.3j * np.abs(n)

    with pytest.raises(ValueError):
        LevyExponent(phi=phi, alpha=2.0, beta=2.0, c_lower=1.0, c_upper=1.0)


def test_exponent_rejects_envelope_violation():
    # grows like n^2 but claims beta = 1.5
    with pytest.raises(ValueError):
        LevyExponent(phi=lambda n: np.asarray(n, dtype=float) ** 2 + 0j,
                     alpha=1.5, beta=1.5, c_lower=1.0, c_upper=1.0)


# ---------------------------------------------------------------------------
# kernel coefficients


def test_coefficients_long_time_limit():
    exp_ = make_power_exponent(1.0, 2.0)
    kc = kernel_coefficients(exp_, 1e6, tol=1e-12)
    mid = kc.cutoff
    assert kc.coeffs[mid] == pytest.approx(1.0 / TWO_PI, rel=1e-14)
    off = np.delete(kc.coeffs, mid)
    assert np.all(np.abs(off) == 0.0)


def test_coefficients_hermitian_and_bounded():
    exp_ = make_power_exponent(1.0, 1.5, drift=0.4)
    kc = kernel_coefficients(exp_, 0.05, tol=1e-12)
    mid = kc.cutoff
    for n in range(1, kc.cutoff + 1):
        assert kc.coeffs[mid - n] == pytest.approx(np.conj(kc.coeffs[mid + n]))
    mags = np.abs(kc.coeffs)
    assert np.all(mags <= 1.0 / TWO_PI + 1e-15)
    # monotone in |n| since re phi is
    assert np.all(np.diff(mags[mid:]) <= 1e-18)


def test_coefficients_reject_nonpositive_time():
    exp_ = make_power_exponent(1.0, 2.0)
    with pytest.raises(ValueError):
        kernel_coefficients(exp_, 0.0)
    with pytest.raises(ValueError):
        kernel_coefficients(exp_, -1.0)


def test_kernel_mass_is_one():
    exp_ = make_power_exponent(1.0, 1.5)
    kc = kernel_coefficients(exp_, 0.02, tol=1e-12)
    z = np.linspace(0.0, TWO_PI, 4097)
    q = kc.evaluate(z)
    assert trapezoid(q, z) == pytest.approx(1.0, abs=1e-8)


def test_kernel_symmetry_without_drift():
    exp_ = make_power_exponent(1.0, 1.5)
    kc = kernel_coefficients(exp_, 0.05, tol=1e-12)
    z = np.linspace(0.1, TWO_PI - 0.1, 33)
    assert kc.evaluate(z) == pytest.approx(kc.evaluate(TWO_PI - z), rel=1e-12)


def test_chapman_kolmogorov_modes():
    exp_ = make_power_exponent(1.0, 1.5, drift=0.3)
    s, t = 0.03, 0.07
    kc_s = kernel_coefficients(exp_, s, tol=1e-14)
    kc_t = kernel_coefficients(exp_, t, tol=1e-14)
    kc_st = kernel_coefficients(exp_, s + t, tol=1e-14)
    band = min(kc_s.cutoff, kc_t.cutoff, kc_st.cutoff)
    for n in range(-band, band + 1):
        lhs = TWO_PI * kc_s.coeffs[kc_s.cutoff + n] * kc_t.coeffs[kc_t.cutoff + n]
        rhs = kc_st.coeffs[kc_st.cutoff + n]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_wrapped_gaussian_matches_spectral():
    exp_ = make_power_exponent(1.0, 2.0)
    kc = kernel_coefficients(exp_, 0.01, tol=1e-16)
    z = np.arange(64) * (TWO_PI / 64)
    spectral = kc.evaluate(z)
    wrapped = wrapped_gaussian_kernel(0.01, z)
    assert np.max(np.abs(spectral - wrapped)) < 1e-8


def test_wrapped_gaussian_mass_and_symmetry():
    z = np.linspace(0.0, TWO_PI, 2049)
    q = wrapped_gaussian_kernel(0.07, z)
    assert trapezoid(q, z) == pytest.approx(1.0, abs=1e-8)
    assert wrapped_gaussian_kernel(0.07, 1.1) == pytest.approx(
        wrapped_gaussian_kernel(0.07, TWO_PI - 1.1), rel=1e-12)


# ---------------------------------------------------------------------------
# L2 norm, time integral, Laplace transform


def test_norm_sq_against_brute_sum():
    exp_ = make_power_exponent(1.0, 2.0)
    value, tail = kernel_l2_norm_sq(exp_, 0.01, tol=1e-12, full_output=True)
    brute, brute_tail = brute_norm_sq(exp_, 0.01, 10_000)
    assert abs(value - brute) <= tail + brute_tail + 1e-15


def test_norm_sq_brute_sum_fractional():
    exp_ = make_power_exponent(0.7, 1.5)
    for t in (1e-4, 1e-2, 0.3):
        value, tail = kernel_l2_norm_sq(exp_, t, tol=1e-12, full_output=True)
        brute, brute_tail = brute_norm_sq(exp_, t, 300_000)
        assert abs(value - brute) <= tail + brute_tail + 1e-15


def test_norm_sq_long_time_limit_and_floor():
    exp_ = make_power_exponent(1.0, 2.0)
    assert kernel_l2_norm_sq(exp_, 1e6) == pytest.approx(1.0 / FOUR_PI_SQ)
    for t in (1e-5, 1e-2, 10.0):
        assert kernel_l2_norm_sq(exp_, t) >= 1.0 / FOUR_PI_SQ


def test_norm_sq_parseval():
    # band-limited quadrature of the reconstructed kernel is exact
    exp_ = make_power_exponent(1.0, 1.5)
    t = 0.05
    kc = kernel_coefficients(exp_, t, tol=1e-14)
    m = 2 * kc.cutoff + 9
    z = np.arange(m) * (TWO_PI / m)
    quad_value = float(np.mean(kc.evaluate(z) ** 2))
    value, tail = kernel_l2_norm_sq(exp_, t, tol=1e-14, full_output=True)
    assert quad_value == pytest.approx(value, rel=1e-10)
    assert tail <= 1e-14


def test_norm_sq_envelope_two_sided():
    exp_ = make_power_exponent(1.0, 1.5)
    ts = np.geomspace(1e-5, 1e-3, 7)
    vals = np.array([kernel_l2_norm_sq(exp_, t) for t in ts])
    scaled = vals * ts ** (2.0 / 3.0)
    assert scaled.max() / scaled.min() < 1.01


def test_time_integral_against_brute_quadrature():
    exp_ = make_power_exponent(1.0, 1.5)
    delta = 0.2
    # per-mode closed form: int_0^d e^(-2 s re) ds = (1 - e^(-2 d re))/(2 re)
    n = np.arange(1, 200_001)
    re = exp_.c_lower * n ** 1.5
    body = delta + 2.0 * ((1.0 - np.exp(-2.0 * delta * re)) / (2.0 * re)).sum()
    brute = body / FOUR_PI_SQ
    brute_tail = 2.0 * (200_000 ** -0.5) / (2.0 * 0.5) / FOUR_PI_SQ
    value, tail = kernel_l2_time_integral(exp_, delta, tol=1e-12,
                                          full_output=True)
    assert abs(value - brute) <= tail + brute_tail + 1e-15


def test_time_integral_small_delta_scaling():
    exp_ = make_power_exponent(1.0, 1.5)
    deltas = np.geomspace(1e-4, 1e-2, 7)
    vals = np.array([kernel_l2_time_integral(exp_, d) for d in deltas])
    assert np.all(np.diff(vals) > 0)
    scaled = vals * deltas ** (-1.0 / 3.0)
    assert scaled.max() / scaled.min() < 1.02


def test_laplace_against_brute_sum():
    exp_ = make_power_exponent(1.0, 2.0)
    value, tail = kernel_l2_laplace(exp_, 1.0, tol=1e-12, full_output=True)
    brute, brute_tail = brute_laplace(exp_, 1.0, 1_000_000)
    assert abs(value - brute) <= tail + brute_tail + 1e-15


def test_laplace_monotone_and_vanishing():
    exp_ = make_power_exponent(1.0, 2.0)
    betas = [0.5, 1.0, 10.0, 1e3, 1e6]
    vals = [kernel_l2_laplace(exp_, b) for b in betas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-4


def test_laplace_rejects_nonpositive():
    exp_ = make_power_exponent(1.0, 2.0)
    with pytest.raises(ValueError):
        kernel_l2_laplace(exp_, 0.0)


def test_laplace_equals_weighted_time_integral():
    # the Laplace mass is the integral of e^(-beta s) ||q_s||^2 over s
    exp_ = make_power_exponent(1.0, 2.0)
    beta = 4.0
    target = kernel_l2_laplace(exp_, beta, tol=1e-12)

    def integrand(u):
        s = u * u
        return 2.0 * u * math.exp(-beta * s) * kernel_l2_norm_sq(exp_, s)

    got, err = quad(integrand, 1e-6, 6.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    # the clipped ends: int_0^eps ||q|| <= int_0^eps (A s^(-1/2) + c) ds
    head = kernel_l2_time_integral(exp_, 1e-12)
    tail_cut = kernel_l2_laplace(exp_, beta) * math.exp(-beta * 36.0)
    assert abs(got - target) < head + tail_cut + 1e-7


# ---------------------------------------------------------------------------
# limit constant


def test_limit_constant_alpha_two():
    probe = limit_constant_probe(2.0, 1e-6)
    oracle = riemann_exp_integral(2.0)
    assert oracle == pytest.approx(GAMMA_3_2, abs=1e-8)
    assert abs(probe - oracle) < 1e-3


def test_limit_constant_bounded_on_unit_interval():
    for lam in (1.0, 0.1, 1e-3, 1e-6):
        v = limit_constant_probe(1.5, lam)
        assert 0.0 < v < 2.0


def test_limit_constant_cauchy_near_zero():
    vals = [limit_constant_probe(1.5, lam)
            for lam in (1e-8, 5e-9, 2.5e-9)]
    assert abs(vals[1] - vals[0]) / vals[0] < 0.01
    assert abs(vals[2] - vals[1]) / vals[1] < 0.01
    assert vals[-1] == pytest.approx(math.gamma(1 + 1 / 1.5), rel=0.01)


# ---------------------------------------------------------------------------
# semigroup and generator


def test_semigroup_identity_and_constants():
    exp_ = make_power_exponent(1.0, 1.5)
    f = field_from_function(lambda x: 1.0 + 0.0 * x, 32)
    assert apply_semigroup(exp_, 0.0, f).values == pytest.approx(f.values)
    out = apply_semigroup(exp_, 3.0, f)
    assert out.values == pytest.approx(np.ones(32), rel=1e-14)


def test_semigroup_cosine_decay():
    exp_ = make_power_exponent(1.0, 2.0)
    f = field_from_function(np.cos, 64)
    t = 0.3
    out = apply_semigroup(exp_, t, f)
    x = np.arange(64) * (TWO_PI / 64)
    assert out.values == pytest.approx(math.exp(-t) * np.cos(x), rel=1e-12)


def test_semigroup_composition():
    # exact on every mode below Nyquist.  The even-m Nyquist mode takes the
    # real part of its multiplier, which drift keeps from composing: two
    # steps apply the product of their real parts, as the solver's steps do
    exp_ = make_power_exponent(0.8, 1.5, drift=0.2)
    rng = np.random.default_rng(5)
    f = SpectralField.from_values(rng.standard_normal(32))
    one = apply_semigroup(exp_, 0.25, f)
    two = apply_semigroup(exp_, 0.15, apply_semigroup(exp_, 0.10, f))
    assert two.modes[:-1] == pytest.approx(one.modes[:-1], rel=1e-12, abs=1e-13)
    phi_nyq = exp_.phi(np.array([16]))[0]
    step_re = [math.exp(-t * phi_nyq.real) * math.cos(t * phi_nyq.imag)
               for t in (0.10, 0.15)]
    assert two.modes[-1] == pytest.approx(
        step_re[0] * step_re[1] * f.modes[-1], rel=1e-12)


def test_semigroup_drift_translates():
    # drift d moves the profile by d*t; pick d*t equal to one grid cell
    m = 64
    dx = TWO_PI / m
    t = 0.5
    drift = dx / t
    exp_ = make_power_exponent(1.0, 2.0, drift=drift)
    base = make_power_exponent(1.0, 2.0)
    f = field_from_function(lambda x: np.sin(x) + 0.3 * np.cos(2 * x), m)
    moved = apply_semigroup(exp_, t, f)
    plain = apply_semigroup(base, t, f)
    assert moved.values == pytest.approx(np.roll(plain.values, 1), rel=1e-10,
                                         abs=1e-12)


def test_generator_constant_and_cosine():
    exp_ = make_power_exponent(1.0, 2.0)
    const = field_from_function(lambda x: 2.0 + 0.0 * x, 32)
    assert apply_generator(exp_, const).values == pytest.approx(
        np.zeros(32), abs=1e-12)
    f = field_from_function(np.cos, 64)
    out = apply_generator(exp_, f)
    assert out.values == pytest.approx(-f.values, rel=1e-12)


def test_generator_is_semigroup_derivative():
    exp_ = make_power_exponent(1.0, 1.5, drift=0.3)
    f = field_from_function(lambda x: np.sin(2 * x) + np.cos(x), 64)
    target = apply_generator(exp_, f).values
    errs = []
    for h in (1e-3, 5e-4, 2.5e-4):
        diff = (apply_semigroup(exp_, h, f).values - f.values) / h
        errs.append(np.max(np.abs(diff - target)))
    # first-order convergence: error roughly halves with h
    assert errs[2] < errs[0]
    assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.15)


def test_generator_domain_flag():
    exp_ = make_power_exponent(1.0, 2.0)
    n_max = 128
    modes = np.zeros(n_max + 1, dtype=complex)
    # slow decay 1/|n|: sum |phi(n)|^2 |c(n)|^2 = sum n^2 grows past the bound
    modes[1:] = 1.0 / np.arange(1, n_max + 1)
    f = SpectralField.from_modes(modes)
    assert not in_generator_domain(exp_, f, bound=1e3)
    with pytest.raises(GeneratorDomainError):
        apply_generator(exp_, f, domain_bound=1e3)
    band = field_from_function(lambda x: np.sin(3 * x), 64)
    assert in_generator_domain(exp_, band, bound=1e3)
    zero = field_from_function(lambda x: 0.0 * x, 16)
    assert in_generator_domain(exp_, zero, bound=1e-30)


# ---------------------------------------------------------------------------
# exponent condition


def test_exponent_condition_values():
    theta, admissible = check_exponent_condition(2.0, 2.0)
    assert abs(theta - 1.0) < 1e-12 and admissible
    theta, admissible = check_exponent_condition(4.0 / 3.0, 2.0)
    assert abs(theta) < 1e-12 and admissible
    theta, admissible = check_exponent_condition(1.2, 2.0)
    assert abs(theta - (-1.0 / 3.0)) < 1e-12 and not admissible


def test_exponent_condition_equal_orders_always_admissible():
    for a in (1.01, 1.3, 1.7, 2.0):
        theta, admissible = check_exponent_condition(a, a)
        assert admissible
        assert abs(theta - 1.0) < 1e-12


def test_exponent_condition_rejects_out_of_range():
    with pytest.raises(ValueError):
        check_exponent_condition(1.0, 2.0)
    with pytest.raises(ValueError):
        check_exponent_condition(1.5, 2.5)
    with pytest.raises(ValueError):
        check_exponent_condition(1.8, 1.5)


# ---------------------------------------------------------------------------
# spectral fields


def test_field_roundtrip_even_and_odd():
    rng = np.random.default_rng(11)
    for m in (16, 17, 64, 65):
        vals = rng.standard_normal(m)
        f = SpectralField.from_values(vals)
        back = SpectralField.from_modes(f.modes, m_space=m)
        assert back.values == pytest.approx(vals, rel=1e-12, abs=1e-12)


def test_field_parseval():
    # each stored mode n > 0 stands for the pair +-n, except the even-m
    # Nyquist mode, which is a single grid harmonic
    rng = np.random.default_rng(12)
    for m in (65, 64):
        vals = rng.standard_normal(m)
        f = SpectralField.from_values(vals)
        assert np.mean(vals ** 2) == pytest.approx(
            float(np.sum(rfft_weights(m) * np.abs(f.modes) ** 2)), rel=1e-12)


def test_field_hermitian_modes():
    # the stored modes are the half n = 0..m/2 of a Hermitian spectrum
    f = field_from_function(lambda x: np.sin(x) + np.cos(3 * x), 32)
    assert len(f.modes) == 17
    assert f.modes[1] == pytest.approx(-0.5j, abs=1e-15)
    assert f.modes[3] == pytest.approx(0.5, abs=1e-15)
    full = np.fft.fft(f.values) / 32
    for n in range(1, 17):
        assert full[-n] == pytest.approx(np.conj(f.modes[n]), abs=1e-15)
    assert f.modes[0].imag == 0.0 and f.modes[16].imag == 0.0
    # DC and Nyquist of a real field are real; outside input must agree
    for j in (0, 16):
        bad = f.modes.copy()
        bad[j] += 1e-3j
        with pytest.raises(ValueError):
            SpectralField.from_modes(bad, m_space=32)
    with pytest.raises(ValueError):
        SpectralField.from_modes(f.modes, m_space=64)


# ---------------------------------------------------------------------------
# bound report


def test_verify_kernel_bounds_fractional():
    exp_ = make_power_exponent(1.0, 1.5)
    report = verify_kernel_bounds(exp_, np.geomspace(1e-5, 1e-3, 9),
                                  beta_param=2.0)
    assert report.slope_norm == pytest.approx(-2.0 / 3.0, rel=0.03)
    assert report.r2_norm > 0.999
    assert report.slope_cumulative == pytest.approx(1.0 / 3.0, rel=0.03)
    assert report.r2_cumulative > 0.999
    assert report.sup_bounded_by_laplace
    assert np.all(report.scaled_alpha > 0)
    assert np.all(np.isfinite(report.scaled_beta))
    rows = report.to_rows(run_id="x", seed=0, alpha=1.5, beta=1.5)
    names = {r["quantity"] for r in rows}
    assert "kernel_norm_slope" in names and "kernel_l2_laplace" in names
    with pytest.raises(ValueError, match="kernel times must be distinct"):
        verify_kernel_bounds(exp_, [1e-5, 1e-4, 1e-4, 1e-3])
