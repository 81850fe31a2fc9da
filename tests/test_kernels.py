"""Spectral machinery tests.

Series values are checked against brute-force partial sums carrying their own
integral tail brackets, so every comparison tolerance is the sum of the two
certified errors rather than a guessed constant.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

from levyheat import (
    ExponentRangeError,
    LevyExponent,
    check_exponent_condition,
    field_from_function,
    kernel_coefficients,
    kernel_l2_laplace,
    kernel_l2_norm_sq,
    kernel_l2_time_integral,
    limit_constant_probe,
    make_power_exponent,
    verify_kernel_bounds,
    wrapped_gaussian_kernel,
)
from levyheat.kernels import (
    FOUR_PI_SQ,
    TWO_PI,
    _PHI_BLOCK,
    _laplace_series,
    _norm_series,
    _one_sided_exp_tail,
    _smallest_cutoff,
    _sum_series,
    _time_integral_series,
    rfft_symbol,
    rfft_weights,
)
from levyheat.solver import _smooth

from conftest import semigroup, traced_peak

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


@pytest.mark.parametrize("drift", [0.0, 2.5, -2.5])
@pytest.mark.parametrize("alpha", [1.4, 2.0])
def test_power_re_phi_is_the_real_part_bit_for_bit(alpha, drift):
    # make_power_exponent's Re phi skips the complex array; it is the real
    # part of phi to the last bit and the sign of every zero, for arrays and
    # scalars, and a phi of the user's own takes the generic path
    exp_ = make_power_exponent(1.3, alpha, drift)
    n = np.arange(-4096, 4097)
    full = np.asarray(exp_.phi(n), complex).real
    for fast in (exp_.re_phi(n), dataclasses.replace(exp_, beta=2.0).re_phi(n)):
        assert np.array_equal(fast, full)
        assert np.array_equal(np.signbit(fast), np.signbit(full))
    assert exp_.re_phi(0) == 0.0 and not np.signbit(exp_.re_phi(0))
    assert exp_.re_phi(-7) == full[4096 - 7]
    own = LevyExponent(lambda k: exp_.phi(k), alpha, alpha, 1.3, 1.3)
    assert not hasattr(own.phi, "re")
    assert np.array_equal(own.re_phi(n), full)


def test_spot_check_evaluates_phi_once():
    # the envelope check reads Re phi(1..64) from the symmetric evaluation
    calls = []

    def phi(n):
        calls.append(np.size(n))
        return np.abs(np.asarray(n, dtype=float)) ** 1.5 + 0j

    LevyExponent(phi=phi, alpha=1.5, beta=1.5, c_lower=1.0, c_upper=1.0)
    assert calls == [129]


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


@pytest.mark.parametrize("t", [0.0, -0.1, float("nan")])
def test_wrapped_gaussian_refuses_a_time_that_is_not_positive(t):
    with pytest.raises(ValueError, match="t > 0"):
        wrapped_gaussian_kernel(t, [0.1])


# ---------------------------------------------------------------------------
# L2 norm, time integral, Laplace transform


def test_norm_sq_against_brute_sum():
    exp_ = make_power_exponent(1.0, 2.0)
    value, tail = kernel_l2_norm_sq(exp_, 0.01, tol=1e-12)
    brute, brute_tail = brute_norm_sq(exp_, 0.01, 10_000)
    assert abs(value - brute) <= tail + brute_tail + 1e-15


def test_norm_sq_brute_sum_fractional():
    exp_ = make_power_exponent(0.7, 1.5)
    for t in (1e-4, 1e-2, 0.3):
        value, tail = kernel_l2_norm_sq(exp_, t, tol=1e-12)
        brute, brute_tail = brute_norm_sq(exp_, t, 300_000)
        assert abs(value - brute) <= tail + brute_tail + 1e-15


def test_norm_sq_long_time_limit_and_floor():
    exp_ = make_power_exponent(1.0, 2.0)
    assert kernel_l2_norm_sq(exp_, 1e6)[0] == pytest.approx(1.0 / FOUR_PI_SQ)
    for t in (1e-5, 1e-2, 10.0):
        assert kernel_l2_norm_sq(exp_, t)[0] >= 1.0 / FOUR_PI_SQ


def test_norm_sq_parseval():
    # band-limited quadrature of the reconstructed kernel is exact
    exp_ = make_power_exponent(1.0, 1.5)
    t = 0.05
    kc = kernel_coefficients(exp_, t, tol=1e-14)
    m = 2 * kc.cutoff + 9
    z = np.arange(m) * (TWO_PI / m)
    quad_value = float(np.mean(kc.evaluate(z) ** 2))
    value, tail = kernel_l2_norm_sq(exp_, t, tol=1e-14)
    assert quad_value == pytest.approx(value, rel=1e-10)
    assert tail <= 1e-14


def test_norm_sq_envelope_two_sided():
    exp_ = make_power_exponent(1.0, 1.5)
    ts = np.geomspace(1e-5, 1e-3, 7)
    vals = np.array([kernel_l2_norm_sq(exp_, t)[0] for t in ts])
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
    value, tail = kernel_l2_time_integral(exp_, delta, tol=1e-12)
    assert abs(value - brute) <= tail + brute_tail + 1e-15


def test_time_integral_small_delta_scaling():
    exp_ = make_power_exponent(1.0, 1.5)
    deltas = np.geomspace(1e-4, 1e-2, 7)
    vals = np.array([kernel_l2_time_integral(exp_, d)[0] for d in deltas])
    assert np.all(np.diff(vals) > 0)
    scaled = vals * deltas ** (-1.0 / 3.0)
    assert scaled.max() / scaled.min() < 1.02


def test_laplace_against_brute_sum():
    exp_ = make_power_exponent(1.0, 2.0)
    value, tail = kernel_l2_laplace(exp_, 1.0, tol=1e-12)
    brute, brute_tail = brute_laplace(exp_, 1.0, 1_000_000)
    assert abs(value - brute) <= tail + brute_tail + 1e-15


def test_laplace_monotone_and_vanishing():
    exp_ = make_power_exponent(1.0, 2.0)
    betas = [0.5, 1.0, 10.0, 1e3, 1e6]
    vals = [kernel_l2_laplace(exp_, b)[0] for b in betas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-4


def test_laplace_rejects_nonpositive():
    exp_ = make_power_exponent(1.0, 2.0)
    with pytest.raises(ValueError):
        kernel_l2_laplace(exp_, 0.0)
    with pytest.raises(ValueError):
        kernel_l2_laplace(exp_, float("nan"))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10])
def test_series_tol_must_be_positive_and_finite(tol):
    # every series finds its cutoff in one search, which refuses a tol that
    # no tail bound can be compared against
    exp_ = make_power_exponent(1.0, 2.0)
    for series in (lambda: kernel_l2_norm_sq(exp_, 0.1, tol=tol),
                   lambda: kernel_l2_time_integral(exp_, 0.1, tol=tol),
                   lambda: kernel_l2_laplace(exp_, 1.0, tol=tol),
                   lambda: kernel_coefficients(exp_, 0.1, tol=tol),
                   lambda: limit_constant_probe(1.5, 0.1, tol=tol)):
        with pytest.raises(ValueError, match="series tol must be positive"):
            series()


# tails that fall with n: the two-sided exponential tail of the norm and
# coefficient series, and the C n^(-alpha) width of a first-order bracket
FALLING_TAILS = {
    "exp": lambda n: 2.0 * _one_sided_exp_tail(0.02, 1.5, n),
    "exp_fast": lambda n: 2.0 * _one_sided_exp_tail(3.0, 2.0, n),
    "power": lambda n: 0.02 * n ** -1.1,
    "power_steep": lambda n: 5.0 * n ** -2.0,
}


@pytest.mark.parametrize("n0", [4, 256])
@pytest.mark.parametrize("name", FALLING_TAILS)
def test_smallest_cutoff_is_the_smallest_certified(name, n0):
    tail = FALLING_TAILS[name]
    for tol in (1e-2, 1e-4, 1e-7, 1e-10):
        n = _smallest_cutoff(tail, tol, n0)
        assert n >= n0
        assert tail(n) <= tol
        if n > n0:
            assert tail(n - 1) > tol


def test_cutoffs_are_pinned_at_alpha_two():
    # at c = 1 the tight bracket narrows like 1 / (4 pi^2 n (n + 1)), so
    # tol 1e-10 needs n(n+1) >= 1e10 / (4 pi^2); a power of two would be 16384
    exp_ = make_power_exponent(1.0, 2.0)
    assert _time_integral_series(exp_, 1e-3, 1e-10).cutoff == 15_915
    assert _laplace_series(exp_, 64.0, 1e-10).cutoff == 15_931


def test_an_underflowing_decay_rate_is_refused():
    # t c_lower rounds to 0 below the smallest subnormal, and the exponential
    # tail bound would divide by it
    calls = []
    exp_ = dataclasses.replace(counting_exponent(calls), c_lower=0.1)
    calls.clear()
    for series in (kernel_l2_norm_sq, kernel_coefficients):
        with pytest.raises(ValueError, match="positive decay rate"):
            series(exp_, 5e-324)
    assert calls == []


def test_norm_sq_at_infinite_time_is_the_limit():
    exp_ = make_power_exponent(1.0, 1.5)
    assert kernel_l2_norm_sq(exp_, INF) == (1.0 / FOUR_PI_SQ, 0.0)


def test_laplace_equals_weighted_time_integral():
    # the Laplace mass is the integral of e^(-beta s) ||q_s||^2 over s
    exp_ = make_power_exponent(1.0, 2.0)
    beta = 4.0
    target, _ = kernel_l2_laplace(exp_, beta, tol=1e-12)

    def integrand(u):
        s = u * u
        return 2.0 * u * math.exp(-beta * s) * kernel_l2_norm_sq(exp_, s)[0]

    got, err = quad(integrand, 1e-6, 6.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    # the clipped ends: int_0^eps ||q|| <= int_0^eps (A s^(-1/2) + c) ds
    head, _ = kernel_l2_time_integral(exp_, 1e-12)
    tail_cut = kernel_l2_laplace(exp_, beta)[0] * math.exp(-beta * 36.0)
    assert abs(got - target) < head + tail_cut + 1e-7


NAN, INF = float("nan"), float("inf")
# the three mode series and arguments for each: cutoffs from 4 to past two
# blocks, and the bad arguments that each must refuse
ARRAY_SERIES = {
    "norm": (kernel_l2_norm_sq, [1e-8, 1e-4, 0.01, 0.3, 2.0, 1e-4],
             (0.0, NAN)),
    "time_integral": (kernel_l2_time_integral,
                      [1e-6, 1e-3, 0.05, 0.2, 1.0, 1e-3], (-0.1, NAN, INF)),
    "laplace": (kernel_l2_laplace, [0.5, 1.0, 4.0, 64.0, 1e4, 4.0],
                (0.0, NAN)),
}


def counting_exponent(calls):
    """make_power_exponent(0.7, 1.5) that records every Re phi evaluation."""
    power = make_power_exponent(0.7, 1.5)

    def phi(n):
        calls.append(np.size(n))
        return power.phi(n)

    phi.re = lambda n: calls.append(np.size(n)) or power.phi.re(n)
    exp_ = dataclasses.replace(power, phi=phi)
    calls.clear()
    return exp_


@pytest.mark.parametrize("name", ARRAY_SERIES)
def test_array_call_equals_scalar_calls(name):
    series, xs, _ = ARRAY_SERIES[name]
    exp_ = make_power_exponent(0.7, 1.5)
    values, errors = series(exp_, np.array(xs))
    pairs = [series(exp_, x) for x in xs]
    assert all(isinstance(v, float) and isinstance(e, float)
               for v, e in pairs)
    assert list(values) == [value for value, _ in pairs]
    assert list(errors) == [error for _, error in pairs]


@pytest.mark.parametrize("name", ARRAY_SERIES)
def test_array_results_take_the_input_shape(name):
    series, xs, _ = ARRAY_SERIES[name]
    exp_ = make_power_exponent(0.7, 1.5)
    values, errors = series(exp_, np.reshape(xs, (2, 3)))
    assert values.shape == errors.shape == (2, 3)
    assert values[1, 2] == series(exp_, xs[5])[0]
    for empty in ([], np.empty((2, 0))):
        values, errors = series(exp_, empty)
        assert values.shape == errors.shape == np.shape(empty)
        assert values.dtype == errors.dtype == float


@pytest.mark.parametrize("name", ARRAY_SERIES)
def test_one_bad_element_raises_before_any_mode(name):
    series, xs, bads = ARRAY_SERIES[name]
    calls = []
    exp_ = counting_exponent(calls)
    for bad in bads:
        with pytest.raises(ValueError, match="> 0"):
            series(exp_, xs[:3] + [bad] + xs[3:])
        with pytest.raises(ValueError, match="> 0"):
            series(exp_, bad)
        assert calls == []


def test_nan_arguments_are_refused():
    exp_ = make_power_exponent(1.0, 1.5)
    with pytest.raises(ValueError, match="t > 0"):
        kernel_coefficients(exp_, NAN)
    with pytest.raises(ValueError, match="lam > 0"):
        limit_constant_probe(1.5, NAN)


# ---------------------------------------------------------------------------
# limit constant


def test_limit_constant_alpha_two():
    probe, _ = limit_constant_probe(2.0, 1e-6)
    oracle = riemann_exp_integral(2.0)
    assert oracle == pytest.approx(GAMMA_3_2, abs=1e-8)
    assert abs(probe - oracle) < 1e-3


def test_limit_constant_bounded_on_unit_interval():
    for lam in (1.0, 0.1, 1e-3, 1e-6):
        v, _ = limit_constant_probe(1.5, lam)
        assert 0.0 < v < 2.0


def test_limit_constant_cauchy_near_zero():
    vals = [limit_constant_probe(1.5, lam)[0]
            for lam in (1e-8, 5e-9, 2.5e-9)]
    assert abs(vals[1] - vals[0]) / vals[0] < 0.01
    assert abs(vals[2] - vals[1]) / vals[1] < 0.01
    assert vals[-1] == pytest.approx(math.gamma(1 + 1 / 1.5), rel=0.01)


# ---------------------------------------------------------------------------
# semigroup and generator


def test_semigroup_identity_and_constants():
    exp_ = make_power_exponent(1.0, 1.5)
    f = field_from_function(lambda x: 1.0 + 0.0 * x, 32)
    assert semigroup(exp_, 0.0, f) == pytest.approx(f)
    out = semigroup(exp_, 3.0, f)
    assert out == pytest.approx(np.ones(32), rel=1e-14)


def test_semigroup_cosine_decay():
    exp_ = make_power_exponent(1.0, 2.0)
    f = field_from_function(np.cos, 64)
    t = 0.3
    out = semigroup(exp_, t, f)
    x = np.arange(64) * (TWO_PI / 64)
    assert out == pytest.approx(math.exp(-t) * np.cos(x), rel=1e-12)


def test_semigroup_composition():
    # exact on every mode below Nyquist.  The even-m Nyquist mode takes the
    # real part of its multiplier, which drift keeps from composing: two
    # steps apply the product of their real parts, as the solver's steps do
    exp_ = make_power_exponent(0.8, 1.5, drift=0.2)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(32)
    one = np.fft.rfft(semigroup(exp_, 0.25, f)) / 32
    two = np.fft.rfft(semigroup(exp_, 0.15, semigroup(exp_, 0.10, f))) / 32
    assert two[:-1] == pytest.approx(one[:-1], rel=1e-12, abs=1e-13)
    phi_nyq = exp_.phi(np.array([16]))[0]
    step_re = [math.exp(-t * phi_nyq.real) * math.cos(t * phi_nyq.imag)
               for t in (0.10, 0.15)]
    assert two[-1] == pytest.approx(
        step_re[0] * step_re[1] * np.fft.rfft(f)[-1] / 32, rel=1e-12)


def test_semigroup_drift_translates():
    # drift d moves the profile by d*t; pick d*t equal to one grid cell
    m = 64
    dx = TWO_PI / m
    t = 0.5
    drift = dx / t
    exp_ = make_power_exponent(1.0, 2.0, drift=drift)
    base = make_power_exponent(1.0, 2.0)
    f = field_from_function(lambda x: np.sin(x) + 0.3 * np.cos(2 * x), m)
    moved = semigroup(exp_, t, f)
    plain = semigroup(base, t, f)
    assert moved == pytest.approx(np.roll(plain, 1), rel=1e-10, abs=1e-12)


def test_generator_is_semigroup_derivative():
    exp_ = make_power_exponent(1.0, 1.5, drift=0.3)
    f = field_from_function(lambda x: np.sin(2 * x) + np.cos(x), 64)
    # the generator acts on mode n as -phi(n)
    target = _smooth(f, rfft_symbol(exp_, 64, np.negative), 64)
    errs = []
    for h in (1e-3, 5e-4, 2.5e-4):
        diff = (semigroup(exp_, h, f) - f) / h
        errs.append(np.max(np.abs(diff - target)))
    # first-order convergence: error roughly halves with h
    assert errs[2] < errs[0]
    assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.15)


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
    # values -> rfft modes -> values on even and odd grids, through the
    # solver's transform with the t = 0 semigroup symbol
    exp_ = make_power_exponent(1.0, 1.5, drift=0.3)
    rng = np.random.default_rng(11)
    for m in (16, 17, 64, 65):
        vals = rng.standard_normal(m)
        back = semigroup(exp_, 0.0, vals)
        assert back == pytest.approx(vals, rel=1e-12, abs=1e-12)


def test_field_parseval():
    # each rfft mode n > 0 stands for the pair +-n, except the even-m
    # Nyquist mode, which is a single grid harmonic
    rng = np.random.default_rng(12)
    for m in (65, 64):
        vals = rng.standard_normal(m)
        modes = np.fft.rfft(vals) / m
        assert np.mean(vals ** 2) == pytest.approx(
            float(np.sum(rfft_weights(m) * np.abs(modes) ** 2)), rel=1e-12)


def test_field_hermitian_modes():
    # the rfft modes are the half n = 0..m/2 of a Hermitian spectrum, with
    # f(x) = sum_n c(n) exp(+i n x)
    f = field_from_function(lambda x: np.sin(x) + np.cos(3 * x), 32)
    modes = np.fft.rfft(f) / 32
    assert len(modes) == 17
    assert modes[1] == pytest.approx(-0.5j, abs=1e-15)
    assert modes[3] == pytest.approx(0.5, abs=1e-15)
    full = np.fft.fft(f) / 32
    for n in range(1, 17):
        assert full[-n] == pytest.approx(np.conj(modes[n]), abs=1e-15)
    assert modes[0].imag == 0.0 and modes[16].imag == 0.0


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
    with pytest.raises(ValueError, match="kernel times must be distinct"):
        verify_kernel_bounds(exp_, [1e-5, 1e-4, 1e-4, 1e-3])


# The report sums every series over prefixes of one Re phi table.  Each case
# is (exponent, times, beta_param, tol); "series" is the perfbench workload,
# whose largest certified cutoff is 3,701,246 modes (the norm at 1e-8).
SERIES_TIMES = np.geomspace(1e-8, 1e-3, 33)


def wobbly_phi(n):
    # Re phi = |n|^1.5 (1.5 + 0.5 cos n): inside [|n|^1.5, 2 |n|^1.5] but not
    # monotone, so only the envelope can say where expm1 saturates
    n = np.asarray(n, dtype=float)
    return np.abs(n) ** 1.5 * (1.5 + 0.5 * np.cos(n))


REPORT_CASES = {
    "series": (make_power_exponent(1.0, 1.4), SERIES_TIMES, 64.0, 1e-10),
    "beta_above_alpha": (
        dataclasses.replace(make_power_exponent(1.0, 1.5), beta=1.6),
        np.geomspace(1e-5, 1e-1, 9), 3.0, 1e-4),
    "drift": (make_power_exponent(0.7, 1.8, drift=2.5),
              np.geomspace(1e-6, 1.0, 9), 64.0, 1e-10),
    "non_monotone": (
        LevyExponent(phi=wobbly_phi, alpha=1.5, beta=1.5, c_lower=1.0,
                     c_upper=2.0),
        np.geomspace(1e-5, 1e-1, 9), 5.0, 1e-4),
}

# the one-shot term of each series over Re phi(1..cutoff): a streamed sum
# must be the left fold, in block order, of np.sum of these over each block
ONE_SHOT_TERMS = {
    _norm_series: lambda t, re: np.exp(-2.0 * t * re),
    _time_integral_series:
        lambda t, re: -np.expm1(-2.0 * t * re) / (2.0 * re),
    _laplace_series: lambda b, re: 1.0 / (b + 2.0 * re),
}


@pytest.mark.parametrize("case", REPORT_CASES)
def test_report_equals_single_series(case):
    exp_, times, beta_param, tol = REPORT_CASES[case]
    report = verify_kernel_bounds(exp_, times, beta_param, tol)
    pairs = [kernel_l2_norm_sq(exp_, t, tol) for t in times]
    assert list(report.norm_sq) == [value for value, _ in pairs]
    assert list(report.norm_tails) == [tail for _, tail in pairs]
    assert list(report.cumulative) == [
        kernel_l2_time_integral(exp_, t, tol)[0] for t in times]
    assert report.laplace_mass == kernel_l2_laplace(exp_, beta_param, tol)[0]


@pytest.mark.parametrize("case", REPORT_CASES)
def test_series_sums_are_block_folds_of_one_shot_sums(case):
    exp_, times, beta_param, tol = REPORT_CASES[case]
    args = [(build, t) for build in (_norm_series, _time_integral_series)
            for t in times] + [(_laplace_series, beta_param)]
    series = [build(exp_, x, tol) for build, x in args]
    results = _sum_series(exp_, series)
    re = exp_.re_phi(np.arange(1, max(s.cutoff for s in series) + 1))
    for (build, x), s, (value, error) in zip(args, series, results):
        terms = ONE_SHOT_TERMS[build](x, re[:s.cutoff])
        fold = 0.0
        for lo in range(0, s.cutoff, _PHI_BLOCK):
            fold += np.sum(terms[lo:lo + _PHI_BLOCK])
        assert (value, error) == s.finish(fold)
        # the old whole-prefix sum differs only by summation order: a few
        # ulps of sum |terms| (the terms are positive)
        assert abs(fold - np.sum(terms)) <= 4 * np.finfo(float).eps * fold


def test_report_evaluates_each_mode_once():
    power = make_power_exponent(1.0, 1.4)
    modes = []

    def counting_phi(n):
        modes.append(np.size(n))
        return power.phi(n)

    exp_ = LevyExponent(phi=counting_phi, alpha=1.4, beta=1.4, c_lower=1.0,
                        c_upper=1.0)
    modes.clear()
    verify_kernel_bounds(exp_, SERIES_TIMES, beta_param=64.0, tol=1e-10)
    # one table up to the largest cutoff, plus at most one block of slack;
    # evaluating each series on its own takes 52.7 M modes
    assert sum(modes) <= 3_701_246 + (1 << 16)


def test_report_memory_is_a_few_tables():
    # one streamed pass holds a few blocks of float64 (Re phi, the work
    # buffer, 1 / (2 Re phi) and the block temporaries), whatever the
    # largest cutoff: 3,701,246 modes at tol 1e-10, fewer at 1e-6
    exp_ = make_power_exponent(1.0, 1.4)
    for tol in (1e-6, 1e-10):
        _, peak = traced_peak(verify_kernel_bounds, exp_, SERIES_TIMES,
                              beta_param=64.0, tol=tol)
        assert peak <= 8 * 8 * _PHI_BLOCK
