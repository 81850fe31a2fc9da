"""Spectral machinery tests.

Series values are checked against brute-force partial sums carrying their own
integral tail brackets, so every comparison tolerance is the sum of the two
certified errors rather than a guessed constant.
"""

import dataclasses
import functools
import itertools
import math
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid
from scipy.special import zeta

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
    DEFAULT_SERIES_TOL,
    FOUR_PI_SQ,
    SeriesToleranceError,
    TWO_PI,
    _BRACKET_START,
    _KUMMER_Z,
    _PHI_BLOCK,
    _exp_power_midpoint,
    _exp_power_variation,
    _exp_power_width,
    _gamma_scale,
    _kummer_charge,
    _kummer_upper_gamma,
    _laplace_series,
    _laplace_tail,
    _norm_series,
    _one_sided_exp_tail,
    _rounding,
    _capped_power_sum,
    _smallest_cutoff,
    _sum_series,
    _time_integral_midpoint,
    _time_integral_series,
    _time_integral_width,
    _upper_gamma,
    _upper_gamma_bound,
    _upper_gamma_error,
    rfft_symbol,
    rfft_weights,
)
from levyheat.solver import _smooth

from conftest import semigroup, traced_peak

GAMMA_3_2 = math.gamma(1.5)  # = sqrt(pi)/2, the alpha=2 limit constant
EPS = np.finfo(float).eps


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
    # re_phi is phi's own real part, for arrays of float or integer modes
    # and for scalars, and for the power exponent that is c |n|^alpha to the
    # last bit and the sign of every zero: the drift term adds +-0.  A phi
    # of the user's own, or a wrapped one, takes the same path
    exp_ = make_power_exponent(1.3, alpha, drift)
    assert not hasattr(exp_.phi, "re")
    n = np.arange(-4096, 4097)
    full = np.asarray(exp_.phi(n), complex).real
    power = 1.3 * np.abs(n.astype(float)) ** alpha
    for re in (exp_.re_phi(n), exp_.re_phi(n.astype(float)),
               dataclasses.replace(exp_, beta=2.0).re_phi(n),
               LevyExponent(lambda k: exp_.phi(k), alpha, alpha, 1.3,
                            1.3).re_phi(n)):
        assert np.array_equal(re, full) and np.array_equal(re, power)
        assert np.array_equal(np.signbit(re), np.signbit(full))
    assert exp_.re_phi(0) == 0.0 and not np.signbit(exp_.re_phi(0))
    assert exp_.re_phi(-7) == full[4096 - 7]


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
    # at c = 1 the time integral's bracket is the midpoint Euler-Maclaurin
    # one.  At delta = 1e-3, f = h - e with h = 1 / (2 x^2), so h'' = 3 / x^4;
    # with x = n + 1/2, z = 2e-3 x^2 is past 40 from n = 141 on, where
    # e'' < 1e-14 h'' and the integral's interval is x^-1 e^-z / 2.  The
    # error 2 width / 4pi^2 is then (12 / (72 sqrt 3 x^4) + e^-z / x) / 4pi^2
    # to 1e-14 relative: 5.63e-13 at n = 256, below tol
    # 1e-10 at the search's start, so the cutoff is 256; tol 1e-14 needs
    # x^4 >= 12e14 / (72 sqrt 3 4pi^2), n = 703 (1.0008e-14 at 702,
    # 0.9951e-14 at 703).  The Laplace mass keeps its Hermite-Hadamard
    # bracket, of width (2 / 4pi^2) (int_{n+1/2}^{n+1} f - f(n+1) / 2); at
    # beta = 64, f = 1 / (64 + 2 x^2) integrates through arctan, and the
    # width first falls below 1e-10 at n = 398 (1.0053e-10 at 397,
    # 0.9978e-10 at 398)
    exp_ = make_power_exponent(1.0, 2.0)
    assert _time_integral_series(exp_, 1e-3, 1e-10).cutoff == 256
    assert _time_integral_series(exp_, 1e-3, 1e-14).cutoff == 703
    assert _laplace_series(exp_, 64.0, 1e-10).cutoff == 398


def hurwitz_tails(c, a, beta, n, terms=8):
    """Bounds on sum_{m>n} 1/(beta + 2 c m^a) from the Hurwitz zeta: with
    y = 2 c m^a, 1/(beta + y) lies between any two consecutive partial sums
    of sum_k (-beta)^k / y^(k+1).  At beta = 0 both are zeta(a, n+1)/(2c)."""
    sums = np.cumsum([(-beta) ** k * zeta((k + 1) * a, n + 1)
                      / (2.0 * c) ** (k + 1) for k in range(terms + 1)])
    return min(sums[-2:]), max(sums[-2:])


def time_integral_bracket(exp_, delta, n):
    """(midpoint, width) of a tight time integral's midpoint bracket."""
    return (_time_integral_midpoint(exp_, delta, n),
            _time_integral_width(exp_, delta, n))


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.4, 2.0])
def test_tight_brackets_hold_the_hurwitz_zeta_tails(alpha):
    # a time integral at delta = inf sums 1/(2 c m^alpha), whose tail past n
    # is zeta(alpha, n + 1) / (2c).  Its midpoint bracket and the Laplace
    # Hermite-Hadamard brackets hold their tails and are narrower than
    # alpha / (16 c n^(alpha+1)), one order in n narrower than the
    # first-order bracket.  The midpoint bracket's width counts the rounding
    # of its Gamma term but not of its power part, which, like every body
    # sum, rounds to a few ulps of the value; at n = 100,000 that bracket is
    # narrower than an ulp of its midpoint (half-width 0.004 to 0.2 ulp), so
    # it alone is compared to within 4 ulps of the zeta tail
    for c, n in itertools.product((1.0, 0.7), (256, 4096, 100_000)):
        exp_ = make_power_exponent(c, alpha)
        for tail, beta in ((time_integral_bracket, 0.0), (_laplace_tail, 1.0),
                           (_laplace_tail, 64.0)):
            lo, hi = hurwitz_tails(c, alpha, beta, n)
            mid, width = tail(exp_, beta or INF, n)
            rounding = 4 * EPS * hi if tail is time_integral_bracket else 0.0
            half = width / 2 + rounding
            assert mid - half <= lo <= hi <= mid + half
            assert width <= alpha / (16.0 * c * n ** (alpha + 1.0))


def fsum_terms(term, lo, hi, chunk=1 << 20):
    """math.fsum of term(k) over the float modes lo < k <= hi, built a chunk
    of modes at a time."""
    return math.fsum(itertools.chain.from_iterable(
        term(np.arange(k + 1.0, min(k + chunk, hi) + 1.0))
        for k in range(lo, hi, chunk)))


@pytest.mark.parametrize("alpha", [1.1, 1.4, 2.0])
@pytest.mark.parametrize("c", [1.0, 0.7])
def test_tight_series_agree_with_brute_sums_at_16x_the_cutoff(c, alpha):
    # the math.fsum of the first M modes, M = 16 N or, for a norm or time
    # integral, the mode where its exponential part falls below e^-40 if
    # that is further, with its tail past M bracketed through the Hurwitz
    # zeta and the one-sided exponential bound, lies within half the
    # certified error of the value cut at N: the bracket at N holds the
    # modes N+1..M and beyond.  The small t and delta are where the norm
    # and the time integral's exponential part are bracketed at all
    exp_ = make_power_exponent(c, alpha)
    cases = [(_norm_series, kernel_l2_norm_sq, t) for t in (1e-6, 1e-4, 1e-2)]
    cases += [(_time_integral_series, kernel_l2_time_integral, d)
              for d in (1e-6, 1e-4, 1e-3, 1e-2, 0.05, 1.0)]
    cases += [(_laplace_series, kernel_l2_laplace, b) for b in (1.0, 64.0, 1e4)]
    for build, series, x in cases:
        m = 16 * build(exp_, x, DEFAULT_SERIES_TOL).cutoff
        if build is _laplace_series:
            head = 1.0 / x
            body = fsum_terms(lambda k: 1.0 / (x + 2.0 * c * k ** alpha), 0, m)
            lo, hi = hurwitz_tails(c, alpha, x, m)
        else:
            lam = 2.0 * x * c
            m = max(m, math.ceil((40.0 / lam) ** (1.0 / alpha)))
            e = math.exp(-lam * m ** alpha) / (lam * alpha * m ** (alpha - 1.0))
            if build is _norm_series:
                head = 1.0
                body = fsum_terms(lambda k: np.exp(-2.0 * x * (c * k ** alpha)),
                                  0, m)
                lo, hi = 0.0, e
            else:
                # the tail sums (1 - e^(-2 x c k^alpha)) / (2 c k^alpha), k > m
                head = x
                body = fsum_terms(lambda k: -np.expm1(-lam * k ** alpha)
                                  / (2.0 * c * k ** alpha), 0, m)
                hi = hurwitz_tails(c, alpha, 0.0, m)[1]
                lo = hi - e / (2.0 * c * m ** alpha)
        brute = (head + 2.0 * (body + 0.5 * (lo + hi))) / FOUR_PI_SQ
        brute_err = (hi - lo) / FOUR_PI_SQ + 1e-14
        value, error = series(exp_, x)
        if build is _norm_series:
            # norms reach 1e4 here, where 1e-14 is below an ulp, so they
            # also allow 4 ulps of the value.  A norm whose one-sided bound
            # meets tol at 256 modes keeps it, and its value, a lower bound,
            # can miss by the whole error
            assert abs(value - brute) <= error + brute_err + 4 * EPS * brute
        else:
            assert abs(value - brute) <= error / 2 + brute_err


@pytest.mark.parametrize("alpha", [1.1, 1.4, 2.0])
@pytest.mark.parametrize("c", [1.0, 0.7])
def test_midpoint_brackets_hold_their_fsum_tails(c, alpha):
    # each midpoint bracket on a tail past n lies within its width of the
    # math.fsum of the tail out to m, where the one-sided exponential bound
    # falls below 1e-24, with that bound as the rest of the tail.  The n are
    # the search's start, the series' own cutoff and four times it, and
    # m/16 and m/4, for t and delta from 1e-6 to 1
    exp_ = make_power_exponent(c, alpha)
    cases = 0
    for x in np.geomspace(1e-6, 1.0, 13):
        lam = 2.0 * x * c
        m = _smallest_cutoff(lambda n: _one_sided_exp_tail(lam, alpha, n),
                             1e-24, 4)
        norm = (lambda n: _exp_power_midpoint(lam, alpha, n),
                lambda n: _exp_power_width(lam, alpha, n),
                lambda k: np.exp(-lam * k ** alpha),
                0.0, _one_sided_exp_tail(lam, alpha, m), _norm_series)
        # past m the time integral's tail is the Hurwitz tail of h, less
        # at most h(m) times the one-sided bound
        time_integral = (
            lambda n: _time_integral_midpoint(exp_, x, n),
            lambda n: _time_integral_width(exp_, x, n),
            lambda k: -np.expm1(-lam * k ** alpha) / (2.0 * c * k ** alpha),
            hurwitz_tails(c, alpha, 0.0, m)[1],
            -_one_sided_exp_tail(lam, alpha, m) / (2.0 * c * m ** alpha),
            _time_integral_series)
        for midpoint, width, term, far, rest, build in (norm, time_integral):
            cutoff = build(exp_, x, DEFAULT_SERIES_TOL).cutoff
            ns = sorted(n for n in {_BRACKET_START, cutoff, 4 * cutoff,
                                    m // 16, m // 4} if 1 <= n < m)
            # the fsum of each stretch between consecutive n, once
            stretches = [fsum_terms(term, lo, hi)
                         for lo, hi in zip(ns, ns[1:] + [m])]
            for i, n in enumerate(ns):
                tail = math.fsum(stretches[i:] + [far, rest / 2])
                assert abs(tail - midpoint(n)) <= (
                    width(n) + abs(rest) / 2 + 4 * EPS * tail)
                cases += 1
    assert cases >= 70


def certified_tol(build, exp_, x, tol):
    """tol max(1, L) for the series build(exp_, x, tol): L is its head plus
    twice a lower bound of its terms' sum, over 4pi^2.  For the norm and
    the time integral that bound is the integral from 1 of the terms at the
    upper envelope, less what the Gamma term of that integral may miss by;
    the Laplace terms are at least half min(1/beta, 1/(2 c_upper n^beta))."""
    b, c = exp_.beta, exp_.c_upper
    rate = 2.0 * x * c
    if build is _laplace_series:
        head = 1.0 / x
        low = 0.5 * (_capped_power_sum(b, c, head) - head)
    else:
        if build is _norm_series:
            head, scale, power = 1.0, rate ** (-1.0 / b), 0.0
        else:
            head, scale = x, _gamma_scale(b, c, rate)
            power = -math.expm1(-rate) / (2.0 * c * (b - 1.0))
        low = power + _upper_gamma(scale, rate, 1.0 / b, rate) - \
            _upper_gamma_error(scale, rate, 1.0 / b, rate)
    return tol * max(1.0, (head + 2.0 * low) / FOUR_PI_SQ)


def test_bracketed_cutoffs_are_the_smallest_certified():
    # on the perfbench series grid every series is bracketed, its error is
    # twice its width plus its rounding over 4pi^2, and its cutoff is the
    # smallest that this certifies to tol max(1, L): the error at one mode
    # fewer is above it, unless the search stopped at its start.  The
    # rounding is charged on the integral from 0 of the norm's terms and on
    # _capped_power_sum for the others, whose terms it bounds
    exp_, times, beta_param = SCALING_GRIDS["series"]
    a, c, tol = exp_.alpha, exp_.c_lower, DEFAULT_SERIES_TOL
    widths = [(_norm_series, kernel_l2_norm_sq, t,
               lambda n, t=t: _exp_power_width(2.0 * t * c, a, n),
               (2.0 * t * c) ** (-1.0 / a) * math.gamma(1.0 + 1.0 / a))
              for t in times]
    widths += [(_time_integral_series, kernel_l2_time_integral, t,
                lambda n, t=t: _time_integral_width(exp_, t, n),
                _capped_power_sum(a, c, t))
               for t in times]
    widths.append((_laplace_series, kernel_l2_laplace, beta_param,
                   lambda n: _laplace_tail(exp_, beta_param, n)[1],
                   _capped_power_sum(a, c, 1.0 / beta_param)))
    relative = 0
    for build, series, x, width, high in widths:
        n = build(exp_, x, tol).cutoff
        bound = certified_tol(build, exp_, x, tol)
        relative += bound > tol

        def error(k):
            return 2.0 * (width(k) + _rounding(k, high)) / FOUR_PI_SQ

        assert series(exp_, x, tol)[1] == error(n) <= bound
        assert n == _BRACKET_START or error(n - 1) > bound
    # every norm on this grid is above 1, so its tol is relative
    assert relative == len(times)


# the cutoff of each tight norm at c = 1 and an absolute tol of 1e-10: the
# smaller of its one-sided and midpoint-bracket cutoffs, and None where
# neither certifies it within 2^26 modes.  With (1.2, 1e-8) and (2, 1e-12),
# the last two are the smallest norms of `kernel --set alpha=1.1 --set
# t_min=1e-8` and `kernel --set alpha=1.4 --set t_min=1e-10`
ABSOLUTE_CUTOFFS = {
    (2.0, 1e-3): 103, (1.4, 1e-4): 1447, (1.4, 1e-8): 256,
    (2.0, 2.7e-12): 256, (2.0, 2.5e-12): 2475867, (2.0, 1e-12): 3943376,
    (1.2, 1e-8): 49263945, (1.4, 2.15e-10): 60986883, (1.1, 1e-8): None,
    (1.4, 1e-10): None}


def euler_maclaurin_tail(lam, alpha, n, terms=3):
    """Decimal sum_{m>=n} exp(-lam m^alpha) for lam n^alpha small: the
    integral from n, a 50-digit upper incomplete gamma function, plus f(n)/2
    less B_2k / (2k)! f^(2k-1)(n) for k <= terms, with f^(j) = f P_j and
    P_(j+1) = P_j' - lam alpha x^(alpha-1) P_j built term by term."""
    lam, a, x = Decimal(lam), Decimal(alpha), Decimal(n)
    s = 1 / a
    f = (-lam * x ** a).exp()
    total = lam ** -s * decimal_upper_gamma(s, lam * x ** a) + f / 2
    bernoulli = bernoulli_even(terms)
    poly = {Decimal(0): Decimal(1)}  # exponent -> coefficient of P_j
    for j in range(1, 2 * terms):
        derived = Counter()
        for e, coeff in poly.items():
            if e:
                derived[e - 1] += coeff * e
            derived[e + a - 1] -= lam * a * coeff
        poly = derived
        if j % 2:
            b = bernoulli[j // 2]
            total -= (Decimal(b.numerator) / b.denominator
                      / math.factorial(j + 1) * f
                      * sum(coeff * x ** e for e, coeff in poly.items()))
    return total


def reference_norm(alpha, t):
    """Decimal ||q_t||^2 for phi(n) = |n|^alpha: the math.fsum of the terms
    while they exceed e^-69, or, where that takes more than 2 x 10^5
    modes, of the first 9,999 plus the Euler-Maclaurin tail from 10^4."""
    lam = 2.0 * t
    last = math.ceil((69.0 / lam) ** (1.0 / alpha))
    n = last + 1 if last <= 200_000 else 10_000
    head = math.fsum(math.exp(-lam * k ** alpha) for k in range(1, n))
    tail = euler_maclaurin_tail(lam, alpha, n) if n == 10_000 else 0
    return (1 + 2 * (Decimal(head) + tail)) / (4 * PI_50 ** 2)


@pytest.mark.parametrize("alpha, t", [
    (2.0, 1e-3), (1.4, 1e-4), (1.4, 1e-8), (2.0, 2.7e-12), (2.0, 2.5e-12),
    (2.0, 1e-12), (1.2, 1e-8), (1.4, 2.15e-10), (1.1, 1e-8), (1.4, 1e-10)])
def test_a_norm_takes_the_cutoff_with_fewer_modes(alpha, t):
    # a tight norm builds one series, the one-sided one where it meets its
    # tol at _BRACKET_START and the midpoint bracket otherwise, and needs no
    # more modes than ABSOLUTE_CUTOFFS.  Its certified error, below
    # tol max(1, L), covers an independent reference; at tiny t the tol is
    # relative, so the bracket stops at its start
    exp_ = make_power_exponent(1.0, alpha)
    tol = DEFAULT_SERIES_TOL
    s = _norm_series(exp_, t, tol)
    pinned = ABSOLUTE_CUTOFFS[alpha, t]
    assert pinned is None or s.cutoff <= pinned
    value, error = kernel_l2_norm_sq(exp_, t)
    assert error <= certified_tol(_norm_series, exp_, t, tol)
    if t <= 1e-8:
        assert s.cutoff == _BRACKET_START
    with localcontext() as ctx:
        ctx.prec = 50
        assert abs(Decimal(value) - reference_norm(alpha, t)) <= Decimal(error)


@pytest.mark.parametrize("alpha", [1.1, 1.4, 2.0])
@pytest.mark.parametrize("lam", [1e-8, 1e-4, 0.3])
def test_exp_power_variation_is_the_sampled_total_variation(alpha, lam):
    # V(f''; [x, inf)) for f = exp(-lam x^alpha) in closed form against the
    # sum of |f''(x_{i+1}) - f''(x_i)| over 2 x 10^5 geometric points out to
    # lam x^alpha = 200, from x where lam x^alpha is below, near and above
    # the maximum of f''
    for z in (1e-4, 0.5, 3.0):
        x0 = (z / lam) ** (1.0 / alpha)
        x = np.geomspace(x0, (200.0 / lam) ** (1.0 / alpha), 200_001)
        second = np.exp(-lam * x ** alpha) * (
            lam ** 2 * alpha ** 2 * x ** (2 * alpha - 2)
            - lam * alpha * (alpha - 1) * x ** (alpha - 2))
        sampled = np.sum(np.abs(np.diff(second)))
        assert _exp_power_variation(lam, alpha, x0) == pytest.approx(
            sampled, rel=1e-6)


@pytest.mark.parametrize("alpha", [1.1, 1.4, 2.0])
@pytest.mark.parametrize("mu", [2e-8, 2e-4, 0.6])
def test_the_damped_part_has_a_falling_second_derivative(alpha, mu):
    # e = exp(-mu x^alpha) / (2 x^alpha) by the product rule on u = x^-alpha
    # and v = exp(-mu x^alpha): e'' > 0 falls from x = 1/2 to where it
    # underflows, so V(e''; [x, inf)) = e''(x)
    x = np.geomspace(0.5, (700.0 / mu) ** (1.0 / alpha), 200_001)
    v = np.exp(-mu * x ** alpha)
    dv = -mu * alpha * x ** (alpha - 1) * v
    d2v = (mu ** 2 * alpha ** 2 * x ** (2 * alpha - 2)
           - mu * alpha * (alpha - 1) * x ** (alpha - 2)) * v
    u, du = x ** -alpha, -alpha * x ** (-alpha - 1)
    d2u = alpha * (alpha + 1) * x ** (-alpha - 2)
    second = 0.5 * (d2u * v + 2.0 * du * dv + u * d2v)
    assert np.all(second >= 0.0)
    assert np.all(np.diff(second) <= 0.0)


def bernoulli_even(count):
    """B_2, B_4, ..., B_{2 count} as Fractions, by the recurrence
    sum_{k <= m} C(m + 1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b[2::2]


PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510")


def decimal_upper_gamma(s, z):
    """s Gamma(s, z) for Decimal 0 < s < 1 and z >= 0 at the context's
    precision: Gamma(1 + s) from Stirling's series at 1 + s + 60 (20 terms,
    good to about 1e-48), less z^s e^-z times Kummer's series."""
    w = 1 + s + 60
    log_gamma = (w - Decimal("0.5")) * w.ln() - w + (2 * PI_50).ln() / 2
    for k, b in enumerate(bernoulli_even(20), 1):
        log_gamma += (Decimal(b.numerator) / b.denominator
                      / (2 * k * (2 * k - 1) * w ** (2 * k - 1)))
    gamma = log_gamma.exp()
    for j in range(1, 61):
        gamma /= s + j
    term = total = Decimal(1)
    for k in range(1, 1000):
        term = term * z / (s + k)
        total += term
        if term < total.scaleb(-60):
            break
    return gamma - z ** s * (-z).exp() * total


def test_upper_gamma_rounds_within_its_stated_ulps():
    # the Gamma terms of the norm's and the time integral's tail integrals,
    # lam^-s s Gamma(s, z) and mu^(1-s) Gamma(s, z) / (2c(alpha-1)) at
    # c = 0.7, as the brackets compute them from alpha, the rate and
    # x = n + 1/2, lie within _upper_gamma_error of a 50-digit decimal
    # reference that takes s = 1/alpha and z = rate x^alpha exactly, and
    # where Kummer's series serves, its error charged a priori, within the
    # 16 ulps of scale Gamma(1 + s), plus |log rate| / 4, that it is
    # measured to keep.  The z run past the hand-off into the interval form
    kinds = Counter()
    with localcontext() as ctx:
        ctx.prec = 50
        for alpha, rate in itertools.product(
                (1.0 + 1e-6, 1.05, 1.1, 1.4, 1.7, 1.93, 2.0), (1e-14, 1e-6, 0.3)):
            s = 1.0 / alpha
            for target in np.concatenate([np.geomspace(1e-12, 1.0, 4),
                                          np.linspace(1.5, 45.0, 10)]):
                x = math.floor((target / rate) ** s) + 0.5
                z = rate * x ** alpha
                exact_s = 1 / Decimal(alpha)
                exact = decimal_upper_gamma(
                    exact_s, Decimal(rate) * Decimal(x) ** Decimal(alpha))
                for scale, factor in (
                        (rate ** -s, Decimal(rate) ** -exact_s),
                        (_gamma_scale(alpha, 0.7, rate),
                         Decimal(alpha) * Decimal(rate) ** (1 - exact_s)
                         / (2 * Decimal(0.7) * (Decimal(alpha) - 1)))):
                    miss = abs(Decimal(_upper_gamma(scale, rate, s, z))
                               - factor * exact)
                    allowed = _upper_gamma_error(scale, rate, s, z)
                    assert miss <= Decimal(allowed), (alpha, rate, x)
                    kummer = _kummer_charge(scale, rate, s, z) is not None
                    if kummer:
                        measured = (16.0 + abs(math.log(rate)) / 4.0) * (
                            2.0 ** -52 * scale * math.gamma(1.0 + s))
                        assert miss <= Decimal(measured), (alpha, rate, x)
                    kinds[kummer] += 1
    assert kinds[True] >= 200 and kinds[False] >= 20


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
    for lam in (NAN, INF):
        with pytest.raises(ValueError, match="lam > 0 and finite"):
            limit_constant_probe(1.5, lam)


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


def test_limit_constant_error_is_within_tol():
    # the probe scales the norm series by lam^(1/alpha) 2pi^2, and that
    # series is certified relative to its value, so the probe asks it for
    # tol over the scale times a bound on the value
    for alpha, lam, tol in itertools.product(
            (1.2, 1.5, 2.0), (1.0, 1e-3, 1e-6, 1e-9), (1e-6, 1e-10, 1e-12)):
        _, error = limit_constant_probe(alpha, lam, tol)
        assert error <= tol, (alpha, lam, tol)


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
    assert report.sup_weighted_cumulative <= report.laplace_mass
    with pytest.raises(ValueError, match="kernel times must be distinct"):
        verify_kernel_bounds(exp_, [1e-5, 1e-4, 1e-4, 1e-3])


# The report sums every series over prefixes of one Re phi table.  Each case
# is (exponent, times, beta_param, tol); "series" is the perfbench workload,
# whose largest certified cutoff is 1,533 modes (the Laplace mass).
SERIES_TIMES = np.geomspace(1e-8, 1e-3, 33)


def wobbly_phi(n):
    # Re phi = |n|^1.5 (1.5 + 0.5 cos n): inside [|n|^1.5, 2 |n|^1.5] but not
    # monotone, so only the envelope can bound its tails
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
    integrals = [kernel_l2_time_integral(exp_, t, tol) for t in times]
    assert list(report.cumulative) == [value for value, _ in integrals]
    assert list(report.cumulative_tails) == [tail for _, tail in integrals]
    laplace = kernel_l2_laplace(exp_, beta_param, tol)
    assert (report.laplace_mass, report.laplace_tail) == laplace


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
    modes, kinds = [], set()

    def counting_phi(n):
        modes.append(np.size(n))
        kinds.add(np.asarray(n).dtype.kind)
        return power.phi(n)

    exp_ = LevyExponent(phi=counting_phi, alpha=1.4, beta=1.4, c_lower=1.0,
                        c_upper=1.0)
    modes.clear()
    verify_kernel_bounds(exp_, SERIES_TIMES, beta_param=64.0, tol=1e-10)
    # one block: the largest cutoff is 1,533 modes (the Laplace mass) and
    # the 67 series sum 20,445 terms.  phi is handed integer modes, as
    # LevyExponent documents
    assert sum(modes) <= 1 << 16
    assert kinds == {"i"}


def test_report_memory_is_a_few_tables():
    # one streamed pass holds a few blocks of float64 (Re phi, the work
    # buffer and the block temporaries), whatever the largest cutoff: 1,533
    # modes at tol 1e-10, 256 at 1e-6
    exp_ = make_power_exponent(1.0, 1.4)
    for tol in (1e-6, 1e-10):
        _, peak = traced_peak(verify_kernel_bounds, exp_, SERIES_TIMES,
                              beta_param=64.0, tol=tol)
        assert peak <= 8 * 8 * _PHI_BLOCK


def test_a_wrapped_phi_takes_the_plain_phi_path():
    # every series reads Re phi from phi itself, so a report whose phi is
    # wrapped, as the benchmark's tracer wraps it, hands the power phi the
    # same modes as a report on the plain one, and gives the same bits.
    # Calls are seen by profiling the power phi's code, not by wrapping it
    power = make_power_exponent(1.0, 1.4, drift=0.5)

    def call(fn, n):
        return fn(n)

    exponents = [power] + [dataclasses.replace(power, phi=wrapped) for wrapped
                           in (functools.partial(call, power.phi),
                               lambda n: power.phi(n))]
    runs = []
    for exp_ in exponents:
        modes = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is power.phi.__code__:
                modes.append(np.array(frame.f_locals["n"]))

        sys.setprofile(profile)
        try:
            report = verify_kernel_bounds(exp_, SERIES_TIMES, beta_param=64.0)
        finally:
            sys.setprofile(None)
        runs.append((modes, [np.asarray(v) for v in
                             dataclasses.astuple(report)]))
    (plain, plain_report), *wrapped = runs
    assert sum(map(np.size, plain)) == 1533
    for modes, fields in wrapped:
        assert len(modes) == len(plain)
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(modes, plain))
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(fields, plain_report))


@pytest.mark.parametrize("s", [1.0 / 2.0, 1.0 / 1.1, 1.0 / 1.4])
def test_gamma_takes_the_narrower_form(s):
    # _upper_gamma and _upper_gamma_error pick one form through
    # _kummer_charge: Kummer's series below _KUMMER_Z wherever its charge is
    # below the interval's width, the interval elsewhere, so the certified
    # error is the smaller of the two.  Kummer's series serves at z = 20,
    # and the interval takes over below _KUMMER_Z
    kinds = Counter()
    for rate, z in itertools.product((1e-12, 0.3, 1.0),
                                     np.linspace(20.0, 45.0, 251)):
        scale = rate ** -s
        value = _upper_gamma(scale, rate, s, z)
        error = _upper_gamma_error(scale, rate, s, z)
        width = _upper_gamma_bound(scale, s, z)
        ulps = 4.0 * z + 108.0 + abs(math.log(rate)) / 4.0
        charge = ulps * 2.0 ** -52 * scale * math.gamma(1.0 + s)
        kummer = z < _KUMMER_Z and charge < width
        assert (_kummer_charge(scale, rate, s, z) is not None) == kummer
        if kummer:
            assert (value, error) == (scale * _kummer_upper_gamma(s, z),
                                      charge)
        else:
            assert (value, error) == (0.5 * width, width)
        assert error == (min(charge, width) if z < _KUMMER_Z else width)
        kinds[kummer, z < _KUMMER_Z] += 1
    assert kinds[True, True] and kinds[False, True] and kinds[False, False]
    assert min(z for z in np.linspace(20.0, 45.0, 251)
               if _kummer_charge(1.0, 1.0, s, z) is None) < 32.0


# (exponent, times, beta_param): the perfbench series workload and the
# kernel subcommand's defaults
SCALING_GRIDS = {
    "series": (make_power_exponent(1.0, 1.4), SERIES_TIMES, 64.0),
    "default": (make_power_exponent(1.0, 2.0), np.geomspace(1e-5, 1e-3, 9),
                64.0),
}


@pytest.mark.parametrize("grid", SCALING_GRIDS)
def test_second_order_values_agree_with_first_order(grid, monkeypatch):
    # both brackets hold the same tail, so the two values of each series
    # differ by no more than the sum of their certified errors, and the
    # second-order cutoffs are no larger
    exp_, times, beta_param = SCALING_GRIDS[grid]
    cases = ((_time_integral_series, kernel_l2_time_integral, times),
             (_laplace_series, kernel_l2_laplace, np.array([beta_param])))
    second = [(series(exp_, xs), [build(exp_, x, DEFAULT_SERIES_TOL).cutoff
                                   for x in xs])
              for build, series, xs in cases]
    # the first-order bracket, which a loose envelope keeps
    monkeypatch.setattr(LevyExponent, "tight", property(lambda self: False))
    for (build, series, xs), ((value, error), cutoffs) in zip(cases, second):
        first, first_error = series(exp_, xs)
        assert np.all(np.abs(value - first) <= error + first_error)
        assert np.all(error <= [certified_tol(build, exp_, x, DEFAULT_SERIES_TOL)
                                for x in xs])
        assert all(n <= build(exp_, x, DEFAULT_SERIES_TOL).cutoff
                   for x, n in zip(xs, cutoffs))


def first_order_reference(exp_, build, x, tol):
    """(cutoff, finish) of the first-order bracket, written out from its
    formulas: above by int_n^inf dx / (2 c_lower x^alpha), below by the
    series' own lower tail at the upper envelope, with the rounding charged
    on _capped_power_sum.  Every value here is below 1, so tol is
    absolute."""
    a, c1, b, c2 = exp_.alpha, exp_.c_lower, exp_.beta, exp_.c_upper
    head = 1.0 / x if build is _laplace_series else x
    high = _capped_power_sum(a, c1, head)

    def upper(n):
        return n ** (1.0 - a) / (2.0 * c1 * (a - 1.0))

    def lower(n):
        if build is _laplace_series:
            slack = 1.0 + x / (2.0 * c2 * (n + 1.0) ** b)
            return (n + 1.0) ** (1.0 - b) / (2.0 * c2 * (b - 1.0) * slack)
        arg = -2.0 * x * c2 * (n + 1.0) ** b
        damp = 1.0 - (math.exp(arg) if arg > -745.0 else 0.0)
        return damp * (n + 1.0) ** (1.0 - b) / (2.0 * c2 * (b - 1.0))

    def width(n):
        return 2.0 * (upper(n) - lower(n) + _rounding(n, high)) / FOUR_PI_SQ

    n = _smallest_cutoff(width, tol, 256)
    mid = 0.5 * (upper(n) + lower(n))
    return n, lambda s: ((head + 2.0 * (s + mid)) / FOUR_PI_SQ, width(n))


def test_a_loose_envelope_names_itself_when_its_tol_is_unattainable():
    # a loose envelope brackets the tail of the time-integral series only to
    # order n^(1 - alpha), too slowly for the default tol at the command
    # line's kernel times; the message says which envelope and what to
    # change
    exp_ = REPORT_CASES["beta_above_alpha"][0]
    with pytest.raises(SeriesToleranceError) as err:
        verify_kernel_bounds(exp_, np.geomspace(1e-5, 1e-3, 9), 64.0)
    message = str(err.value)
    assert message.startswith("series tolerance")
    for part in ("alpha=1.5", "beta=1.6", "c_lower=1.0", "c_upper=1.0",
                 "n^(1-alpha)", "looser tol"):
        assert part in message


@pytest.mark.parametrize("case", ["beta_above_alpha", "non_monotone"])
def test_a_loose_envelope_keeps_the_first_order_bracket(case):
    # bit for bit: the same cutoffs, values and errors as the first-order
    # formulas give
    exp_, times, beta_param, tol = REPORT_CASES[case]
    for build, series, xs in ((_time_integral_series, kernel_l2_time_integral,
                               times),
                              (_laplace_series, kernel_l2_laplace,
                               np.array([beta_param, 64.0, 1e4]))):
        values, errors = series(exp_, xs, tol)
        refs = [first_order_reference(exp_, build, x, tol) for x in xs]
        built = [build(exp_, x, tol) for x in xs]
        assert [s.cutoff for s in built] == [n for n, _ in refs]
        pairs = _sum_series(exp_, [s._replace(finish=finish)
                                   for s, (_, finish) in zip(built, refs)])
        assert np.array_equal(values, [v for v, _ in pairs])
        assert np.array_equal(errors, [e for _, e in pairs])
