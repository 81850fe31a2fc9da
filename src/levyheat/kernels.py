"""Spectral machinery for the torus transition kernel of a Levy-type generator.

Everything here is driven by the Fourier multiplier phi of the generator: the
process with E exp(i n X_t) = exp(-t phi(n)) has transition kernel

    q_t(z) = (1/2pi) sum_n exp(-t phi(n)) exp(-i n z),   z = displacement on [0, 2pi),

and the semigroup acts diagonally in frequency.  Spatial L2 norms follow the
unit-mass convention for the torus measure, under which

    ||q_t||^2 = (1/4pi^2) sum_n exp(-2 t Re phi(n)).

Spectral convention used throughout the package: a real field is its values
on the grid x_i = 2pi i / m, with f(x) = sum_n c(n) exp(+i n x) and
c(n) = rfft(f)[n] / m for n = 0..m//2, c(-n) = conj(c(n)) (numpy's FFT
convention).  A multiplier acts through its symbol on these rfft modes
(`rfft_symbol`), applied by `solver._smooth`, the one place that transforms;
the semigroup's symbol is exp(-t phi(n)).  For even m the Nyquist mode m/2 is
its own conjugate, so a symbol acts there through its real part, which keeps
real fields real.

Series are truncated with certified tail bounds derived from the growth
envelope c_lower |n|^alpha <= Re phi(n) <= c_upper |n|^beta; every series
routine returns its value together with that bound, and the norm, time
integral and Laplace series take an array of arguments, summed in one pass.
A tight envelope (Re phi = c |n|^alpha) brackets the norm and time-integral
tails by the midpoint Euler-Maclaurin formula, whose integrals are upper
incomplete gamma functions, and the Laplace tail by the Hermite-Hadamard
inequality; the notes on mode series below say when a series keeps a
one-sided or first-order bound instead.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi ** 2

DEFAULT_SERIES_TOL = 1e-10
_MAX_CUTOFF = 1 << 26
_EXP_FLOOR = -745.0  # exp underflows to 0 below this; used to guard overflow in bounds
_EPS = 2.0 ** -53  # half an ulp of 1: a series stops at terms this small


class ExponentRangeError(ValueError):
    """Raised when (alpha, beta) leave the admissible (1, 2] window."""


class SeriesToleranceError(RuntimeError):
    """Raised when no cutoff up to 2^26 modes certifies a series to its tol."""


def _validate_orders(alpha, beta):
    if not (1.0 < alpha <= 2.0):
        raise ExponentRangeError(f"alpha must lie in (1, 2], got {alpha}")
    if not (1.0 < beta <= 2.0):
        raise ExponentRangeError(f"beta must lie in (1, 2], got {beta}")
    if alpha > beta:
        raise ExponentRangeError(f"need alpha <= beta, got alpha={alpha} > beta={beta}")


@dataclass(frozen=True)
class LevyExponent:
    """Fourier multiplier phi of the generator plus its growth envelope.

    phi must be vectorized over integer numpy arrays and return complex values
    with phi(0) = 0, Re phi >= 0, phi(-n) = conj(phi(n)) and
    c_lower |n|^alpha <= Re phi(n) <= c_upper |n|^beta.  The envelope is what
    certifies every series tail in this module, so it has to be honest.
    """

    phi: Callable
    alpha: float
    beta: float
    c_lower: float
    c_upper: float

    def __post_init__(self):
        _validate_orders(self.alpha, self.beta)
        if not (0.0 < self.c_lower <= self.c_upper):
            raise ValueError("need 0 < c_lower <= c_upper")
        self._spot_check()

    def _spot_check(self):
        """Check the properties stated above on the modes |n| <= 64."""
        n_max = 64
        n = np.arange(-n_max, n_max + 1)
        val = np.asarray(self.phi(n), dtype=complex)
        if abs(val[n_max]) > 1e-12:
            raise ValueError("phi(0) must be 0")
        if np.any(val.real < -1e-12):
            raise ValueError("Re phi must be nonnegative")
        if not np.allclose(val[::-1], np.conj(val), rtol=1e-12, atol=1e-12):
            raise ValueError("phi must satisfy phi(-n) = conj(phi(n))")
        pos, re = n[n_max + 1:].astype(float), val[n_max + 1:].real
        lo = self.c_lower * pos ** self.alpha
        hi = self.c_upper * pos ** self.beta
        if np.any(re < lo * (1.0 - 1e-9)) or np.any(re > hi * (1.0 + 1e-9)):
            raise ValueError("Re phi leaves the declared growth envelope")

    def re_phi(self, n):
        # a phi that carries its real part as phi.re, as make_power_exponent's
        # does, skips the complex array; any other phi gets integer modes
        re, n = getattr(self.phi, "re", None), np.asarray(n)
        if re:
            return re(n)
        return np.asarray(self.phi(n.astype(int, copy=False)), dtype=complex).real

    @property
    def tight(self):
        """True when the envelope pins Re phi(n) = c |n|^alpha exactly."""
        return (self.alpha, self.c_lower) == (self.beta, self.c_upper)


def make_power_exponent(c, alpha, drift=0.0):
    """Exponent phi(n) = c |n|^alpha + i * drift * n.

    The imaginary part is an asymmetry (transport) term; it does not affect
    any L2 quantity.  alpha outside (1, 2], c outside (0, inf) and a
    non-finite drift are rejected before phi is ever evaluated.
    """
    _validate_orders(alpha, alpha)
    if not 0 < c < math.inf:
        raise ValueError(f"need scale c > 0 and finite, got {c}")
    if not math.isfinite(drift):
        raise ValueError(f"need a finite drift, got {drift}")

    def phi(n):
        n = np.asarray(n, dtype=float)
        return c * np.abs(n) ** alpha + 1j * drift * n

    def re(n):
        # phi(n).real to the last bit: the drift term adds +-0 to
        # c |n|^alpha >= 0.  Built in place in the one array that abs
        # returns (a scalar for a scalar n), with no temporaries
        out = np.abs(np.asarray(n, dtype=float))
        out **= alpha
        out *= c
        return out

    phi.re = re
    return LevyExponent(phi=phi, alpha=alpha, beta=alpha, c_lower=c, c_upper=c)


# ---------------------------------------------------------------------------
# certified tails


def _one_sided_exp_tail(lam, alpha, n):
    # sum_{m > n} exp(-lam m^alpha) <= int_n^inf exp(-lam x^alpha) dx
    #                               <= exp(-lam n^alpha) / (lam alpha n^(alpha-1))
    # (the last step uses (x/n)^(alpha-1) >= 1 inside the integral, alpha >= 1)
    if not lam > 0.0:
        raise ValueError("need a positive decay rate")
    arg = -lam * n ** alpha
    if arg < _EXP_FLOOR:
        return 0.0
    return math.exp(arg) / (lam * alpha * n ** (alpha - 1.0))


def _smallest_cutoff(tail, tol, n0):
    """Smallest N >= n0 with certified tail(N) <= tol, for a tail that falls
    with N: doubling from n0, then bisection inside the last doubling step."""
    if not 0.0 < tol < math.inf:
        raise ValueError("series tol must be positive and finite")
    n = n0
    while tail(n) > tol:
        n *= 2
        if n > _MAX_CUTOFF:
            raise SeriesToleranceError(
                f"series tolerance unattainable within {_MAX_CUTOFF} modes")
    lo, hi = max(n0, n // 2), n
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


# A tight envelope (Re phi = c |n|^alpha) brackets the tail of the norm and
# time-integral series by the midpoint Euler-Maclaurin formula (DLMF 2.10):
# for f smooth on [x, inf), x = n + 1/2, with f and f' falling to 0,
#
#     sum_{m>n} f(m) = int_x^inf f + f'(x)/24 + E,
#     |E| <= V(f''; [x, inf)) / (72 sqrt 3),
#
# where V is the total variation and 1/(72 sqrt 3) is the largest value of
# the third periodic Peano kernel of the midpoint rule, which vanishes at the
# half-integers.  Both tails integrate in closed form through the upper
# incomplete gamma function Gamma(s, z) at s = 1/alpha and z = rate x^alpha.

_BRACKET_START = 256  # no bracketed series stops below this many modes
_EM_REMAINDER = 1.0 / (72.0 * math.sqrt(3.0))
# Kummer's series serves z below this; above, 0 <= Gamma(s, z) <=
# z^(s-1) e^-z (s < 1) already holds it to e^-40 of Gamma(s)
_KUMMER_Z = 40.0
# the rounding of rate^(+-s) s Gamma(s, z), with s Gamma(s, z) =
# Gamma(1 + s) - z^s e^-z M, in ulps (2^-52) of rate^(+-s) Gamma(1 + s), less
# the |log rate| / 4 that _upper_gamma_error adds for the rounded s = 1/alpha.
# This is a measured maximum, not an a-priori bound: 12.7 against 50-digit
# references on two sets of random points (10^5 and 4 x 10^4) with alpha in
# (1, 2], z in [1e-12, 40) and rates in [1e-14, 10], and math.gamma(1 + s)
# alone within 3.4; the rest is Kummer's series near z = 40.  A first-order
# bound that lets the roundings of all its up to 2z + 54 terms align would
# be about 2 (2z + 54) ulps, 268 at z = 40.
# test_upper_gamma_rounds_within_its_stated_ulps checks the count against a
# decimal reference
_GAMMA_ULPS = 16.0


def _kummer_upper_gamma(s, z):
    """s Gamma(s, z) for 0 < s < 1 and 0 <= z < _KUMMER_Z, as
    Gamma(1 + s) - z^s e^-z M with Kummer's series
    M = sum_k z^k / ((s+1)...(s+k)) of positive terms (DLMF 8.5.1)."""
    term = total = 1.0
    # past k = 2z the terms at least halve, so this breaks by k = 2z + 54
    for k in range(1, 4 * int(_KUMMER_Z)):
        term *= z / (s + k)
        total += term
        if term <= _EPS * total:
            break
    return math.gamma(1.0 + s) - z ** s * math.exp(-z) * total


def _upper_gamma_bound(scale, s, z):
    """scale s z^(s-1) e^-z >= scale s Gamma(s, z) for s < 1; 0 once e^-z
    underflows, also for an infinite rate."""
    if z > -_EXP_FLOOR:
        return 0.0
    return scale * s * z ** (s - 1.0) * math.exp(-z)


def _upper_gamma(scale, s, z):
    """scale s Gamma(s, z): Kummer's series below _KUMMER_Z, and above it the
    midpoint of 0 <= scale s Gamma(s, z) <= _upper_gamma_bound."""
    if z >= _KUMMER_Z:
        return 0.5 * _upper_gamma_bound(scale, s, z)
    return scale * _kummer_upper_gamma(s, z)


def _upper_gamma_error(scale, rate, s, z):
    """What _upper_gamma(scale, s, z) may miss by, with scale = rate^(+-s)
    times a constant: the whole interval above _KUMMER_Z, and below it
    _GAMMA_ULPS ulps of scale Gamma(1 + s), plus |log rate| / 4 ulps for the
    power of s = 1/alpha, which is rounded by up to 2^-54.  Below _KUMMER_Z
    it does not fall with z, so it is the floor of a bracket's width."""
    if z >= _KUMMER_Z:
        return _upper_gamma_bound(scale, s, z)
    ulps = _GAMMA_ULPS + abs(math.log(rate)) / 4.0
    return ulps * 2.0 ** -52 * scale * math.gamma(1.0 + s)


def _exp_power_variation(lam, a, x):
    """V(f''; [x, inf)) for f = exp(-lam x^a), exactly.

    f'' = a lam^(2/a) G(y) at y = lam x^a, with
    G(y) = e^-y y^(1-2/a) (a y - (a-1)) and
    G'(y) = e^-y y^(-2/a) Q(y), Q(y) = -a y^2 + 3(a-1) y - (a-1)(a-2)/a.
    For 1 < a <= 2, Q has one positive root y*: G rises to G(y*) > 0 and then
    falls to 0."""
    def g(y):
        return math.exp(-y) * y ** (1.0 - 2.0 / a) * (a * y - (a - 1.0))

    root = math.sqrt((a - 1.0) * (5.0 * a - 1.0))
    y_star = (3.0 * (a - 1.0) + root) / (2.0 * a)
    z = lam * x ** a
    variation = g(z) if z >= y_star else 2.0 * g(y_star) - g(z)
    return a * lam ** (2.0 / a) * variation


def _exp_power_width(lam, a, n):
    """Width of the midpoint bracket on sum_{m>n} exp(-lam m^a): twice the
    remainder bound, plus what its integral lam^(-1/a) s Gamma(s, z) may
    miss by."""
    x = n + 0.5
    width = 2.0 * _EM_REMAINDER * _exp_power_variation(lam, a, x)
    return width + _upper_gamma_error(
        lam ** (-1.0 / a), lam, 1.0 / a, lam * x ** a)


def _exp_power_midpoint(lam, a, n):
    """Midpoint of the bracket on sum_{m>n} exp(-lam m^a):
    int_x^inf f = lam^(-1/a) s Gamma(s, z) and f'(x) = -a z e^-z / x."""
    x = n + 0.5
    z = lam * x ** a
    integral = _upper_gamma(lam ** (-1.0 / a), 1.0 / a, z)
    return integral - a * z * math.exp(-z) / (24.0 * x)


class ExponentCheck(NamedTuple):
    theta: float
    admissible: bool


def check_exponent_condition(alpha, beta):
    """Small-ball exponent theta and admissibility of the (alpha, beta) pair.

    theta = 2 beta (alpha - 1) / (alpha (beta - 1)) - 1, and the pair is
    admissible iff alpha >= 2 beta / (beta + 1) (equality is the theta = 0
    boundary).  For beta = alpha the same formula applies and gives theta = 1.
    """
    _validate_orders(alpha, beta)
    theta = 2.0 * beta * (alpha - 1.0) / (alpha * (beta - 1.0)) - 1.0
    admissible = alpha >= 2.0 * beta / (beta + 1.0) - 1e-15
    return ExponentCheck(theta=theta, admissible=admissible)


# ---------------------------------------------------------------------------
# mode series streamed over blocks of Re phi
#
# A series splits into a cutoff, which the envelope alone fixes, and a body
# that sums its terms over one slice of Re phi, by a chain of ufuncs into a
# work buffer of the same length.  The cutoff is the smallest n whose tail
# bound meets tol.  For a tight envelope that bound is the width of a
# bracket on the tail from _BRACKET_START modes on: midpoint
# Euler-Maclaurin for the norm and the time integral, Hermite-Hadamard for
# the Laplace mass.  A loose envelope brackets the time integral and Laplace
# mass to first order.  The norm keeps its one-sided exponential tail when
# the envelope is loose or when that tail meets tol with no more modes than
# the bracket, as at tiny t, where the rounding of the bracket's integral
# keeps its width above tol until the interval form takes over at
# _KUMMER_Z.  See _bracketed_series.  One pass evaluates Re phi block by
# block for every series of a call, and each series folds its block sums
# left to right in block order, so no value depends on which series shared
# the pass, and the pass holds a few blocks whatever the cutoffs.

_PHI_BLOCK = 1 << 16  # modes per block: bounds the memory of a pass


class _Series(NamedTuple):
    cutoff: int
    body: Callable    # (re, work) -> sum of the terms at the modes re holds
    finish: Callable  # sum of the terms -> (value, certified error)


def _sum_series(exp_, series):
    """(value, certified error) of each series, all from one streamed pass
    over Re phi(1..largest cutoff); every body overwrites one work buffer."""
    sums = [0.0] * len(series)
    size = max((s.cutoff for s in series), default=0)
    work = np.empty(min(size, _PHI_BLOCK))
    for lo in range(0, size, _PHI_BLOCK):
        hi = min(lo + _PHI_BLOCK, size)
        re = exp_.re_phi(np.arange(lo + 1, hi + 1, dtype=float))
        for i, s in enumerate(series):
            if s.cutoff > lo:
                m = min(s.cutoff, hi) - lo
                sums[i] += s.body(re[:m], work[:m])
        del re  # free it before the next block's Re phi temporaries
    return [s.finish(total) for s, total in zip(series, sums)]


def _sum_each(exp_, build, xs, tol):
    """(value, certified error) of the series build(exp_, x, tol) at each x:
    floats for a scalar xs, arrays shaped like xs otherwise.  Every series is
    built, and so checked, before Re phi is evaluated, and all share one
    pass."""
    xs = np.asarray(xs, dtype=float)
    pairs = _sum_series(exp_, [build(exp_, x, tol) for x in xs.ravel()])
    out = np.array(pairs, dtype=float).reshape(xs.shape + (2,))
    return out[..., 0][()], out[..., 1][()]


def _bracketed_series(exp_, body, width, midpoint, head, tol):
    """Series (head + 2 sum_{n>=1} term(Re phi(n))) / 4pi^2 for a positive
    term, certified to tol; body sums the terms.

    The modes past the cutoff n are replaced by the midpoint(n) of a bracket
    on their sum, and the bracket's width(n) gives the certified error
    2 width / 4pi^2: twice what the truncation can miss by, which also
    covers the rounding of a width that nearly cancels, plus, for a midpoint
    Euler-Maclaurin bracket, what the Gamma term of its closed-form integral
    may miss by.  The cutoff search evaluates only the width; the midpoint is
    evaluated once, at the cutoff.
    """
    def error(n):
        return 2.0 * width(n) / FOUR_PI_SQ

    try:
        n = _smallest_cutoff(error, tol, _BRACKET_START)
    except SeriesToleranceError as exc:
        if exp_.tight:
            raise
        raise SeriesToleranceError(
            f"{exc}: the envelope alpha={exp_.alpha}, beta={exp_.beta}, "
            f"c_lower={exp_.c_lower}, c_upper={exp_.c_upper} is not tight, so "
            "the tail bracket narrows only like n^(1-alpha); use a looser tol"
        ) from None
    tail_mid = midpoint(n)
    return _Series(n, body, lambda s: (
        (head + 2.0 * (s + tail_mid)) / FOUR_PI_SQ, error(n)))


# ---------------------------------------------------------------------------
# kernel coefficients and reconstruction


@dataclass(frozen=True)
class KernelCoefficients:
    """Truncated frequency content of q_t: coeffs[j] = exp(-t phi(n))/2pi at
    n = j - cutoff, for |n| <= cutoff, plus the certified L2 tail mass that
    the truncation discards (in squared-norm units)."""

    t: float
    cutoff: int
    coeffs: np.ndarray
    tail_bound: float

    @property
    def modes(self):
        return np.arange(-self.cutoff, self.cutoff + 1)

    def evaluate(self, z):
        """Kernel values q_t(z) at displacements z (array ok)."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        # q_t(z) = sum_n coeffs(n) exp(-i n z); Hermitian coeffs make it real
        phase = np.exp(-1j * np.outer(z, self.modes))
        vals = phase @ self.coeffs
        if np.max(np.abs(vals.imag)) > 1e-10 * max(1.0, np.max(np.abs(vals.real))):
            raise FloatingPointError("kernel reconstruction lost Hermitian symmetry")
        return vals.real


def kernel_coefficients(exp_, t, tol=DEFAULT_SERIES_TOL):
    """Frequency-domain kernel at time t > 0 with an envelope-certified cutoff.

    The cutoff is sized for pointwise reconstruction: coefficient magnitudes
    decay like exp(-t Re phi), half the rate of the squared-norm terms, so the
    sup error of evaluate() is kept below tol.  tail_bound still reports the
    discarded L2 mass in squared-norm units.
    """
    if not t > 0.0:
        raise ValueError(f"kernel needs t > 0, got t={t}")
    lam = t * exp_.c_lower
    cutoff = _smallest_cutoff(
        lambda n: 2.0 * _one_sided_exp_tail(lam, exp_.alpha, n), tol * TWO_PI, 4)
    n = np.arange(-cutoff, cutoff + 1)
    coeffs = np.exp(-t * np.asarray(exp_.phi(n), dtype=complex)) / TWO_PI
    tail = 2.0 * _one_sided_exp_tail(2.0 * lam, exp_.alpha, cutoff) / FOUR_PI_SQ
    return KernelCoefficients(t=float(t), cutoff=cutoff, coeffs=coeffs, tail_bound=tail)


def _norm_series(exp_, t, tol):
    if not t > 0.0:
        raise ValueError(f"kernel norm needs t > 0, got t={t}")
    a = exp_.alpha
    lam = 2.0 * t * exp_.c_lower

    def body(re, work):
        np.multiply(-2.0 * t, re, out=work)
        return np.sum(np.exp(work, out=work))

    def one_sided(n):
        return 2.0 * _one_sided_exp_tail(lam, a, n)

    def one_sided_series():
        cutoff = _smallest_cutoff(one_sided, tol * FOUR_PI_SQ, 4)
        tail = one_sided(cutoff) / FOUR_PI_SQ
        return _Series(cutoff, body,
                       lambda s: ((1.0 + 2.0 * s) / FOUR_PI_SQ, tail))

    def bracketed_series():
        return _bracketed_series(
            exp_, body, lambda n: _exp_power_width(lam, a, n),
            lambda n: _exp_power_midpoint(lam, a, n), 1.0, tol)

    # no bracket stops below _BRACKET_START modes
    if not exp_.tight or one_sided(_BRACKET_START) <= tol * FOUR_PI_SQ:
        return one_sided_series()
    # whichever certifies tol with fewer modes, the one-sided on a tie
    found = []
    for build in (one_sided_series, bracketed_series):
        try:
            found.append(build())
        except SeriesToleranceError as exc:
            refusal = exc
    if not found:
        raise refusal
    return min(found, key=lambda s: s.cutoff)


def kernel_l2_norm_sq(exp_, t, tol=DEFAULT_SERIES_TOL):
    """(||q_t||^2, certified error) with ||q_t||^2 = (1/4pi^2) sum_n
    exp(-2 t Re phi(n)), certified to tol; t may be an array."""
    return _sum_each(exp_, _norm_series, t, tol)


def wrapped_gaussian_kernel(t, z):
    """Brownian-case oracle: the heat kernel exp(-z^2/4t)/sqrt(4 pi t) wrapped
    around the circle, summed over the images z + 2pi m with |m| <= 64.
    Matches phi(n) = n^2 (the factor exp(-t n^2) is a Gaussian characteristic
    function with variance 2t)."""
    if not t > 0.0:
        raise ValueError(f"wrapped Gaussian needs t > 0, got t={t}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    m = np.arange(-64, 65)
    shifted = z[:, None] + TWO_PI * m[None, :]
    return np.sum(np.exp(-shifted ** 2 / (4.0 * t)), axis=1) / math.sqrt(4.0 * math.pi * t)


# ---------------------------------------------------------------------------
# time integrals of the squared kernel norm


def _first_order(exp_, n, lower):
    """(midpoint, width) of the bracket of a tail sum_{m>n} of terms below
    1/(2 Re phi(m)) between lower and int_n^inf dx / (2 c_lower x^alpha).
    It holds for any envelope; it narrows like n^(-alpha) when the envelope
    is tight and only like n^(1-alpha) when it is not."""
    a, c1 = exp_.alpha, exp_.c_lower
    upper = n ** (1.0 - a) / (2.0 * c1 * (a - 1.0))
    return 0.5 * (upper + lower), upper - lower


def _power_integrals(x, p):
    """(int_x^inf t^-p dt, int_{x-1/2}^x t^-p dt), each over x^-p, for p > 1;
    the second through expm1 and log1p, so that it does not cancel."""
    far = x / (p - 1.0)
    return far, far * math.expm1((1.0 - p) * math.log1p(-0.5 / x))


def _time_integral_tail(exp_, delta, n):
    """(midpoint, width) of the first-order bracket on
    sum_{m>n} (1 - exp(-2 delta Re phi(m))) / (2 Re phi(m)), which a loose
    envelope keeps."""
    b, c2 = exp_.beta, exp_.c_upper
    arg = -2.0 * delta * c2 * (n + 1.0) ** b
    damp = 1.0 - (math.exp(arg) if arg > _EXP_FLOOR else 0.0)
    return _first_order(
        exp_, n, damp * (n + 1.0) ** (1.0 - b) / (2.0 * c2 * (b - 1.0)))


# A tight envelope brackets the time integral's tail by the midpoint
# Euler-Maclaurin formula (see _EM_REMAINDER) in place of the first-order
# bracket above.  The term is h - e, with h = 1/(2 c x^a) and
# e = h exp(-z), z = mu x^a, mu = 2 delta c.  With s = 1/a,
# int_x^inf e = mu^(1-s) Gamma(s - 1, z) / (2 c a), and the recurrence
# Gamma(s, z) = (s - 1) Gamma(s - 1, z) + z^(s-1) e^-z gives
#
#     int_x^inf (h - e) = (x^(1-a) (1 - e^-z) + mu^(1-s) Gamma(s, z)) / (2c(a-1)),
#
# whose two parts are positive, so nothing cancels.  h'' and
# e'' = e^-z (h / x^2) (a (a+1) (1+z) + a^2 z^2) are positive and fall to
# 0, so V((h - e)''; [x, inf)) <= h''(x) + e''(x).


def _time_integral_width(exp_, delta, n):
    """Width of the midpoint bracket on a tight time integral's tail past n:
    twice the remainder bound, plus what the Gamma term of its integral may
    miss by.  The power part and the body sum round to a few ulps of the
    value, which no series here counts; the Gamma term is counted because
    Kummer's series rounds to up to _GAMMA_ULPS."""
    a, c = exp_.alpha, exp_.c_lower
    x = n + 0.5
    mu = 2.0 * delta * c
    z = mu * x ** a
    damped = (math.exp(-z) * (a * (a + 1.0) * (1.0 + z) + a * a * z * z)
              if z < -_EXP_FLOOR else 0.0)
    variation = 0.5 * (a * (a + 1.0) + damped) / (c * x ** (a + 2.0))
    return 2.0 * _EM_REMAINDER * variation + _upper_gamma_error(
        _gamma_scale(a, c, mu), mu, 1.0 / a, z)


def _time_integral_midpoint(exp_, delta, n):
    """Midpoint of the bracket on a tight time integral's tail past n: the
    integral plus (h - e)'(x) / 24, with (h - e)' = h' (1 - e^-z (1+z))."""
    a, c = exp_.alpha, exp_.c_lower
    x = n + 0.5
    mu = 2.0 * delta * c
    z = mu * x ** a
    power = x ** (1.0 - a) / (2.0 * c * (a - 1.0))
    gamma = _upper_gamma(_gamma_scale(a, c, mu), 1.0 / a, z)
    damped = math.exp(-z) * (1.0 + z) if z < -_EXP_FLOOR else 0.0
    slope = -0.5 * a * (1.0 - damped) / (c * x ** (a + 1.0))
    return power * -math.expm1(-z) + gamma + slope / 24.0


def _gamma_scale(a, c, mu):
    """a mu^(1-s) / (2c(a-1)), so that the Gamma term of the time
    integral's tail is _upper_gamma(_gamma_scale(a, c, mu), s, z)."""
    return a * mu ** (1.0 - 1.0 / a) / (2.0 * c * (a - 1.0))


def _time_integral_series(exp_, delta, tol):
    if not 0.0 < delta < math.inf:
        raise ValueError(f"need delta > 0 and finite, got delta={delta}")

    def body(re, work):
        np.multiply(-2.0 * delta, re, out=work)
        np.expm1(work, out=work)
        work /= re
        work *= -0.5  # exact, so this is -expm1 / (2 Re phi) to the last bit
        return np.sum(work)

    if exp_.tight:
        return _bracketed_series(
            exp_, body, lambda n: _time_integral_width(exp_, delta, n),
            lambda n: _time_integral_midpoint(exp_, delta, n), delta, tol)
    return _bracketed_series(
        exp_, body, lambda n: _time_integral_tail(exp_, delta, n)[1],
        lambda n: _time_integral_tail(exp_, delta, n)[0], delta, tol)


def kernel_l2_time_integral(exp_, delta, tol=DEFAULT_SERIES_TOL):
    """(int_0^delta ||q_s||^2 ds, certified error), summed per mode in closed
    form; delta may be an array.

    Per-mode integral of exp(-2 s Re phi(n)) is (1 - exp(-2 delta Re phi))/2 Re phi,
    so no time quadrature is involved; only the mode tail is truncated, with an
    envelope bracket supplying the estimate and its certified half-width.
    """
    return _sum_each(exp_, _time_integral_series, delta, tol)


# A tight envelope brackets the Laplace tail by the Hermite-Hadamard
# inequality (Dragomir & Pearce 2000; DLMF 2.10): for f convex on
# [n + 1/2, inf) and falling to 0,
#
#     int_{n+1}^inf f + f(n+1)/2 <= sum_{m>n} f(m) <= int_{n+1/2}^inf f,
#
# whose width int_{n+1/2}^{n+1} f - f(n+1)/2 is about |f'(n)|/8: it narrows
# like n^(-alpha-1), one order in n faster than the first-order bracket.


def _laplace_tail(exp_, beta_param, n):
    """(midpoint, width) of a bracket on sum_{m>n} 1/(beta + 2 Re phi(m))."""
    a, c1 = exp_.alpha, exp_.c_lower
    # f = 1/(beta + 2 c x^a) is convex on [n, inf) once
    # 2 c (a+1) n^a >= (a-1) beta, and for beta <= c (n+1/2)^a it is
    # sum_k h (-beta h)^k with h = 1/(2 c x^a): an alternating series whose
    # terms at least halve, as do those of its integrals over [n+1/2, inf)
    # and [n+1, inf), so each truncation misses by at most the first term
    # it omits
    if (not exp_.tight or beta_param > c1 * (n + 0.5) ** a
            or 2.0 * c1 * (a + 1.0) * n ** a < (a - 1.0) * beta_param):
        b, c2 = exp_.beta, exp_.c_upper
        # 1/(beta + 2 c2 x^b) >= (1/(2 c2 x^b)) / (1 + beta/(2 c2 (n+1)^b)) on x >= n+1
        slack = 1.0 + beta_param / (2.0 * c2 * (n + 1.0) ** b)
        return _first_order(
            exp_, n, (n + 1.0) ** (1.0 - b) / (2.0 * c2 * (b - 1.0) * slack))
    x = n + 1.0
    h = 0.5 / (c1 * x ** a)
    far = near = 0.0
    term = h  # the k-th power term h (-beta h)^k at x
    for k in range(53):  # the terms at least halve, so this breaks by k = 52
        far_k, near_k = _power_integrals(x, a * (k + 1.0))
        far += term * far_k
        near += term * near_k
        term *= -beta_param * h
        if abs(term) <= _EPS * h:
            break
    far_k, near_k = _power_integrals(x, a * (k + 2.0))
    f_next = 1.0 / (beta_param + 2.0 * c1 * x ** a)
    width = near - 0.5 * f_next + abs(term) * (2.0 * far_k + near_k)
    return far - abs(term) * far_k + 0.5 * f_next + 0.5 * width, width


def _laplace_series(exp_, beta_param, tol):
    if not 0.0 < beta_param < math.inf:
        raise ValueError(f"need beta_param > 0 and finite, got {beta_param}")

    def body(re, work):
        np.multiply(2.0, re, out=work)
        np.add(beta_param, work, out=work)
        return np.sum(np.divide(1.0, work, out=work))

    return _bracketed_series(
        exp_, body, lambda n: _laplace_tail(exp_, beta_param, n)[1],
        lambda n: _laplace_tail(exp_, beta_param, n)[0], 1.0 / beta_param, tol)


def kernel_l2_laplace(exp_, beta_param, tol=DEFAULT_SERIES_TOL):
    """(int_0^inf e^{-beta s} ||q_s||^2 ds, certified error), where the mass
    is (1/4pi^2) sum_n 1/(beta + 2 Re phi(n)); beta_param may be an array.

    Monotone decreasing in beta_param and -> 0 as beta_param -> inf; the mode
    tail is bracketed by the envelope like in kernel_l2_time_integral.
    """
    return _sum_each(exp_, _laplace_series, beta_param, tol)


def limit_constant_probe(alpha, lam, tol=DEFAULT_SERIES_TOL):
    """(lam^(1/alpha) * sum_{n>=1} exp(-lam n^alpha), certified error), the
    sum certified to tol.

    As lam -> 0 this approaches Gamma(1 + 1/alpha) (Riemann-sum limit of
    int_0^inf exp(-x^alpha) dx); the probe stays positive and bounded on (0, 1].
    The sum is the norm series of phi(n) = |n|^alpha at t = lam / 2, where
    ||q_t||^2 = (1 + 2 sum) / 4pi^2.
    """
    exp_ = make_power_exponent(1.0, alpha)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"need lam > 0 and finite, got {lam}")
    half = 0.5 * FOUR_PI_SQ * lam ** (1.0 / alpha)  # sum = (4pi^2 norm - 1) / 2
    norm, error = kernel_l2_norm_sq(exp_, 0.5 * lam, tol / half)
    return half * (norm - 1.0 / FOUR_PI_SQ), half * error


# ---------------------------------------------------------------------------
# rfft symbols and grid fields


def rfft_symbol(exp_, m, fn):
    """fn(phi(n)) on the rfft modes n = 0..m//2 of an m-point grid.

    fn acts elementwise, e.g. lambda p: np.exp(-t * p) for the semigroup.
    For even m the modes +-m/2 are one and the same harmonic on the grid, so
    the symbol acts there through its real part; that keeps real fields real.
    """
    sym = fn(np.asarray(exp_.phi(np.arange(m // 2 + 1)), dtype=complex))
    if m % 2 == 0:
        sym[-1] = sym[-1].real
    return sym


def rfft_weights(m):
    """Number of modes +-n each rfft mode stands for, so that
    sum_n w(n) |c(n)|^2 is the grid mean square of the field (Parseval)."""
    w = np.full(m // 2 + 1, 2.0)
    w[0] = 1.0
    if m % 2 == 0:
        w[-1] = 1.0
    return w


def field_from_function(f, m_space):
    """f(x) at the grid points x_i = 2pi i / m_space, as a float array."""
    return np.asarray(f(TWO_PI * np.arange(m_space) / m_space), dtype=float)


# ---------------------------------------------------------------------------
# bound verification report


class SlopeFit(NamedTuple):
    """(slope, intercept, r2) of least squares on (log x, log y)."""

    slope: float
    intercept: float
    r2: float


def fit_slope(xs, ys):
    """Power-law fit: least squares of log y against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3 or len(xs) != len(ys):
        raise ValueError("need at least 3 (x, y) pairs")
    if len(np.unique(xs)) != len(xs):
        raise ValueError("x values must be distinct")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return SlopeFit(float(slope), float(intercept), float(r2))


@dataclass
class KernelBoundReport:
    """Scaling diagnostics for ||q_t||^2 and its running time integral."""

    t_grid: np.ndarray
    norm_sq: np.ndarray
    norm_tails: np.ndarray
    scaled_alpha: np.ndarray      # t^(1/alpha) * ||q_t||^2, bounded above
    scaled_beta: np.ndarray       # t^(1/beta) * ||q_t||^2, bounded below
    cumulative: np.ndarray        # int_0^t ||q_s||^2 ds
    slope_norm: float
    r2_norm: float
    slope_cumulative: float
    r2_cumulative: float
    laplace_mass: float           # int_0^inf e^{-beta s}||q_s||^2 ds
    sup_weighted_cumulative: float  # sup_t e^{-beta t} cumulative(t)


def verify_kernel_bounds(exp_, t_grid, beta_param=1.0, tol=DEFAULT_SERIES_TOL):
    """Evaluate the two-sided power bounds on ||q_t||^2 over a time grid.

    Reports t^(1/alpha)- and t^(1/beta)-scaled norms (these stay bounded when
    the envelope holds), fitted log-log slopes for the norm and its running
    integral, and sup_t e^{-beta t} int_0^t ||q_s||^2 ds next to the Laplace
    mass at beta, which bounds it (e^{-beta t} <= e^{-beta s} for s <= t).
    """
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if len(t_grid) < 3 or t_grid[0] <= 0.0:
        raise ValueError("need at least 3 positive times")
    if np.any(np.diff(t_grid) == 0.0):
        raise ValueError("kernel times must be distinct")
    k = len(t_grid)
    results = _sum_series(
        exp_, [_norm_series(exp_, t, tol) for t in t_grid]
        + [_time_integral_series(exp_, t, tol) for t in t_grid]
        + [_laplace_series(exp_, beta_param, tol)])
    norm_sq = np.array([p[0] for p in results[:k]])
    tails = np.array([p[1] for p in results[:k]])
    cumulative = np.array([p[0] for p in results[k:2 * k]])
    slope_n, _, r2_n = fit_slope(t_grid, norm_sq)
    slope_c, _, r2_c = fit_slope(t_grid, cumulative)
    return KernelBoundReport(
        t_grid=t_grid,
        norm_sq=norm_sq,
        norm_tails=tails,
        scaled_alpha=t_grid ** (1.0 / exp_.alpha) * norm_sq,
        scaled_beta=t_grid ** (1.0 / exp_.beta) * norm_sq,
        cumulative=cumulative,
        slope_norm=slope_n,
        r2_norm=r2_n,
        slope_cumulative=slope_c,
        r2_cumulative=r2_c,
        laplace_mass=results[-1][0],
        sup_weighted_cumulative=float(
            np.max(np.exp(-beta_param * t_grid) * cumulative)),
    )
