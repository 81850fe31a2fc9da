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
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi ** 2

DEFAULT_SERIES_TOL = 1e-10
_MAX_CUTOFF = 1 << 26
_EXP_FLOOR = -745.0  # exp underflows to 0 below this; used to guard overflow in bounds


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
        # does, skips the complex array
        re, n = getattr(self.phi, "re", None), np.asarray(n)
        return re(n) if re else np.asarray(self.phi(n), dtype=complex).real


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

    # phi(n).real to the last bit: the drift term adds +-0 to c |n|^alpha >= 0
    phi.re = lambda n: c * np.abs(np.asarray(n, dtype=float)) ** alpha
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
# that sums its terms over the first n modes of one block.  One pass
# evaluates Re phi block by block for every series of a call, and each
# series folds its block sums left to right in block order, so no value
# depends on which series shared the pass, and the pass holds a few blocks
# whatever the cutoffs.

_PHI_BLOCK = 1 << 16  # modes per block: bounds the memory of a pass


class _Block:
    """Re phi(n) for the modes n = lo+1..lo+len(re), and one work buffer of
    the same length that each series body overwrites."""

    def __init__(self, lo, re):
        self.lo, self.re = lo, re
        self.work = np.empty_like(re)

    @cached_property
    def half_recip(self):
        """1 / (2 Re phi), built on first use and shared by every series."""
        out = np.multiply(2.0, self.re)
        return np.divide(1.0, out, out=out)

    @cached_property
    def half_recip_sum(self):
        return np.sum(self.half_recip)


class _Series(NamedTuple):
    cutoff: int
    body: Callable    # (block, n) -> sum of the terms over its first n modes
    finish: Callable  # sum of the terms -> (value, certified error)


def _sum_series(exp_, series):
    """(value, certified error) of each series, all from one streamed pass
    over Re phi(1..largest cutoff)."""
    sums = [0.0] * len(series)
    size = max((s.cutoff for s in series), default=0)
    for lo in range(0, size, _PHI_BLOCK):
        hi = min(lo + _PHI_BLOCK, size)
        block = _Block(lo, exp_.re_phi(np.arange(lo + 1, hi + 1)))
        for i, s in enumerate(series):
            if s.cutoff > lo:
                sums[i] += s.body(block, min(s.cutoff, hi) - lo)
        del block  # free it before the next block's Re phi temporaries
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
    lam = 2.0 * t * exp_.c_lower
    cutoff = _smallest_cutoff(
        lambda n: 2.0 * _one_sided_exp_tail(lam, exp_.alpha, n), tol * FOUR_PI_SQ, 4)
    tail = 2.0 * _one_sided_exp_tail(lam, exp_.alpha, cutoff) / FOUR_PI_SQ

    def body(block, n):
        work = block.work[:n]
        np.multiply(-2.0 * t, block.re[:n], out=work)
        return np.sum(np.exp(work, out=work))

    return _Series(cutoff, body, lambda s: ((1.0 + 2.0 * s) / FOUR_PI_SQ, tail))


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


def _bracketed_series(exp_, body, lower_tail, head, tol):
    """Series (head + 2 sum_{n>=1} term(Re phi(n))) / 4pi^2 for a positive
    term below 1/(2 Re phi), certified to tol; body sums the terms.

    The modes past the cutoff are replaced by the midpoint of an envelope
    bracket: above by int_n^inf dx / (2 c_lower x^alpha), below by the
    caller's lower_tail(n); the bracket's width is the certified error bound.
    """
    a, c1 = exp_.alpha, exp_.c_lower

    def upper_tail(n):
        return n ** (1.0 - a) / (2.0 * c1 * (a - 1.0))

    def width(n):
        return 2.0 * (upper_tail(n) - lower_tail(n)) / FOUR_PI_SQ

    try:
        n = _smallest_cutoff(width, tol, 256)
    except SeriesToleranceError as exc:
        if (a, c1) == (exp_.beta, exp_.c_upper):
            raise
        raise SeriesToleranceError(
            f"{exc}: the envelope alpha={a}, beta={exp_.beta}, c_lower={c1}, "
            f"c_upper={exp_.c_upper} is not tight, so the tail bracket narrows "
            "only like n^(1-alpha); use a looser tol") from None
    tail_mid = 0.5 * (upper_tail(n) + lower_tail(n))
    return _Series(n, body, lambda s: (
        (head + 2.0 * (s + tail_mid)) / FOUR_PI_SQ, width(n)))


def _time_integral_series(exp_, delta, tol):
    if not 0.0 < delta < math.inf:
        raise ValueError(f"need delta > 0 and finite, got delta={delta}")
    a, c1 = exp_.alpha, exp_.c_lower
    b, c2 = exp_.beta, exp_.c_upper

    def lower_tail(n):
        arg = -2.0 * delta * c2 * (n + 1.0) ** b
        damp = 1.0 - (math.exp(arg) if arg > _EXP_FLOOR else 0.0)
        return damp * (n + 1.0) ** (1.0 - b) / (2.0 * c2 * (b - 1.0))

    def body(block, n):
        # expm1(-x) is exactly -1.0 for x >= 40 (e^-40 is below half an ulp
        # of 1), so past the mode `head` where the envelope puts 2 delta
        # Re phi above 40 the term is exactly 1/(2 Re phi).  Re phi need not
        # be monotone, so only the envelope can say where that starts; no
        # cutoff passes _MAX_CUTOFF.
        head = math.ceil(min((20.0 / (delta * c1)) ** (1.0 / a), _MAX_CUTOFF))
        k = min(n, max(0, head - block.lo))
        if k == 0 and n == len(block.re):
            return block.half_recip_sum
        re, work = block.re[:k], block.work[:n]
        w = work[:k]
        np.multiply(-2.0 * delta, re, out=w)
        np.negative(np.expm1(w, out=w), out=w)
        w /= 2.0 * re
        work[k:] = block.half_recip[k:n]
        return np.sum(work)

    return _bracketed_series(exp_, body, lower_tail, delta, tol)


def kernel_l2_time_integral(exp_, delta, tol=DEFAULT_SERIES_TOL):
    """(int_0^delta ||q_s||^2 ds, certified error), summed per mode in closed
    form; delta may be an array.

    Per-mode integral of exp(-2 s Re phi(n)) is (1 - exp(-2 delta Re phi))/2 Re phi,
    so no time quadrature is involved; only the mode tail is truncated, with an
    envelope bracket supplying the estimate and its certified half-width.
    """
    return _sum_each(exp_, _time_integral_series, delta, tol)


def _laplace_series(exp_, beta_param, tol):
    if not 0.0 < beta_param < math.inf:
        raise ValueError(f"need beta_param > 0 and finite, got {beta_param}")
    b, c2 = exp_.beta, exp_.c_upper

    def lower_tail(n):
        # 1/(beta + 2 c2 x^b) >= (1/(2 c2 x^b)) / (1 + beta/(2 c2 (n+1)^b)) on x >= n+1
        slack = 1.0 + beta_param / (2.0 * c2 * (n + 1.0) ** b)
        return (n + 1.0) ** (1.0 - b) / (2.0 * c2 * (b - 1.0) * slack)

    def body(block, n):
        work = block.work[:n]
        np.multiply(2.0, block.re[:n], out=work)
        np.add(beta_param, work, out=work)
        return np.sum(np.divide(1.0, work, out=work))

    return _bracketed_series(exp_, body, lower_tail, 1.0 / beta_param, tol)


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
    """
    _validate_orders(alpha, alpha)
    if not lam > 0.0:
        raise ValueError(f"need lam > 0, got {lam}")
    scale = lam ** (1.0 / alpha)

    def tail(n):
        return scale * _one_sided_exp_tail(lam, alpha, n)

    n = _smallest_cutoff(tail, tol, 4)
    modes = np.arange(1, n + 1, dtype=float)
    return scale * np.sum(np.exp(-lam * modes ** alpha)), tail(n)


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
    sup_weighted_cumulative: float
    sup_bounded_by_laplace: bool


def verify_kernel_bounds(exp_, t_grid, beta_param=1.0, tol=DEFAULT_SERIES_TOL):
    """Evaluate the two-sided power bounds on ||q_t||^2 over a time grid.

    Reports t^(1/alpha)- and t^(1/beta)-scaled norms (these stay bounded when
    the envelope holds), fitted log-log slopes for the norm and its running
    integral, and the check that sup_t e^{-beta t} int_0^t ||q_s||^2 ds stays
    below the Laplace mass at beta.
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
    laplace = results[-1][0]
    slope_n, _, r2_n = fit_slope(t_grid, norm_sq)
    slope_c, _, r2_c = fit_slope(t_grid, cumulative)
    weighted = np.exp(-beta_param * t_grid) * cumulative
    sup_weighted = float(np.max(weighted))
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
        laplace_mass=laplace,
        sup_weighted_cumulative=sup_weighted,
        sup_bounded_by_laplace=bool(sup_weighted <= laplace * (1.0 + 1e-9)),
    )
