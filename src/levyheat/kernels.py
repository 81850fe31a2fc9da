"""Spectral machinery for the torus transition kernel of a Levy-type generator.

Everything here is driven by the Fourier multiplier phi of the generator: the
process with E exp(i n X_t) = exp(-t phi(n)) has transition kernel

    q_t(z) = (1/2pi) sum_n exp(-t phi(n)) exp(-i n z),   z = displacement on [0, 2pi),

and the semigroup acts diagonally in frequency.  Spatial L2 norms follow the
unit-mass convention for the torus measure, under which

    ||q_t||^2 = (1/4pi^2) sum_n exp(-2 t Re phi(n)).

Mode convention used throughout the package: a real field on the m-point
grid x_i = 2pi i / m is f(x) = sum_n c(n) exp(+i n x) (the numpy FFT
convention), stored as its rfft coefficients c(n) = rfft(f)[n] / m for
n = 0..m//2; c(-n) = conj(c(n)) is implied.  The semigroup multiplies mode n
by exp(-t phi(n)), and Hermitian symmetry phi(-n) = conj(phi(n)) keeps real
fields real.  For even m the Nyquist mode n = m/2 is its own conjugate on the
grid, so a multiplier acts there through its real part (`rfft_symbol`).

Series are truncated with certified tail bounds derived from the growth
envelope c_lower |n|^alpha <= Re phi(n) <= c_upper |n|^beta; pass
``full_output=True`` to the series routines to get the bound along with the
value.
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


class ExponentRangeError(ValueError):
    """Raised when (alpha, beta) leave the admissible (1, 2] window."""


class GeneratorDomainError(ValueError):
    """Raised when a field fails the generator-domain test."""


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

    def _spot_check(self, n_max=64):
        n = np.arange(-n_max, n_max + 1)
        val = np.asarray(self.phi(n), dtype=complex)
        if abs(val[n_max]) > 1e-12:
            raise ValueError("phi(0) must be 0")
        if np.any(val.real < -1e-12):
            raise ValueError("Re phi must be nonnegative")
        if not np.allclose(val[::-1], np.conj(val), rtol=1e-12, atol=1e-12):
            raise ValueError("phi must satisfy phi(-n) = conj(phi(n))")
        pos = np.arange(1, n_max + 1)
        re = np.asarray(self.phi(pos), dtype=complex).real
        lo = self.c_lower * pos.astype(float) ** self.alpha
        hi = self.c_upper * pos.astype(float) ** self.beta
        if np.any(re < lo * (1.0 - 1e-9)) or np.any(re > hi * (1.0 + 1e-9)):
            raise ValueError("Re phi leaves the declared growth envelope")

    def re_phi(self, n):
        return np.asarray(self.phi(np.asarray(n)), dtype=complex).real


def make_power_exponent(c, alpha, drift=0.0):
    """Exponent phi(n) = c |n|^alpha + i * drift * n.

    The imaginary part is an asymmetry (transport) term; it does not affect
    any L2 quantity.  alpha outside (1, 2] or c <= 0 is rejected.
    """
    _validate_orders(alpha, alpha)
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")

    def phi(n):
        n = np.asarray(n, dtype=float)
        return c * np.abs(n) ** alpha + 1j * drift * n

    return LevyExponent(phi=phi, alpha=alpha, beta=alpha, c_lower=c, c_upper=c)


# ---------------------------------------------------------------------------
# certified tails


def _one_sided_exp_tail(lam, alpha, n):
    # sum_{m > n} exp(-lam m^alpha) <= int_n^inf exp(-lam x^alpha) dx
    #                               <= exp(-lam n^alpha) / (lam alpha n^(alpha-1))
    # (the last step uses (x/n)^(alpha-1) >= 1 inside the integral, alpha >= 1)
    arg = -lam * n ** alpha
    if arg < _EXP_FLOOR:
        return 0.0
    return math.exp(arg) / (lam * alpha * n ** (alpha - 1.0))


def _doubling_cutoff(tail, tol, n):
    """First cutoff n * 2^j whose certified tail(n * 2^j) is at most tol."""
    while tail(n) > tol:
        n *= 2
        if n > _MAX_CUTOFF:
            raise RuntimeError("series tolerance unattainable at sane cutoffs")
    return n


def _exp_series_cutoff(lam, alpha, tol):
    """Smallest N >= 4 with certified two-sided tail below tol: doubling, then
    bisection inside the last doubling step."""
    if lam <= 0.0:
        raise ValueError("need a positive decay rate")

    def tail(n):
        return 2.0 * _one_sided_exp_tail(lam, alpha, n)

    n = _doubling_cutoff(tail, tol, 4)
    lo, hi = max(4, n // 2), n
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
    if t <= 0.0:
        raise ValueError(f"kernel needs t > 0, got t={t}")
    lam = t * exp_.c_lower
    cutoff = _exp_series_cutoff(lam, exp_.alpha, tol * TWO_PI)
    n = np.arange(-cutoff, cutoff + 1)
    coeffs = np.exp(-t * np.asarray(exp_.phi(n), dtype=complex)) / TWO_PI
    tail = 2.0 * _one_sided_exp_tail(2.0 * lam, exp_.alpha, cutoff) / FOUR_PI_SQ
    return KernelCoefficients(t=float(t), cutoff=cutoff, coeffs=coeffs, tail_bound=tail)


def kernel_l2_norm_sq(exp_, t, tol=DEFAULT_SERIES_TOL, full_output=False):
    """||q_t||^2 = (1/4pi^2) sum_n exp(-2 t Re phi(n)), certified to tol."""
    if t <= 0.0:
        raise ValueError(f"kernel norm needs t > 0, got t={t}")
    lam = 2.0 * t * exp_.c_lower
    cutoff = _exp_series_cutoff(lam, exp_.alpha, tol * FOUR_PI_SQ)
    n = np.arange(1, cutoff + 1)
    re = exp_.re_phi(n)
    value = (1.0 + 2.0 * np.sum(np.exp(-2.0 * t * re))) / FOUR_PI_SQ
    tail = 2.0 * _one_sided_exp_tail(lam, exp_.alpha, cutoff) / FOUR_PI_SQ
    if full_output:
        return value, tail
    return value


def wrapped_gaussian_kernel(t, z, terms=64):
    """Brownian-case oracle: the heat kernel exp(-z^2/4t)/sqrt(4 pi t) wrapped
    around the circle.  Matches phi(n) = n^2 (the factor exp(-t n^2) is a
    Gaussian characteristic function with variance 2t)."""
    if t <= 0.0:
        raise ValueError("wrapped Gaussian needs t > 0")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    m = np.arange(-terms, terms + 1)
    shifted = z[:, None] + TWO_PI * m[None, :]
    return np.sum(np.exp(-shifted ** 2 / (4.0 * t)), axis=1) / math.sqrt(4.0 * math.pi * t)


# ---------------------------------------------------------------------------
# time integrals of the squared kernel norm


def _bracketed_mode_sum(exp_, term, lower_tail, head, tol, full_output):
    """(head + 2 sum_{n>=1} term(Re phi(n))) / 4pi^2 for a positive term below
    1/(2 Re phi), certified to tol.

    The modes past the cutoff are replaced by the midpoint of an envelope
    bracket: above by int_n^inf dx / (2 c_lower x^alpha), below by the
    caller's lower_tail(n); the bracket's width is the certified error bound.
    """
    a, c1 = exp_.alpha, exp_.c_lower

    def upper_tail(n):
        return n ** (1.0 - a) / (2.0 * c1 * (a - 1.0))

    def width(n):
        return 2.0 * (upper_tail(n) - lower_tail(n)) / FOUR_PI_SQ

    n = _doubling_cutoff(width, tol, 256)
    body = np.sum(term(exp_.re_phi(np.arange(1, n + 1))))
    tail_mid = 0.5 * (upper_tail(n) + lower_tail(n))
    value = (head + 2.0 * (body + tail_mid)) / FOUR_PI_SQ
    if full_output:
        return value, width(n)
    return value


def kernel_l2_time_integral(exp_, delta, tol=DEFAULT_SERIES_TOL, full_output=False):
    """int_0^delta ||q_s||^2 ds, summed per mode in closed form.

    Per-mode integral of exp(-2 s Re phi(n)) is (1 - exp(-2 delta Re phi))/2 Re phi,
    so no time quadrature is involved; only the mode tail is truncated, with an
    envelope bracket supplying the estimate and its certified half-width.
    """
    if delta <= 0.0:
        raise ValueError(f"need delta > 0, got {delta}")
    b, c2 = exp_.beta, exp_.c_upper

    def lower_tail(n):
        arg = -2.0 * delta * c2 * (n + 1.0) ** b
        damp = 1.0 - (math.exp(arg) if arg > _EXP_FLOOR else 0.0)
        return damp * (n + 1.0) ** (1.0 - b) / (2.0 * c2 * (b - 1.0))

    return _bracketed_mode_sum(
        exp_, lambda re: -np.expm1(-2.0 * delta * re) / (2.0 * re), lower_tail,
        delta, tol, full_output)


def kernel_l2_laplace(exp_, beta_param, tol=DEFAULT_SERIES_TOL, full_output=False):
    """int_0^inf e^{-beta s} ||q_s||^2 ds = (1/4pi^2) sum_n 1/(beta + 2 Re phi(n)).

    Monotone decreasing in beta_param and -> 0 as beta_param -> inf; the mode
    tail is bracketed by the envelope like in kernel_l2_time_integral.
    """
    if beta_param <= 0.0:
        raise ValueError(f"need beta_param > 0, got {beta_param}")
    b, c2 = exp_.beta, exp_.c_upper

    def lower_tail(n):
        # 1/(beta + 2 c2 x^b) >= (1/(2 c2 x^b)) / (1 + beta/(2 c2 (n+1)^b)) on x >= n+1
        slack = 1.0 + beta_param / (2.0 * c2 * (n + 1.0) ** b)
        return (n + 1.0) ** (1.0 - b) / (2.0 * c2 * (b - 1.0) * slack)

    return _bracketed_mode_sum(
        exp_, lambda re: 1.0 / (beta_param + 2.0 * re), lower_tail,
        1.0 / beta_param, tol, full_output)


def limit_constant_probe(alpha, lam, tol=DEFAULT_SERIES_TOL, full_output=False):
    """lam^(1/alpha) * sum_{n>=1} exp(-lam n^alpha), certified to tol.

    As lam -> 0 this approaches Gamma(1 + 1/alpha) (Riemann-sum limit of
    int_0^inf exp(-x^alpha) dx); the probe stays positive and bounded on (0, 1].
    """
    _validate_orders(alpha, alpha)
    if lam <= 0.0:
        raise ValueError(f"need lam > 0, got {lam}")
    scale = lam ** (1.0 / alpha)

    def tail(n):
        return scale * _one_sided_exp_tail(lam, alpha, n)

    n = _doubling_cutoff(tail, tol, 4)
    modes = np.arange(1, n + 1, dtype=float)
    value = scale * np.sum(np.exp(-lam * modes ** alpha))
    if full_output:
        return value, tail(n)
    return value


# ---------------------------------------------------------------------------
# spectral fields, semigroup, generator


@dataclass(frozen=True)
class SpectralField:
    """Real field on the uniform grid x_i = 2pi i / m, stored with its modes.

    modes[n] = rfft(values)[n] / m is the coefficient of exp(+i n x) for
    n = 0..m//2; mode -n is the conjugate of mode n and is not stored.  The
    DC mode and, for even m, the Nyquist mode m/2 are real.
    """

    values: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        if np.any(~np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def m_space(self):
        return len(self.values)

    @staticmethod
    def from_values(values):
        values = np.asarray(values, dtype=float)
        m = len(values)
        if m < 4:
            raise ValueError("need at least 4 grid points")
        return SpectralField(values=values, modes=np.fft.rfft(values) / m)

    @staticmethod
    def from_modes(modes, m_space=None):
        """Field with the given rfft modes on m_space points; m_space
        defaults to the even grid 2 * (len(modes) - 1)."""
        modes = np.asarray(modes, dtype=complex)
        m = 2 * (len(modes) - 1) if m_space is None else m_space
        if m < 4 or len(modes) != m // 2 + 1:
            raise ValueError(
                f"need m_space >= 4 and m_space // 2 + 1 modes, got "
                f"{len(modes)} modes for m_space={m}")
        real = modes[[0, -1]] if m % 2 == 0 else modes[:1]
        if np.any(np.abs(real.imag) > 1e-12):
            raise ValueError("DC and Nyquist modes of a real field must be real")
        return _with_modes(modes, m)


def _with_modes(modes, m):
    return SpectralField(values=np.fft.irfft(modes * m, n=m), modes=modes)


def rfft_symbol(exp_, m, fn):
    """fn(phi(n)) on the rfft modes n = 0..m//2 of an m-point grid.

    fn acts elementwise, e.g. lambda p: np.exp(-t * p) for the semigroup or
    np.negative for the generator.  For even m the modes +-m/2 are one and
    the same harmonic on the grid, so the symbol acts there through its real
    part; that keeps real fields real.
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
    x = TWO_PI * np.arange(m_space) / m_space
    return SpectralField.from_values(f(x))


def apply_semigroup(exp_, t, field):
    """Evolve a field by the semigroup: mode n -> exp(-t phi(n)) * mode n."""
    if t < 0.0:
        raise ValueError("semigroup time must be nonnegative")
    m = field.m_space
    mult = rfft_symbol(exp_, m, lambda p: np.exp(-t * p))
    return _with_modes(field.modes * mult, m)


def apply_generator(exp_, field, domain_bound=1e12):
    """Apply the generator: mode n -> -phi(n) * mode n.

    The field must pass the generator-domain mass test below domain_bound;
    failures raise GeneratorDomainError rather than being truncated away.
    """
    if not in_generator_domain(exp_, field, domain_bound):
        raise GeneratorDomainError(
            f"generator-domain mass exceeds {domain_bound:g} at the field's cutoff"
        )
    m = field.m_space
    return _with_modes(rfft_symbol(exp_, m, np.negative) * field.modes, m)


def in_generator_domain(exp_, field, bound):
    """True when sum_n |phi(n)|^2 |c(n)|^2 <= bound over the grid's modes."""
    if bound <= 0.0:
        raise ValueError("domain bound must be positive")
    m = field.m_space
    image = rfft_symbol(exp_, m, np.negative) * field.modes
    mass = float(np.sum(rfft_weights(m) * np.abs(image) ** 2))
    return mass <= bound


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
    beta_param: float
    laplace_mass: float           # int_0^inf e^{-beta s}||q_s||^2 ds
    sup_weighted_cumulative: float
    sup_bounded_by_laplace: bool

    def to_rows(self, run_id="kernel", seed=0, alpha=None, beta=None):
        from .mcstats import make_row  # mcstats imports this module

        rows = []

        def row(t, quantity, value, tail=0.0):
            rows.append(make_row(run_id, seed, alpha, beta, quantity,
                                 float(value), tail_bound=float(tail), t=t))

        for i, t in enumerate(self.t_grid):
            row(float(t), "kernel_l2_norm_sq", self.norm_sq[i], self.norm_tails[i])
            row(float(t), "kernel_l2_norm_sq_scaled_alpha", self.scaled_alpha[i])
            row(float(t), "kernel_l2_norm_sq_scaled_beta", self.scaled_beta[i])
            row(float(t), "kernel_l2_time_integral", self.cumulative[i])
        row(0.0, "kernel_norm_slope", self.slope_norm)
        row(0.0, "kernel_norm_slope_r2", self.r2_norm)
        row(0.0, "kernel_integral_slope", self.slope_cumulative)
        row(0.0, "kernel_integral_slope_r2", self.r2_cumulative)
        row(0.0, "kernel_l2_laplace", self.laplace_mass)
        row(0.0, "sup_weighted_cumulative", self.sup_weighted_cumulative)
        return rows


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
    pairs = [kernel_l2_norm_sq(exp_, t, tol, full_output=True) for t in t_grid]
    norm_sq = np.array([p[0] for p in pairs])
    tails = np.array([p[1] for p in pairs])
    cumulative = np.array([kernel_l2_time_integral(exp_, t, tol) for t in t_grid])
    slope_n, _, r2_n = fit_slope(t_grid, norm_sq)
    slope_c, _, r2_c = fit_slope(t_grid, cumulative)
    laplace = kernel_l2_laplace(exp_, beta_param, tol)
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
        beta_param=float(beta_param),
        laplace_mass=laplace,
        sup_weighted_cumulative=sup_weighted,
        sup_bounded_by_laplace=bool(sup_weighted <= laplace * (1.0 + 1e-9)),
    )
