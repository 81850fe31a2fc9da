"""Exponential-Euler solver for the mild stochastic heat equation on the torus.

One step of the scheme, in frequency space:

    u_{k+1}(n) = exp(-dt phi(n)) * (u_k(n) + g_k(n)),

where g_k is the multiplicative-noise term sigma(u_k(x_i)) * xi(k, i) scaled to
a density: a raw cell increment has variance dt*dx, and dividing by
dx*sqrt(2pi) converts it into a density against the unit-mass torus measure
that the kernel normalization uses.  The noise enters at the left endpoint of
each step (Ito evaluation), and each increment is smoothed by the semigroup
for the remaining steps, which is exactly the stochastic convolution with the
transition kernel.  The stepper, the forward pass, the adjoint sweep and the
drivers take the run's `RunConfig` (phi, sigma, the grid, u0 and the probe
(t_{k_p}, x_{i_p})), so a path and its derivative share one sigma and probe.

The additive case (sigma constant) makes the solution Gaussian, and
`additive_variance_exact` gives the scheme's exact variance, the
right-endpoint sum sum_{j=1..K} dt ||q_{j dt}||^2 of the isometry on the
band-limited modes, so Monte Carlo error can be told apart from
discretization bias.  There the scheme is affine in its variates, so its
probe value is exactly a Wiener integral, the flow of u0 plus
sum_{k,j} w_{k,j} xi_{k,j}, whose weights are `adjoint_gradient`'s rows on
the flow times sqrt(dt*dx) (Nualart, The Malliavin Calculus and Related
Topics, 2006, sec. 1.2): `linearize` sweeps the flow once, `sample_at_probe`
sums per noise block, and `picard_sequence` reads its v_0 off the same flow.
`RunConfig.certify` bounds every field first.

`adjoint_gradient` differentiates the step exactly.  Normalized by
sqrt(dt*dx), the derivative of u(t_{k_p}, x_{i_p}) in the variate of cell
(k, j) is

    e_{i_p}^T S F_{k_p-1} S ... F_{k+1} S e_j sigma(u_k(x_j)) / (dx sqrt(2pi)),

with F_k = 1 + sigma'(u_k) xi_k * scale acting pointwise.  One reverse sweep
reads the whole gradient: starting from lambda = e_{i_p}, each step back
forms mu = S^T lambda (the conjugate rfft multiplier, since S^T != S under
drift), emits the row sigma(u_k) mu / (dx sqrt(2pi)) of the cells at step
k, and moves on with lambda = F_k mu.  That is O(k_p m log m) per replica,
batched over replicas.  The sweep is written once, as `_adjoint_rows`,
which hands each row to its caller: `adjoint_gradient` stacks them, and
`malliavin.hnorm_samples` folds each into its squared sum and drops it.
"""

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import numpy.fft  # numpy loads it lazily: here, not in the first _smooth

from .kernels import FOUR_PI_SQ, TWO_PI, rfft_symbol, rfft_weights
from .noise import XI_MAX, GridSpec, _NoiseRows

# the certificate keeps every field under half of it
BLOWUP_THRESHOLD = 1e12
# the stepper draws at least this many words of each noise stream at a time
_ROW_BLOCK_WORDS = 2048
# words of one sample_at_probe chunk, replicas times: m_space of field and,
# a second budget, a noise block's rows times m_space when stepped (so a
# stepped chunk holds one 2 MiB block at most, whatever m_space); a noise
# block's rows times m_space when summed as a Wiener integral; (k_p + 1)
# m_space of path (a probe at t = 0 still holds u0) when read takes the
# path.  A path replica holds its path and its noise, twice that: the
# adjoint sweep hands its rows to the reader one step at a time
_STREAM_CHUNK_WORDS = 2 ** 13
_STREAM_BLOCK_CHUNK_WORDS = 2 ** 18
_WIENER_CHUNK_WORDS = 2 ** 16
_PATH_CHUNK_WORDS = 2 ** 20


class BlowUpError(RuntimeError):
    """A replica's field is not finite: one of its variates is infinite
    (probability 2^-53 per cell)."""

    def __init__(self, replica):
        self.replica = replica
        super().__init__(f"replica {replica} has a non-finite field: one of "
                         "its variates is infinite")


@dataclass(frozen=True)
class SigmaSpec:
    """Noise coefficient sigma with its derivative, bounds kappa <= |sigma|
    <= sup and a Lipschitz constant.

    kappa is 0 for degenerate choices, and the small-ball and
    negative-moment estimators insist on kappa > 0; RunConfig.certify reads
    sup.  lip bounds |sigma(a) - sigma(b)| / |a - b|; lip = 0 declares
    sigma constant, which sample_at_probe samples as a Wiener integral.
    """

    name: str
    sigma: Callable
    sigma_prime: Callable
    kappa: float
    lip: float
    sup: float

    def __post_init__(self):
        for key in ("kappa", "lip", "sup"):
            if not 0.0 <= getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be nonnegative and finite")


def _const(value):
    return lambda u: np.full_like(np.asarray(u, dtype=float), value)


# a constant sigma is its own bounds: kappa = sup = its value, lip = 0
SIGMA_REGISTRY = {
    name: SigmaSpec(name, _const(c), _const(0.0), kappa=c, lip=0.0, sup=c)
    for name, c in (("zero", 0.0), ("one", 1.0), ("two", 2.0))}
SIGMA_REGISTRY["shifted_sine"] = SigmaSpec(
    "shifted_sine", lambda u: 2.0 + np.sin(u), np.cos, kappa=1.0, lip=1.0,
    sup=3.0)


def get_sigma(name):
    try:
        return SIGMA_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown sigma {name!r}; choices: {sorted(SIGMA_REGISTRY)}"
        ) from None


def noise_density_scale(grid):
    """Factor turning sigma(u) * xi into the density the spectral step convolves."""
    return math.sqrt(grid.dt * grid.dx) / (grid.dx * math.sqrt(TWO_PI))


def rfft_multiplier(exp_, grid):
    """Per-step semigroup multiplier exp(-dt phi(n)) on the rfft modes 0..m/2."""
    return rfft_symbol(exp_, grid.m_space, lambda p: np.exp(-grid.dt * p))


def _smooth(fields, mult, m, out=None, spec=None):
    spec = np.fft.rfft(fields, axis=-1, out=spec)
    if mult is None:  # the rfft spectrum itself
        return spec
    spec *= mult
    return np.fft.irfft(spec, n=m, axis=-1, out=out)


@dataclass(frozen=True)
class RunConfig:
    """Everything a deterministic run needs.

    u0 is the initial field as its m_space grid values, stored as a
    read-only float copy.  probe is the (t, x) point whose law the run
    samples; it must sit exactly on the grid and defaults to (horizon, 0),
    resolved when the config is built (dataclasses.replace with a new grid
    keeps the old probe).  seed and replicas are integers, by GridSpec's
    rule; moment estimates need at least 2 replicas.  A config that
    certify() refuses is refused when it is built.
    """

    grid: GridSpec
    exponent: object
    sigma: SigmaSpec
    u0: np.ndarray
    seed: int = 0
    replicas: int = 10000
    probe: Optional[tuple] = None

    def __post_init__(self):
        u0 = np.array(self.u0, dtype=float)
        if u0.shape != (self.grid.m_space,):
            raise ValueError(f"u0 has shape {u0.shape}, the grid needs "
                             f"({self.grid.m_space},)")
        if not np.all(np.isfinite(u0)):
            raise ValueError("u0 values must be finite")
        u0.flags.writeable = False
        object.__setattr__(self, "u0", u0)
        for key in ("seed", "replicas"):
            if not isinstance(getattr(self, key), (int, np.integer)):
                raise ValueError(f"need an integer {key}, got "
                                 f"{getattr(self, key)!r}")
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas")
        if self.probe is None:
            object.__setattr__(self, "probe", (self.grid.horizon, 0.0))
        self.grid.index_of(*self.probe)  # an off-grid probe raises here
        self.certify()

    def certify(self, shift=0.0):
        """The bound below on |u| up to the horizon for variates of size at
        most XI_MAX + shift; past BLOWUP_THRESHOLD / 2 the run is refused.
        Re phi >= 0 makes every |rho_n| <= 1, so every field of every
        driver, each Picard iterate too, keeps |u_k| <= (1/m) sum_n
        |u0^(n)| (the Fourier l1 norm, exact for u0 = a sin x) + sup|sigma|
        scale (XI_MAX + shift) sqrt(m) k, as ||S^j||_inf->inf <= sqrt(m)."""
        m = self.grid.m_space
        # the rfft of u0 / m: its sums stay below max |u0|, so finite
        flow = float(rfft_weights(m) @ np.abs(_smooth(self.u0 / m, None, m)))
        noise = (self.sigma.sup * noise_density_scale(self.grid)
                 * (XI_MAX + shift) * math.sqrt(m) * self.grid.k_time)
        bound = BLOWUP_THRESHOLD / 2
        if not flow + noise <= bound:
            # name the keys of each term that is at least half the bound
            keys = [key for term, key in (
                (flow, "u0_amp"), (noise, "sigma, horizon, k_time, m_space"))
                if term >= bound / 2]
            raise ValueError(
                f"{', '.join(keys)}: flow {flow:.3e} + noise {noise:.3e} could "
                f"carry a replica past the certified bound {bound:.0e}")
        return flow + noise

    @property
    def probe_cell(self):
        """Grid cell (k, i) of the probe."""
        return self.grid.index_of(*self.probe)


class _Scheme:
    """The exponential-Euler step of the run `config`: the multiplier S,
    the noise density scale, sigma and the work buffers of fields of shape
    (*batch, m_space), written once for every driver."""

    def __init__(self, config, batch=()):
        grid = config.grid
        self.m = grid.m_space
        self.mult = rfft_multiplier(config.exponent, grid)
        # S is a real circulant, so S^T has the conjugate symbol; S^T != S
        # under drift
        self.mult_t = np.conj(self.mult)
        self.scale = noise_density_scale(grid)
        # a point source as a density against the unit-mass measure: the
        # noise density scale without the cell's sqrt(dt*dx)
        self.point_scale = 1.0 / (grid.dx * math.sqrt(TWO_PI))
        self.sigma = config.sigma
        self.g = np.empty((*batch, self.m))
        self.spec = np.empty((*batch, self.m // 2 + 1), dtype=complex)

    def smooth(self, u, transpose=False, out=None):
        """S u (S^T u if transpose), written into out, by default into u."""
        return _smooth(u, self.mult_t if transpose else self.mult, self.m,
                       u if out is None else out, self.spec)

    def step(self, u, xi_k, w=None):
        """u <- S(u + sigma(w) xi_k scale) in place, w being u unless given
        (Picard's iterate n + 1 takes sigma of iterate n)."""
        g = np.multiply(self.sigma.sigma(u if w is None else w), xi_k,
                        out=self.g)
        g *= self.scale
        g += u
        return self.smooth(g, out=u)

    def tangent(self, u, xi_k):
        """F_k = 1 + sigma'(u_k) xi_k scale, the linearized step's factor."""
        return 1.0 + self.sigma.sigma_prime(u) * xi_k * self.scale

    def block_rows(self, until_k):
        """Time rows of blocks(xi, until_k)'s first, and largest, block."""
        return max(1, min(_ROW_BLOCK_WORDS // self.m, until_k))

    def blocks(self, xi, until_k):
        """xi[:, k0:k1] for consecutive blocks of block_rows(until_k) time
        rows that cover steps 0..until_k-1.  A caller that keeps no block
        holds one at a time."""
        rb = self.block_rows(until_k)
        for k0 in range(0, until_k, rb):
            yield xi[:, k0:min(k0 + rb, until_k)]

    def rows(self, xi, until_k):
        """xi[:, 0], ..., xi[:, until_k - 1] in order, read off blocks().  A
        caller that takes each row with next() and keeps none holds one block
        at a time."""
        for block in self.blocks(xi, until_k):
            for j in range(block.shape[1]):
                yield block[:, j]
            del block  # release the last block before drawing the next


def _evolve_batch(config, xi, until_k, keep_path=False):
    """Drive a batch of replicas from u0 through steps 0..until_k-1 and stop.

    xi is the batch's noise: anything with shape (B, >= until_k, m_space)
    whose xi[:, k0:k1] is the (B, k1-k0, m_space) array of the variates of
    steps k0..k1-1, so an array or a noise._NoiseRows.  Returns (u, path):
    u is the (B, m_space) field at step until_k, path is
    (B, until_k+1, m_space) when keep_path.  An infinite variate makes its
    row non-finite from its step on, warning nothing; the drivers report it.
    """
    b, m = xi.shape[0], config.grid.m_space
    scheme = _Scheme(config, (b,))
    rows = scheme.rows(xi, until_k)
    u = np.broadcast_to(config.u0, (b, m)).copy()
    path = np.empty((b, until_k + 1, m)) if keep_path else None
    if keep_path:
        path[:, 0] = u
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(until_k):
            scheme.step(u, next(rows))
            if keep_path:
                path[:, k + 1] = u
    return u, path


def map_chunks(fn, n_items, chunk, workers=1):
    """fn(lo, hi) over chunks of `chunk` of n_items items, yielded in chunk
    order.  The bounds do not depend on workers, so an in-order fold of the
    results is bit-identical for any worker count.  At most workers + 1
    chunks are ever submitted and not yet read.
    """
    bounds = [(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]
    if workers <= 1 or len(bounds) <= 1:
        yield from (fn(lo, hi) for lo, hi in bounds)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for lo, hi in bounds:
            pending.append(pool.submit(fn, lo, hi))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


# default small-ball quantile levels of the derivative mass
SMALLBALL_LEVELS = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


def check_levels(levels, n):
    """Each level's ranks (j, k) of the distribution-free 95% interval
    [X_(j), X_(k)] of its quantile from n samples: j and k - 1 are the 2.5%
    and 97.5% points of binomial(n, q), the count below it.  Refused: no
    level, a level not in (0, 1), and one whose interval needs X_(n+1)."""
    if not (len(levels) and all(0.0 < q < 1.0 for q in levels)):
        raise ValueError("need at least one quantile level, each in (0, 1), "
                         f"got {list(levels)}")
    i = np.arange(n + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(i[1:]))))
    ranks = []
    for q in levels:
        cdf = np.cumsum(np.exp(log_fact[n] - log_fact[i] - log_fact[n - i]
                               + i * math.log(q) + (n - i) * math.log1p(-q)))
        j, k = np.searchsorted(cdf, (0.025, 0.975)) + (0, 1)
        if k > n:
            raise ValueError(f"level {q:g} has no 95% interval from n = {n} "
                             "samples: the upper end would lie past the largest")
        ranks.append((int(j), int(k)))
    return ranks


@dataclass
class SampleSet:
    """Replica values of one sampled quantity and the one Monte Carlo
    estimator of every mean, variance, stderr and quantile reported."""

    values: np.ndarray

    def __len__(self):
        return len(self.values)

    def mean(self):
        return float(math.fsum(self.values) / len(self))

    def variance(self):
        if len(self) < 2:
            raise ValueError("variance needs at least 2 samples")
        mu = self.mean()
        return float(math.fsum((self.values - mu) ** 2) / (len(self) - 1))

    def sd(self):
        return math.sqrt(self.variance())

    def stderr(self):
        return math.sqrt(self.variance() / len(self))

    def variance_stderr(self):
        """Stderr of variance() from the fourth central moment."""
        var = self.variance()
        m4 = float(np.mean((self.values - self.mean()) ** 4))
        return math.sqrt(max(m4 - var ** 2, 0.0) / len(self))

    def quantile(self, q, lower=-math.inf):
        """(value, lo, hi): np.quantile's q sample quantile and the 95%
        interval [X_(j), X_(k)] of check_levels.  X_(0) is lower, a bound
        no value lies below, such as a derivative mass's certified floor."""
        (j, k), = check_levels([q], len(self))
        order = np.concatenate(([lower], np.sort(self.values)))
        return (float(np.quantile(self.values, q)), float(order[j]),
                float(order[k]))


def _adjoint_rows(config, path, xi):
    """The reverse sweep from config's probe: yields (k, row) for k = k_p -
    1, ..., 0, row being adjoint_gradient's rows[:, k] as a fresh array
    that the sweep keeps no reference to."""
    k_p, i_p = config.probe_cell
    scheme = _Scheme(config, (len(path),))
    lam = np.zeros((len(path), scheme.m))
    lam[:, i_p] = 1.0
    for k in range(k_p - 1, -1, -1):
        scheme.smooth(lam, transpose=True)  # lam <- mu = S^T lam
        yield k, scheme.sigma.sigma(path[:, k]) * scheme.point_scale * lam
        lam *= scheme.tangent(path[:, k], xi[:, k])  # lam <- F_k mu


def adjoint_gradient(config, path, xi):
    """Gradient of u at config's probe (k_p, i_p) in every earlier noise cell.

    path (B, >= k_p, m_space) and xi (B, >= k_p, m_space) are the run's
    trajectories and their variates, one replica per leading index.  Returns
    rows of shape (B, k_p, m_space): rows[b, k, j] is the derivative in the
    variate of cell (k, j) divided by sqrt(dt*dx).
    """
    k_p, _ = config.probe_cell
    rows = np.empty((len(path), k_p, config.grid.m_space))
    for k, row in _adjoint_rows(config, path, xi):
        rows[:, k] = row
    return rows


def linearize(config):
    """The scheme linearized about its flow v0 (its run on zero variates) up
    to the probe step k_p: (flow, rows).  flow is v0's (1, k_p + 1, m_space)
    path and rows the (1, k_p, m_space) adjoint_gradient rows on it,
    sigma(v0_k) times the additive rows.  A constant sigma (lip 0) makes
    the scheme affine, u_p = flow_p + sqrt(dt*dx) sum rows xi, with these
    rows for every replica.
    """
    k_p, _ = config.probe_cell
    zero = np.zeros((1, k_p, config.grid.m_space))
    _, flow = _evolve_batch(config, zero, k_p, keep_path=True)
    return flow, adjoint_gradient(config, flow, zero)


def sample_at_probe(config, read, workers=1, keep_path=False):
    """The sampling loop of every driver: read(u_p, path, xi) off each chunk
    of replicas at the probe step k_p, the chunks joined in replica order.

    Replica r draws noise stream (config.seed, r).  A chunk holds as many
    replicas as fit in _STREAM_CHUNK_WORDS words of field and in
    _STREAM_BLOCK_CHUNK_WORDS of noise block (2 MiB) if stepped, in
    _WIENER_CHUNK_WORDS of noise block if summed as a Wiener integral, or
    in _PATH_CHUNK_WORDS of path if keep_path (the chunk then holds its
    path and its variates, about twice that, and read should add no array
    of their size), and at least one; the replicas are spread evenly over
    as few chunks, so no tail chunk costs a whole pass for a replica or
    two, and the bounds do not depend on workers.
    read gets the chunk's (B,) values u_p at the probe and, if keep_path,
    its (B, k_p + 1, m_space) path and (B, k_p, m_space) variates (else
    None and its _NoiseRows); it returns a tuple of arrays with one row per
    replica.  Returns one SampleSet per array, of every replica: the
    config's certificate keeps every replica with finite variates finite,
    and a non-finite u_p raises BlowUpError for the first such replica.

    A constant sigma (lip 0), without keep_path, takes each u_p as the
    Wiener integral flow + sum w xi, one elementwise product and row sum
    per noise block, so its bits depend on the block's rows, not on the
    chunk.  It holds one noise block at a time, and the weights, k_p
    m_space words, once.  Every other run is stepped.
    """
    grid = config.grid
    k_p, i_p = config.probe_cell
    wiener = config.sigma.lip == 0 and not keep_path
    scheme = _Scheme(config)
    # the time rows of one noise block, as the block reader cuts them
    rows = scheme.block_rows(k_p)
    if wiener:
        flow, weights = linearize(config)
        flow = flow[0, k_p, i_p]  # drop the path
        weights *= math.sqrt(grid.dt * grid.dx)
        fit = _WIENER_CHUNK_WORDS // (rows * grid.m_space)
    elif keep_path:
        fit = _PATH_CHUNK_WORDS // ((k_p + 1) * grid.m_space)
    else:
        fit = min(_STREAM_CHUNK_WORDS // grid.m_space,
                  _STREAM_BLOCK_CHUNK_WORDS // (rows * grid.m_space))
    fit = max(1, fit)
    chunk = math.ceil(config.replicas / math.ceil(config.replicas / fit))

    def one_chunk(lo, hi):
        xi = _NoiseRows(grid, config.seed, range(lo, hi))
        if keep_path:  # read needs the variates of the path: draw them once
            xi = xi[:, :k_p]
        if wiener:
            u_p, path, k0 = np.full(hi - lo, flow), None, 0
            # the blocks alone: a zip would hold one while drawing the next
            for block in scheme.blocks(xi, k_p):
                block *= weights[:, k0:k0 + rows]  # this chunk's own draw
                u_p += block.reshape(hi - lo, -1).sum(axis=1)
                k0 += rows
                del block  # release it before drawing the next
        else:
            u, path = _evolve_batch(config, xi, k_p, keep_path)
            # a copy: a view of the probe column would keep all of u alive
            u_p = u[:, i_p].copy()
        bad = np.flatnonzero(~np.isfinite(u_p))
        if len(bad):
            raise BlowUpError(lo + int(bad[0]))
        return read(u_p, path, xi)

    parts = map_chunks(one_chunk, config.replicas, chunk, workers)
    return tuple(SampleSet(np.concatenate(column)) for column in zip(*parts))


def solve_path(config, replica=0):
    """Full (k_time+1, m_space) trajectory of replica `replica`, driven by
    noise stream (config.seed, replica).  A non-finite field raises
    BlowUpError."""
    u, path = _evolve_batch(
        config, _NoiseRows(config.grid, config.seed, (replica,)),
        config.grid.k_time, keep_path=True)
    if not np.all(np.isfinite(u)):
        raise BlowUpError(replica)
    return path[0]


# ---------------------------------------------------------------------------
# additive-case variance target


def additive_variance_exact(exp_, grid):
    """Exact variance of the scheme's additive solution at the horizon.

    The increment injected at step k is smoothed for the remaining K-k
    steps: a geometric sum per band-limited mode, which isolates Monte Carlo
    error in tests.
    """
    rho_sq = np.abs(rfft_multiplier(exp_, grid)) ** 2
    weights = rfft_weights(grid.m_space)
    k = grid.k_time
    total = 0.0
    for w, r in zip(weights, rho_sq):
        if r >= 1.0:
            total += w * k
        else:
            total += w * r * (1.0 - r ** k) / (1.0 - r)
    return grid.dt * total / FOUR_PI_SQ


# ---------------------------------------------------------------------------
# Picard iteration


@dataclass
class PicardReport:
    """Successive-difference norms of the Picard iterates.

    norms[n] is ||v_{n+1} - v_n|| in the weighted norm, ratios the successive
    quotients; contracting flags whether every ratio stayed below one (a
    failed flag usually means beta_param is too small for the coefficient).
    """

    norms: np.ndarray
    stderrs: np.ndarray
    ratios: np.ndarray
    contracting: bool


# fixed: the moment sums are folded per chunk, so their bits depend on it
PICARD_CHUNK = 128


def check_moment_order(p):
    """Refuse a moment order p other than 2 <= p < inf, the orders that
    picard_sequence's weighted norm and the negative moment take."""
    if not 2 <= p < math.inf:
        raise ValueError(f"need p >= 2 and finite, got {p!r}")


def check_picard_weight(beta_param, dt):
    """Refuse a weight other than 0 <= beta_param < inf, and one whose
    e^(-beta_param t) is not a normal float at the first step t = dt: every
    difference is 0 at t = 0, so the norm would weigh nothing and read 0."""
    if not 0 <= beta_param < math.inf:
        raise ValueError("need beta_param >= 0 and finite")
    if not math.exp(-beta_param * dt) >= np.finfo(float).tiny:
        raise ValueError(
            f"need beta_param dt <= {-math.log(np.finfo(float).tiny):.3f}, "
            f"got {beta_param * dt:.6g}: e^(-beta_param t) is not a normal "
            "float at any t > 0")


def picard_sequence(config, n_max, beta_param, p=2, workers=1):
    """Successive Picard iterates against frozen noise paths.

    v_0 is the deterministic flow of u0; v_{n+1} re-runs the stochastic
    convolution with integrand sigma(v_n) on the same noise.  Expectations are
    replica averages; the report carries the weighted norms of the successive
    differences, their Monte Carlo standard errors (delta method at the
    argmax probe), and the contraction ratios.  The weighted norm is
    sup_{t, x} (e^{-beta_param t} E|f(t, x)|^p)^(1/p): p >= 2 and
    beta_param >= 0 (check_picard_weight), and beta_param = 0 gives the
    plain sup-L^p norm.  A non-finite iterate raises BlowUpError for the
    first such replica.
    """
    if n_max < 2:  # one difference has no ratio for contracting to judge
        raise ValueError("need n_max >= 2")
    check_moment_order(p)
    check_picard_weight(beta_param, config.grid.dt)
    grid = config.grid
    r_total = config.replicas
    m, k_time = grid.m_space, grid.k_time
    # the flow of u0 to the horizon, read off the one linearization
    (flow,), _ = linearize(replace(config, probe=(grid.horizon, 0.0)))

    def one_chunk(lo, hi):
        # iterate n at step k is flow[k] + conv[n], conv[0] = 0; iterate
        # n + 1 needs iterate n only at step k, so all of them advance
        # together.  v_{n+1} - v_n = conv[n+1] - conv[n]: the flow cancels
        # exactly, whatever the size of u0
        scheme = _Scheme(config, (n_max, hi - lo))
        rows = scheme.rows(_NoiseRows(grid, config.seed, range(lo, hi)), k_time)
        conv = np.zeros((n_max + 1, hi - lo, m))
        moments = np.zeros((2, n_max, k_time + 1, m))
        mom, mom_sq = moments
        # an infinite variate gives a non-finite norm, warning nothing; a
        # moment that under- or overflows raises FloatingPointError
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(k_time):
                scheme.step(conv[1:], next(rows), flow[k] + conv[:-1])
                with np.errstate(under="raise", over="raise"):
                    d = np.abs(conv[1:] - conv[:-1]) ** p
                    mom[:, k + 1] = d.sum(axis=1)
                    mom_sq[:, k + 1] = (d * d).sum(axis=1)
        # an infinite variate leaves its replica's last iterates non-finite
        bad = np.flatnonzero(~np.isfinite(conv).all(axis=(0, 2)))
        if len(bad):
            raise BlowUpError(lo + int(bad[0]))
        return moments

    # a left fold in chunk order, the same for every worker count; map_chunks
    # keeps at most workers + 1 chunks' moments unread
    moments = sum(map_chunks(one_chunk, r_total, PICARD_CHUNK, workers))
    mom, mom_sq = moments / r_total

    t_weights = np.exp(-beta_param * grid.t_points())[:, None]
    norms = np.empty(n_max)
    stderrs = np.empty(n_max)
    for n in range(n_max):
        weighted = t_weights * mom[n]
        flat = int(np.argmax(weighted))
        k_star, i_star = np.unravel_index(flat, weighted.shape)
        norms[n] = weighted[k_star, i_star] ** (1.0 / p)
        m1 = mom[n][k_star, i_star]
        var_m = max(mom_sq[n][k_star, i_star] - m1 * m1, 0.0)
        se_m = math.sqrt(var_m / r_total)
        stderrs[n] = norms[n] * se_m / (p * m1) if m1 > 0 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(norms[:-1] > 0, norms[1:] / norms[:-1], 0.0)
    return PicardReport(
        norms=norms, stderrs=stderrs, ratios=ratios,
        contracting=bool(np.all(ratios < 1.0)),
    )
