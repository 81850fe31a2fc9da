"""Ensemble driving, kernel density estimation, output rows and file output.

Everything here is deterministic in (config, seed): replica r always draws
noise stream (seed, r) (solver.sample_at_probe), and every reduction runs
over fixed chunk bounds in a fixed order, so emitted files are
byte-identical across reruns and across worker counts.

The density estimate bins the samples linearly and convolves once with the
Gaussian's transform (Silverman, AS 176; Wand 1994), in O(n + B log B) time
for B bins of width delta; each value is within delta^2 / (8 sqrt(2 pi) h^3)
of the direct kernel sum at bandwidth h, and B is capped at KDE_MAX_BINS.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .solver import _smooth, sample_at_probe

KDE_MAX_BINS = 2 ** 20  # largest bin grid kde convolves

CSV_SCHEMA = "levyheat csv schema v1"
CSV_COLUMNS = ("run_id", "seed", "replica_count", "alpha", "beta",
               "t", "x", "quantity", "value", "stderr", "tail_bound")
# the type of each column's cells; every other column holds floats
_COLUMN_TYPES = {"run_id": str, "seed": int, "replica_count": int,
                 "quantity": str}


def make_row(run_id, seed, alpha, beta, quantity, value, stderr=0.0,
             tail_bound=0.0, t=0.0, x=0.0, replica_count=0):
    """One output row: a dict keyed by CSV_COLUMNS, each cell cast to its
    column's type."""
    cells = (run_id, seed, replica_count, alpha, beta, t, x, quantity, value,
             stderr, tail_bound)
    return {col: _COLUMN_TYPES.get(col, float)(cell)
            for col, cell in zip(CSV_COLUMNS, cells)}


class DegenerateSamplesError(ValueError):
    """Zero-variance samples: the law is a point mass, no density estimate."""

    def __init__(self, value, count):
        self.value = value
        self.count = count
        super().__init__(
            f"samples are a point mass at {value!r} ({count} replicas); "
            "no density estimate"
        )


def run_ensemble(config, workers=1):
    """The SampleSet of u at the probe, one value per replica path; a
    replica that is not finite there raises BlowUpError (sample_at_probe)."""
    return sample_at_probe(config, lambda u_p, path, xi: (u_p,), workers)[0]


@dataclass
class DensityEstimate:
    """Gaussian-kernel density on a fixed grid with finite-difference tables."""

    points: np.ndarray
    density: np.ndarray
    bandwidth: float
    d1: np.ndarray
    d2: np.ndarray
    metadata: dict = field(default_factory=dict)

    def integral(self):
        dx = np.diff(self.points)
        return float(np.sum(0.5 * dx * (self.density[1:] + self.density[:-1])))

    def cdf(self):
        """Cumulative trapezoid of the density along the grid."""
        dx = np.diff(self.points)
        inc = 0.5 * dx * (self.density[1:] + self.density[:-1])
        return np.concatenate([[0.0], np.cumsum(inc)])


def silverman_bandwidth(samples):
    """0.9 min(sd, iqr/1.34) n^(-1/5), the standard rule of thumb."""
    n = len(samples)
    sd = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * n ** (-0.2)


def _check_bandwidth(bandwidth, span=0.0):
    """Refuse a bandwidth other than 0 < h < inf, and one too large for
    kde's 512-point grid over samples that span `span`: np.gradient squares
    the grid's spacing (span + 8 h) / 511, and twice the spacing, the width
    of its central stencil, squared must be finite."""
    if not 0 < bandwidth < math.inf:
        raise ValueError(f"need bandwidth > 0 and finite, got {bandwidth!r}")
    width = 2.0 * (span + 8.0 * bandwidth) / 511
    if not width * width < math.inf:
        raise ValueError(
            f"bandwidth {bandwidth!r} is too large: np.gradient cannot square "
            f"twice the {width / 2:.3g} spacing of its 512-point grid")


def kde(samples, bandwidth=None):
    """Gaussian kernel density estimate with derivative tables.

    The grid is 512 points spanning the samples and 4 bandwidths beyond them
    on each side.  bandwidth defaults to the Silverman rule (recorded in
    metadata either way) and must otherwise be positive and finite; one
    whose grid spacing np.gradient cannot square is refused.
    Zero-variance samples have no density; they raise
    DegenerateSamplesError carrying the point-mass location.

    The samples are binned linearly onto the grid refined r = max(16,
    ceil(4 step / h)) times, bin width delta <= h / 4, and convolved once
    with the Gaussian's exact transform through solver._smooth; the grid
    keeps every r-th bin.  Binning replaces each kernel by its linear
    interpolant, so each value is within delta^2 / (8 sqrt(2 pi) h^3) of
    the direct sum (1/n) sum_j K_h(x - s_j).  At least 40 h of empty bins
    keep the circular convolution from wrapping, and the transform's
    aliasing is below 1e-30.  A bandwidth whose bin grid, rounded up to a
    power of two, exceeds KDE_MAX_BINS is refused.  d1 and d2 are
    np.gradient of the density.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or len(samples) < 2:
        raise ValueError("need a 1-d array of at least 2 samples")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    if np.all(samples == samples[0]):
        raise DegenerateSamplesError(float(samples[0]), len(samples))
    if bandwidth is None:
        rule = "silverman"
        bandwidth = silverman_bandwidth(samples)
    else:
        rule = "explicit"
    bandwidth = float(bandwidth)
    _check_bandwidth(bandwidth, float(samples.max()) - float(samples.min()))
    lo = samples.min() - 4.0 * bandwidth
    hi = samples.max() + 4.0 * bandwidth
    points = np.linspace(lo, hi, 512)
    step = float(hi - lo) / 511
    # r is clamped so that a tiny bandwidth reaches the check below
    r = max(16, math.ceil(min(4.0 * step / bandwidth, KDE_MAX_BINS)))
    delta = step / r
    last = 511 * r  # the bin of the last grid point
    bins = 1 << (last + math.ceil(40.0 * bandwidth / delta)).bit_length()
    if bins > KDE_MAX_BINS:
        raise ValueError(
            f"bandwidth {bandwidth!r} is too small for a {hi - lo:.6g} wide "
            f"grid: it needs more than {KDE_MAX_BINS} bins")
    # sample s at t = (s - lo) / delta puts 1 - w on bin k = floor(t) and w
    # on bin k + 1, w = t - k
    t = samples - lo
    t /= delta
    k = t.astype(np.intp)  # t > 0, so this is floor(t)
    t -= k
    upper = np.bincount(k, weights=t, minlength=bins)
    binned = np.bincount(k, minlength=bins) - upper
    binned[1:] += upper[:-1]
    freq = np.arange(bins // 2 + 1) / (bins * delta)
    mult = np.exp(-2.0 * (math.pi * bandwidth * freq) ** 2)
    mult /= len(samples) * delta
    # roundoff can leave the far tails a hair below 0
    dens = np.maximum(_smooth(binned, mult, bins)[:last + 1:r], 0.0)
    d1 = np.gradient(dens, points)
    d2 = np.gradient(d1, points)
    return DensityEstimate(
        points=points, density=dens, bandwidth=bandwidth,
        d1=d1, d2=d2,
        metadata={"bandwidth_rule": rule, "samples": len(samples)},
    )


@dataclass
class SmoothnessReport:
    """Derivative magnitudes of the density over its central 95% mass."""

    bulk: tuple
    max_d1: float
    max_d2: float
    d2_sign_changes: int
    under_smoothed: bool


def smoothness_report(estimate):
    """Max |d1| and |d2| over the bulk, plus an oscillation flag.

    The bulk is the central 95% mass window.  A smooth unimodal density has
    exactly two sign changes of d2 (inflection points); more than two, after
    masking |d2| below 1e-3 of its peak to keep flat tails from flickering,
    means the bandwidth is too small for the sample size.
    """
    cdf = estimate.cdf()
    total = cdf[-1]
    if total <= 0:
        raise ValueError("estimate carries no mass")
    lo = float(np.interp(0.025 * total, cdf, estimate.points))
    hi = float(np.interp(0.975 * total, cdf, estimate.points))
    mask = (estimate.points >= lo) & (estimate.points <= hi)
    d1 = estimate.d1[mask]
    d2 = estimate.d2[mask]
    max_d2 = float(np.max(np.abs(d2)))
    sig = d2[np.abs(d2) > 1e-3 * max_d2]
    signs = np.sign(sig)
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    return SmoothnessReport(
        bulk=(lo, hi),
        max_d1=float(np.max(np.abs(d1))),
        max_d2=max_d2,
        d2_sign_changes=changes,
        under_smoothed=bool(changes > 2),
    )


# ---------------------------------------------------------------------------
# serialization


def emit(rows, path):
    """Write make_row's rows to path as CSV, deterministically.

    Fixed column set, rows sorted by (quantity, t, x), UTF-8, LF line ends,
    17-significant-digit floats; reruns of the same rows are byte-identical.
    """
    buf = io.StringIO()
    buf.write(f"# {CSV_SCHEMA}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in sorted(rows, key=lambda r: (r["quantity"], r["t"], r["x"])):
        writer.writerow([format(row[c], ".17g") if isinstance(row[c], float)
                         else row[c] for c in CSV_COLUMNS])
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(buf.getvalue())
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err
    return path


def load_rows(path):
    """Read back a file written by emit, as make_row's rows."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [make_row(**raw) for raw in csv.DictReader(lines)]
