"""Ensemble driving, kernel density estimation, output rows and file output.

Everything here is deterministic in (config, seed): replica r always draws
noise stream (seed, r), chunk boundaries are fixed regardless of worker
count, and scalar reductions use compensated summation, so emitted files are
byte-identical across reruns and across worker counts.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .noise import _NoiseRows
from .solver import _drop_blowups, _evolve_batch
from ._parallel import map_chunks

ENSEMBLE_CHUNK = 256
KDE_BLOCK = 8  # grid points per block of the kde sum

CSV_SCHEMA = "levyheat csv schema v1"
CSV_COLUMNS = ("run_id", "seed", "replica_count", "alpha", "beta",
               "t", "x", "quantity", "value", "stderr", "tail_bound")
_INT_COLUMNS = {"seed", "replica_count"}
_STR_COLUMNS = {"run_id", "quantity"}


def make_row(run_id, seed, alpha, beta, quantity, value, stderr=0.0,
             tail_bound=0.0, t=0.0, x=0.0, replica_count=0):
    """One output row: a dict keyed by CSV_COLUMNS."""
    return dict(zip(CSV_COLUMNS, (run_id, seed, replica_count, alpha, beta,
                                  t, x, quantity, value, stderr, tail_bound)))


class DegenerateSamplesError(ValueError):
    """Zero-variance samples: the law is a point mass, no density estimate."""

    def __init__(self, value, count):
        self.value = value
        self.count = count
        super().__init__(
            f"samples are a point mass at {value!r} ({count} replicas); "
            "no density estimate"
        )


@dataclass
class SampleSet:
    """Replica values of u(t, x) at the run's probe, blow-up rows excluded.

    blowups lists the excluded replicas as (replica, step, magnitude).
    """

    values: np.ndarray
    blowups: list = field(default_factory=list)

    @property
    def count(self):
        return len(self.values)

    def mean(self):
        return float(math.fsum(self.values) / self.count)

    def variance(self):
        if self.count < 2:
            raise ValueError("variance needs at least 2 samples")
        mu = self.mean()
        return float(math.fsum((self.values - mu) ** 2) / (self.count - 1))

    def stderr(self):
        return math.sqrt(self.variance() / self.count)


def run_ensemble(config, workers=1):
    """Samples of u at the configured probe, from independent replica paths.

    Replica r uses noise stream (config.seed, r), stepped up to the probe
    step only.  Replicas blown up by then are dropped from the values but
    reported in blowups; dropping them silently is not an option since
    they bias every statistic.
    """
    grid = config.grid
    k_p, i_p = config.probe_cell

    def one_chunk(lo, hi):
        xi = _NoiseRows(grid, config.seed, range(lo, hi))
        u, _, blowups = _evolve_batch(config.u0, xi, config.exponent,
                                      config.sigma, grid, k_p)
        # a copy: a view of the probe column would keep all of u alive
        (values,), blowups = _drop_blowups(lo, blowups, u[:, i_p].copy())
        return values, blowups

    parts = map_chunks(one_chunk, config.replicas, ENSEMBLE_CHUNK, workers)
    return SampleSet(values=np.concatenate([p[0] for p in parts]),
                     blowups=[b for p in parts for b in p[1]])


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


def kde(samples, bandwidth=None):
    """Gaussian kernel density estimate with derivative tables.

    The grid is 512 points spanning the samples and 4 bandwidths beyond them
    on each side.  bandwidth defaults to the Silverman rule (recorded in metadata either
    way).  Zero-variance samples have no density; they raise
    DegenerateSamplesError carrying the point-mass location.
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
    if bandwidth <= 0:
        raise ValueError("need bandwidth > 0")
    lo = samples.min() - 4.0 * bandwidth
    hi = samples.max() + 4.0 * bandwidth
    points = np.linspace(lo, hi, 512)
    # the direct sum over blocks of grid points, on two reused buffers;
    # each element and each row mean is the one of the whole (512, n) matrix
    dens = np.empty(len(points))
    z = np.empty((KDE_BLOCK, len(samples)))
    e = np.empty_like(z)
    for start in range(0, len(points), KDE_BLOCK):
        block = points[start:start + KDE_BLOCK, None]
        zb, eb = z[:len(block)], e[:len(block)]
        np.subtract(block, samples, out=zb)
        zb /= bandwidth
        np.multiply(zb, -0.5, out=eb)
        eb *= zb
        np.exp(eb, out=eb)
        eb.mean(axis=1, out=dens[start:start + KDE_BLOCK])
    dens /= bandwidth * math.sqrt(2 * math.pi)
    d1 = np.gradient(dens, points)
    d2 = np.gradient(d1, points)
    return DensityEstimate(
        points=points, density=dens, bandwidth=float(bandwidth),
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


def _format_cell(column, value):
    if value is None:
        return ""
    if column in _STR_COLUMNS:
        return str(value)
    if column in _INT_COLUMNS:
        return str(int(value))
    return format(float(value), ".17g")


def _coerce(column, value):
    if value is None:
        return None
    if column in _STR_COLUMNS:
        return str(value)
    if column in _INT_COLUMNS:
        return int(value)
    return float(value)


def _normalize_rows(rows):
    out = []
    for row in rows:
        extra = set(row) - set(CSV_COLUMNS)
        missing = set(CSV_COLUMNS) - set(row)
        if extra:
            raise ValueError(f"unknown row fields: {sorted(extra)}")
        if missing:
            raise ValueError(f"missing row fields: {sorted(missing)}")
        out.append({c: _coerce(c, row[c]) for c in CSV_COLUMNS})
    out.sort(key=lambda r: (r["quantity"], r["t"], r["x"]))
    return out


def emit(rows, fmt, path):
    """Write rows to path as CSV or JSON, deterministically.

    Fixed column set, rows sorted by (quantity, t, x), UTF-8, LF line ends,
    17-significant-digit floats; reruns of the same rows are byte-identical.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    rows = _normalize_rows(rows)
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# {CSV_SCHEMA}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(c, row[c]) for c in CSV_COLUMNS])
        payload = buf.getvalue()
    else:
        payload = json.dumps({"schema": CSV_SCHEMA, "rows": rows},
                             sort_keys=True, indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err
    return path


def load_rows(path):
    """Read back a file written by emit, as a list of row dicts."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return json.loads(text)["rows"]
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    rows = []
    for raw in reader:
        row = {}
        for col in CSV_COLUMNS:
            cell = raw[col]
            if cell == "":
                row[col] = None
            elif col in _STR_COLUMNS:
                row[col] = cell
            elif col in _INT_COLUMNS:
                row[col] = int(cell)
            else:
                row[col] = float(cell)
        rows.append(row)
    return rows
