"""Output checks for every benchmark child, made after it has exited.

Two kinds of check:

- pinned references (ensemble, hnorm): the rows written at the seed commit
  for seeds 0..31, in refs.json.  Values must agree to RTOL relative, which
  admits reordered sums but not changed math.
- oracles, on every seed: closed-form or exact bounds that hold whatever the
  noise (see each function).

Density smoothness flags, sign-change counts and the negative-moment
reliable flag are not checked: they are diagnostics expected to change.
"""

import csv
import json
import math
from pathlib import Path

RTOL = 1e-9
REFS_PATH = Path(__file__).resolve().parent / "refs.json"
BANDWIDTH_REL_TOL = 0.03  # Silverman bandwidth vs the exact variance
INTEGRAL_TOL = 1e-3
SLOPE_TOL = 1e-4
LIMIT_TOL = 1e-5  # small-t limit of the scaled kernel norm
Z_MAX = 6.0  # Monte Carlo tolerance, in standard errors


def parse_rows(data):
    """Rows of a levyheat CSV data file, as quantity -> list of rows."""
    lines = [ln for ln in data.decode("utf-8").splitlines()
             if not ln.startswith("#")]
    rows = {}
    for row in csv.DictReader(lines):
        rows.setdefault(row["quantity"], []).append(row)
    return rows


def load_refs():
    return json.loads(REFS_PATH.read_text(encoding="utf-8"))


def check(workload, settings, seed, rows, refs):
    """Problems found in one child's rows; an empty list means it passed."""
    problems = []
    oracle = ORACLES[workload]
    try:
        oracle(settings, rows, problems)
    except (KeyError, ValueError) as err:
        problems.append(f"missing or malformed row: {err}")
    pinned = refs.get(workload)
    if pinned is not None:
        if pinned["settings"] != settings:
            raise ValueError(f"refs.json for {workload} was pinned with other "
                             "settings; regenerate it with pin_refs.py")
        expected = pinned["seeds"].get(str(seed))
        if expected is not None:
            problems += _compare(rows, expected)
    return problems


def reference_rows(rows):
    """The part of rows that refs.json pins: quantity -> [count, value, stderr]."""
    return {q: [int(r["replica_count"]), float(r["value"]), float(r["stderr"])]
            for q, r in ((q, _row(rows, q)) for q in sorted(rows))}


def _compare(rows, expected):
    problems = []
    for quantity, (count, value, stderr) in expected.items():
        if len(rows.get(quantity, ())) != 1:
            problems.append(f"{quantity}: not exactly one row")
            continue
        row = rows[quantity][0]
        if int(row["replica_count"]) != count:
            problems.append(f"{quantity}: replica_count {row['replica_count']} "
                            f"!= pinned {count}")
        scale = max(abs(value), abs(stderr))
        for col, want in (("value", value), ("stderr", stderr)):
            got = float(row[col])
            if abs(got - want) > RTOL * scale:
                problems.append(f"{quantity}: {col} {got!r} != pinned {want!r}")
    return problems


def _row(rows, quantity):
    found = rows[quantity]
    if len(found) != 1:
        raise ValueError(f"{len(found)} rows of {quantity}")
    return found[0]


def _value(rows, quantity):
    return float(_row(rows, quantity)["value"])


def _expect(problems, ok, message):
    if not ok:
        problems.append(message)


def additive_variance(m_space, k_time, horizon, alpha):
    """Exact variance of the scheme's additive solution, sigma = 1, with
    phi(n) = |n|^alpha: per rfft mode a geometric sum of the squared
    one-step multiplier exp(-dt phi(n)), weighted by its conjugate pair."""
    dt = horizon / k_time
    total = 0.0
    for n in range(m_space // 2 + 1):
        weight = 1.0 if n == 0 or 2 * n == m_space else 2.0
        rho_sq = math.exp(-2.0 * dt * n ** alpha)
        if rho_sq >= 1.0:
            total += weight * k_time
        else:
            total += weight * rho_sq * (1.0 - rho_sq ** k_time) / (1.0 - rho_sq)
    return dt * total / (4.0 * math.pi ** 2)


def _grid_variance(settings):
    return additive_variance(int(settings["m_space"]), int(settings["k_time"]),
                             float(settings.get("horizon", 0.5)),
                             float(settings.get("alpha", 2.0)))


def _ensemble(settings, rows, problems):
    # u0 = 0: E u = 0 exactly, since each noise row is independent of the
    # state it multiplies; sigma = 2 + sin u in [1, 3] puts Var u between
    # 1 and 9 times the additive variance
    replicas = int(settings["replicas"])
    mean = _row(rows, "u_mean")
    var = _row(rows, "u_var")
    _expect(problems, _value(rows, "u_blowups") == 0, "blow-ups reported")
    _expect(problems, int(mean["replica_count"]) == replicas,
            f"replica_count {mean['replica_count']} != {replicas}")
    _expect(problems, abs(float(mean["value"])) <= Z_MAX * float(mean["stderr"]),
            f"u_mean {mean['value']} not within {Z_MAX} stderr of 0")
    v_add = _grid_variance(settings)
    v, se = float(var["value"]), float(var["stderr"])
    _expect(problems, v + Z_MAX * se >= v_add and v - Z_MAX * se <= 9.0 * v_add,
            f"u_var {v} outside [1, 9] x additive variance {v_add}")


def _hnorm(settings, rows, problems):
    # tails are sub-windows of the full mass; the replica average of 1/mass
    # is at least 1/(average mass) (AM-HM), exactly, on the same samples
    replicas = int(settings["replicas"])
    mean_row = _row(rows, "hnorm_mean")
    mass = float(mean_row["value"])
    _expect(problems, int(mean_row["replica_count"]) == replicas,
            f"replica_count {mean_row['replica_count']} != {replicas}")
    deltas = sorted(float(d) for d in settings["deltas"].split(","))
    tails = [_value(rows, f"hnorm_tail_mean/delta={d:.6e}") for d in deltas]
    _expect(problems, 0.0 < tails[0] and all(
        a <= b for a, b in zip(tails, tails[1:] + [mass])),
        f"tail means {tails} not increasing up to the mass {mass}")
    moments = [q for q in rows if q.startswith("negative_moment/")]
    _expect(problems, len(moments) == 1, f"negative moment rows: {moments}")
    for q in moments:
        _expect(problems, _value(rows, q) >= (1.0 - RTOL) / mass,
                f"{q} below 1/hnorm_mean")


def _density(settings, rows, problems):
    # sigma = 1: u(T, x) is Gaussian with the exact additive variance, so
    # the Silverman rule 0.9 sd n^(-1/5) is known up to sampling error
    n = int(_row(rows, "density_bandwidth")["replica_count"])
    _expect(problems, n == int(settings["replicas"]),
            f"replica_count {n} != {settings['replicas']}")
    h_exact = 0.9 * math.sqrt(_grid_variance(settings)) * n ** -0.2
    h = _value(rows, "density_bandwidth")
    _expect(problems, abs(h / h_exact - 1.0) <= BANDWIDTH_REL_TOL,
            f"density_bandwidth {h} vs Silverman on exact variance {h_exact}")
    integral = _value(rows, "density_integral")
    _expect(problems, abs(integral - 1.0) <= INTEGRAL_TOL,
            f"density_integral {integral} not 1")


def _series(settings, rows, problems):
    # phi(n) = |n|^alpha: ||q_t||^2 = (1/4pi^2) sum_n exp(-2t|n|^alpha), so
    # t^(1/alpha) ||q_t||^2 -> 2^(-1/alpha) Gamma(1 + 1/alpha) / (2pi^2)
    # as t -> 0 (within 1e-6 relative on this grid); the Laplace mass bounds
    # the weighted running integral
    alpha = float(settings["alpha"])
    slope = _value(rows, "kernel_norm_slope")
    _expect(problems, abs(slope + 1.0 / alpha) <= SLOPE_TOL,
            f"kernel_norm_slope {slope} != -1/alpha")
    limit = 2.0 ** (-1.0 / alpha) * math.gamma(1.0 + 1.0 / alpha) / (
        2.0 * math.pi ** 2)
    scaled = [float(r["value"]) for r in rows["kernel_l2_norm_sq_scaled_alpha"]]
    _expect(problems, len(scaled) == int(settings["t_points"]) and all(
        abs(v / limit - 1.0) <= LIMIT_TOL for v in scaled),
        f"t^(1/alpha) ||q_t||^2 {scaled} not at its limit {limit}")
    sup = _value(rows, "sup_weighted_cumulative")
    laplace = _value(rows, "kernel_l2_laplace")
    _expect(problems, sup <= laplace * (1.0 + RTOL),
            f"sup_weighted_cumulative {sup} > kernel_l2_laplace {laplace}")


ORACLES = {
    "ensemble": _ensemble,
    "hnorm": _hnorm,
    "density": _density,
    "series": _series,
}
