"""Command line entry point.

One executable, one subcommand per experiment.  Every run writes each value
as a row of a CSV data file of fixed schema, plus a metadata record of the
run alone (subcommand, run id, effective configuration, RNG scheme,
version), so any output can be reproduced from its metadata alone.
Exit codes: 0 success, 1 configuration error, 2 numerical failure, 3 I/O
error.  The rows each subcommand writes (quantity names and the columns
they fill) are decided here alone; library results carry only what they
compute, and a row carries no config value, only its run id.

    levyheat <subcommand> [--config FILE] [--set KEY=VALUE ...] [--seed N]
             [--out DIR] [--workers N]

Configuration comes from a flat key=value file; --set overrides single keys
and --seed the seed key: config file < --set < --seed.  A subcommand takes
only the keys that can change one of its values (COMMANDS) and refuses any
other.  effective_config works out each value once: a sentinel 0 becomes
the value it stands for, a comma list takes one spelling, and a key that
changes nothing at the others' values is dropped.  The run id hashes the
subcommand, those values and the version alone, so one computation has one
id however its values were given.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .kernels import (
    DEFAULT_SERIES_TOL,
    SeriesToleranceError,
    check_exponent_condition,
    field_from_function,
    make_power_exponent,
    verify_kernel_bounds,
)
from .noise import RNG_SCHEME, GridSpec
from .solver import (SMALLBALL_LEVELS, BlowUpError, RunConfig, check_levels,
                     check_moment_order, check_picard_weight, get_sigma,
                     picard_sequence)
from .malliavin import (
    certified_floor,
    check_floor,
    check_windows,
    hnorm_samples,
    negative_moment_estimate,
)
from .mcstats import (
    DegenerateSamplesError,
    emit,
    kde,
    make_row,
    run_ensemble,
    smoothness_report,
)


class ConfigError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


def _float_list(raw):
    """A comma list of floats in its one spelling: reprs, sorted, joined."""
    values = sorted(float(tok) for tok in raw.split(",") if tok.strip())
    return ",".join(map(repr, values))


# every key the config file and --set accept, with type, default, and help;
# 0 on one of the SENTINELS stands for the value of the key it names
SCHEMA = {
    "alpha": (float, 2.0, "lower power of the exponent envelope"),
    "beta": (float, 0.0, "check-exponent: upper power of the exponent "
             "envelope; 0 records alpha, negative is refused"),
    "scale": (float, 1.0, "coefficient of re phi(n) = scale |n|^alpha"),
    "drift": (float, 0.0, "imaginary drift: phi(n) += i drift n"),
    "m_space": (int, 64, "spatial grid points"),
    "k_time": (int, 64, "time steps"),
    "horizon": (float, 0.5, "final time"),
    "sigma": (str, "shifted_sine", "noise coefficient: zero|one|two|shifted_sine"),
    "u0": (str, "zero", "initial field shape: zero|sin|cos"),
    "u0_amp": (float, 1.0, "initial field amplitude"),
    "seed": (int, 0, "base RNG seed; replica r uses stream (seed, r)"),
    "replicas": (int, 256, "Monte Carlo replicas"),
    "probe_t": (float, 0.0, "probe time; 0 records horizon, < 0 is refused"),
    "probe_x": (float, 0.0, "probe point in [0, 2pi)"),
    "t_min": (float, 1e-5, "kernel: smallest time on the scaling grid"),
    "t_max": (float, 1e-3, "kernel: largest time on the scaling grid"),
    "t_points": (int, 9, "kernel: number of grid times"),
    "picard_n": (int, 6, "picard: number of successive differences"),
    "picard_beta": (float, 64.0, "exponential weight of the iteration norm"),
    "moment_p": (float, 2.0, "moment order for picard and negative moments"),
    "levels": (_float_list, _float_list(",".join(map(str, SMALLBALL_LEVELS))),
               "small-ball quantile levels in (0, 1), recorded sorted"),
    "deltas": (_float_list, "", "derivative tail windows, recorded sorted"),
    "floor": (float, 1e-8, "negative-moment regularization floor"),
    "tol": (float, DEFAULT_SERIES_TOL, "series tolerance: each certified "
            "error, every rounding counted, is at most tol max(1, L), L a "
            "lower bound of the value"),
}
SENTINELS = {"beta": "alpha", "probe_t": "horizon"}


def _parse_value(key, raw):
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    ctor = SCHEMA[key][0]
    try:
        value = ctor(raw)
    except ValueError as err:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from err
    if ctor is float and not math.isfinite(value):
        # on parsing, before the subcommand's keys are checked or any layer
        # runs: the metadata echoes every value, and strict JSON has no NaN
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return value


def read_config_file(path):
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        values[key.strip()] = _parse_value(key.strip(), raw.strip())
    return values


def effective_config(args):
    """The subcommand's keys: defaults < config file < --set < --seed."""
    keys = COMMANDS[args.subcommand][2]
    given = {} if args.config is None else read_config_file(args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, raw = item.partition("=")
        given[key.strip()] = _parse_value(key.strip(), raw.strip())
    if unread := [key for key in given if key not in keys]:
        raise ConfigError(f"{args.subcommand} does not read "
                          f"{', '.join(unread)}; it reads {', '.join(keys)}")
    cfg = {key: SCHEMA[key][1] for key in keys} | given
    if args.seed is not None and "seed" in cfg:  # else it draws no noise
        cfg["seed"] = args.seed
    if args.subcommand == "malliavin" and get_sigma(cfg["sigma"]).kappa == 0:
        del cfg["moment_p"], cfg["floor"]  # no negative moment reads them
    if cfg.get("u0") == "zero":
        del cfg["u0_amp"]  # no amplitude scales a zero field
    for key, default in SENTINELS.items():
        if not cfg.get(key, 0) >= 0:  # NaN is refused too
            raise ConfigError(f"{key} must be >= 0 (0 derives the default), "
                              f"got {cfg[key]!r}")
        if key in cfg:
            cfg[key] = cfg[key] or cfg[default]
    return cfg


# the one check of each estimator key, which the function that reads the
# value runs as well; a subcommand runs it before it draws any noise
ESTIMATOR_CHECKS = {"moment_p": check_moment_order, "floor": check_floor,
                    "levels": check_levels, "deltas": check_windows,
                    "picard_beta": check_picard_weight}
# the row each value of a comma-list key names
ROW_NAMES = {"levels": "smallball_quantile/level={:g}",
             "deltas": "hnorm_tail_mean/delta={:.6e}"}


def _estimator_args(cfg, *keys, dt=None, n=None):
    """The values of estimator keys, a comma list as its floats; a value
    that its check refuses given dt or n, or that names the row of another
    value, is a config error that names the key."""
    values = []
    for key in keys:
        value = cfg[key]
        try:
            if isinstance(value, str):  # _float_list's spelling
                value = [float(tok) for tok in value.split(",") if tok]
            ESTIMATOR_CHECKS[key](value, *{"deltas": [dt], "picard_beta": [dt],
                                           "levels": [n]}.get(key, []))
            if key in ROW_NAMES and len(value) > len(
                    {ROW_NAMES[key].format(v) for v in value}):
                raise ValueError(f"two values name one row, got {cfg[key]!r}")
        except ValueError as err:
            raise ConfigError(f"{key}: {err}") from None
        values.append(value)
    return values


def build_exponent(cfg):
    # phi is exactly scale |n|^alpha, so the series take its tight envelope
    # and read no drift
    return make_power_exponent(cfg["scale"], cfg["alpha"],
                               drift=cfg.get("drift", 0.0))


def build_run_config(cfg):
    grid = GridSpec(m_space=cfg["m_space"], k_time=cfg["k_time"],
                    horizon=cfg["horizon"])
    sigma = get_sigma(cfg["sigma"])
    exp_ = build_exponent(cfg)
    shapes = {"zero": np.zeros_like, "sin": np.sin, "cos": np.cos}
    if cfg["u0"] not in shapes:
        raise ConfigError(f"unknown u0 shape {cfg['u0']!r}")
    u0 = field_from_function(shapes[cfg["u0"]], grid.m_space)
    u0 *= cfg.get("u0_amp", 1.0)  # a zero field's config has no amplitude
    # picard takes no probe keys (its norm is a sup over every cell)
    probe = (cfg["probe_t"], cfg["probe_x"]) if "probe_t" in cfg else None
    return RunConfig(grid=grid, exponent=exp_, sigma=sigma, u0=u0,
                     seed=cfg["seed"], replicas=cfg["replicas"], probe=probe)


# ---------------------------------------------------------------------------
# subcommands: each gets the run id its rows carry and returns (rows,
# summary line); every value is a row


def cmd_kernel(cfg, args, run_id):
    exp_ = build_exponent(cfg)
    if not (0 < cfg["t_min"] < cfg["t_max"]):
        raise ConfigError("need 0 < t_min < t_max")
    if cfg["t_points"] < 3:
        raise ConfigError("need t_points >= 3")
    t_grid = np.geomspace(cfg["t_min"], cfg["t_max"], cfg["t_points"])
    report = verify_kernel_bounds(exp_, t_grid, beta_param=cfg["picard_beta"],
                                  tol=cfg["tol"])
    # t^(1/alpha) ||q_t||^2 stays bounded above and below: Re phi is
    # exactly scale |n|^alpha
    scaled = report.t_grid ** (1.0 / cfg["alpha"]) * report.norm_sq
    rows = []
    for i, t in enumerate(report.t_grid):
        rows += [
            make_row(run_id, "kernel_l2_norm_sq", report.norm_sq[i],
                     tail_bound=report.norm_tails[i], t=t),
            make_row(run_id, "kernel_l2_norm_sq_scaled_alpha", scaled[i], t=t),
            make_row(run_id, "kernel_l2_time_integral", report.cumulative[i],
                     tail_bound=report.cumulative_tails[i], t=t),
        ]
    rows += [make_row(run_id, quantity, value) for quantity, value in (
        ("kernel_norm_slope", report.slope_norm),
        ("kernel_norm_slope_r2", report.r2_norm),
        ("kernel_integral_slope", report.slope_cumulative),
        ("kernel_integral_slope_r2", report.r2_cumulative),
        ("sup_weighted_cumulative", report.sup_weighted_cumulative),
    )]
    rows.append(make_row(run_id, "kernel_l2_laplace", report.laplace_mass,
                         tail_bound=report.laplace_tail))
    summary = (f"kernel: norm slope {report.slope_norm:.6g} "
               f"(r2 {report.r2_norm:.6g})")
    return rows, summary


def cmd_simulate(cfg, args, run_id):
    run = build_run_config(cfg)
    ss = run_ensemble(run, workers=args.workers)
    t, x = run.probe
    where = dict(t=t, x=x, replica_count=len(ss))
    rows = [
        make_row(run_id, "u_mean", ss.mean(), ss.stderr(), **where),
        make_row(run_id, "u_var", ss.variance(), ss.variance_stderr(), **where),
        # 0 by the config's certificate: no replica can blow up
        make_row(run_id, "u_blowups", 0.0, **where),
    ]
    summary = (f"simulate: {len(ss)} replicas, mean {ss.mean():.6g} "
               f"+- {ss.stderr():.2g}, var {ss.variance():.6g}")
    return rows, summary


def cmd_picard(cfg, args, run_id):
    run = build_run_config(cfg)
    if cfg["picard_n"] < 2:  # one difference has no ratio to judge
        raise ConfigError("need picard_n >= 2")
    _estimator_args(cfg, "moment_p", "picard_beta", dt=run.grid.dt)
    try:
        report = picard_sequence(run, cfg["picard_n"], cfg["picard_beta"],
                                 p=cfg["moment_p"], workers=args.workers)
    except FloatingPointError as err:  # |v_(n+1) - v_n|^p or its square
        raise NumericalError(f"moment_p = {cfg['moment_p']:g}: {err} in a "
                             "moment of a nonzero difference") from None
    where = dict(replica_count=run.replicas)
    rows = [make_row(run_id, f"picard_diff/n={n}", v, se, **where)
            for n, (v, se) in enumerate(zip(report.norms, report.stderrs))]
    rows += [make_row(run_id, f"picard_ratio/n={n}", r, **where)
             for n, r in enumerate(report.ratios, start=1)]
    rows.append(make_row(run_id, "picard_contracting", float(report.contracting),
                         **where))
    summary = (f"picard: ratios {np.array2string(report.ratios, precision=3)} "
               f"contracting={report.contracting}")
    return rows, summary


def _check_mass_probe(run):
    """Refuse a negative moment at a probe in step 0, where every mass is 0
    (before any noise is drawn)."""
    if run.probe_cell[0] == 0:
        raise ConfigError(
            f"probe_t: the probe time {run.probe[0]:g} lies in step 0, where "
            "every derivative mass is 0 and has no negative moment; need "
            f"probe_t of at least one step, dt = {run.grid.dt:g}")


def _negative_moment_rows(samples, cfg, run_id, where):
    """The negative moment of the mass samples, and its rows."""
    nm = negative_moment_estimate(samples, p=cfg["moment_p"], floor=cfg["floor"])
    rows = [make_row(
        run_id, f"negative_moment/p={cfg['moment_p']:g}/floor={cfg['floor']:.3e}",
        nm.estimate, nm.stderr, **where)]
    rows += [make_row(run_id, f"negative_moment_floor_sweep/floor={fl:.3e}", est,
                      **where)
             for fl, est in sorted(nm.sensitivity.items(), reverse=True)]
    return nm, rows


def cmd_malliavin(cfg, args, run_id):
    run = build_run_config(cfg)
    deltas, = _estimator_args(cfg, "deltas", dt=run.grid.dt)
    if run.sigma.kappa > 0:  # the negative moment reads them
        _estimator_args(cfg, "moment_p", "floor")
        _check_mass_probe(run)
    mass, tails = hnorm_samples(run, workers=args.workers, deltas=deltas)
    t, x = run.probe
    mean, se = mass.mean(), mass.stderr()
    where = dict(t=t, x=x, replica_count=len(mass))
    rows = [
        make_row(run_id, "hnorm_mean", mean, se, **where),
        make_row(run_id, "hnorm_sd", mass.sd(), **where),
    ]
    rows += [make_row(run_id, ROW_NAMES["deltas"].format(d), tails[d].mean(),
                      **where) for d in deltas]
    if run.sigma.kappa > 0:
        nm, nm_rows = _negative_moment_rows(mass.values, cfg, run_id, where)
        rows += nm_rows
        summary = (f"malliavin: hnorm mean {mean:.6g} +- {se:.2g}, "
                   f"negative moment {nm.estimate:.6g} "
                   f"(reliable={nm.reliable})")
    else:
        summary = f"malliavin: hnorm mean {mean:.6g} +- {se:.2g}"
    return rows, summary


def cmd_smallball(cfg, args, run_id):
    run = build_run_config(cfg)
    if run.sigma.kappa <= 0:  # the negative moment needs a mass bounded below
        raise ConfigError("small-ball analysis needs sigma bounded below: "
                          "kappa > 0")
    levels, _, _ = _estimator_args(cfg, "levels", "moment_p", "floor",
                                   n=run.replicas)
    _check_mass_probe(run)
    mass, _ = hnorm_samples(run, workers=args.workers)
    t, x = run.probe
    where = dict(t=t, x=x, replica_count=len(mass))
    floor = certified_floor(run)
    rows = [make_row(run_id, "smallball_certified_floor", floor, **where)]
    # no mass lies below the floor; the levels passed at n = replicas
    quantiles = [mass.quantile(q, lower=floor) for q in levels]
    # the stderr column holds the half-width of the 95% interval
    rows += [make_row(run_id, ROW_NAMES["levels"].format(q), value,
                      0.5 * (hi - lo), **where)
             for q, (value, lo, hi) in zip(levels, quantiles)]
    rows += _negative_moment_rows(mass.values, cfg, run_id, where)[1]
    summary = (f"smallball: quantiles {min(quantiles)[0]:.6g}.."
               f"{max(quantiles)[0]:.6g} at {len(levels)} levels, certified "
               f"floor {floor:.6g}")
    return rows, summary


def cmd_density(cfg, args, run_id):
    run = build_run_config(cfg)
    ss = run_ensemble(run, workers=args.workers)
    t, x = run.probe
    where = dict(t=t, x=x, replica_count=len(ss))
    try:
        est = kde(ss.values)
    except DegenerateSamplesError as err:
        rows = [make_row(run_id, "density_point_mass", err.value, **where)]
        return rows, f"density: point mass at {err.value:.6g}, no estimate"
    rep = smoothness_report(est)
    rows = [make_row(run_id, quantity, value, **where) for quantity, value in (
        ("density_bandwidth", est.bandwidth),
        ("density_integral", est.integral()),
        ("density_max_d1", rep.max_d1),
        ("density_max_d2", rep.max_d2),
        ("density_d2_sign_changes", float(rep.d2_sign_changes)),
        ("density_under_smoothed", float(rep.under_smoothed)),
    )]
    summary = (f"density: bandwidth {est.bandwidth:.6g}, max |d1| "
               f"{rep.max_d1:.6g}, max |d2| {rep.max_d2:.6g}, "
               f"under_smoothed={rep.under_smoothed}")
    return rows, summary


def cmd_check_exponent(cfg, args, run_id):
    chk = check_exponent_condition(cfg["alpha"], cfg["beta"])
    rows = [
        make_row(run_id, "theta", chk.theta),
        make_row(run_id, "admissible", float(chk.admissible)),
    ]
    summary = (f"theta={chk.theta:.12g} "
               f"admissible={'true' if chk.admissible else 'false'}")
    return rows, summary


# each subcommand's function, help, and the keys that can change its values
SAMPLED = ("alpha", "scale", "drift", "m_space", "k_time", "horizon", "sigma",
           "u0", "u0_amp", "seed", "replicas")
PROBE = ("probe_t", "probe_x")
COMMANDS = {
    "kernel": (cmd_kernel, "kernel norm scaling and envelope diagnostics",
               ("alpha", "scale", "t_min", "t_max", "t_points",
                "picard_beta", "tol")),
    "simulate": (cmd_simulate, "Monte Carlo moments of u at the probe",
                 SAMPLED + PROBE),
    "picard": (cmd_picard, "successive Picard difference norms",
               SAMPLED + ("picard_n", "picard_beta", "moment_p")),
    "malliavin": (cmd_malliavin, "derivative mass statistics at the probe",
                  SAMPLED + PROBE + ("deltas", "moment_p", "floor")),
    "smallball": (cmd_smallball, "small-ball quantiles of the derivative mass",
                  SAMPLED + PROBE + ("levels", "moment_p", "floor")),
    "density": (cmd_density, "density estimate and smoothness diagnostics",
                SAMPLED + PROBE),
    "check-exponent": (cmd_check_exponent,
                       "smoothness admissibility of an (alpha, beta) pair",
                       ("alpha", "beta")),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here is 1 for any
    # configuration problem
    def error(self, message):
        print(f"levyheat:error:config: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    command_lines = "\n".join(f"  {name:<16}{help_}\n{'':<18}keys: "
                              + ", ".join(keys)
                              for name, (_, help_, keys) in COMMANDS.items())
    kinds = {_float_list: "comma list of floats"}
    schema_lines = "\n".join(
        f"  {key} ({kinds.get(ctor, ctor.__name__)}, default {default!r}): "
        f"{help_}" for key, (ctor, default, help_) in SCHEMA.items()
    )
    parser = _Parser(
        prog="levyheat",
        usage=("%(prog)s <subcommand> [--config FILE] [--set KEY=VALUE ...] "
               "[--seed N]\n                [--out DIR] [--workers N]"),
        description=(
            "Spectral simulator and analysis toolkit for the stochastic heat "
            "equation driven by space-time white noise, with a Levy generator "
            "given through its Fourier multiplier."
        ),
        epilog=(
            "subcommands, each with the only config keys it takes:\n"
            + command_lines + "\n"
            "precedence: config file < --set < --seed.\n"
            "--seed: kernel and check-exponent draw no noise; they take it and "
            "ignore it.\n"
            "exit codes: 0 success, 1 config error, 2 numerical failure, "
            "3 I/O error.\n"
            "config file: flat key=value lines, # comments; keys:\n"
            + schema_lines
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=COMMANDS, metavar="subcommand",
                        help="one of the subcommands below")
    parser.add_argument("--config", metavar="FILE",
                        help="key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the seed key")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker threads; never changes output bytes")
    return parser


def _run_identifier(subcommand, cfg):
    payload = json.dumps(
        {"subcommand": subcommand, "config": cfg, "version": __version__},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _check_finite(rows):
    for row in rows:
        for col in ("value", "stderr", "tail_bound"):
            v = row[col]
            if not math.isfinite(v):
                raise NumericalError(
                    f"non-finite {col} in {row['quantity']!r}: {v!r}")


def _write_outputs(args, cfg, run_id, rows):
    out_dir = Path(args.out)
    stem = args.subcommand.replace("-", "_")
    data_path = out_dir / f"{stem}.csv"
    # the record of the run, not of its values: those are the rows
    meta = {"subcommand": args.subcommand, "run_id": run_id, "config": cfg,
            "rng_scheme": RNG_SCHEME, "version": __version__}
    # strict JSON: non-finite config values are refused when parsed
    text = json.dumps(meta, sort_keys=True, indent=2, allow_nan=False)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise OSError(f"cannot create output directory {out_dir}: {err}") from err
    emit(rows, str(data_path))
    meta_path = out_dir / f"{stem}.meta.json"
    try:
        with open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    except OSError as err:
        raise OSError(f"cannot write {meta_path}: {err}") from err
    return data_path, meta_path


def parse_and_dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg = effective_config(args)
        run_id = _run_identifier(args.subcommand, cfg)
        rows, summary = COMMANDS[args.subcommand][0](cfg, args, run_id)
        _check_finite(rows)
        data_path, meta_path = _write_outputs(args, cfg, run_id, rows)
        print(summary)
        print(f"wrote {data_path} and {meta_path}")
        return 0
    except (BlowUpError, NumericalError, SeriesToleranceError, OSError,
            ValueError) as exc:
        if isinstance(exc, (BlowUpError, NumericalError, SeriesToleranceError)):
            kind, code = "numerical", 2
        elif isinstance(exc, OSError):
            kind, code = "io", 3
        else:
            kind, code = "config", 1
        print(f"levyheat:error:{kind}: {exc}", file=sys.stderr)
        return code


def main():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
