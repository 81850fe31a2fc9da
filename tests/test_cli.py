"""Command-line interface tests: exit codes, config precedence, metadata,
output determinism.  All invocations run in-process through
parse_and_dispatch, so stdout/stderr and the filesystem are observable."""

import argparse
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from levyheat import (SampleSet, __version__, hnorm_samples,
                      kernel_l2_laplace, kernel_l2_norm_sq,
                      kernel_l2_time_integral, run_ensemble)
from levyheat import cli, noise, solver
from levyheat.cli import (COMMANDS, SCHEMA, build_exponent, build_parser,
                          build_run_config, effective_config,
                          parse_and_dispatch)
from levyheat.mcstats import CSV_COLUMNS, load_rows

from conftest import planted_infinity
from reference_runs import PAIRS, RUNS, strict_json

ROOT = Path(__file__).resolve().parent.parent

SMALL = ["--set", "m_space=16", "--set", "k_time=8", "--set", "horizon=0.2",
         "--set", "replicas=8"]
# the estimator settings that give smallball three levels and malliavin two
# tail windows
ESTIMATORS = {"smallball": ["--set", "levels=0.1,0.25,0.5"],
              "malliavin": ["--set", "deltas=0.05,0.1"]}


def small(subcommand):
    """SMALL for a subcommand that samples: kernel and check-exponent read
    no grid and no replica count, and refuse them."""
    return SMALL if "replicas" in COMMANDS[subcommand][2] else []


def run_cli(args, tmp_path, sub_dir="out"):
    out = tmp_path / sub_dir
    code = parse_and_dispatch(args + ["--out", str(out)])
    return code, out


def rows_by_quantity(path):
    return {r["quantity"]: r for r in load_rows(str(path))}


def sampled_config(args):
    """The RunConfig a subcommand's arguments build."""
    return build_run_config(effective_config(build_parser().parse_args(args)))


# ---------------------------------------------------------------------------
# check-exponent


def test_check_exponent_admissible(tmp_path, capsys):
    code, out = run_cli(["check-exponent", "--set", "alpha=2",
                         "--set", "beta=2"], tmp_path)
    assert code == 0
    text = capsys.readouterr().out
    assert "theta=1 admissible=true" in text
    got = rows_by_quantity(out / "check_exponent.csv")
    assert got["theta"]["value"] == pytest.approx(1.0, abs=1e-12)
    assert got["admissible"]["value"] == 1.0


def test_check_exponent_boundary(tmp_path, capsys):
    code, out = run_cli(
        ["check-exponent", "--set", f"alpha={4.0 / 3.0}", "--set", "beta=2"],
        tmp_path)
    assert code == 0
    assert "admissible=true" in capsys.readouterr().out
    got = rows_by_quantity(out / "check_exponent.csv")
    assert abs(got["theta"]["value"]) < 1e-12


def test_check_exponent_inadmissible(tmp_path, capsys):
    code, out = run_cli(["check-exponent", "--set", "alpha=1.2",
                         "--set", "beta=2"], tmp_path)
    assert code == 0
    assert "admissible=false" in capsys.readouterr().out
    got = rows_by_quantity(out / "check_exponent.csv")
    assert got["admissible"]["value"] == 0.0
    assert got["theta"]["value"] < 0.0


def test_check_exponent_out_of_range(tmp_path, capsys):
    code, _ = run_cli(["check-exponent", "--set", "alpha=0.9",
                       "--set", "beta=2"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("levyheat:error:config:")


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_flag_is_config_error(tmp_path, capsys):
    code = parse_and_dispatch(["kernel", "--frobnicate"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("levyheat:error:config:")
    assert not (tmp_path / "kernel.csv").exists()


def test_unknown_config_key(tmp_path, capsys):
    code, _ = run_cli(["simulate", "--set", "warp=9"], tmp_path)
    assert code == 1
    assert "warp" in capsys.readouterr().err


def test_bad_value_type(tmp_path, capsys):
    code, _ = run_cli(["simulate", "--set", "m_space=many"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("levyheat:error:config:")


def test_missing_subcommand(capsys):
    assert parse_and_dispatch([]) == 1
    assert capsys.readouterr().err.startswith("levyheat:error:config:")


def test_help_exits_zero(capsys):
    assert parse_and_dispatch(["--help"]) == 0
    text = capsys.readouterr().out
    for name in ("kernel", "simulate", "picard", "malliavin", "smallball",
                 "density", "check-exponent"):
        assert f"\n  {name} " in text
    for key in SCHEMA:
        assert f"\n  {key} (" in text


def test_a_list_key_has_one_spelling(capsys):
    # --help names a list key's type by what it holds, and the levels
    # default is spelled as a parsed value is: each repr, sorted
    assert parse_and_dispatch(["--help"]) == 0
    text = capsys.readouterr().out
    for key in ("levels", "deltas"):
        assert f"\n  {key} (comma list of floats, default " in text
    assert cli._parse_value("levels", SCHEMA["levels"][1]) == SCHEMA["levels"][1]
    assert cli._parse_value("deltas", " 0.10, .05 ,,") == "0.05,0.1"


def test_one_parser_reads_every_subcommand(tmp_path, capsys):
    # the subcommand is a positional choice of one parser, and every
    # subcommand takes the same flags: values come from --config, --set
    # and --seed alone
    parser = build_parser()
    assert not any(isinstance(action, argparse._SubParsersAction)
                   for action in parser._actions)
    for name in COMMANDS:
        assert parser.parse_args([name, "--seed", "3"]).subcommand == name
    for flag in ("--alpha", "--beta"):
        code, out = run_cli(["check-exponent", flag, "1.5"], tmp_path)
        assert code == 1
        assert capsys.readouterr().err == (
            f"levyheat:error:config: unrecognized arguments: {flag} 1.5\n")
        assert not out.exists()


SAMPLING = ["simulate", "density", "malliavin", "smallball"]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("subcommand", SAMPLING + ["picard"])
def test_derivative_blowups_are_numerical_error(tmp_path, capsys, monkeypatch,
                                                subcommand):
    # an infinite variate in cell (1, 2) of replica 3 is the one way a
    # certified run can blow up; the run names the replica and writes
    # nothing, stepped, Picard's iterates among them, or, for a constant
    # sigma's ensemble, summed as a Wiener integral (a constant sigma's
    # derivative mass draws no noise)
    planted_infinity(monkeypatch, 3, 1 * 16 + 2)
    sigmas = ["shifted_sine"]
    if subcommand in ("simulate", "density"):
        sigmas.append("one")
    for sigma in sigmas:
        code, out = run_cli([subcommand] + SMALL + ["--set", f"sigma={sigma}"],
                            tmp_path, sigma)
        assert code == 2
        assert capsys.readouterr().err == (
            "levyheat:error:numerical: replica 3 has a non-finite field: one "
            "of its variates is infinite\n")
        assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("subcommand", SAMPLING + ["picard"])
def test_an_overflowing_field_is_a_numerical_error_and_warns_nothing(
        tmp_path, capsys, monkeypatch, subcommand):
    # an infinite variate takes its replica's field to inf and NaN in the
    # step it enters; numpy warns nothing on the way, and the run fails as
    # numerical even under -W error.  picard steps its iterates and its
    # flow in a loop of its own, so it runs too
    planted_infinity(monkeypatch, 3, 1 * 16 + 2)
    code, out = run_cli([subcommand] + SMALL, tmp_path)
    assert code == 2
    assert capsys.readouterr().err.startswith("levyheat:error:numerical:")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("moment_p", ["200", "1000"])
def test_picard_moments_out_of_float_range_are_numerical_errors(
        tmp_path, capsys, moment_p):
    # a nonzero difference of about 0.1 to the power 200 has a square
    # below the smallest double, and to the power 1000 it underflows
    # itself: the run fails, naming moment_p, rather than writing zeros
    code, out = run_cli(["picard"] + SMALL + ["--set", f"moment_p={moment_p}"],
                        tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"levyheat:error:numerical: moment_p = {moment_p}: underflow ")
    assert not out.exists()


def test_unwritable_output_is_io_error(capsys):
    code = parse_and_dispatch(
        ["check-exponent", "--set", "alpha=2", "--out", "/dev/null/nested"])
    assert code == 3
    assert capsys.readouterr().err.startswith("levyheat:error:io:")


# ---------------------------------------------------------------------------
# kernel subcommand


def test_kernel_slope_row(tmp_path):
    code, out = run_cli(["kernel", "--set", "alpha=1.5"], tmp_path)
    assert code == 0
    got = rows_by_quantity(out / "kernel.csv")
    assert got["kernel_norm_slope"]["value"] == pytest.approx(-2.0 / 3.0,
                                                              rel=0.03)
    meta = json.loads((out / "kernel.meta.json").read_text())
    assert meta["config"]["alpha"] == 1.5


def test_kernel_rows_write_certified_errors(tmp_path):
    # every series row's tail_bound is the certified error of its value
    code, out = run_cli(["kernel"], tmp_path)
    assert code == 0
    cfg = effective_config(build_parser().parse_args(["kernel"]))
    exp_, tol = build_exponent(cfg), cfg["tol"]
    series = {"kernel_l2_norm_sq": lambda t: kernel_l2_norm_sq(exp_, t, tol),
              "kernel_l2_time_integral":
                  lambda t: kernel_l2_time_integral(exp_, t, tol),
              "kernel_l2_laplace":
                  lambda t: kernel_l2_laplace(exp_, cfg["picard_beta"], tol)}
    rows = [r for r in load_rows(str(out / "kernel.csv"))
            if r["quantity"] in series]
    assert len(rows) == 2 * cfg["t_points"] + 1
    for row in rows:
        value, tail = series[row["quantity"]](row["t"])
        assert (row["value"], row["tail_bound"]) == (value, tail)
        assert tail > 0


@pytest.mark.parametrize("settings", [
    "alpha=1.2 t_min=1e-8", "t_min=1e-12", "alpha=1.1 t_min=1e-8",
    "alpha=1.4 t_min=1e-10"])
def test_tiny_time_kernels_are_certified(tmp_path, settings):
    # the norms here run from 3e4 to 5e5, so tol is relative: each is
    # bracketed from 256 modes on to a few 1e-14 of its value
    args = ["kernel"] + [a for s in settings.split() for a in ("--set", s)]
    code, out = run_cli(args, tmp_path)
    assert code == 0
    norms = [r for r in load_rows(str(out / "kernel.csv"))
             if r["quantity"] == "kernel_l2_norm_sq"]
    smallest = min(norms, key=lambda r: r["t"])
    assert smallest["value"] > 3e4
    assert 0 < smallest["tail_bound"] <= 1e-13 * smallest["value"]


@pytest.mark.parametrize("settings", ["alpha=1.01 t_min=1e-310",
                                      "t_min=1e-320"])
def test_subnormal_times_warn_nothing(tmp_path, capsys, settings):
    # at a subnormal t the one-sided tail bound of the norm is inf, a float
    # quotient that numpy would report as an overflow on stderr
    args = ["kernel"] + [a for s in settings.split() for a in ("--set", s)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run_cli(args, tmp_path)
    assert code == 0
    assert capsys.readouterr().err == ""


def test_unattainable_series_tolerance_is_numerical_error(tmp_path, capsys):
    # tol 1e-17 lies below what the sums of each series may round by, so no
    # cutoff up to the 2^26 cap certifies it; the cutoff search refuses it
    # before any mode is evaluated
    code, out = run_cli(["kernel", "--set", "tol=1e-17"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("levyheat:error:numerical: series tolerance")
    assert not (out / "kernel.csv").exists()


def test_kernel_beta_scales_rows_and_leaves_the_series_tight(tmp_path):
    # phi is exactly |n|^alpha, so the series take the tight envelope; each
    # scaled_alpha row is t^(1/alpha) times the norm row at its t, bit for
    # bit
    code, out = run_cli(["kernel", "--set", "alpha=1.5"], tmp_path)
    assert code == 0
    rows = load_rows(str(out / "kernel.csv"))
    norm = {r["t"]: r["value"] for r in rows
            if r["quantity"] == "kernel_l2_norm_sq"}
    scaled = {r["t"]: r["value"] for r in rows
              if r["quantity"] == "kernel_l2_norm_sq_scaled_alpha"}
    t = np.array(sorted(norm))
    assert sorted(scaled) == list(t) and len(t) == 9
    want = t ** (1.0 / 1.5) * np.array([norm[s] for s in t])
    assert [scaled[s] for s in t] == list(want) and min(want) > 0


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_series_tol_must_be_positive_and_finite(tmp_path, capsys, tol):
    # a NaN or infinite tol would pass every tail test and certify nothing;
    # the config refuses it, and the cutoff search a tol of 0
    code, out = run_cli(["kernel", "--set", f"tol={tol}"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("levyheat:error:config: series tol must be positive"
                          if tol == "0" else
                          f"levyheat:error:config: tol must be finite, got {tol}")
    assert not out.exists()


# ---------------------------------------------------------------------------
# metadata contract


def test_metadata_echoes_the_subcommands_keys(tmp_path):
    # the keys simulate reads, and no other; at u0 = zero it reads no
    # u0_amp
    code, out = run_cli(["simulate"] + SMALL, tmp_path)
    assert code == 0
    meta = json.loads((out / "simulate.meta.json").read_text())
    assert list(meta["config"]) == sorted(set(COMMANDS["simulate"][2])
                                          - {"u0_amp"})
    assert meta["config"]["m_space"] == 16
    assert meta["config"]["sigma"] == "shifted_sine"
    assert meta["config"]["seed"] == 0
    assert "seed_source" not in meta
    assert meta["version"] == __version__
    assert meta["rng_scheme"].startswith("philox4x64/")
    assert (out / "simulate.csv").is_file()
    assert "format" not in meta
    assert len(meta["run_id"]) == 12
    # nothing machine- or time-dependent may leak in
    assert "workers" not in meta
    assert not any("time" in k or "date" in k for k in meta)


# the five keys of every metadata file: the record of the run; its values
# are rows
META_KEYS = {"subcommand", "run_id", "config", "rng_scheme", "version"}


def test_every_metadata_file_records_the_run_and_no_value(tmp_path):
    # the 7 subcommands at default and the tail-window and constant-sigma
    # runs: each metadata file holds the five keys alone, and Picard's
    # verdict is its row picard_contracting, 1 exactly when every ratio is
    # below 1 (the last run does not contract)
    runs = [[s] for s in COMMANDS] + [
        ["malliavin", "--set", "deltas=0.05,0.1"],
        ["density", "--set", "sigma=one"],
        ["simulate", "--set", "sigma=two", "--set", "u0=sin"],
        ["picard"] + SMALL + ["--set", "picard_beta=0", "--set", "horizon=50",
                              "--set", "scale=0.001", "--set", "picard_n=3"]]
    verdicts = []
    for i, args in enumerate(runs):
        code, out = run_cli(args, tmp_path, str(i))
        assert code == 0
        stem = args[0].replace("-", "_")
        meta = json.loads((out / f"{stem}.meta.json").read_text())
        assert set(meta) == META_KEYS, args
        if args[0] == "picard":
            got = rows_by_quantity(out / "picard.csv")
            ratios = [row["value"] for q, row in got.items()
                      if q.startswith("picard_ratio/n=")]
            verdicts.append((got["picard_contracting"]["value"],
                             float(all(r < 1.0 for r in ratios))))
    assert verdicts == [(1.0, 1.0), (0.0, 0.0)]


def test_simulate_rows(tmp_path):
    code, out = run_cli(["simulate"] + SMALL, tmp_path)
    assert code == 0
    got = rows_by_quantity(out / "simulate.csv")
    assert set(got) == {"u_mean", "u_var", "u_blowups"}
    assert got["u_var"]["value"] > 0.0
    assert got["u_blowups"]["value"] == 0.0
    assert got["u_mean"]["replica_count"] == 8
    assert got["u_mean"]["t"] == 0.2
    # the values and stderrs are the SampleSet estimators of the ensemble
    ss = run_ensemble(sampled_config(["simulate"] + SMALL))
    assert (got["u_mean"]["value"], got["u_mean"]["stderr"]) == (
        ss.mean(), ss.stderr())
    assert (got["u_var"]["value"], got["u_var"]["stderr"]) == (
        ss.variance(), ss.variance_stderr())


# ---------------------------------------------------------------------------
# seed precedence


def test_seed_precedence_chain(tmp_path):
    # config file < --set < --seed
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# manifest\nseed = 11\nm_space=16\nk_time=8\n"
                        "horizon=0.2\nreplicas=8\n")
    base = ["simulate", "--config", str(cfg_file)]
    for tag, extra, seed in (("a", [], 11), ("b", ["--set", "seed=22"], 22),
                             ("c", ["--set", "seed=22", "--seed", "33"], 33)):
        code, out = run_cli(base + extra, tmp_path, tag)
        assert code == 0
        meta = json.loads((out / "simulate.meta.json").read_text())
        assert meta["config"]["seed"] == seed


def test_an_exported_seed_variable_changes_no_byte(tmp_path, monkeypatch):
    # the environment sets no value: a LEVYHEAT_SEED, an integer or not,
    # leaves every output byte as it is
    _, plain = run_cli(["simulate"] + SMALL, tmp_path, "plain")
    for value in ("44", "banana"):
        monkeypatch.setenv("LEVYHEAT_SEED", value)
        code, out = run_cli(["simulate"] + SMALL, tmp_path, value)
        assert code == 0
        for name in ("simulate.csv", "simulate.meta.json"):
            assert (out / name).read_bytes() == (plain / name).read_bytes()


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("m_space 16\n")
    code, _ = run_cli(["simulate", "--config", str(bad)], tmp_path)
    assert code == 1
    code, _ = run_cli(["simulate", "--config", str(tmp_path / "absent.cfg")],
                      tmp_path)
    assert code == 1
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("gamma=3\n")
    code, _ = run_cli(["simulate", "--config", str(unknown)], tmp_path)
    assert code == 1


# ---------------------------------------------------------------------------
# determinism


def test_rerun_byte_identical(tmp_path):
    args = ["smallball"] + SMALL + ["--set", "levels=0.1,0.25,0.5"]
    _, out_a = run_cli(args, tmp_path, "a")
    _, out_b = run_cli(args, tmp_path, "b")
    assert (out_a / "smallball.csv").read_bytes() == \
        (out_b / "smallball.csv").read_bytes()
    assert (out_a / "smallball.meta.json").read_bytes() == \
        (out_b / "smallball.meta.json").read_bytes()


@pytest.mark.parametrize("subcommand", ["kernel", "simulate", "picard",
                                        "malliavin", "smallball", "density",
                                        "check-exponent"])
def test_worker_count_never_changes_bytes(tmp_path, subcommand):
    args = [subcommand] + small(subcommand) + ESTIMATORS.get(subcommand, [])
    code_a, out_a = run_cli(args + ["--workers", "1"], tmp_path, "w1")
    code_b, out_b = run_cli(args + ["--workers", "8"], tmp_path, "w8")
    assert code_a == code_b == 0
    stem = subcommand.replace("-", "_")
    for name in (f"{stem}.csv", f"{stem}.meta.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("args", [
    ["density", "--set", "sigma=one"],
    ["simulate", "--set", "sigma=two", "--set", "u0=sin"],
])
def test_constant_sigma_bytes_never_change(tmp_path, args):
    # constant sigma samples the Wiener integral; 2100 replicas at m_space 16
    # are 3 chunks, so workers 1 and 2 split them differently
    args = args + SMALL + ["--set", "replicas=2100"]
    outs = [run_cli(args + ["--workers", w], tmp_path, tag)
            for tag, w in (("a", "1"), ("b", "1"), ("c", "2"))]
    assert [code for code, _ in outs] == [0, 0, 0]
    stem = args[0]
    for name in (f"{stem}.csv", f"{stem}.meta.json"):
        data = {(out / name).read_bytes() for _, out in outs}
        assert len(data) == 1


@pytest.mark.parametrize("args, sampler, chunks, chunk", [
    # perfbench's ensemble, density and hnorm settings
    (["simulate", "--set", "m_space=128", "--set", "k_time=128",
      "--set", "replicas=2048"], run_ensemble, 32, 64),
    (["density", "--set", "sigma=one", "--set", "m_space=16",
      "--set", "k_time=16", "--set", "replicas=32768"], run_ensemble, 128, 256),
    (["malliavin", "--set", "replicas=16"], hnorm_samples, 1, 16),
    # the defaults: 256 replicas at 64 x 64
    (["simulate"], run_ensemble, 2, 128),
    (["malliavin"], hnorm_samples, 2, 128),
], ids=["ensemble", "density", "hnorm", "simulate", "malliavin"])
def test_the_sampled_runs_keep_their_chunk_bounds(monkeypatch, args, sampler,
                                                  chunks, chunk):
    # solver.sample_at_probe sizes the chunks of both samplers; the chunk
    # bodies are not run
    seen = []

    def record(fn, n_items, size, workers=1):
        seen.append((math.ceil(n_items / size), size))
        return iter([((np.zeros(n_items),), [])])

    monkeypatch.setattr(solver, "map_chunks", record)
    sampler(sampled_config(args))
    assert seen == [(chunks, chunk)]


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_are_config_errors(tmp_path, capsys, workers):
    code, out = run_cli(["simulate"] + SMALL + ["--workers", workers],
                        tmp_path)
    assert code == 1
    assert capsys.readouterr().err == (
        f"levyheat:error:config: --workers must be >= 1, got {workers}\n")
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["shifted_sine", "one"])
def test_an_infinite_variate_writes_strict_json_metadata(
        tmp_path, monkeypatch, sigma):
    # an infinite variate past the probe, in cell (6, 2) of replica 3 with
    # the probe at step 4 of 8, enters no probe value, stepped or summed as
    # a Wiener integral: the run writes the bytes of a run without it, and
    # its metadata is strict JSON
    args = ["simulate"] + SMALL + ["--set", f"sigma={sigma}",
                                   "--set", "probe_t=0.1"]
    code, ref = run_cli(args, tmp_path, "ref")
    assert code == 0
    planted_infinity(monkeypatch, 3, 6 * 16 + 2)
    code, out = run_cli(args, tmp_path)
    assert code == 0
    for name in ("simulate.csv", "simulate.meta.json"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()
    strict_json((out / "simulate.meta.json").read_text())


@pytest.mark.parametrize("subcommand, setting", [
    ("kernel", "u0_amp=nan"), ("check-exponent", "horizon=inf")])
def test_an_unread_non_finite_config_value_writes_nothing(
        tmp_path, capsys, subcommand, setting):
    # the subcommand does not take the key, but each value is checked when
    # it is parsed, before the keys are: the metadata echoes the config,
    # and strict JSON has no NaN or Infinity
    code, out = run_cli([subcommand, "--set", setting], tmp_path)
    assert code == 1
    key, _, raw = setting.partition("=")
    assert capsys.readouterr().err == (
        f"levyheat:error:config: {key} must be finite, got {raw}\n")
    assert not out.exists()


def test_a_non_finite_config_value_is_refused_before_the_run(
        tmp_path, capsys, monkeypatch):
    # malliavin never reads t_min; the refusal comes before it samples
    def unreachable(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(cli, "hnorm_samples", unreachable)
    code, out = run_cli(["malliavin"] + SMALL + ["--set", "t_min=nan"],
                        tmp_path)
    assert code == 1
    assert capsys.readouterr().err == (
        "levyheat:error:config: t_min must be finite, got nan\n")
    assert not out.exists()


# (quantity, t, x, replica_count) of every row each subcommand writes at
# small() with ESTIMATORS
KERNEL_T = (1e-05, 1.778279410038923e-05, 3.1622776601683795e-05,
            5.623413251903491e-05, 0.0001, 0.00017782794100389227,
            0.00031622776601683794, 0.0005623413251903491, 0.001)
NEGATIVE_MOMENT = ["negative_moment/p=2/floor=1.000e-08",
                   "negative_moment_floor_sweep/floor=1.000e-08",
                   "negative_moment_floor_sweep/floor=1.000e-09",
                   "negative_moment_floor_sweep/floor=3.162e-09"]
ROW_KEYS = {
    "kernel": [(q, t, 0.0, 0) for q in (
        "kernel_l2_norm_sq", "kernel_l2_norm_sq_scaled_alpha",
        "kernel_l2_time_integral")
        for t in KERNEL_T] + [(q, 0.0, 0.0, 0) for q in (
            "kernel_integral_slope", "kernel_integral_slope_r2",
            "kernel_l2_laplace", "kernel_norm_slope", "kernel_norm_slope_r2",
            "sup_weighted_cumulative")],
    "simulate": [(q, 0.2, 0.0, 8) for q in ("u_blowups", "u_mean", "u_var")],
    "picard": [(f"picard_diff/n={n}", 0.0, 0.0, 8) for n in range(6)]
    + [(f"picard_ratio/n={n}", 0.0, 0.0, 8) for n in range(1, 6)]
    + [("picard_contracting", 0.0, 0.0, 8)],
    "malliavin": [(q, 0.2, 0.0, 8) for q in (
        "hnorm_mean", "hnorm_sd", "hnorm_tail_mean/delta=1.000000e-01",
        "hnorm_tail_mean/delta=5.000000e-02", *NEGATIVE_MOMENT)],
    "smallball": [(q, 0.2, 0.0, 8) for q in NEGATIVE_MOMENT + [
        "smallball_certified_floor", "smallball_quantile/level=0.1",
        "smallball_quantile/level=0.25", "smallball_quantile/level=0.5"]],
    "density": [(q, 0.2, 0.0, 8) for q in (
        "density_bandwidth", "density_d2_sign_changes", "density_integral",
        "density_max_d1", "density_max_d2", "density_under_smoothed")],
    "check-exponent": [("admissible", 0.0, 0.0, 0), ("theta", 0.0, 0.0, 0)],
}


@pytest.mark.parametrize("subcommand", list(ROW_KEYS))
def test_row_keys_pinned(tmp_path, subcommand):
    code, out = run_cli([subcommand] + small(subcommand)
                        + ESTIMATORS.get(subcommand, []), tmp_path)
    assert code == 0
    rows = load_rows(str(out / f"{subcommand.replace('-', '_')}.csv"))
    got = sorted((r["quantity"], r["t"], r["x"], r["replica_count"])
                 for r in rows)
    want = sorted(ROW_KEYS[subcommand])
    assert [(q, x, n) for q, _, x, n in got] == [(q, x, n) for q, _, x, n in want]
    assert [t for _, t, _, _ in got] == pytest.approx(
        [t for _, t, _, _ in want], rel=1e-12)


@pytest.mark.parametrize("subcommand, key, value", [
    pytest.param("check-exponent", "beta", "-0.25", id="check-exponent-beta"),
    pytest.param("check-exponent", "beta", "0", id="check-exponent-beta-0"),
    pytest.param("simulate", "probe_t", "-0.25", id="simulate-probe_t"),
    pytest.param("simulate", "probe_t", "0.3", id="simulate-probe_t-off-grid"),
    pytest.param("simulate", "probe_x", "1e17", id="simulate-probe_x-1e17"),
    pytest.param("simulate", "probe_x", "1e300", id="simulate-probe_x-1e300"),
])
def test_negative_sentinel_is_config_error(tmp_path, capsys, subcommand, key,
                                           value):
    # no value stands for another: check_orders refuses a beta outside
    # (1, 2], 0 included, and GridSpec.index_of a probe off the grid or past
    # the float resolution of x / dx (1e17 ran, recorded as probe_x 0.0),
    # each naming its key
    code, out = run_cli([subcommand] + small(subcommand)
                        + ["--set", f"{key}={value}"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("levyheat:error:config:") and key in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_probe_t_0_samples_the_initial_field(tmp_path):
    # probe_t = 0 is t = 0, where every replica holds u0 = cos: mean
    # cos(0) = 1 and variance 0, not the horizon
    code, out = run_cli(["simulate"] + SMALL + ["--set", "probe_t=0", "--set",
                                                "u0=cos"], tmp_path)
    assert code == 0
    got = rows_by_quantity(out / "simulate.csv")
    assert sorted(got) == ["u_blowups", "u_mean", "u_var"]
    assert all(row["t"] == 0.0 for row in got.values())
    assert (got["u_mean"]["value"], got["u_var"]["value"]) == (1.0, 0.0)
    config = json.loads((out / "simulate.meta.json").read_text())["config"]
    assert config["probe_t"] == 0.0


def test_run_id_tracks_config(tmp_path):
    _, out_a = run_cli(["simulate"] + SMALL, tmp_path, "a")
    _, out_b = run_cli(["simulate"] + SMALL, tmp_path, "b")
    _, out_c = run_cli(["simulate"] + SMALL + ["--seed", "9"], tmp_path, "c")
    _, out_d = run_cli(["simulate"] + SMALL + ["--set", "seed=9"], tmp_path,
                       "d")
    id_a, id_b, id_c, id_d = (
        json.loads((out / "simulate.meta.json").read_text())["run_id"]
        for out in (out_a, out_b, out_c, out_d))
    assert id_a == id_b
    assert id_a != id_c
    # the run id names the computation, not the flag that gave the seed
    assert id_c == id_d


@pytest.mark.parametrize("subcommand", list(COMMANDS))
def test_metadata_config_reproduces_the_outputs(tmp_path, subcommand):
    # every key of the metadata's config, passed back as --set, rewrites
    # the data and metadata files byte for byte
    code, first = run_cli([subcommand] + small(subcommand) + ["--seed", "3"],
                          tmp_path, "first")
    assert code == 0
    stem = subcommand.replace("-", "_")
    meta = json.loads((first / f"{stem}.meta.json").read_text())
    sets = [arg for key, value in meta["config"].items()
            for arg in ("--set", f"{key}={value}")]
    code, again = run_cli([subcommand] + sets, tmp_path, "again")
    assert code == 0
    for name in (f"{stem}.csv", f"{stem}.meta.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


@pytest.mark.parametrize("name", PAIRS)
def test_one_computation_writes_one_file_set(tmp_path, name):
    # each pair of the reference runs gives one computation two ways, and
    # both record it as one config: a list in one spelling, a probe as its
    # grid cell, and no u0_amp at u0 = zero (None: the key is left out)
    pair = PAIRS[name]
    outs = [run_cli(RUNS[tag].argv, tmp_path, tag)
            for tag in (pair.same_as, name)]
    assert [code for code, _ in outs] == [0, 0]
    stem = pair.argv[0].replace("-", "_")
    for file_name in (f"{stem}.csv", f"{stem}.meta.json"):
        assert len({(out / file_name).read_bytes() for _, out in outs}) == 1
    config = json.loads((outs[0][1] / f"{stem}.meta.json").read_text())["config"]
    assert {key: config.get(key) for key in pair.records} == pair.records
    # a row holds its run id and values, and no config value
    header = (outs[0][1] / f"{stem}.csv").read_text().splitlines()[:2]
    assert header == ["# levyheat csv schema v2", ",".join(CSV_COLUMNS)]
    assert CSV_COLUMNS == ("run_id", "replica_count", "t", "x", "quantity",
                           "value", "stderr", "tail_bound")


def test_u0_amp_changes_a_sin_field(tmp_path):
    # the control: at u0 = sin the amplitude is a value, so another one is
    # another computation, with other rows and another run id
    args = ["simulate", "--set", "u0=sin"] + SMALL
    outs = [run_cli(args + extra, tmp_path, tag) for tag, extra in (
        ("plain", []), ("amp", ["--set", "u0_amp=7"]))]
    assert [code for code, _ in outs] == [0, 0]
    means = [rows_by_quantity(out / "simulate.csv")["u_mean"] for _, out in outs]
    metas = [json.loads((out / "simulate.meta.json").read_text())
             for _, out in outs]
    assert means[0]["value"] != means[1]["value"]
    assert means[0]["run_id"] != means[1]["run_id"]
    assert [meta["config"]["u0_amp"] for meta in metas] == [1.0, 7.0]
    assert metas[0]["run_id"] != metas[1]["run_id"]


# ---------------------------------------------------------------------------
# the keys each subcommand takes


class ReadRecorder(dict):
    """A config that records each key read; dumping it as JSON reads none."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default


# each default, every CI command that runs to the end, and perfbench's four
# workloads (series, ensemble, hnorm, density) as they pass their settings
RECORDED = [[name] for name in COMMANDS] + [s.split() for s in (
    "malliavin --set deltas=0.05,0.1",
    "density --set sigma=one",
    "simulate --set sigma=two --set u0=sin",
    "smallball --set alpha=1.1",
    "malliavin --set sigma=one --set replicas=65536",
    "smallball --set sigma=one --set replicas=65536",
    "kernel --set alpha=1.1",
    "kernel --set alpha=1.5 --set picard_beta=1e8",
    "kernel --set t_min=1e-12",
    "kernel --set alpha=1.2 --set t_min=1e-8",
    "kernel --set alpha=1.1 --set t_min=1e-8",
    "kernel --set alpha=1.4 --set t_min=1e-10",
    "kernel --seed 3",
    "kernel --seed 5 --set alpha=1.4 --set t_min=1e-8 --set t_points=33",
    "simulate --seed 5 --workers 2 --set sigma=shifted_sine --set m_space=128 "
    "--set k_time=128 --set replicas=2048",
    "malliavin --seed 5 --set sigma=shifted_sine --set replicas=16 "
    "--set deltas=0.05,0.1",
    "density --seed 5 --set sigma=one --set m_space=16 --set k_time=16 "
    "--set replicas=32768",
)]


@pytest.mark.parametrize("args", RECORDED, ids=" ".join)
def test_each_subcommand_reads_exactly_its_keys(tmp_path, monkeypatch, args):
    # every key a subcommand takes is read, and it reads no other: a read of
    # a key it does not take would be a KeyError
    configs = []

    def recorded(parsed):
        configs.append(ReadRecorder(effective_config(parsed)))
        return configs[-1]

    monkeypatch.setattr(cli, "effective_config", recorded)
    code, _ = run_cli(args, tmp_path)
    assert code == 0
    keys = set(COMMANDS[args[0]][2])
    if "u0" in keys and "u0=sin" not in args:  # no amplitude at u0 = zero
        keys.remove("u0_amp")
    assert configs[0].read == set(configs[0]) == keys


@pytest.mark.parametrize("setting", ["simulate --set levels=0.1",
                                     "simulate --set beta=1.5",
                                     "picard --set probe_x=0",
                                     "kernel --set drift=0.7",
                                     "check-exponent --set m_space=16",
                                     "kernel --set seed=3",
                                     "kernel --set beta=1.5"])
def test_a_key_the_subcommand_does_not_read_is_refused(
        tmp_path, capsys, monkeypatch, setting):
    # refused before any noise is drawn, from --set or a config file, with
    # the keys the subcommand reads
    def refuse(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(noise, "_normal_block", refuse)
    subcommand, _, key_value = setting.split()
    key = key_value.partition("=")[0]
    message = (f"levyheat:error:config: {subcommand} does not read {key}; it "
               f"reads {', '.join(COMMANDS[subcommand][2])}\n")
    config_file = tmp_path / "shared.cfg"
    config_file.write_text(f"# shared\n{key_value}\n")
    for tag, flags in (("set", ["--set", key_value]),
                       ("file", ["--config", str(config_file)])):
        code, out = run_cli([subcommand] + flags, tmp_path, tag)
        assert code == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


def test_density_has_no_bandwidth_key(tmp_path, capsys, monkeypatch):
    # kde always takes the Silverman rule; a bandwidth is refused as an
    # unknown key before any noise is drawn
    def refuse(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(noise, "_normal_block", refuse)
    code, out = run_cli(["density", "--set", "bandwidth=0.1"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err == (
        "levyheat:error:config: unknown config key 'bandwidth'\n")
    assert not out.exists()


def test_only_check_exponent_takes_beta():
    # every other subcommand's phi is exactly scale |n|^alpha
    assert [name for name, (_, _, keys) in COMMANDS.items()
            if "beta" in keys] == ["check-exponent"]


@pytest.mark.parametrize("subcommand", ["kernel", "check-exponent"])
def test_a_subcommand_without_noise_takes_and_ignores_the_seed(tmp_path,
                                                               subcommand):
    # scripts pass --seed to every subcommand; one that draws no noise
    # keeps it out of its run id and its config (no row holds a config
    # value)
    stem = subcommand.replace("-", "_")
    _, plain = run_cli([subcommand], tmp_path, "plain")
    code, out = run_cli([subcommand, "--seed", "3"], tmp_path, "seeded")
    assert code == 0
    for name in (f"{stem}.csv", f"{stem}.meta.json"):
        assert (out / name).read_bytes() == (plain / name).read_bytes()
    meta = json.loads((out / f"{stem}.meta.json").read_text())
    assert "seed" not in meta["config"] and "seed" not in meta


def test_the_readme_and_help_list_each_subcommands_keys(capsys):
    # one table, built from COMMANDS for --help and written in the README
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, keys = line.strip("| ").split(" | ")
            table[name.strip("`")] = tuple(k.strip("`")
                                           for k in keys.split(", "))
    assert table == {name: keys for name, (_, _, keys) in COMMANDS.items()}
    assert parse_and_dispatch(["--help"]) == 0
    words = " ".join(capsys.readouterr().out.split())
    for name, (_, help_, keys) in COMMANDS.items():
        assert f" {name} {help_} keys: {', '.join(keys)} " in words


# ---------------------------------------------------------------------------
# other subcommands end to end


def test_picard_subcommand(tmp_path):
    code, out = run_cli(["picard"] + SMALL + ["--set", "picard_n=3",
                                              "--set", "replicas=16"],
                        tmp_path)
    assert code == 0
    got = rows_by_quantity(out / "picard.csv")
    assert "picard_diff/n=0" in got
    assert "picard_ratio/n=1" in got
    assert got["picard_contracting"]["value"] in (0.0, 1.0)


@pytest.mark.parametrize("setting", ["moment_p=1", "picard_beta=-5",
                                     "picard_n=1"])
def test_picard_norm_parameters_are_config_errors(tmp_path, capsys, setting):
    # the weighted sup-L^p norm needs p >= 2 and a nonnegative weight, and
    # contracting needs a ratio, so two differences
    code, out = run_cli(["picard"] + SMALL + ["--set", setting], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("levyheat:error:config:")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_a_picard_weight_that_weighs_nothing_after_t0_is_refused(
        tmp_path, capsys, monkeypatch):
    # at dt = 0.025 the first step's weight e^(-beta dt) is a normal float
    # up to beta = 708.396 / dt = 28335.9; past it the norm would read 0 at
    # every step (1e6 wrote zero rows and "contracting": true), so it is
    # refused before any noise is drawn.  kernel's Laplace beta has no
    # such limit
    code, out = run_cli(["picard"] + SMALL + ["--set", "picard_beta=28300"],
                        tmp_path, "normal")
    assert code == 0
    assert rows_by_quantity(out / "picard.csv")["picard_diff/n=0"]["value"] > 0

    def refuse(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(noise, "_normal_block", refuse)
    for beta in ("28400", "1e6"):
        code, out = run_cli(["picard"] + SMALL + ["--set", f"picard_beta={beta}"],
                            tmp_path, beta)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "levyheat:error:config: picard_beta: need beta_param dt <= 708.396, "
            f"got {float(beta) * 0.025:.6g}: ")
        assert not out.exists()
    code, out = run_cli(["kernel", "--set", "picard_beta=1e6"], tmp_path, "k")
    assert code == 0


@pytest.mark.parametrize("subcommand, settings, message", [
    ("picard", "moment_p=nan", "need p >= 2"),
    ("picard", "picard_beta=nan", "need beta_param >= 0"),
    ("kernel", "picard_beta=nan", "need beta_param > 0"),
    ("malliavin", "moment_p=nan", "need p >= 2"),
    ("malliavin", "floor=nan", "need floor > 0"),
    ("malliavin", "deltas=nan", "tail windows must be positive and finite"),
    ("malliavin", "deltas=0.05,inf", "tail windows must be positive and finite"),
    ("simulate", "probe_x=nan", "is not finite"),
    ("simulate", "probe_x=inf", "is not finite"),
    ("simulate", "u0=sin u0_amp=nan", "u0 values must be finite"),
    ("picard", "moment_p=inf", "need p >= 2 and finite"),
    ("picard", "picard_beta=inf", "need beta_param >= 0 and finite"),
    ("kernel", "picard_beta=inf", "need beta_param > 0 and finite"),
    ("malliavin", "moment_p=inf", "need p >= 2 and finite"),
    ("malliavin", "floor=inf", "need floor > 0 and finite"),
    ("simulate", "drift=inf", "need a finite drift, got inf"),
    ("simulate", "drift=nan", "need a finite drift, got nan"),
    ("simulate", "scale=nan", "need scale c > 0 and finite, got nan"),
    ("kernel", "scale=inf", "need scale c > 0 and finite, got inf"),
])
def test_nan_parameters_are_config_errors(tmp_path, capsys, monkeypatch,
                                          subcommand, settings, message):
    # the config refuses a non-finite float value and names its key; a
    # comma list (deltas) is left to the layer that reads it.  Each layer
    # still refuses the value with its own message (the one listed): a NaN
    # fails every "x < bound" test, so each guard is a negated comparison
    # that NaN cannot pass, and an infinite window, probe point, moment
    # order, weight, floor, scale or drift is refused the same
    # way, before any numpy arithmetic can warn about it (pytest would keep
    # such a warning off stderr, so it is recorded here)
    sets = [arg for s in settings.split() for arg in ("--set", s)]
    key, _, raw = settings.split()[-1].partition("=")
    first = f"{key} must be finite, got {raw}" if SCHEMA[key][0] is float \
        else message
    for expected in (first, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli([subcommand] + small(subcommand) + sets,
                                tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("levyheat:error:config:") and expected in err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()
        monkeypatch.setattr(cli, "_parse_value",
                            lambda key, raw: SCHEMA[key][0](raw))


@pytest.mark.parametrize("subcommand, setting, message", [
    ("smallball", "moment_p=1", "moment_p: need p >= 2 and finite, got 1.0"),
    ("malliavin", "moment_p=1", "moment_p: need p >= 2 and finite, got 1.0"),
    ("picard", "moment_p=1", "moment_p: need p >= 2 and finite, got 1.0"),
    ("malliavin", "floor=0", "floor: need floor > 0 and finite, got 0.0"),
    ("smallball", "floor=-1e-8", "floor: need floor > 0 and finite"),
    ("smallball", "levels=1.5", "levels: need at least one quantile level, "
     "each in (0, 1), got [1.5]"),
    ("smallball", "levels=0.5,-0.1", "levels: need at least one quantile"),
    ("smallball", "levels=nan", "levels: need at least one quantile"),
    ("smallball", "levels=", "levels: need at least one quantile"),
    ("smallball", "levels=0", "levels: need at least one quantile level, "
     "each in (0, 1), got [0.0]"),
    ("smallball", "levels=0.5,1", "levels: need at least one quantile"),
    ("smallball", "levels=0.1,0.75", "levels: level 0.75 has no 95% interval "
     "from n = 8 samples: the upper end would lie past the largest"),
    ("smallball", "levels=0.5,0.5", "levels: two values name one row, "
     "got '0.5,0.5'"),
    ("smallball", "levels=0.1,0.50000001,0.5", "levels: two values name one "
     "row"),
    ("malliavin", "deltas=-1", "deltas: tail windows must be positive and "
     "finite, got [-1.0]"),
    ("malliavin", "deltas=0.05,0.005", "deltas: tail windows must exceed "
     "half a time step, dt = 0.025, got [0.005, 0.05]"),
    ("malliavin", "deltas=0.05,0.05", "deltas: two values name one row"),
    ("malliavin", "deltas=0.1,0.05,0.0500000001",
     "deltas: two values name one row"),
])
def test_bad_estimator_arguments_are_refused_before_sampling(
        tmp_path, capsys, monkeypatch, subcommand, setting, message):
    # each estimator key is checked, naming the key, before any noise is
    # drawn: the block filler that every variate comes from is a stub that
    # raises, which a good value reaches
    def refuse(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(noise, "_normal_block", refuse)
    code, out = run_cli([subcommand] + SMALL + ["--set", setting], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("levyheat:error:config: ") and message in err
    assert err.count("\n") == 1
    assert not out.exists()
    with pytest.raises(AssertionError, match="noise drawn"):
        run_cli([subcommand] + SMALL, tmp_path)


def test_duplicate_levels_are_merged_and_close_windows_kept(tmp_path):
    # two levels that name one row are refused (see the refusals above);
    # levels and windows whose names differ in their last written digit
    # make two rows each
    code, out = run_cli(["smallball"] + SMALL + ["--set", "levels=0.5,0.5"],
                        tmp_path, "same")
    assert code == 1 and not out.exists()
    code, out = run_cli(["smallball"] + SMALL
                        + ["--set", "levels=0.5,0.500001"], tmp_path)
    assert code == 0
    got = rows_by_quantity(out / "smallball.csv")
    assert {q for q in got if q.startswith("smallball_quantile/")} == {
        "smallball_quantile/level=0.5", "smallball_quantile/level=0.500001"}
    code, out = run_cli(["malliavin"] + SMALL
                        + ["--set", "deltas=0.05,0.05000001"], tmp_path, "w")
    assert code == 0
    got = rows_by_quantity(out / "malliavin.csv")
    assert {q for q in got if q.startswith("hnorm_tail_mean/")} == {
        "hnorm_tail_mean/delta=5.000000e-02",
        "hnorm_tail_mean/delta=5.000001e-02"}


def test_malliavin_subcommand(tmp_path):
    code, out = run_cli(["malliavin"] + SMALL + ["--set", "deltas=0.05,0.1"],
                        tmp_path)
    assert code == 0
    got = rows_by_quantity(out / "malliavin.csv")
    assert got["hnorm_mean"]["value"] > 0.0
    assert "hnorm_tail_mean/delta=5.000000e-02" in got
    assert any(q.startswith("negative_moment/p=2") for q in got)
    meta = json.loads((out / "malliavin.meta.json").read_text())
    assert "blowups" not in meta


def test_smallball_subcommand_rows(tmp_path):
    # each level's row is SampleSet.quantile's value, with the half-width
    # of its interval as the stderr; no mass lies below the certified floor,
    # so it is X_(0), the lower end of the levels up to 0.3, whose intervals
    # from 8 samples reach below the smallest: (1 - q)^8 >= 0.025
    code, out = run_cli(["smallball"] + SMALL, tmp_path)
    assert code == 0
    got = rows_by_quantity(out / "smallball.csv")
    mass, _ = hnorm_samples(sampled_config(["smallball"] + SMALL))
    floor = got.pop("smallball_certified_floor")["value"]
    for q in SCHEMA["levels"][1].split(","):
        value, lo, hi = mass.quantile(float(q), lower=floor)
        row = got.pop(f"smallball_quantile/level={q}")
        assert (row["value"], row["stderr"]) == (value, 0.5 * (hi - lo))
        assert lo <= value <= hi and 0.0 < floor <= min(mass.values)
        assert (lo == floor) == (float(q) <= 0.3)
    # the negative moment, and nothing else
    assert got and all(q.startswith(("negative_moment/",
                                     "negative_moment_floor_sweep/"))
                       for q in got)
    meta = json.loads((out / "smallball.meta.json").read_text())
    assert "blowups" not in meta


def test_smallball_row_names_do_not_depend_on_the_seed(tmp_path):
    # a row is named by its level, not by a sampled value; the values move
    rows = {}
    for seed in ("0", "1"):
        code, out = run_cli(["smallball"] + SMALL + ["--seed", seed],
                            tmp_path, seed)
        assert code == 0
        rows[seed] = {r["quantity"]: r["value"]
                      for r in load_rows(str(out / "smallball.csv"))}
    assert list(rows["0"]) == list(rows["1"])
    assert all(rows["0"][q] != rows["1"][q] for q in rows["0"]
               if q.startswith("smallball_quantile/"))


@pytest.mark.parametrize("seed", [43, 51])
def test_malliavin_rows_are_the_sample_set_estimators(tmp_path, seed):
    # every mean, sd and stderr in the rows is SampleSet's; at these seeds
    # numpy's pairwise mean and std(ddof=1) differ from them in the last bit
    # for each kind of row
    args = ["malliavin"] + SMALL + ["--set", "deltas=0.05,0.1",
                                    "--seed", str(seed)]
    code, out = run_cli(args, tmp_path)
    assert code == 0
    got = rows_by_quantity(out / "malliavin.csv")
    mass, tails = hnorm_samples(sampled_config(args), deltas=(0.05, 0.1))
    assert got["hnorm_mean"]["value"] == mass.mean()
    assert got["hnorm_mean"]["stderr"] == mass.stderr()
    assert got["hnorm_sd"]["value"] == mass.sd()
    for d in (0.05, 0.1):
        tail = got[f"hnorm_tail_mean/delta={d:.6e}"]
        assert tail["value"] == tails[d].mean()

    def moment(floor):  # p = 2
        return SampleSet(np.maximum(mass.values, floor) ** -1.0)

    nm = got["negative_moment/p=2/floor=1.000e-08"]
    assert (nm["value"], nm["stderr"]) == (moment(1e-8).mean(),
                                          moment(1e-8).stderr())
    for fl in (1e-8 * 10 ** (-j / 2) for j in range(3)):
        row = got[f"negative_moment_floor_sweep/floor={fl:.3e}"]
        assert row["value"] == moment(fl).mean()


def test_smallball_needs_nondegenerate_sigma(tmp_path, capsys, monkeypatch):
    # refused before sampling: the sampler is a stub that raises (a zero
    # sigma is constant, so its masses would draw no noise anyway)
    def refuse(*args, **kwargs):
        raise AssertionError("masses sampled")

    monkeypatch.setattr(cli, "hnorm_samples", refuse)
    code, out = run_cli(["smallball"] + SMALL + ["--set", "sigma=zero"],
                        tmp_path)
    assert code == 1
    assert "needs sigma bounded below: kappa > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("subcommand, replicas", [("malliavin", 8),
                                                  ("smallball", 64)])
def test_a_negative_moment_at_step_0_is_refused_before_sampling(
        tmp_path, capsys, monkeypatch, subcommand, replicas):
    # probe_t = 1e-12 snaps to step k_p = 0, t = 0, where every mass is 0:
    # the negative moment was floor^(-p/2) with stderr 0, and smallball
    # wrote quantiles and a certified floor of 0.  Refused, naming probe_t
    # and the time it is recorded as, before any noise is drawn
    def refuse(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(noise, "_normal_block", refuse)
    code, out = run_cli([subcommand, "--set", "probe_t=1e-12", "--set",
                         f"replicas={replicas}"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("levyheat:error:config: probe_t: the probe time "
                          "0 lies in step 0, ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_degenerate_mass_at_step_0_writes_no_negative_moment(tmp_path):
    # at kappa = 0 malliavin writes no negative moment, so a probe in step
    # 0 runs and writes its zero masses
    code, out = run_cli(["malliavin", "--set", "probe_t=1e-12", "--set",
                         "sigma=zero", "--set", "deltas=0.05"], tmp_path)
    assert code == 0
    got = rows_by_quantity(out / "malliavin.csv")
    assert sorted(got) == ["hnorm_mean", "hnorm_sd",
                           "hnorm_tail_mean/delta=5.000000e-02"]
    assert all(row["value"] == 0.0 for row in got.values())


def test_malliavin_at_kappa_0_leaves_the_negative_moment_keys_out(
        tmp_path, monkeypatch):
    # at kappa = 0 malliavin writes no negative moment, so moment_p and
    # floor change no value: its config, which it reads whole, leaves them
    # out (and u0_amp at u0 = zero), and two runs that differ only in them
    # write the same bytes
    configs = []

    def recorded(parsed):
        configs.append(ReadRecorder(effective_config(parsed)))
        return configs[-1]

    monkeypatch.setattr(cli, "effective_config", recorded)
    args = ["malliavin"] + SMALL + ["--set", "sigma=zero"]
    outs = [run_cli(args + extra, tmp_path, tag) for tag, extra in (
        ("plain", []), ("set", ["--set", "moment_p=3", "--set", "floor=1e-6"]))]
    assert [code for code, _ in outs] == [0, 0]
    for name in ("malliavin.csv", "malliavin.meta.json"):
        assert len({(out / name).read_bytes() for _, out in outs}) == 1
    keys = set(COMMANDS["malliavin"][2]) - {"moment_p", "floor", "u0_amp"}
    for cfg in configs:
        assert cfg.read == set(cfg) == keys


def test_density_subcommand(tmp_path):
    code, out = run_cli(["density"] + SMALL + ["--set", "replicas=64"],
                        tmp_path)
    assert code == 0
    got = rows_by_quantity(out / "density.csv")
    assert got["density_integral"]["value"] == pytest.approx(1.0, abs=1e-3)
    assert got["density_bandwidth"]["value"] > 0.0
    assert "density_max_d1" in got


def test_density_degenerate_point_mass(tmp_path, capsys):
    # sigma = 0 with zero initial data keeps u identically zero
    code, out = run_cli(["density"] + SMALL + ["--set", "sigma=zero"],
                        tmp_path)
    assert code == 0
    assert "point mass" in capsys.readouterr().out
    got = rows_by_quantity(out / "density.csv")
    assert set(got) == {"density_point_mass"}
    assert got["density_point_mass"]["value"] == 0.0


def test_the_data_file_has_one_encoding(tmp_path, capsys):
    # the data file is always CSV: there is no format to choose
    code, out = run_cli(["simulate"] + SMALL + ["--format", "json"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err == (
        "levyheat:error:config: unrecognized arguments: --format json\n")
    assert not out.exists()


def test_probe_must_be_on_grid(tmp_path, capsys):
    code, _ = run_cli(["simulate"] + SMALL + ["--set", "probe_x=1.0"],
                      tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("levyheat:error:config:")


@pytest.mark.parametrize("subcommand", ["simulate", "picard", "malliavin",
                                        "smallball", "density"])
def test_one_replica_is_config_error(tmp_path, capsys, subcommand):
    # moment estimates need 2 replicas; the run config refuses fewer before
    # any driver runs, the same way for every subcommand that builds one
    code, out = run_cli([subcommand] + SMALL + ["--set", "replicas=1"],
                        tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("levyheat:error:config:")
    assert not out.exists()
