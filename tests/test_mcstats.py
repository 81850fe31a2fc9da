"""Ensemble, density-estimation, slope-fit, and serialization tests.

The additive solver case supplies an exactly known Gaussian law, so the KDE
and ensemble checks compare against closed forms; serialization checks are
byte-level.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from levyheat import (
    DegenerateSamplesError,
    GridSpec,
    RunConfig,
    SampleSet,
    additive_variance_exact,
    emit,
    field_from_function,
    get_sigma,
    kde,
    kernel_l2_norm_sq,
    load_rows,
    make_power_exponent,
    run_ensemble,
    silverman_bandwidth,
    smoothness_report,
    solve_path,
)
from levyheat import solver
from levyheat.kernels import fit_slope
from levyheat.mcstats import CSV_COLUMNS, make_row
from levyheat.noise import _NoiseRows
from levyheat.solver import BlowUpError, _evolve_batch

from conftest import planted_infinity, traced_peak

EXP2 = make_power_exponent(1.0, 2.0)


def additive_config(replicas=4000, m=64, k=64, horizon=0.5, seed=21):
    grid = GridSpec(m_space=m, k_time=k, horizon=horizon)
    return RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("one"),
                     u0=field_from_function(lambda x: 0.0 * x, m), seed=seed,
                     replicas=replicas)


def sample_row(quantity="q", t=0.0, x=0.0, value=1.0):
    return make_row("r", quantity, value, t=t, x=x, replica_count=10)


# ---------------------------------------------------------------------------
# ensemble


def test_ensemble_is_union_of_single_runs():
    cfg = dataclasses.replace(additive_config(replicas=2, m=16, k=8,
                                              horizon=0.2),
                              sigma=get_sigma("shifted_sine"))
    ss = run_ensemble(cfg)
    singles = [solve_path(cfg, replica=r)[-1, 0] for r in (0, 1)]
    assert np.array_equal(ss.values, np.array(singles))


def test_ensemble_additive_statistics():
    cfg = additive_config()
    ss = run_ensemble(cfg)
    assert len(ss) == 4000
    assert abs(ss.mean()) < 3.0 * ss.stderr()
    var = additive_variance_exact(EXP2, cfg.grid)
    assert ss.variance() == pytest.approx(var, rel=0.1)
    assert cfg.probe == (0.5, 0.0)


def test_variance_stderr_is_the_fourth_moment_formula():
    # the u_var stderr of simulate, bit for bit as it was once written in
    # cmd_simulate, on skewed samples whose fourth moment matters
    values = np.random.default_rng(5).standard_normal(1001) ** 3
    ss = SampleSet(values)
    var = ss.variance()
    m4 = float(np.mean((values - ss.mean()) ** 4))
    assert ss.variance_stderr() == math.sqrt(max(m4 - var ** 2, 0.0) / 1001)
    assert len(ss) == 1001 and ss.sd() == math.sqrt(var)


@pytest.mark.parametrize("n, q", [(8, 0.5), (40, 0.02), (256, 0.02),
                                  (256, 0.5), (1000, 0.9), (65536, 0.3)])
def test_quantile_interval_ends_are_the_binomial_points(n, q):
    # [X_(j), X_(k)] with j and k - 1 at scipy's binomial(n, q) 2.5% and
    # 97.5% points; a permuted 1..n with the lower bound 0 makes X_(i) = i
    from scipy.stats import binom

    values = np.random.default_rng(n).permutation(np.arange(1.0, n + 1))
    value, lo, hi = SampleSet(values).quantile(q, lower=0.0)
    assert value == np.quantile(values, q)
    assert (lo, hi) == (binom.ppf(0.025, n, q), binom.ppf(0.975, n, q) + 1)
    assert binom.cdf(hi - 1, n, q) - binom.cdf(lo - 1, n, q) >= 0.95


def test_quantile_of_signed_samples_takes_the_given_lower_end():
    # u values have either sign: an interval that reaches below the smallest
    # of 8 samples has lower end -inf, unless the caller knows a bound
    ss = run_ensemble(additive_config(replicas=8))
    assert min(ss.values) < 0.0 < max(ss.values)
    value, lo, hi = ss.quantile(0.1)
    assert (lo, hi) == (-math.inf, sorted(ss.values)[3])
    assert lo < value == np.quantile(ss.values, 0.1) <= hi
    assert ss.quantile(0.1, lower=-5.0) == (value, -5.0, hi)
    # where the interval starts at a sample, the bound is not read
    assert ss.quantile(0.5, lower=-5.0) == ss.quantile(0.5)
    assert min(ss.values) <= ss.quantile(0.5)[1]


def test_ensemble_stderr_clt_scaling():
    big = run_ensemble(additive_config(replicas=4000))
    small = run_ensemble(additive_config(replicas=2000))
    assert small.stderr() / big.stderr() == pytest.approx(math.sqrt(2.0),
                                                          rel=0.10)


def test_ensemble_deterministic_across_workers():
    cfg = additive_config(replicas=600, m=16, k=8, horizon=0.2)
    a = run_ensemble(cfg, workers=1)
    b = run_ensemble(cfg, workers=4)
    assert np.array_equal(a.values, b.values)
    assert a.mean() == b.mean()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_ensemble_blowups_reported_not_silently_dropped(monkeypatch):
    # an infinite variate in replica 1 makes its value non-finite; the
    # ensemble raises for it rather than dropping it
    grid = GridSpec(m_space=16, k_time=8, horizon=0.2)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("shifted_sine"),
                    u0=field_from_function(np.sin, 16), seed=0, replicas=3)
    planted_infinity(monkeypatch, 1, 5 * 16)
    with pytest.raises(BlowUpError) as err:
        run_ensemble(cfg)
    assert err.value.replica == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_ensemble_matches_the_whole_block(monkeypatch, workers):
    # blocks of 3 rows over 37 steps at m_space = 10, in both chunks of 150
    # replicas that a budget of 256 spreads 300 over
    monkeypatch.setattr(solver, "_ROW_BLOCK_WORDS", 32)
    monkeypatch.setattr(solver, "_STREAM_CHUNK_WORDS", 256 * 10)
    sigma = get_sigma("shifted_sine")
    cfg = dataclasses.replace(additive_config(300, m=10, k=37, horizon=0.3),
                              sigma=sigma)
    ss = run_ensemble(cfg, workers=workers)
    values = []
    for lo, hi in ((0, 150), (150, 300)):
        u, _ = _evolve_batch(
            cfg, _NoiseRows(cfg.grid, cfg.seed, range(lo, hi))[:, :], 37)
        values.append(u[:, 0])
    assert np.array_equal(ss.values, np.concatenate(values))


def interior_probe_config(monkeypatch, sigma, k_p, replicas=300, m=16, k=8,
                          horizon=0.2):
    # probe at step k_p < k_time and at x_3; a budget of 256 replicas
    # spreads 300 over two chunks of 150
    monkeypatch.setattr(solver, "_STREAM_CHUNK_WORDS", 256 * m)
    cfg = dataclasses.replace(additive_config(replicas, m, k, horizon),
                              sigma=sigma)
    return dataclasses.replace(cfg, probe=(k_p * cfg.grid.dt,
                                           3 * cfg.grid.dx))


@pytest.mark.parametrize("workers", [1, 2])
def test_interior_probe_values_are_the_paths_at_the_probe(monkeypatch,
                                                          workers):
    cfg = interior_probe_config(monkeypatch, get_sigma("shifted_sine"), 5)
    assert cfg.probe_cell == (5, 3)
    ss = run_ensemble(cfg, workers=workers)
    singles = [solve_path(cfg, replica=r)[5, 3] for r in range(300)]
    assert np.array_equal(ss.values, np.array(singles))


def test_ensemble_chunks_stop_at_the_probe(monkeypatch):
    # sigma is evaluated once per step: each chunk takes k_p = 5 steps of
    # the 8 up to the horizon
    shapes = []
    base = get_sigma("shifted_sine")
    counting = dataclasses.replace(
        base, sigma=lambda u: shapes.append(u.shape) or base.sigma(u))
    run_ensemble(interior_probe_config(monkeypatch, counting, 5))
    assert shapes == [(150, 16)] * 10


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_blowup_after_the_probe_keeps_the_replica(monkeypatch):
    # an infinite variate in step 25 of replica 170 makes its field
    # non-finite from step 26 on; a probe at step 20 never draws that row,
    # so the replica keeps its value there, and a probe at the horizon
    # raises for it
    cfg = interior_probe_config(monkeypatch, get_sigma("shifted_sine"), 20,
                                m=10, k=37, horizon=0.3)
    grid = cfg.grid
    ref, path = _evolve_batch(cfg, _NoiseRows(grid, cfg.seed, range(300)),
                              37, keep_path=True)
    planted_infinity(monkeypatch, 170, 25 * 10 + 6)
    ss = run_ensemble(cfg)
    assert np.array_equal(ss.values, path[:, 20, 3])
    with pytest.raises(BlowUpError) as err:
        run_ensemble(dataclasses.replace(cfg, probe=None))
    assert err.value.replica == 170


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_is_the_same_for_every_chunk_budget(monkeypatch, workers):
    # each row's arithmetic does not depend on the batch it is stepped in:
    # chunks of 1, 7, 150 and all 300 replicas give the same values
    cfg = dataclasses.replace(additive_config(300, m=10, k=37, horizon=0.3),
                              sigma=get_sigma("shifted_sine"))
    results = []
    for words in (1, 70, 2560, 16384):
        monkeypatch.setattr(solver, "_STREAM_CHUNK_WORDS", words)
        results.append(run_ensemble(cfg, workers=workers))
    for ss in results[1:]:
        assert np.array_equal(ss.values, results[0].values)


def test_ensemble_memory_is_flat_in_replicas_and_steps():
    # the stepper holds one block of time rows per chunk, about 4 MiB here;
    # drawing a chunk's whole noise block first would need
    # 256 * k_time * m_space * 8 bytes, 32 MiB at 256 steps.  A chunk holds
    # solver._STREAM_CHUNK_WORDS words of field, so the peak is flat in
    # m_space
    def peak(replicas, m, k):
        cfg = dataclasses.replace(additive_config(replicas, m, k),
                                  sigma=get_sigma("shifted_sine"))
        return traced_peak(run_ensemble, cfg)[1]

    base = peak(256, 64, 32)
    assert peak(1024, 64, 32) <= 1.25 * base
    assert peak(256, 64, 256) <= 1.25 * base
    assert peak(256, 128, 32) <= 1.25 * base


def test_constant_sigma_ensemble_memory_is_one_noise_block():
    # a Wiener chunk holds one noise block of solver._WIENER_CHUNK_WORDS
    # words, 512 KiB, and the weights, k_time m_space words, at most 128
    # KiB here, whatever replicas, k_time and m_space, down to m_space = 4.
    # A second block alive while the next is drawn adds 512 KiB; a chunk
    # sized by words of field held 16 MiB blocks at 16 x 1024 from 1024
    # replicas on, and 1 MiB at the 64 here
    def peak(replicas, m, k):
        return traced_peak(run_ensemble, additive_config(replicas, m, k))[1]

    bound = 1.5 * 8 * solver._WIENER_CHUNK_WORDS
    for replicas, m, k in ((64, 64, 32), (1024, 64, 32), (64, 64, 256),
                           (64, 256, 32), (64, 16, 1024), (64, 4, 1024)):
        assert peak(replicas, m, k) <= bound, (replicas, m, k)


def test_stepped_ensemble_memory_is_one_noise_block():
    # a stepped chunk holds one noise block of at most
    # solver._STREAM_BLOCK_CHUNK_WORDS words, 2 MiB, and its field of at
    # most solver._STREAM_CHUNK_WORDS words, with the step's temporaries,
    # whatever replicas, k_time and m_space.  A chunk sized by words of
    # field alone held blocks of 2^25 / m_space words: 4 MiB at 4 x 512
    # from 256 replicas on, 8 MiB at 16 x 256 from 512, and 16 MiB at
    # 16 x 1024 from 1024
    def peak(replicas, m, k):
        cfg = dataclasses.replace(additive_config(replicas, m, k),
                                  sigma=get_sigma("shifted_sine"))
        return traced_peak(run_ensemble, cfg)[1]

    bound = 1.5 * 8 * (solver._STREAM_BLOCK_CHUNK_WORDS
                       + solver._STREAM_CHUNK_WORDS)
    for replicas, m, k in ((64, 4, 512), (256, 4, 512), (64, 4, 1024),
                           (64, 16, 256), (512, 16, 256), (64, 16, 1024),
                           (64, 128, 16), (256, 128, 16), (64, 128, 128)):
        assert peak(replicas, m, k) <= bound, (replicas, m, k)


def test_ensemble_validation():
    # a one-replica run has no variance: the config refuses it before any
    # driver runs
    with pytest.raises(ValueError):
        additive_config(replicas=1, m=16, k=8, horizon=0.2)


# ---------------------------------------------------------------------------
# density estimation


def test_kde_matches_additive_gaussian_law():
    cfg = additive_config()
    ss = run_ensemble(cfg)
    est = kde(ss.values)
    sd = math.sqrt(additive_variance_exact(EXP2, cfg.grid))
    ks = float(np.max(np.abs(est.cdf() - ndtr(est.points / sd))))
    assert ks < 0.02
    assert est.integral() == pytest.approx(1.0, abs=1e-3)
    assert np.all(est.density >= 0.0)
    assert est.metadata == {"samples": len(ss)}


def test_kde_explicit_bandwidth_and_points():
    rng = np.random.default_rng(7)
    s = rng.standard_normal(200)
    est = kde(s, bandwidth=0.4)
    assert est.bandwidth == 0.4
    assert est.integral() == pytest.approx(1.0, abs=5e-3)


def direct_kde(samples, bandwidth):
    """The whole (512, n) kernel matrix at once: the reference for kde."""
    lo = samples.min() - 4.0 * bandwidth
    hi = samples.max() + 4.0 * bandwidth
    points = np.linspace(lo, hi, 512)
    z = (points[:, None] - samples[None, :]) / bandwidth
    dens = np.exp(-0.5 * z * z).mean(axis=1) / (bandwidth * math.sqrt(2 * math.pi))
    return points, dens


def binning_bound(points, h):
    """Largest distance of kde from direct_kde: linear binning at delta =
    step / r, r = max(16, ceil(4 step / h)), moves each value by at most
    delta^2 sup|K_h''| / 8, and sup|K_h''| = 1 / (sqrt(2 pi) h^3)."""
    step = (points[-1] - points[0]) / 511
    delta = step / max(16, math.ceil(4.0 * step / h))
    return delta ** 2 / (8.0 * math.sqrt(2.0 * math.pi) * h ** 3)


@pytest.mark.parametrize("n", [2, 1001, 32768])
def test_kde_blocks_match_the_direct_sum(n):
    # 1e-12 of the peak covers the FFT's roundoff
    s = np.random.default_rng(n).standard_normal(n)
    for bandwidth in (None, 0.3, 0.017):
        est = kde(s, bandwidth)
        h = silverman_bandwidth(s) if bandwidth is None else bandwidth
        points, dens = direct_kde(s, h)
        assert est.bandwidth == h
        assert np.array_equal(est.points, points)
        assert np.max(np.abs(est.density - dens)) <= (
            binning_bound(points, h) + 1e-12 * np.max(dens))
        assert np.array_equal(est.d1, np.gradient(est.density, points))


def test_kde_memory_at_perfbench_size():
    # the (512, n) matrix and its temporaries need 384 MiB at n = 32768
    s = np.random.default_rng(4).standard_normal(32768)
    _, peak = traced_peak(kde, s)
    assert peak < 8 * 2 ** 20


def test_kde_memory_is_a_few_sample_arrays():
    # binning holds the bin positions and indices, two arrays of n words,
    # next to bin arrays of O(range / h); a direct sum over blocks of 8
    # grid points held two (8, n) buffers, 16 sample arrays
    s = np.random.default_rng(5).standard_normal(2 ** 17)
    _, peak = traced_peak(kde, s)
    assert peak <= 6 * s.nbytes + 2 * 2 ** 20


def test_kde_degenerate_point_mass():
    with pytest.raises(DegenerateSamplesError) as err:
        kde(np.full(50, 3.25))
    assert err.value.value == 3.25
    assert err.value.count == 50


@pytest.mark.filterwarnings("error")
def test_kde_validation():
    with pytest.raises(ValueError):
        kde(np.array([1.0]))
    with pytest.raises(ValueError):
        kde(np.array([1.0, np.nan, 2.0]))
    # NaN fails every comparison, so only a negated "0 < h < inf" refuses
    # it.  np.gradient divides by about twice the squared grid spacing
    # (span + 8 h) / 511: from h ~ 6e155 on that overflowed, warned and gave
    # 0 derivatives, and at 1e307 and 1e308 the grid was not finite
    for bandwidth in (-1.0, 0.0, math.nan, math.inf, 6e155, 1e200, 1e307,
                      1e308):
        with pytest.raises(ValueError, match="bandwidth"):
            kde(np.array([1.0, 2.0, 3.0]), bandwidth=bandwidth)
    # 1e155 runs; the samples' span counts toward the spacing too
    est = kde(np.array([1.0, 2.0, 3.0]), bandwidth=1e155)
    assert np.all(np.isfinite(est.d1)) and est.integral() > 0.99
    with pytest.raises(ValueError, match=re.escape("bandwidth 1e+150 is too "
                                                   "large: np.gradient")):
        kde(np.array([-1e157, 1e157]), bandwidth=1e150)


def test_kde_refuses_a_bin_grid_past_the_cap():
    # at 4 bins per bandwidth, h = 1e-6 over a span of 2 needs about 8e6
    # bins; 1e-4 needs about 8e4 and runs
    s = np.array([-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="bins"):
        kde(s, bandwidth=1e-6)
    est = kde(s, bandwidth=1e-4)
    points, dens = direct_kde(s, 1e-4)
    assert np.max(np.abs(est.density - dens)) <= (
        binning_bound(points, 1e-4) + 1e-12 * np.max(dens))


def test_silverman_rule_value():
    rng = np.random.default_rng(11)
    s = rng.standard_normal(1000)
    h = silverman_bandwidth(s)
    sd = float(np.std(s, ddof=1))
    iqr = float(np.subtract(*np.percentile(s, [75.0, 25.0])))
    assert h == pytest.approx(0.9 * min(sd, iqr / 1.34) * 1000 ** -0.2)


# ---------------------------------------------------------------------------
# smoothness report


def test_smoothness_matches_calculus_oracle():
    # stratified normal quantiles remove Monte Carlo wiggle, so the reported
    # peak slope matches the normal-density calculus value for the smoothed
    # law (variance inflated by the squared bandwidth)
    n = 4096
    s = ndtri((np.arange(n) + 0.5) / n)
    est = kde(s)
    rep = smoothness_report(est)
    var_eff = float(np.var(s, ddof=1)) + est.bandwidth ** 2
    oracle = 1.0 / (var_eff * math.sqrt(2.0 * math.pi * math.e))
    assert rep.max_d1 == pytest.approx(oracle, rel=0.10)
    assert rep.d2_sign_changes == 2
    assert not rep.under_smoothed


def test_smoothness_flags_under_smoothing():
    rng = np.random.default_rng(3)
    s = rng.standard_normal(300)
    rep = smoothness_report(kde(s, bandwidth=0.02))
    assert rep.under_smoothed
    assert rep.d2_sign_changes > 2


def test_smoothness_monotone_in_bandwidth():
    rng = np.random.default_rng(3)
    s = rng.standard_normal(300)
    h = silverman_bandwidth(s)
    tight = smoothness_report(kde(s, bandwidth=h))
    wide = smoothness_report(kde(s, bandwidth=2.0 * h))
    assert wide.max_d1 < tight.max_d1
    assert wide.max_d2 < tight.max_d2


def test_smoothness_rows():
    rng = np.random.default_rng(5)
    rep = smoothness_report(kde(rng.standard_normal(500)))
    assert rep.max_d1 > 0 and rep.max_d2 > 0
    assert rep.under_smoothed == (rep.d2_sign_changes > 2)


# ---------------------------------------------------------------------------
# slope fitting


def test_fit_slope_exact_power():
    xs = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    fit = fit_slope(xs, 3.0 * xs ** 2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_constant():
    fit = fit_slope(np.array([1.0, 2.0, 4.0]), np.array([5.0, 5.0, 5.0]))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == 1.0


def test_fit_slope_kernel_norm_rate():
    exp15 = make_power_exponent(1.0, 1.5)
    ts = np.geomspace(1e-5, 1e-3, 9)
    fit = fit_slope(ts, [kernel_l2_norm_sq(exp15, t)[0] for t in ts])
    assert fit.slope == pytest.approx(-2.0 / 3.0, rel=0.03)
    assert fit.r2 > 0.999


def test_fit_slope_validation():
    with pytest.raises(ValueError):
        fit_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_slope([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        fit_slope([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# serialization


def test_emit_csv_layout_and_order(tmp_path):
    rows = [sample_row("b", t=0.5), sample_row("a", t=1.0),
            sample_row("a", t=0.5, x=1.0), sample_row("a", t=0.5, x=0.5)]
    path = tmp_path / "out.csv"
    emit(rows, str(path))
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == "# levyheat csv schema v2"
    assert lines[1] == "run_id,replica_count,t,x,quantity,value,stderr,tail_bound"
    got = load_rows(str(path))
    keys = [(r["quantity"], r["t"], r["x"]) for r in got]
    assert keys == sorted(keys)
    assert "\r" not in text


def test_emit_rerun_byte_identical(tmp_path):
    rows = [sample_row("a", value=1.0 / 3.0), sample_row("b", value=math.pi)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(rows, str(p1))
    emit(list(reversed(rows)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_roundtrip_gives_back_the_typed_rows(tmp_path):
    rows = [sample_row("a", value=1.0 / 3.0), sample_row("b", value=-2.5e-17),
            sample_row("c", value=np.float64(math.pi), t=np.float32(0.5))]
    path = tmp_path / "r.csv"
    emit(rows, str(path))
    got = load_rows(str(path))
    assert got == rows
    assert got[0]["value"] == 1.0 / 3.0
    assert got[1]["value"] == -2.5e-17
    assert got[2]["t"] == 0.5


def test_make_row_types_each_cell():
    row = make_row(np.str_("r"), "q", np.float64(0.25), stderr=1,
                   t=np.float64(0.5), replica_count=np.int64(10))
    assert list(row) == list(CSV_COLUMNS)
    types = {col: type(cell) for col, cell in row.items()}
    assert types == {col: {"run_id": str, "quantity": str,
                           "replica_count": int}.get(col, float)
                     for col in CSV_COLUMNS}
    assert (row["replica_count"], row["t"], row["stderr"]) == (10, 0.5, 1.0)


def test_emit_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert load_rows(str(path)) == []


def test_emit_unwritable_path():
    with pytest.raises(OSError) as err:
        emit([sample_row()], "/nonexistent-dir/out.csv")
    assert "/nonexistent-dir/out.csv" in str(err.value)
