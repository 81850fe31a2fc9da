"""Solver tests: scheme consistency, additive-case law, Picard contraction.

Monte Carlo checks use fixed seeds and multi-standard-error margins; the
additive-case targets come from the geometric per-mode sum, so statistical and
discretization error are separated.
"""

import dataclasses
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from levyheat import (
    BlowUpError,
    GridSpec,
    RunConfig,
    SIGMA_REGISTRY,
    SigmaSpec,
    additive_variance_exact,
    field_from_function,
    get_sigma,
    kernel_l2_norm_sq,
    kernel_l2_time_integral,
    make_power_exponent,
    noise_density_scale,
    picard_sequence,
    rfft_multiplier,
    sample_noise,
    solve_path,
)
from levyheat.kernels import rfft_weights
from levyheat import noise, solver
from levyheat.noise import XI_MAX, _NoiseRows
from levyheat.solver import _evolve_batch, map_chunks, sample_at_probe

from conftest import planted_infinity, semigroup, traced_peak

TWO_PI = 2.0 * math.pi

EXP2 = make_power_exponent(1.0, 2.0)


def zero_field(m):
    return field_from_function(lambda x: 0.0 * x, m)


def config_of(grid, sigma, u0):
    """The run under EXP2 that _evolve_batch steps from u0."""
    return RunConfig(grid=grid, exponent=EXP2, sigma=sigma, u0=u0)


# ---------------------------------------------------------------------------
# sigma registry


def test_sigma_registry():
    s = get_sigma("shifted_sine")
    assert s.sigma(np.array([0.0]))[0] == pytest.approx(2.0)
    assert s.sigma_prime(np.array([0.0]))[0] == pytest.approx(1.0)
    assert s.kappa == 1.0
    assert get_sigma("zero").kappa == 0.0
    assert [n for n, s in SIGMA_REGISTRY.items() if s.lip == 0] == [
        "zero", "one", "two"]
    with pytest.raises(ValueError):
        get_sigma("cubic")
    with pytest.raises(ValueError):
        SigmaSpec("bad", lambda u: u, lambda u: u, kappa=-0.5, lip=1.0,
                  sup=1.0)


@pytest.mark.parametrize("key, value", [
    (key, value) for key in ("kappa", "lip", "sup")
    for value in (-0.5, math.inf, math.nan)])
def test_sigma_bounds_must_be_nonnegative_and_finite(key, value):
    bounds = {"kappa": 1.0, "lip": 1.0, "sup": 1.0, key: value}
    with pytest.raises(ValueError, match=key):
        SigmaSpec("bad", lambda u: u, lambda u: u, **bounds)


@pytest.mark.parametrize("name", sorted(SIGMA_REGISTRY))
def test_registry_sigma_is_lipschitz_with_its_lip(name):
    # lip = 0 declares sigma constant, and sample_at_probe then sums a
    # Wiener integral instead of stepping: check both on random points, the
    # pairs from far apart down to 1e-6 apart
    spec = SIGMA_REGISTRY[name]
    rng = np.random.default_rng(8)
    a = rng.uniform(-20.0, 20.0, 4000)
    b = a + rng.uniform(-1.0, 1.0, 4000) * 10.0 ** rng.uniform(-6, 1, 4000)
    # 2 + sin rounds to within an ulp of 3
    slack = 2 * np.spacing(3.0)
    assert np.all(np.abs(spec.sigma(a) - spec.sigma(b))
                  <= spec.lip * np.abs(a - b) + slack)
    # kappa <= |sigma| <= sup, which the certificate reads
    assert np.all((spec.kappa <= np.abs(spec.sigma(a)))
                  & (np.abs(spec.sigma(a)) <= spec.sup))
    if spec.lip == 0:
        assert np.all(spec.sigma(a) == spec.sigma(0.0))
        assert np.all(spec.sigma_prime(a) == 0.0)


# ---------------------------------------------------------------------------
# single step


def test_step_matches_direct_convolution_oracle():
    # one step on m=8 against an O(m^2) direct sum over modes -3..3 plus the
    # Nyquist cosine harmonic, written without any FFT
    grid = GridSpec(m_space=8, k_time=4, horizon=0.2)
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal(8)
    xi = sample_noise(grid, seed=8, replica=0)
    sigma = get_sigma("shifted_sine")
    u, _ = _evolve_batch(config_of(grid, sigma, u0), xi[None], 1)
    out = u[0]

    g = sigma.sigma(u0) + 0.0
    w = u0 + g * xi[0] * noise_density_scale(grid)
    x = grid.x_points()
    dt = grid.dt
    oracle = np.zeros(8)
    for i in range(8):
        acc = 0.0
        for n in range(-3, 4):
            c = np.mean(w * np.exp(-1j * n * x))
            acc += (np.exp(-dt * EXP2.phi(np.array([n]))[0]) * c
                    * np.exp(1j * n * x[i])).real
        c4 = np.mean(w * np.cos(4 * x))
        acc += np.exp(-dt * EXP2.phi(np.array([4]))[0]).real * c4 * np.cos(4 * x[i])
        oracle[i] = acc
    assert out == pytest.approx(oracle, abs=1e-12)


def test_rfft_multiplier_nyquist_real():
    grid = GridSpec(m_space=16, k_time=4, horizon=0.2)
    drifted = make_power_exponent(1.0, 2.0, drift=0.7)
    mult = rfft_multiplier(drifted, grid)
    assert mult.shape == (9,)
    assert mult[-1].imag == 0.0
    assert abs(mult[1]) < 1.0


# ---------------------------------------------------------------------------
# deterministic flows


def test_zero_sigma_matches_semigroup():
    grid = GridSpec(m_space=32, k_time=10, horizon=0.3)
    u0 = field_from_function(lambda x: np.sin(x) + 0.4 * np.cos(3 * x), 32)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("zero"), u0=u0,
                    seed=0, replicas=2)
    path = solve_path(cfg)
    for k in (0, 5, 10):
        assert path[k] == pytest.approx(semigroup(EXP2, k * grid.dt, u0),
                                        abs=1e-12)


def test_constant_initial_state_is_preserved():
    # phi(0) = 0, so the spatial mean never decays and sigma = 0 leaves it alone
    grid = GridSpec(m_space=16, k_time=8, horizon=0.4)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("zero"),
                    u0=field_from_function(lambda x: 0.0 * x + 1.7, 16),
                    seed=0, replicas=2)
    path = solve_path(cfg)
    assert path[-1] == pytest.approx(np.full(16, 1.7), abs=1e-13)


def test_additive_superposition():
    # with constant sigma the noise response is u0-independent, so the paths
    # for two initial states differ by the deterministic semigroup flow
    grid = GridSpec(m_space=32, k_time=20, horizon=0.25)
    u0 = field_from_function(np.sin, 32)
    base = dict(grid=grid, exponent=EXP2, sigma=get_sigma("one"), seed=4,
                replicas=2)
    path_sin = solve_path(RunConfig(u0=u0, **base))
    path_zero = solve_path(RunConfig(u0=zero_field(32), **base))
    for k in (5, 20):
        assert path_sin[k] - path_zero[k] == pytest.approx(
            semigroup(EXP2, k * grid.dt, u0), abs=1e-12)


def test_torus_periodicity():
    grid = GridSpec(m_space=16, k_time=8, horizon=0.2)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("shifted_sine"),
                    u0=field_from_function(np.cos, 16), seed=11, replicas=2)
    values = solve_path(cfg)[-1]
    modes = np.fft.rfft(values) / 16
    n = np.arange(len(modes))

    def synth(x):
        return float(np.sum(rfft_weights(16) * (modes * np.exp(1j * n * x)).real))

    at_zero, at_two_pi = synth(0.0), synth(TWO_PI)
    assert at_zero == pytest.approx(at_two_pi, rel=1e-12, abs=1e-14)
    assert at_zero == pytest.approx(values[0], rel=1e-10, abs=1e-12)


def test_solve_path_time_validation():
    # the probe time is the only time a run takes; it must be a grid time
    # within [0, horizon]
    grid = GridSpec(m_space=16, k_time=8, horizon=0.2)
    base = dict(grid=grid, exponent=EXP2, sigma=get_sigma("one"),
                u0=zero_field(16), seed=0, replicas=2)
    assert solve_path(RunConfig(**base)).shape == (9, 16)
    with pytest.raises(ValueError):
        RunConfig(probe=(0.013, 0.0), **base)
    with pytest.raises(ValueError):
        RunConfig(probe=(0.4, 0.0), **base)


def test_probe_indices_mapping():
    grid = GridSpec(m_space=16, k_time=8, horizon=0.2)
    base = dict(grid=grid, exponent=EXP2, sigma=get_sigma("one"),
                u0=zero_field(16), seed=0, replicas=2)
    cfg = RunConfig(probe=(0.1, math.pi), **base)
    assert cfg.probe_cell == (4, 8)
    default = RunConfig(**base)
    assert default.probe == (0.2, 0.0) and default.probe_cell == (8, 0)
    with pytest.raises(ValueError):
        RunConfig(probe=(0.1, 1.0), **base)


def test_config_validation():
    grid = GridSpec(m_space=16, k_time=8, horizon=0.2)
    with pytest.raises(ValueError):
        RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("one"),
                  u0=zero_field(32), seed=0, replicas=2)
    for replicas in (0, 1):
        with pytest.raises(ValueError):
            RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("one"),
                      u0=zero_field(16), seed=0, replicas=replicas)
    # a seed or a replica count is an integer, by GridSpec's rule for a
    # size: seed 1.5 would sample seed 1's noise, and replicas 10.0 would
    # fail only inside map_chunks.  A negative seed keys stream seed mod 2^64
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("one"),
                    u0=zero_field(16), replicas=2)
    for key, value in (("seed", 1.5), ("seed", 1.9), ("seed", np.float64(1)),
                       ("seed", "1"), ("replicas", 10.0),
                       ("replicas", np.float64(10))):
        with pytest.raises(ValueError, match=f"need an integer {key}, got "):
            dataclasses.replace(cfg, **{key: value})
    for key, value in (("seed", -3), ("seed", np.int64(2 ** 62)),
                       ("replicas", np.int32(10))):
        assert getattr(dataclasses.replace(cfg, **{key: value}), key) == value


def test_u0_is_a_read_only_copy_of_finite_grid_values():
    grid = GridSpec(m_space=16, k_time=8, horizon=0.2)
    base = dict(grid=grid, exponent=EXP2, sigma=get_sigma("one"), seed=0,
                replicas=2)
    with_nan = field_from_function(np.sin, 16)
    with_nan[3] = np.nan
    for bad in (np.zeros(15), np.zeros((1, 16)), np.zeros((16, 16)), with_nan,
                np.full(16, np.inf)):
        with pytest.raises(ValueError):
            RunConfig(u0=bad, **base)
    mine = field_from_function(np.sin, 16)
    cfg = RunConfig(u0=mine, **base)
    assert cfg.u0.dtype == float and cfg.u0.shape == (16,)
    mine[:] = 5.0
    assert np.array_equal(cfg.u0, field_from_function(np.sin, 16))
    assert not cfg.u0.flags.writeable
    with pytest.raises(ValueError):
        cfg.u0[0] = 1.0
    # a list of grid values is accepted and stored the same way
    assert np.array_equal(RunConfig(u0=[0.0] * 16, **base).u0, np.zeros(16))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_blow_up_reported(monkeypatch):
    # a field can only blow up through an infinite variate, planted here in
    # cell (3, 2) of replica 1; the path raises, naming the replica
    grid = GridSpec(m_space=16, k_time=8, horizon=0.2)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("shifted_sine"),
                    u0=field_from_function(np.sin, 16), seed=0, replicas=2)
    planted_infinity(monkeypatch, 1, 3 * 16 + 2)
    assert np.all(np.isfinite(solve_path(cfg, replica=0)))
    with pytest.raises(BlowUpError) as err:
        solve_path(cfg, replica=1)
    assert err.value.replica == 1
    assert str(err.value) == ("replica 1 has a non-finite field: one of its "
                              "variates is infinite")


# ---------------------------------------------------------------------------
# streamed noise


@pytest.mark.parametrize("m", [6, 10])
@pytest.mark.parametrize("words", [1, 32, 2048])
def test_streamed_noise_matches_the_whole_block(monkeypatch, m, words):
    # 32 words give blocks of 5 or 3 rows, the second starting at word 30,
    # mid Philox block, and 37 steps leave a short last block; 1 word steps
    # row by row, 2048 draws all 37 rows at once
    monkeypatch.setattr(solver, "_ROW_BLOCK_WORDS", words)
    grid = GridSpec(m_space=m, k_time=37, horizon=0.3)
    lazy = _NoiseRows(grid, 4, range(5, 12))
    whole = _NoiseRows(grid, 4, range(5, 12))[:, :]
    assert lazy.shape == whole.shape == (7, 37, m)
    for k0, k1 in ((0, 37), (3, 6), (35, 40)):
        assert np.array_equal(lazy[:, k0:k1], whole[:, k0:k1])
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("shifted_sine"),
                    u0=field_from_function(np.sin, m), seed=4, replicas=2)
    u_a, path_a = _evolve_batch(cfg, lazy, 37, True)
    u_b, path_b = _evolve_batch(cfg, whole, 37, True)
    assert np.array_equal(path_a, path_b)
    assert np.array_equal(u_a, u_b) and np.array_equal(u_a, path_a[:, 37])
    assert np.array_equal(path_a[:, 0], np.broadcast_to(cfg.u0, (7, m)))
    # stopping early walks the same path: step 4 ends the second block of
    # rows at 32 words and the first at 2048
    u_4, path_4 = _evolve_batch(cfg, lazy, 4, True)
    assert np.array_equal(u_4, path_a[:, 4])
    assert np.array_equal(path_4, path_a[:, :5])
    assert np.array_equal(path_a[2], solve_path(cfg, replica=7))


def test_the_step_allocates_only_what_sigma_returns():
    # the stepper works in its own buffers: between two sigma calls, one
    # step, the only new (B, M) array is the one sigma returns.  The noise
    # is one (K, M) array broadcast over the batch, read through views, and
    # numpy's ufunc buffers (np.getbufsize() elements each) fit in the margin
    b, m, k = 1024, 64, 64
    field = b * m * 8
    grid = GridSpec(m_space=m, k_time=k, horizon=0.2)
    xi = np.broadcast_to(np.random.default_rng(5).standard_normal((k, m)),
                         (b, k, m))
    marks = []

    def sigma(u):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return np.full_like(u, 2.0)

    spec = SigmaSpec("marked", sigma, np.zeros_like, kappa=2.0, lip=0.0,
                     sup=2.0)
    traced_peak(_evolve_batch, config_of(grid, spec, np.zeros(m)), xi, k)
    assert len(marks) == k
    # peak during step j minus what was live when step j began
    extra = [peak - current for (current, _), (_, peak)
             in zip(marks, marks[1:])]
    assert max(extra) <= 1.5 * field


@pytest.mark.parametrize("workers", [1, 2])
def test_sample_at_probe_joins_the_chunks_and_needs_two(monkeypatch,
                                                        workers):
    # a stub pass gives replica r the field r, NaN for the replicas in
    # `bad`; chunk rows become replica indices, every array read off a
    # chunk is joined in replica order, and the first non-finite replica by
    # index raises, whichever chunk ends first
    bad = set()

    def stub(config, xi, until_k, keep_path=False):
        u = np.array([np.nan if r in bad else r for r in xi.replicas])
        return np.repeat(u[:, None], config.grid.m_space, axis=1), None

    monkeypatch.setattr(solver, "_evolve_batch", stub)
    # chunks of at most 3 replicas of 4 points: [0, 3) and [3, 5)
    monkeypatch.setattr(solver, "_STREAM_CHUNK_WORDS", 3 * 4)
    cfg = RunConfig(grid=GridSpec(m_space=4, k_time=8, horizon=0.2),
                    exponent=EXP2, sigma=get_sigma("shifted_sine"),
                    u0=np.zeros(4), replicas=5)
    a, b = sample_at_probe(
        cfg, lambda u_p, path, xi: (u_p, u_p + 5.0), workers)
    assert a.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert b.values.tolist() == [5.0, 6.0, 7.0, 8.0, 9.0]
    bad.update((4, 2))
    with pytest.raises(BlowUpError) as err:
        sample_at_probe(cfg, lambda u_p, path, xi: (u_p,), workers)
    assert err.value.replica == 2
    # moment estimates need two replicas, which the config insists on
    with pytest.raises(ValueError, match="at least 2 replicas"):
        dataclasses.replace(cfg, replicas=1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_chunks_yields_in_order_and_holds_few_unread(workers):
    # the chunks at lo = 0, 12, 24, ... sleep, so later chunks finish first,
    # but they come back in chunk order; no more than workers + 1 chunks are
    # ever submitted and not yet read
    lock = threading.Lock()
    started, read = [], []

    def fn(lo, hi):
        with lock:
            started.append(lo)
            assert len(started) - len(read) <= workers + 1
        time.sleep(0.002 * (lo % 4 == 0))
        return lo, hi

    out = []
    for lo, hi in map_chunks(fn, 50, 3, workers):
        with lock:
            read.append(lo)
        out.append((lo, hi))
    assert out == [(lo, min(lo + 3, 50)) for lo in range(0, 50, 3)]
    assert sorted(started) == read


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_streamed_blowups_in_later_blocks(monkeypatch):
    # blocks of 3 rows; an infinite variate planted in step 20 of replica 7,
    # in the seventh block, reaches that replica's field at step 21 alone,
    # streamed or read whole, and every other row stays finite
    monkeypatch.setattr(solver, "_ROW_BLOCK_WORDS", 32)
    grid = GridSpec(m_space=10, k_time=37, horizon=0.3)
    planted_infinity(monkeypatch, 7, 20 * 10 + 4)

    def run(xi):
        return _evolve_batch(config_of(grid, get_sigma("shifted_sine"),
                                       np.zeros(10)), xi, 37, True)

    u_a, path_a = run(_NoiseRows(grid, 3, range(30)))
    u_b, path_b = run(_NoiseRows(grid, 3, range(30))[:, :])
    assert np.array_equal(path_a, path_b, equal_nan=True)
    assert np.array_equal(u_a, u_b, equal_nan=True)
    finite = np.isfinite(path_a).all(axis=-1)
    assert finite[:, :21].all() and not finite[7, 21:].any()
    assert np.delete(finite, 7, axis=0).all()


# ---------------------------------------------------------------------------
# additive-case law


def test_additive_variance_and_skewness():
    grid = GridSpec(m_space=64, k_time=64, horizon=0.5)
    xi = _NoiseRows(grid, 21, range(4000))[:, :]
    u, _ = _evolve_batch(config_of(grid, get_sigma("one"), zero_field(64)),
                         xi, 64)
    u = u[:, 0]
    n = len(u)
    var = float(np.var(u, ddof=1))
    m4 = float(np.mean((u - u.mean()) ** 4))
    se_var = math.sqrt((m4 - var ** 2) / n)
    exact = additive_variance_exact(EXP2, grid)
    assert abs(var - exact) < 3.0 * se_var
    # the geometric sum is the isometry's right-endpoint quadrature
    # sum_{j=1..K} dt ||q_{j dt}||^2 on the grid, up to band truncation
    norms, _ = kernel_l2_norm_sq(EXP2,
                                 grid.dt * np.arange(1, grid.k_time + 1))
    assert grid.dt * math.fsum(norms) == pytest.approx(exact, rel=1e-6)
    skew = float(np.mean(((u - u.mean()) / u.std()) ** 3))
    assert abs(skew) < 4.0 * math.sqrt(6.0 / n)


def test_scheme_variance_approaches_time_integral():
    # right-endpoint quadrature bias is order sqrt(dt): halving dt cuts the
    # distance to the continuum integral by about sqrt(2)
    target, _ = kernel_l2_time_integral(EXP2, 0.5)
    coarse = additive_variance_exact(EXP2, GridSpec(64, 64, 0.5))
    fine = additive_variance_exact(EXP2, GridSpec(128, 128, 0.5))
    assert abs(fine - target) < abs(coarse - target)
    ratio = abs(coarse - target) / abs(fine - target)
    assert 1.25 < ratio < 1.55
    assert fine == pytest.approx(target, rel=0.10)


def test_second_moment_stability_and_self_convergence():
    def m2(grid_, reps):
        xi = _NoiseRows(grid_, 77, range(reps))[:, :]
        cfg = config_of(grid_, get_sigma("shifted_sine"),
                        zero_field(grid_.m_space))
        u, _ = _evolve_batch(cfg, xi, grid_.k_time)
        u = u[:, 0]
        return float(np.mean(u ** 2)), float(np.std(u ** 2, ddof=1) / math.sqrt(reps))

    g64 = GridSpec(64, 64, 0.5)
    small, se_small = m2(g64, 400)
    big, se_big = m2(g64, 4000)
    assert abs(small - big) < 4.0 * (se_small + se_big)
    fine, _ = m2(GridSpec(128, 128, 0.5), 4000)
    assert abs(big - fine) < 0.1 * fine


def test_trajectory_deterministic():
    grid = GridSpec(m_space=32, k_time=16, horizon=0.3)
    cfg = RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma("shifted_sine"),
                    u0=field_from_function(np.sin, 32), seed=13, replicas=2)
    a = solve_path(cfg, replica=5)
    b = solve_path(cfg, replica=5)
    assert np.array_equal(a, b)
    c = solve_path(cfg, replica=6)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# constant sigma: the probe value as a Wiener integral


def wiener_config(sigma_name, case, replicas=300):
    """A constant-sigma run in one of three settings: the default grid at
    the horizon; alpha = 1.4 under drift (S^T != S), odd m_space and an
    interior probe; and a probe at t = 0, where k_p = 0."""
    if case == "horizon":
        exp_, grid, probe = EXP2, GridSpec(16, 8, 0.2), None
    else:
        exp_, grid = make_power_exponent(1.0, 1.4, 1.5), GridSpec(15, 9, 0.3)
        probe = (5 * grid.dt if case == "interior" else 0.0, 4 * grid.dx)
    return RunConfig(grid=grid, exponent=exp_, sigma=get_sigma(sigma_name),
                     u0=field_from_function(np.sin, grid.m_space), seed=17,
                     replicas=replicas, probe=probe)


def stepped(cfg):
    """cfg with its sigma declared non-constant: the stepper's run."""
    return dataclasses.replace(
        cfg, sigma=dataclasses.replace(cfg.sigma, lip=1.0))


def probe_values(cfg, chunk=64, workers=1):
    """The probe values in chunks of at most `chunk` replicas, spread
    evenly: 300 replicas are 5 chunks of 60.  A stepped replica counts its
    field, m_space words, and its noise block, and a Wiener one its noise
    block alone, the block's rows times m_space."""
    m = cfg.grid.m_space
    block = solver._Scheme(cfg).block_rows(cfg.probe_cell[0]) * m
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_STREAM_CHUNK_WORDS", chunk * m)
        mp.setattr(solver, "_STREAM_BLOCK_CHUNK_WORDS", chunk * block)
        mp.setattr(solver, "_WIENER_CHUNK_WORDS", chunk * block)
        return sample_at_probe(cfg, lambda u_p, path, xi: (u_p,),
                               workers)[0]


@pytest.fixture
def stepped_chunks(monkeypatch):
    """The replica ranges _evolve_batch steps on drawn noise; the flow on
    the zero variates is not counted."""
    seen = []
    real = solver._evolve_batch

    def spy(config, xi, *args, **kwargs):
        if isinstance(xi, _NoiseRows):
            seen.append(xi.replicas)
        return real(config, xi, *args, **kwargs)

    monkeypatch.setattr(solver, "_evolve_batch", spy)
    return seen


@pytest.mark.parametrize("case", ["horizon", "interior", "t0"])
@pytest.mark.parametrize("sigma_name", ["zero", "one", "two"])
def test_constant_sigma_probe_values_match_the_stepper(stepped_chunks,
                                                       sigma_name, case):
    # the same noise, summed as flow + sum w xi and stepped; sigma = zero
    # and k_p = 0 leave every replica at the flow, sd 0, so they must agree
    # exactly
    cfg = wiener_config(sigma_name, case)
    summed = probe_values(cfg)
    assert stepped_chunks == []
    ref = probe_values(stepped(cfg))
    assert len(stepped_chunks) == 5
    assert np.all(np.abs(summed.values - ref.values) <= 1e-12 * ref.sd())
    assert (np.ptp(ref.values) > 0) == (sigma_name != "zero"
                                        and case != "t0")


@pytest.mark.parametrize("alpha, drift, m, k, k_p, i_p", [
    (2.0, 0.0, 64, 64, 64, 0),  # the command line's default grid
    (1.1, 0.7, 33, 40, 40, 0),
    (1.4, -1.5, 15, 9, 5, 4),
    (1.4, 2.0, 64, 64, 17, 31),
    (2.0, -0.3, 17, 24, 11, 16),
])
def test_the_flow_rows_hold_the_additive_variance(alpha, drift, m, k, k_p,
                                                  i_p):
    # at sigma = 1 the rows are the kernel rows, whatever the flow: their
    # squared sum times dt dx is the scheme's exact additive variance on
    # the grid cut at the probe step
    grid = GridSpec(m, k, 0.5)
    exp_ = make_power_exponent(1.0, alpha, drift)
    cfg = RunConfig(grid=grid, exponent=exp_, sigma=get_sigma("one"),
                    u0=field_from_function(np.sin, m), replicas=2,
                    probe=(k_p * grid.dt, i_p * grid.dx))
    flow, rows = solver.linearize(cfg)
    assert rows.shape == (1, k_p, m)
    assert flow.shape == (1, k_p + 1, m)
    cut = GridSpec(m, k_p, k_p * grid.dt)
    want = additive_variance_exact(exp_, cut)
    got = math.fsum((rows ** 2).ravel()) * grid.dt * grid.dx
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("words", [32, 2048])
def test_constant_sigma_probe_values_do_not_depend_on_the_chunk(
        monkeypatch, workers, words):
    # one elementwise product and row sum per noise block: 32 words give
    # blocks of 2 time rows, 2048 one block of all 5; chunks of 1, 7, 150
    # and all 300 replicas give the same bits
    monkeypatch.setattr(solver, "_ROW_BLOCK_WORDS", words)
    sizes = []
    real = solver.map_chunks

    def spy(fn, n_items, chunk, workers=1):
        sizes.append(chunk)
        return real(fn, n_items, chunk, workers)

    monkeypatch.setattr(solver, "map_chunks", spy)
    cfg = wiener_config("two", "interior")
    ref = probe_values(cfg, 300, workers).values
    for chunk in (1, 7, 256):
        assert np.array_equal(probe_values(cfg, chunk, workers).values, ref)
    assert sizes == [300, 1, 7, 150]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("words", [32, 2048])
def test_stepped_probe_values_do_not_depend_on_the_chunk(monkeypatch,
                                                         workers, words):
    # the interior setting above with a sigma that is not constant: each
    # replica steps on its own noise rows, whatever batch its FFTs share.
    # 32 words give blocks of 2 time rows, 2048 one block of all 5; chunks
    # of 1, 7, 64 (four of 64 and one of 44) and all 300 replicas, forced
    # on map_chunks, give the same bits
    monkeypatch.setattr(solver, "_ROW_BLOCK_WORDS", words)
    real = solver.map_chunks
    cfg = wiener_config("shifted_sine", "interior")
    results = []
    for forced in (300, 1, 7, 64):
        def spy(fn, n_items, chunk, workers=1, forced=forced):
            return real(fn, n_items, forced, workers)

        monkeypatch.setattr(solver, "map_chunks", spy)
        results.append(sample_at_probe(cfg, lambda u_p, path, xi: (u_p,),
                                       workers)[0].values)
    assert np.ptp(results[0]) > 0
    for values in results[1:]:
        assert np.array_equal(values, results[0])


@pytest.mark.parametrize("c, amp, refused", [
    (1.0, 4e11, False),  # the flow of u0 stays below half the threshold
    (1.0, 6e11, True),  # it may not
    (3e12, 1.0, True),  # nor may the noise term
])
def test_a_run_that_could_blow_up_is_refused(stepped_chunks, c, amp,
                                             refused):
    # the certificate bounds every field of every step when the config is
    # built, before any noise is drawn, and a refusal names the keys of
    # the term that crosses; a certified constant sigma is summed as a
    # Wiener integral, which matches the stepper
    grid = GridSpec(16, 8, 0.2)
    spec = SigmaSpec("const", lambda u: np.full_like(u, c), np.zeros_like,
                     kappa=c, lip=0.0, sup=c)
    args = dict(grid=grid, exponent=EXP2, sigma=spec,
                u0=amp * np.sin(grid.x_points()), seed=0, replicas=300)
    if refused:
        keys = "u0_amp" if amp > c else "sigma, horizon, k_time, m_space"
        with pytest.raises(ValueError, match=f"^{keys}: flow .* bound 5e[+]11"):
            RunConfig(**args)
        return
    cfg = RunConfig(**args)
    values = probe_values(cfg)
    assert stepped_chunks == []
    ref = probe_values(stepped(cfg))
    # the stepper rounds at the size of the whole field, up to amp
    assert np.all(np.abs(values.values - ref.values) <= 1e-14 * amp)


@pytest.mark.parametrize("alpha", [1.1, 2.0])
@pytest.mark.parametrize("sigma_name", sorted(SIGMA_REGISTRY))
def test_the_certificate_bounds_every_sampled_field(sigma_name, alpha):
    # odd m_space, drift and an interior probe: every field the stepper
    # reaches on drawn noise, up to the horizon, and every probe value lies
    # within the certificate's reach, the Fourier l1 norm of u0 plus
    # sup|sigma| scale XI_MAX sqrt(m) k_time
    grid = GridSpec(33, 40, 0.5)
    exp_ = make_power_exponent(1.0, alpha, 0.7)
    u0 = field_from_function(lambda x: 3.0 * np.cos(2 * x) + np.sin(5 * x), 33)
    cfg = RunConfig(grid=grid, exponent=exp_, sigma=get_sigma(sigma_name),
                    u0=u0, seed=9, replicas=64,
                    probe=(20 * grid.dt, 10 * grid.dx))
    reach = cfg.certify()
    flow_bound = dataclasses.replace(cfg, sigma=get_sigma("zero")).certify()
    assert reach - flow_bound == pytest.approx(
        cfg.sigma.sup * noise_density_scale(grid) * XI_MAX * math.sqrt(33)
        * 40, rel=1e-12)
    _, path = _evolve_batch(cfg, _NoiseRows(grid, 9, range(64)), 40,
                            keep_path=True)
    assert np.abs(path).max() <= reach
    values = sample_at_probe(cfg, lambda u_p, path, xi: (u_p,))[0].values
    assert np.abs(values).max() <= reach
    # the flow bound is at least the flow's sup over every step, which
    # linearize sweeps
    at_horizon = dataclasses.replace(cfg, probe=(grid.horizon, 0.0))
    flow, _ = solver.linearize(at_horizon)
    assert flow_bound >= np.abs(flow).max()


@pytest.mark.parametrize("amp", [1.0, 4e11])
def test_the_flow_bound_is_exact_for_a_sine(amp):
    # the Fourier l1 norm of a sin x is a: the flow's sup, reached at t = 0
    # on a grid through pi / 2, to the rounding of one rfft
    grid = GridSpec(64, 64, 0.5)
    cfg = RunConfig(grid=grid, exponent=make_power_exponent(1.0, 1.5, 0.7),
                    sigma=get_sigma("zero"), replicas=2,
                    u0=amp * np.sin(grid.x_points()))
    flow, _ = solver.linearize(cfg)
    assert np.abs(flow).max() == amp
    assert cfg.certify() == pytest.approx(amp, rel=1e-14)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("sigma_name", ["zero", "one"])
def test_an_infinite_variate_is_the_same_blowup_on_both_paths(
        monkeypatch, stepped_chunks, sigma_name):
    # the top uniform maps to xi = +inf (test_noise pins it); planted in
    # cell (3, 2) of replica 100, it makes that replica's probe value
    # non-finite, summed as a Wiener integral or stepped, and both raise
    # for it; the Wiener integral steps no chunk
    planted_infinity(monkeypatch, 100, 3 * 16 + 2)
    cfg = wiener_config(sigma_name, "horizon")
    for run in (cfg, stepped(cfg)):
        with pytest.raises(BlowUpError) as err:
            probe_values(run)
        assert err.value.replica == 100
    assert stepped_chunks == [range(0, 60), range(60, 120)]


# ---------------------------------------------------------------------------
# Picard iteration


def picard_config(m, k, horizon, sigma_name, seed=3, replicas=64):
    grid = GridSpec(m_space=m, k_time=k, horizon=horizon)
    return RunConfig(grid=grid, exponent=EXP2, sigma=get_sigma(sigma_name),
                     u0=zero_field(m), seed=seed, replicas=replicas)


def test_picard_zero_sigma_is_fixed_point():
    rep = picard_sequence(picard_config(16, 8, 0.2, "zero", replicas=16),
                          n_max=3, beta_param=8.0)
    assert np.all(rep.norms == 0.0)


def test_picard_additive_settles_after_one_iterate():
    rep = picard_sequence(picard_config(16, 8, 0.2, "one", replicas=16),
                          n_max=4, beta_param=8.0)
    assert rep.norms[0] > 0.0
    assert np.all(rep.norms[1:] == 0.0)


def test_picard_exact_after_k_time_iterates():
    # each sweep settles one more time level, so with k_time = 4 the iterates
    # coincide with the discrete solution from n = 4 on
    rep = picard_sequence(picard_config(16, 4, 0.2, "shifted_sine"),
                          n_max=6, beta_param=8.0)
    assert np.all(rep.norms[:4] > 0.0)
    assert rep.norms[4] == 0.0 and rep.norms[5] == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("workers", [1, 2])
def test_picard_names_the_replica_of_an_infinite_variate(monkeypatch,
                                                         workers):
    # replica 130, in the second chunk of 128, steps an infinite variate at
    # step 6 of 8: its last iterates are not finite, and the run raises
    # for it, after the steps of its chunk, warning nothing
    planted_infinity(monkeypatch, 130, 6 * 16 + 2)
    cfg = picard_config(16, 8, 0.2, "shifted_sine", replicas=200)
    with pytest.raises(BlowUpError, match="^replica 130 has a non-finite"):
        picard_sequence(cfg, n_max=2, beta_param=8.0, workers=workers)


@pytest.mark.parametrize("beta, refused", [(28300.0, False), (28400.0, True)])
def test_picard_refuses_a_weight_below_the_normal_floats(monkeypatch, beta,
                                                         refused):
    # dt = 0.025: e^(-beta dt) at the first step is a normal float up to
    # beta = 28335.9; past it every weight after t = 0 is subnormal or 0
    cfg = picard_config(16, 8, 0.2, "shifted_sine", replicas=16)
    if refused:
        monkeypatch.setattr(noise, "_normal_block", None)
        with pytest.raises(ValueError, match="^need beta_param dt <= 708.396"):
            picard_sequence(cfg, n_max=2, beta_param=beta)
        return
    assert picard_sequence(cfg, n_max=2, beta_param=beta).norms[0] > 0


def test_picard_contraction_large_beta():
    cfg = picard_config(16, 16, 0.5, "shifted_sine", replicas=256)
    rep = picard_sequence(cfg, n_max=6, beta_param=64.0)
    live = rep.ratios[rep.norms[:-1] > 0]
    assert np.all(live < 1.0)
    assert rep.contracting
    assert np.all(rep.stderrs >= 0.0)


def test_picard_worker_count_invariance():
    cfg = picard_config(16, 8, 0.2, "shifted_sine", replicas=300)
    a = picard_sequence(cfg, n_max=3, beta_param=16.0, workers=1)
    b = picard_sequence(cfg, n_max=3, beta_param=16.0, workers=4)
    assert np.array_equal(a.norms, b.norms)
    assert np.array_equal(a.stderrs, b.stderrs)


def test_picard_rows_schema():
    rep = picard_sequence(picard_config(16, 4, 0.2, "one", replicas=16),
                          n_max=2, beta_param=8.0)
    assert len(rep.norms) == len(rep.stderrs) == 2
    assert len(rep.ratios) == 1


def test_picard_norms_monotone_in_beta():
    # a heavier weight e^{-beta t} can only lower the weighted sup
    cfg = picard_config(16, 8, 0.2, "shifted_sine", replicas=32)
    norms = [picard_sequence(cfg, n_max=3, beta_param=b).norms
             for b in (0.0, 1.0, 4.0, 16.0)]
    assert all(np.all(norms[j + 1] <= norms[j] + 1e-15) for j in range(3))


def nested_picard_chunk(cfg, n_max, p):
    """Picard's chunk body as one full time sweep per iterate over the whole
    noise block and the whole path of every iterate: the reference for the
    lockstep loop."""
    grid = cfg.grid
    m, k_time = grid.m_space, grid.k_time
    mult = rfft_multiplier(cfg.exponent, grid)
    scale = noise_density_scale(grid)
    sig = cfg.sigma.sigma
    v0_path = np.empty((k_time + 1, m))
    v0_path[0] = cfg.u0
    for k in range(k_time):
        v0_path[k + 1] = solver._smooth(v0_path[k], mult, m)

    def one_chunk(lo, hi):
        # each iterate is the flow v0_path plus its convolution path; the
        # difference of two iterates is that of their convolutions, the
        # zero path being iterate 0's
        xi = _NoiseRows(grid, cfg.seed, range(lo, hi))[:, :]
        prev = np.broadcast_to(v0_path, (hi - lo, k_time + 1, m)).copy()
        prev_conv = np.zeros_like(prev)
        mom = np.zeros((n_max, k_time + 1, m))
        mom_sq = np.zeros((n_max, k_time + 1, m))
        for n in range(n_max):
            nxt = np.empty_like(prev)
            nxt[:, 0] = v0_path[0]
            nxt_conv = np.zeros_like(prev)
            conv = np.zeros((hi - lo, m))
            for k in range(k_time):
                g = sig(prev[:, k]) * xi[:, k] * scale
                conv = solver._smooth(conv + g, mult, m)
                nxt[:, k + 1] = v0_path[k + 1] + conv
                nxt_conv[:, k + 1] = conv
            d = np.abs(nxt_conv - prev_conv) ** p
            mom[n] = d.sum(axis=0)
            mom_sq[n] = (d * d).sum(axis=0)
            prev, prev_conv = nxt, nxt_conv
        return np.stack((mom, mom_sq))

    return one_chunk


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("m, k, drift, p, words", [
    (10, 37, 1.5, 2.5, 2048),
    # blocks of 3 rows, the second starting at word 30, mid Philox block
    (10, 37, 1.5, 2.5, 32),
    # two blocks of 32 rows
    (64, 64, 0.0, 2, 2048),
])
def test_picard_lockstep_matches_nested_sweeps(monkeypatch, workers, m, k,
                                               drift, p, words):
    monkeypatch.setattr(solver, "_ROW_BLOCK_WORDS", words)
    grid = GridSpec(m_space=m, k_time=k, horizon=0.3)
    cfg = RunConfig(grid=grid, exponent=make_power_exponent(1.0, 1.7, drift),
                    sigma=get_sigma("shifted_sine"),
                    u0=field_from_function(np.sin, m), seed=11, replicas=300)
    args = (cfg, 4, 8.0, p, workers)
    lockstep = picard_sequence(*args)
    # the nested chunks' moments, handed to picard_sequence in chunk order
    parts = map_chunks(nested_picard_chunk(cfg, 4, p), cfg.replicas,
                       solver.PICARD_CHUNK, workers)
    monkeypatch.setattr(solver, "map_chunks", lambda *_: parts)
    nested = picard_sequence(*args)
    assert np.array_equal(lockstep.norms, nested.norms)
    assert np.array_equal(lockstep.stderrs, nested.stderrs)
    assert np.array_equal(lockstep.ratios, nested.ratios)
    assert np.all(nested.norms[:3] > 0.0)


@pytest.mark.parametrize("sigma_name", ["one", "two"])
def test_picard_differences_keep_their_digits_under_a_huge_u0(sigma_name):
    # with a constant sigma the first difference v_1 - v_0 is the stochastic
    # convolution alone, which does not see u0; differencing whole iterates
    # lost its digits once the flow of u0 swamped it.  4e11 is about the
    # largest amplitude the certificate admits
    cfg = picard_config(16, 8, 0.2, sigma_name, replicas=8)
    huge = dataclasses.replace(cfg, u0=4e11 * np.sin(cfg.grid.x_points()))
    flat = picard_sequence(cfg, n_max=3, beta_param=8.0)
    far = picard_sequence(huge, n_max=3, beta_param=8.0)
    assert far.norms[0] > 0.0
    assert far.norms[0] == flat.norms[0]
    assert far.stderrs[0] == flat.stderrs[0]


def test_picard_memory_is_one_step_of_every_iterate():
    # the iterates at one step and one block of noise rows, not the whole
    # noise block and every iterate's path: those were 98.5 MiB here
    cfg = picard_config(128, 128, 0.5, "shifted_sine", replicas=128)
    _, peak = traced_peak(picard_sequence, cfg, n_max=6, beta_param=8.0)
    assert peak <= 16 * 2 ** 20
    cfg = picard_config(128, 128, 0.5, "shifted_sine", replicas=512)
    _, peak_512 = traced_peak(picard_sequence, cfg, n_max=6, beta_param=8.0)
    assert peak_512 <= 1.25 * peak


def test_picard_validation():
    cfg = picard_config(16, 4, 0.2, "one", replicas=16)
    with pytest.raises(ValueError):
        picard_sequence(cfg, n_max=0, beta_param=8.0)
    # one difference has no ratio: contracting would be np.all([]), True
    with pytest.raises(ValueError, match="need n_max >= 2"):
        picard_sequence(cfg, n_max=1, beta_param=8.0)
    # the weighted sup-L^p norm needs p >= 2 and a nonnegative weight
    with pytest.raises(ValueError):
        picard_sequence(cfg, n_max=2, beta_param=8.0, p=1)
    with pytest.raises(ValueError):
        picard_sequence(cfg, n_max=2, beta_param=-5.0)
    # one replica gives no moment estimate; the config refuses it
    with pytest.raises(ValueError):
        picard_config(16, 4, 0.2, "one", replicas=1)
