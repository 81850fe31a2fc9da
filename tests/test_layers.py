"""Layering: the numerical modules never reach up into the output layer, the
noise module alone draws random numbers, kernels._smallest_cutoff alone
searches for a series cutoff, solver._smooth alone transforms,
solver._Scheme alone steps, with the sigma values that the loop owning the
field evaluates once per step, solver._adjoint_rows alone sweeps back from
the probe, solver.linearize alone linearizes the scheme about its flow,
solver.sample_at_probe alone runs the sampling loop and sizes its chunks,
solver.RunConfig.certify alone bounds the fields of every driver before
any noise is drawn, every function of a path takes the RunConfig of its
run, neither solver nor malliavin evaluates a kernel series,
solver.SampleSet alone estimates a sample quantile, and the public API has
no name that only the tests use.

mcstats (ensembles, density, row serialization) and cli (the row format)
sit above kernels, noise, solver and malliavin.  An import the
other way, even one inside a function, couples the numerics to the output
format, so this test parses each lower module and rejects any such import.
"""

import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import levyheat
from levyheat import (GridSpec, RunConfig, SigmaSpec, get_sigma,
                      make_power_exponent, noise, noise_density_scale,
                      noise_gradient_oracle, picard_sequence)
from levyheat.cli import parse_and_dispatch
from levyheat.solver import PICARD_CHUNK

PACKAGE = Path(levyheat.__file__).parent
DEMOS = PACKAGE.parents[1] / "demos"
LOWER = ("kernels", "noise", "solver", "malliavin")
UPPER = {"mcstats", "cli"}


def imported_modules(tree):
    """Package-relative names of every module a parsed file imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.removeprefix("levyheat.")
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.module == "levyheat":
                # from . import x / from levyheat import x
                yield from (alias.name for alias in node.names)
            elif node.level or node.module.startswith("levyheat."):
                yield node.module.removeprefix("levyheat.")


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_never_import_output_layers(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    bad = sorted({name.split(".")[0] for name in imported_modules(tree)}
                 & UPPER)
    assert not bad, f"{module} imports {bad}"


def random_sources(tree):
    """numpy.random references and scipy imports of a parsed file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and getattr(node.value, "id", None) in ("np", "numpy")):
            names = ["numpy.random"]
        else:
            continue
        yield from (name for name in names
                    if name.split(".")[0] == "scipy"
                    or name.startswith("numpy.random"))


def test_malliavin_evaluates_no_kernel_series():
    # the derivative layer reports what its samples say: the continuum
    # kernel series are the kernel subcommand's, and a sampled estimator
    # never sums one beside them
    tree = ast.parse((PACKAGE / "malliavin.py").read_text(encoding="utf-8"))
    assert "kernels" not in {name.split(".")[0]
                             for name in imported_modules(tree)}


def test_solver_evaluates_no_kernel_series():
    # the scheme steps its own rfft symbols: it takes from kernels the mode
    # tables and constants alone, and its additive variance is the exact
    # geometric sum on its grid, not a continuum series beside it
    tree = ast.parse((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    from_kernels = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "kernels"
                    for alias in node.names}
    assert from_kernels == {"FOUR_PI_SQ", "TWO_PI", "rfft_symbol",
                            "rfft_weights"}


def test_only_noise_draws_random_numbers():
    # the frozen variate derivation (RNG_SCHEME) has one home
    found = {path.name: sorted(set(random_sources(
        ast.parse(path.read_text(encoding="utf-8")))))
        for path in sorted(PACKAGE.glob("*.py"))}
    assert found["noise.py"], "noise.py no longer draws through numpy/scipy"
    others = {name: refs for name, refs in found.items()
              if refs and name != "noise.py"}
    assert not others, f"random sources outside noise.py: {others}"


def test_only_noise_names_the_block_filler():
    # _normal_block addresses every word of the frozen RNG_SCHEME; the other
    # modules read noise through sample_noise and _NoiseRows
    naming = sorted(path.name for path in PACKAGE.glob("*.py")
                    if "_normal_block" in path.read_text(encoding="utf-8"))
    assert naming == ["noise.py"]


def test_only_kernels_names_the_series_protocol():
    # kernels alone cuts, sums and finishes a mode series (_Series,
    # _sum_series and the _*_series builders); the other modules ask its
    # public series functions for (value, certified error)
    protocol = re.compile(r"\b_(Series|\w+_series)\b")
    naming = sorted(path.name for path in PACKAGE.glob("*.py")
                    if protocol.search(path.read_text(encoding="utf-8")))
    assert naming == ["kernels.py"]


def test_the_cutoff_search_is_written_once():
    # every series stops at the smallest cutoff its tail bound certifies,
    # found by kernels._smallest_cutoff, the only loop in kernels that
    # doubles or bisects
    tree = ast.parse((PACKAGE / "kernels.py").read_text(encoding="utf-8"))
    looping = sorted(node.name for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     and any(isinstance(inner, ast.While)
                             for inner in ast.walk(node)))
    assert looping == ["_smallest_cutoff"]
    assert functions_reading("_smallest_cutoff") == {
        "kernels.kernel_coefficients", "kernels._bracketed_series"}


def test_only_the_solver_step_transforms():
    # one spectral convention: kernels writes the rfft symbols down and
    # solver._smooth, the one function that calls numpy's FFT, applies them
    # to grid values
    naming = sorted(path.name for path in PACKAGE.glob("*.py")
                    if re.search(r"\b(np|numpy)\.fft\b",
                                 path.read_text(encoding="utf-8")))
    assert naming == ["solver.py"]
    tree = ast.parse((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    calling = [node.name for node in tree.body
               if "np.fft" in ast.unparse(node)]
    assert calling == ["_smooth"]


def top_level_functions():
    """(qualified name, node) of the package's top-level functions and
    methods."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.{f.name}", f) for f in top.body
                        if isinstance(f, ast.FunctionDef)]
            elif isinstance(top, ast.FunctionDef):
                defs = [(top.name, top)]
            else:
                continue
            for qual, fn in defs:
                yield f"{path.stem}.{qual}", fn


def functions_reading(name):
    """Qualified names of the package's top-level functions and methods
    that read `name`, as a name or as an attribute."""
    return {qual for qual, fn in top_level_functions()
            if any(getattr(node, "id", None) == name
                   or getattr(node, "attr", None) == name
                   for node in ast.walk(fn))}


# kde's one Gaussian convolution of the binned samples is the only other
# spectral product in the package, and its `step` is a grid spacing; the
# certificate reads the spectrum of u0 and the noise scale, and steps nothing
NOT_A_STEP = {"_smooth": {"mcstats.kde", "solver.RunConfig.certify"},
              "step": {"mcstats.kde"},
              "noise_density_scale": {"solver.RunConfig.certify"}}


@pytest.mark.parametrize("name, reader", [
    ("_smooth", "solver._Scheme.smooth"),  # the step S and its transpose
    ("sigma_prime", "solver._Scheme.tangent"),  # the tangent factor F_k
    ("_ROW_BLOCK_WORDS", "solver._Scheme.block_rows"),  # the noise blocks
    ("noise_density_scale", "solver._Scheme.__init__"),
])
def test_the_step_is_written_once(name, reader):
    # every driver steps, linearizes and reads its noise rows through
    # solver._Scheme, so each piece of the scheme has one reader that
    # steps; NOT_A_STEP names the readers that step nothing
    assert functions_reading(name) == {reader} | NOT_A_STEP.get(name, set())


def test_the_noise_block_rows_are_counted_once():
    # the block reader and both chunk rules that count a noise block, the
    # stepped and the Wiener one, read its rows off one method
    assert functions_reading("block_rows") == {"solver._Scheme.blocks",
                                               "solver.sample_at_probe"}


def test_only_the_forward_pass_and_picard_loop_over_time_steps():
    # _evolve_batch runs every forward pass, and Picard's lockstep chunk,
    # which steps every iterate at once, is the only other loop over steps
    assert functions_reading("step") == ({"solver._evolve_batch",
                                          "solver.picard_sequence"}
                                         | NOT_A_STEP["step"])


def test_the_step_takes_sigma_from_its_loop():
    # the stepper knows no caller: it steps with the sigma values it is
    # handed, and each forward loop evaluates sigma of the field it owns
    # (Picard's iterate n + 1 takes sigma of iterate n)
    assert "solver._Scheme.step" not in functions_reading("sigma")
    step = dict(top_level_functions())["solver._Scheme.step"]
    assert [arg.arg for arg in step.args.args] == ["self", "u", "xi_k", "s"]
    assert not step.args.defaults


def test_picard_evaluates_sigma_once_per_step_of_each_chunk():
    # every iterate of a chunk gets its sigma values from one call per
    # step, shape (n_max, chunk replicas, m_space); the flow's one-replica
    # linearization evaluates sigma on (1, m_space) fields only.  The
    # forward pass's one call per step is
    # test_solver.test_the_step_allocates_only_what_sigma_returns
    grid = GridSpec(m_space=8, k_time=6, horizon=0.2)
    shapes = []

    def sigma(u):
        shapes.append(np.shape(u))
        return 2.0 + np.sin(u)

    spec = SigmaSpec("counted", sigma, np.cos, kappa=1.0, lip=1.0, sup=3.0)
    cfg = RunConfig(grid=grid, exponent=make_power_exponent(1.0, 2.0),
                    sigma=spec, u0=np.sin(grid.x_points()),
                    replicas=PICARD_CHUNK + 72)
    picard_sequence(cfg, 3, 1.0)
    assert [s for s in shapes if len(s) == 3] == (
        [(3, PICARD_CHUNK, 8)] * 6 + [(3, 72, 8)] * 6)
    assert {s for s in shapes if len(s) != 3} == {(1, 8)}


def test_the_sampling_loop_is_written_once():
    # solver.sample_at_probe alone chunks the replicas, draws their noise
    # streams and steps them to the probe for the sampling drivers, which
    # keep only what they read off each chunk; Picard folds its own chunks
    # through the same map_chunks
    assert functions_reading("map_chunks") == {"solver.sample_at_probe",
                                               "solver.picard_sequence"}
    assert functions_reading("_evolve_batch") == {
        "solver.sample_at_probe", "solver.solve_path",
        "malliavin.noise_gradient_oracle", "solver.linearize"}


def test_only_the_sampling_loop_reads_a_chunk_budget():
    # how many replicas a sampling chunk holds is decided once, from the
    # words of field, noise block or path it keeps; the samplers name no
    # budget of their own, and Picard's fixed PICARD_CHUNK is no budget but
    # part of its bits
    budgets = re.compile(r"\b\w*CHUNK_WORDS\b")
    naming = sorted(path.name for path in PACKAGE.glob("*.py")
                    if budgets.search(path.read_text(encoding="utf-8")))
    assert naming == ["solver.py"]
    for name in ("_STREAM_CHUNK_WORDS", "_STREAM_BLOCK_CHUNK_WORDS",
                 "_WIENER_CHUNK_WORDS", "_PATH_CHUNK_WORDS"):
        assert functions_reading(name) == {"solver.sample_at_probe"}


def test_the_linearization_is_written_once():
    # solver.linearize alone steps the flow on zero variates and sweeps it;
    # the Wiener sampler, the constant-sigma derivative mass, the certified
    # small-ball floor and Picard's iterates read it and step no flow of
    # their own: only the step, the adjoint sweep and the derivative's
    # forward pass apply S
    assert (functions_reading("_evolve_batch")
            & functions_reading("adjoint_gradient")) == {"solver.linearize"}
    assert (functions_reading("zeros")
            & functions_reading("_evolve_batch")) == {"solver.linearize"}
    assert functions_reading("linearize") == {"solver.sample_at_probe",
                                              "malliavin.hnorm_samples",
                                              "malliavin.certified_floor",
                                              "solver.picard_sequence"}
    assert functions_reading("smooth") == {"solver._Scheme.step",
                                           "solver._adjoint_rows",
                                           "malliavin.propagate_derivative"}


def backward_loops():
    """(qualified name, loop) of every for loop of the package that counts
    down: over range(..., ..., -c) or reversed(...)."""
    for qual, fn in top_level_functions():
        for node in ast.walk(fn):
            if not (isinstance(node, ast.For)
                    and isinstance(node.iter, ast.Call)):
                continue
            name, args = getattr(node.iter.func, "id", None), node.iter.args
            if name == "reversed" or (
                    name == "range" and len(args) == 3
                    and isinstance(args[2], ast.UnaryOp)
                    and isinstance(args[2].op, ast.USub)):
                yield qual, node


def test_the_adjoint_sweep_is_written_once():
    # solver._adjoint_rows alone runs backwards over the steps, from the
    # probe's k_p down to 0, and hands each gradient row to its caller:
    # adjoint_gradient stacks the rows, and hnorm_samples folds each into
    # its squared sum and keeps no row
    loops = list(backward_loops())
    assert [(qual, ast.unparse(loop.iter)) for qual, loop in loops] == [
        ("solver._adjoint_rows", "range(k_p - 1, -1, -1)")]
    assert functions_reading("_adjoint_rows") == {"solver.adjoint_gradient",
                                                  "malliavin.hnorm_samples"}
    assert "adjoint_gradient" not in {
        getattr(node, "id", getattr(node, "attr", None))
        for node in ast.walk(dict(top_level_functions())[
            "malliavin.hnorm_samples"])}


# what a RunConfig holds, which no function of a path may take beside it
RUN_PARTS = {"exp_", "sigma", "grid", "u0_values", "probe", "k_p", "i_p"}


def test_every_function_of_a_run_takes_its_config():
    # a path and its variates belong to one run: each top-level function of
    # solver and malliavin that takes one takes that run's RunConfig first
    # and no part of the run beside it, so a derivative is swept under the
    # sigma of its path and from the config's probe
    params = {qual: [arg.arg for arg in fn.args.args + fn.args.kwonlyargs]
              for qual, fn in top_level_functions()
              if qual.split(".")[0] in ("solver", "malliavin")}
    of_a_path = {qual: args for qual, args in params.items()
                 if qual.count(".") == 1 and {"path", "xi"} & set(args)}
    assert set(of_a_path) == {"solver._evolve_batch",
                              "solver._adjoint_rows",
                              "solver.adjoint_gradient",
                              "malliavin.propagate_derivative"}
    for qual, args in of_a_path.items():
        assert args[0] == "config" and not RUN_PARTS & set(args), qual
    assert params["malliavin.noise_gradient_oracle"] == ["config", "replica",
                                                         "source"]
    assert params["solver._Scheme.__init__"] == ["self", "config", "batch"]


def step_loops(qual):
    """The loops over time steps of a top-level function or method: its for
    loops over range(until_k) or range(k_time)."""
    fn = dict(top_level_functions())[qual]
    return [node for node in ast.walk(fn) if isinstance(node, ast.For)
            and ast.unparse(node.iter) in ("range(until_k)", "range(k_time)")]


def test_the_blowup_policy_is_written_once():
    # the blow-up policy is the certificate: RunConfig.certify alone reads
    # the threshold and the largest finite variate, every driver takes a
    # RunConfig, which runs it when it is built, and the gradient oracle,
    # which shifts a variate, runs it again.  No loop over time steps scans
    # the field; a non-finite replica, which only an infinite variate
    # gives, raises BlowUpError where the drivers read it (Picard once per
    # chunk, after its steps), and the CLI turns that into exit 2
    assert functions_reading("BLOWUP_THRESHOLD") == {"solver.RunConfig.certify"}
    assert functions_reading("XI_MAX") == {"solver.RunConfig.certify"}
    assert functions_reading("certify") == {
        "solver.RunConfig.__post_init__", "malliavin.noise_gradient_oracle"}
    for qual in ("solver._evolve_batch", "solver.picard_sequence"):
        loops = step_loops(qual)
        assert loops
        for loop in loops:
            read = {getattr(node, "id", getattr(node, "attr", None))
                    for node in ast.walk(loop)}
            assert not read & {"max", "isfinite", "BLOWUP_THRESHOLD"}, qual
    assert functions_reading("sample_at_probe") == {"mcstats.run_ensemble",
                                                    "malliavin.hnorm_samples"}
    assert functions_reading("BlowUpError") == {
        "solver.sample_at_probe", "solver.solve_path",
        "solver.picard_sequence", "malliavin.noise_gradient_oracle",
        "cli.parse_and_dispatch"}


def refuse_noise(monkeypatch):
    def refuse(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(noise, "_normal_block", refuse)


# amplitudes of u0 = a sin x that the certificate refuses: 1.025e12 ran with
# some replicas past the threshold, and 1e308 overflows the first step
REFUSED_AMPLITUDES = ("1e13", "1025315120524.2238", "1e308")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("subcommand", ["simulate", "density", "malliavin",
                                        "smallball", "picard"])
def test_a_run_that_could_blow_up_is_refused_before_any_noise(
        tmp_path, capsys, monkeypatch, subcommand):
    refuse_noise(monkeypatch)
    for amp in REFUSED_AMPLITUDES:
        out = tmp_path / amp
        code = parse_and_dispatch([subcommand, "--set", "u0=sin", "--set",
                                   f"u0_amp={amp}", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("levyheat:error:config: u0_amp: flow ")
        assert err.endswith(" past the certified bound 5e+11\n")
        assert not out.exists()


@pytest.mark.parametrize("settings, keys", [
    ("horizon=1e20", "sigma, horizon, k_time, m_space"),
    ("u0=sin u0_amp=3e11 horizon=2.2e16", "u0_amp, sigma, horizon, k_time, "
     "m_space"),
])
def test_a_refused_run_names_the_keys_of_the_term_that_crosses(
        tmp_path, capsys, monkeypatch, settings, keys):
    # a term at least half the 5e11 bound names its keys: the noise term of
    # a 1e20 horizon (2.0e13) with a zero u0, or it and the flow of u0 at
    # about 3e11 each (the test above names u0_amp alone)
    refuse_noise(monkeypatch)
    sets = [arg for s in settings.split() for arg in ("--set", s)]
    code = parse_and_dispatch(["simulate"] + sets + ["--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"levyheat:error:config: {keys}: flow ")
    flow, noise_term = (float(err.split(word)[1].split()[0])
                        for word in (" flow ", " noise "))
    assert (flow >= 2.5e11, noise_term >= 2.5e11) == ("u0_amp" in keys,
                                                        "sigma" in keys)
    assert not any(tmp_path.iterdir())


def test_the_gradient_oracle_certifies_its_shifted_variates(monkeypatch):
    # the oracle moves one variate by h = 0.5, so it certifies the config
    # again for variates up to XI_MAX + 0.5 before it draws noise: an
    # amplitude between the two bounds is built, and refused there
    refuse_noise(monkeypatch)
    grid = GridSpec(16, 8, 0.2)
    per_variate = 3.0 * noise_density_scale(grid) * math.sqrt(16) * 8
    amp = 5e11 - per_variate * (noise.XI_MAX + 0.25)
    args = dict(grid=grid, exponent=make_power_exponent(1.0, 2.0),
                sigma=get_sigma("shifted_sine"), replicas=2)
    cfg = RunConfig(u0=amp * np.sin(grid.x_points()), **args)
    with pytest.raises(ValueError, match="^u0_amp: .* bound 5e[+]11"):
        noise_gradient_oracle(cfg, 0, (3, 4))
    # the oracle takes a RunConfig, and none is built at a refused amplitude
    for amp in map(float, REFUSED_AMPLITUDES):
        with pytest.raises(ValueError, match="^u0_amp: .* bound 5e[+]11"):
            RunConfig(u0=amp * np.sin(grid.x_points()), **args)


def test_every_reported_mean_and_stderr_is_computed_once():
    # solver.SampleSet is the one Monte Carlo estimator: the samplers return
    # SampleSets, and neither cli nor malliavin computes a spread of its
    # own.  The Silverman bandwidth rule reads the sample sd as a bandwidth,
    # not as a stderr
    calling_std = {qual for qual, fn in top_level_functions()
                   if any(isinstance(node, ast.Call)
                          and getattr(node.func, "attr", None) == "std"
                          and any(kw.arg == "ddof" for kw in node.keywords)
                          for node in ast.walk(fn))}
    assert calling_std == {"mcstats.silverman_bandwidth"}
    spreads = functions_reading("sqrt") | functions_reading("fsum")
    assert not {f for f in spreads if f.startswith("cli.")}


def test_every_sample_quantile_is_computed_once():
    # SampleSet.quantile alone calls np.quantile, next to the order
    # statistics of its interval; cli writes the rows it returns
    calling = {qual for qual, fn in top_level_functions()
               if any(isinstance(node, ast.Attribute)
                      and node.attr == "quantile"
                      and getattr(node.value, "id", None) in ("np", "numpy")
                      for node in ast.walk(fn))}
    assert calling == {"solver.SampleSet.quantile"}


# public names whose only callers are tests, kept on purpose as references
TEST_ONLY_API = {
    "load_rows",  # round-trip reference for emit
}


def used_names(path):
    """Names a file reads: loaded names, attributes, and (for the demos,
    which use the API from outside) imported names.  Definitions, assignment
    targets and the package's own imports do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path.parent == DEMOS:
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted(DEMOS.glob("*.py"))
    used = set().union(*(used_names(p) for p in files))
    public = {name for name in dir(levyheat) if not name.startswith("_")
              and not inspect.ismodule(getattr(levyheat, name))}
    assert TEST_ONLY_API <= public
    unused = sorted(public - used - TEST_ONLY_API)
    assert not unused, f"public names only the tests use: {unused}"
