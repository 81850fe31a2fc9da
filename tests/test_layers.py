"""Layering: the numerical modules never reach up into the output layer, the
noise module alone draws random numbers, kernels._smallest_cutoff alone
searches for a series cutoff, solver._smooth alone transforms,
solver._Scheme alone steps, solver.linearize alone linearizes the scheme
about its flow, solver.sample_at_probe alone runs the sampling loop and
applies the blow-up policy of the sampling drivers, solver.SampleSet alone
estimates a sample quantile, and the public API has no name that only the
tests use.

mcstats (ensembles, density, row serialization) and cli (the row format)
sit above kernels, noise, solver and malliavin.  An import the
other way, even one inside a function, couples the numerics to the output
format, so this test parses each lower module and rejects any such import.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import levyheat

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
# spectral product in the package, and its `step` is a grid spacing
NOT_A_STEP = {"_smooth": {"mcstats.kde"}, "step": {"mcstats.kde"}}


@pytest.mark.parametrize("name, reader", [
    ("_smooth", "solver._Scheme.smooth"),  # the step S and its transpose
    ("sigma_prime", "solver._Scheme.tangent"),  # the tangent factor F_k
    ("_ROW_BLOCK_WORDS", "solver._Scheme.blocks"),  # the noise block reader
    ("noise_density_scale", "solver._Scheme.__init__"),
])
def test_the_step_is_written_once(name, reader):
    # every driver steps, linearizes and reads its noise rows through
    # solver._Scheme, so each piece of the scheme has one reader that
    # steps; NOT_A_STEP names the readers that step nothing
    assert functions_reading(name) == {reader} | NOT_A_STEP.get(name, set())


def test_only_the_forward_pass_and_picard_loop_over_time_steps():
    # _evolve_batch runs every forward pass, and Picard's lockstep chunk,
    # which steps every iterate at once, is the only other loop over steps
    assert functions_reading("step") == ({"solver._evolve_batch",
                                          "solver.picard_sequence"}
                                         | NOT_A_STEP["step"])


def test_the_sampling_loop_is_written_once():
    # solver.sample_at_probe alone chunks the replicas, draws their noise
    # streams and steps them to the probe for the sampling drivers, which
    # keep only their chunk size and what they read off each chunk; Picard
    # folds its own chunks through the same map_chunks
    assert functions_reading("map_chunks") == {"solver.sample_at_probe",
                                               "solver.picard_sequence"}
    assert functions_reading("_evolve_batch") == {
        "solver.sample_at_probe", "solver.solve_path",
        "malliavin.noise_gradient_oracle", "solver.linearize"}


def test_the_linearization_is_written_once():
    # solver.linearize alone steps the flow on zero variates, sweeps it and
    # certifies it; the Wiener sampler, the constant-sigma derivative mass
    # and the certified small-ball floor read its rows and step no flow of
    # their own
    assert (functions_reading("_evolve_batch")
            & functions_reading("adjoint_gradient")) == {"solver.linearize"}
    assert (functions_reading("zeros")
            & functions_reading("_evolve_batch")) == {"solver.linearize"}
    assert functions_reading("XI_MAX") == {"solver.linearize"}
    assert functions_reading("linearize") == {"solver.sample_at_probe",
                                              "malliavin.hnorm_samples",
                                              "malliavin.certified_floor"}


def test_the_blowup_policy_is_written_once():
    # the sampling drivers join their chunks through solver.sample_at_probe,
    # which alone excludes, reports and raises their blow-ups; the
    # single-replica paths raise their own, and the CLI turns BlowUpError
    # into exit 2
    assert functions_reading("sample_at_probe") == {"mcstats.run_ensemble",
                                                    "malliavin.hnorm_samples"}
    assert functions_reading("BlowUpError") == {
        "solver.sample_at_probe", "solver.solve_path",
        "malliavin.noise_gradient_oracle", "cli.parse_and_dispatch"}


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
