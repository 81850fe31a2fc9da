"""Startup: importing levyheat loads only what its runs execute, and a run
imports nothing more.

noise._load_ndtri takes scipy's ndtri from the compiled
scipy.special._ufuncs without running scipy.special's __init__, whose
array-API layer imports numpy.testing, numpy.f2py and more.  Each test runs
in a fresh interpreter, since the test process has long since imported
scipy.special.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import levyheat

from test_cli import SMALL

SRC = Path(levyheat.__file__).parents[1]
SUBCOMMANDS = ("kernel", "simulate", "picard", "malliavin", "smallball",
               "density", "check-exponent")
# what scipy.special's __init__ loads and a run never executes
UNUSED = ("scipy.special", "scipy._lib._array_api", "numpy.testing",
          "numpy.f2py")


def run_python(code, *args):
    """Run code in a fresh interpreter that imports levyheat from this
    checkout; returns the JSON value of its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_a_run_imports_nothing(tmp_path, subcommand):
    code, added = run_python("""
        import json, sys
        import levyheat.cli
        before = set(sys.modules)
        code = levyheat.cli.parse_and_dispatch(json.loads(sys.argv[1]))
        print(json.dumps([code, sorted(set(sys.modules) - before)]))
        """, json.dumps([subcommand, *SMALL, "--out", str(tmp_path)]))
    assert code == 0
    assert added == []


def test_the_package_leaves_scipy_special_unloaded():
    loaded = run_python("""
        import json, sys
        import levyheat
        print(json.dumps(sorted(sys.modules)))
        """)
    assert "scipy.special._ufuncs" in loaded
    assert [name for name in UNUSED if name in loaded] == []


def test_ndtri_of_an_imported_scipy_special():
    assert run_python("""
        import json
        import scipy.special
        from levyheat import noise
        print(json.dumps(noise.ndtri is scipy.special.ndtri))
        """)


# after the direct load, and after its fallback, no stand-in is left, and a
# later scipy.special is the real package holding the same ufunc; scipy.stats,
# which imports it, works
LATER_IMPORT = """
    parent = sys.modules.get("scipy.special")
    stand_in_left = parent is not None and not hasattr(parent, "__file__")
    import scipy.special
    import scipy.stats
    print(json.dumps({
        "stand_in_left": stand_in_left,
        "same": noise.ndtri is scipy.special.ndtri is scipy.special._ufuncs.ndtri,
        "package": scipy.special.__file__.endswith("__init__.py"),
        "ppf": bool(scipy.stats.norm.ppf(0.3) == noise.ndtri(0.3)),
        "refused": refused}))
    """


def test_ndtri_loads_without_the_package():
    got = run_python(textwrap.dedent("""
        import json, sys
        from levyheat import noise
        refused = 0
        """) + textwrap.dedent(LATER_IMPORT))
    assert got == {"stand_in_left": False, "same": True, "package": True,
                   "ppf": True, "refused": 0}


def test_a_later_scipy_special_holds_its_submodules():
    # the submodules that _ufuncs loaded under the stand-in leave with it, so
    # the real package sets each one it loads on itself (_ufuncs_cxx, which
    # only _ufuncs imports, on its next import); ndtri, held from the
    # stand-in's import, still works after a collection
    got = run_python("""
        import gc, json, sys
        from levyheat import noise
        gc.collect()
        first = float(noise.ndtri(0.3))
        import scipy.special
        gc.collect()
        loaded = [name.split(".")[2] for name in sys.modules
                  if name.count(".") == 2
                  and name.startswith("scipy.special.")]
        import scipy.special._ufuncs_cxx
        print(json.dumps({
            "detached": [n for n in loaded if not hasattr(scipy.special, n)],
            "named": [n for n in ("_ufuncs_cxx", "_special_ufuncs", "_gufuncs",
                                  "_ellip_harm_2")
                      if not hasattr(scipy.special, n)],
            "same": noise.ndtri is scipy.special.ndtri,
            "ndtri": [first, float(noise.ndtri(0.3)),
                      float(scipy.special.ndtri(0.3))]}))
        """)
    assert got["detached"] == [] and got["named"] == [] and got["same"]
    assert got["ndtri"] == [-0.5244005127080409] * 3


def test_ndtri_falls_back_to_the_package():
    # refuse the extension while its parent is the bare stand-in, which has
    # no __file__; the real package then loads it
    got = run_python(textwrap.dedent("""
        import json, sys

        refused = 0

        class Refuse:
            def find_spec(self, name, path, target=None):
                global refused
                parent = sys.modules.get("scipy.special")
                if (name == "scipy.special._ufuncs"
                        and not hasattr(parent, "__file__")):
                    refused += 1
                    raise ImportError("refused")
                return None

        sys.meta_path.insert(0, Refuse())
        from levyheat import noise
        """) + textwrap.dedent(LATER_IMPORT))
    assert got == {"stand_in_left": False, "same": True, "package": True,
                   "ppf": True, "refused": 1}
