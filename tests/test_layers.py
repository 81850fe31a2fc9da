"""Layering: the numerical modules never reach up into the output layer.

mcstats (ensembles, density, row serialization) and cli (the row format)
sit above kernels, noise, solver, malliavin and _parallel.  An import the
other way, even one inside a function, couples the numerics to the output
format, so this test parses each lower module and rejects any such import.
"""

import ast
from pathlib import Path

import pytest

import levyheat

PACKAGE = Path(levyheat.__file__).parent
LOWER = ("kernels", "noise", "solver", "malliavin", "_parallel")
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
