"""Helpers shared by the test modules."""

import tracemalloc

import numpy as np

from levyheat import SigmaSpec
from levyheat.kernels import rfft_symbol
from levyheat.solver import _smooth


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), peak traced bytes while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def steep_sigma(c):
    """c * (2 + sin u): with c near the blow-up threshold, some replicas blow
    up after many steps and the others survive."""
    return SigmaSpec("steep", lambda u: c * (2.0 + np.sin(u)),
                     lambda u: c * np.cos(u), kappa=c)


def semigroup(exp_, t, values):
    """The exact semigroup on grid values: the solver's transform with the
    one-step multiplier exp(-t phi(n)), the reference for k solver steps."""
    m = len(values)
    return _smooth(values, rfft_symbol(exp_, m, lambda p: np.exp(-t * p)), m)
