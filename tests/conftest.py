"""Helpers shared by the test modules."""

import tracemalloc

import numpy as np

from levyheat import SigmaSpec


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
