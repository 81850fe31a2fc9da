"""Helpers shared by the test modules."""

import tracemalloc

import numpy as np

from levyheat import noise
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


def planted_infinity(monkeypatch, replica, word):
    """Make word `word` of replica `replica`'s noise stream +inf, the
    variate of the top uniform (test_noise pins it), for every seed."""
    real = noise._normal_block

    def planted(seed, replicas, first_word, count):
        out = real(seed, replicas, first_word, count)
        for row, r in enumerate(replicas):
            if r == replica and first_word <= word < first_word + count:
                out[row, word - first_word] = np.inf
        return out

    monkeypatch.setattr(noise, "_normal_block", planted)


def semigroup(exp_, t, values):
    """The exact semigroup on grid values: the solver's transform with the
    one-step multiplier exp(-t phi(n)), the reference for k solver steps."""
    m = len(values)
    return _smooth(values, rfft_symbol(exp_, m, lambda p: np.exp(-t * p)), m)
