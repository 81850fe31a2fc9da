"""Layer-boundary spans for the traced benchmark run, and the per-layer
metrics derived from them.

The child process calls install() after importing levyheat.cli and before
the dispatch.  install() replaces names in the calling module's namespace
(levyheat.cli.run_ensemble is cli calling into mcstats) with wrappers that
record one span per call: name, layer, start, end, parent span and counts.
No file of the package changes.  A boundary name the package no longer has
is reported as missing, not as an error.

A span is the list [name, layer, start_s, end_s, parent, counts], parent
being the index of the enclosing span on the same thread or None.  Spans
stay in memory until the child writes its result file.
"""

import functools
import os
import threading
import time

LAYERS = ("cli", "mcstats", "malliavin", "solver", "noise", "kernels")
ROOT_SPAN = "cli.parse_and_dispatch"
_PHI_SPANS = ("kernels.phi", "kernels.re_phi")

# name -> unit; every traced run reports all of them, with 0 for a layer
# that does no work on the workload
PER_LAYER = {
    "noise.busy_s": "s",
    "noise.ndtri_s": "s",
    "noise.philox_s": "s",
    "noise.cells": "count",
    "noise.streams": "count",
    "noise.ns_per_cell": "ns",
    "solver.busy_s": "s",
    "solver.row_steps": "count",
    "solver.us_per_row_step": "us",
    "solver.blowups": "count",
    "malliavin.self_s": "s",
    "malliavin.ms_per_replica": "ms",
    "mcstats.kde_s": "s",
    "mcstats.kde_pairs": "count",
    "mcstats.kde_bytes_computed": "bytes",
    "mcstats.ensemble_self_s": "s",
    "mcstats.chunks": "count",
    "mcstats.parallel_eff": "ratio",
    "mcstats.emit_s": "s",
    "mcstats.emit_bytes": "bytes",
    "kernels.busy_s": "s",
    "kernels.calls": "count",
    "kernels.modes": "count",
    "kernels.ns_per_mode": "ns",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

# counts that must repeat exactly across traced runs of one workload and seed
COUNTS = ("noise.cells", "noise.streams", "solver.row_steps", "solver.blowups",
          "kernels.calls", "kernels.modes", "mcstats.kde_pairs",
          "mcstats.kde_bytes_computed", "mcstats.chunks", "mcstats.emit_bytes",
          "malliavin.replicas")


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.uncounted = set()
        self._local = threading.local()

    def call(self, name, layer, count, fn, *args, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, layer, 0.0, 0.0, stack[-1] if stack else None, {}]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[5]["raised"] = type(exc).__name__
            raise
        finally:
            span[3] = time.perf_counter()
            stack.pop()
        if count is not None:
            try:
                span[5].update(count(self, span, args, result))
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                # the boundary changed shape; its time is still recorded
                self.uncounted.add(name)
        return result

    def wrap(self, owner, attr, name, layer, count=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, count, fn, *args, **kwargs)

        setattr(owner, attr, traced)


# count functions: (tracer, span, args, result) -> dict of counts


def _modes(tracer, span, args, result):
    import numpy as np
    parent = span[4]
    if parent is not None and tracer.spans[parent][0] in _PHI_SPANS:
        return {}  # re_phi calling phi: counted once, at the outer call
    return {"modes": int(np.size(args[-1]))}


def _cells(tracer, span, args, result):
    return {"cells": int(args[0].size)}


def _batch_steps(tracer, span, args, result):
    xi = args[1]
    return {"row_steps": int(xi.shape[0] * xi.shape[1]),
            "blowups": len(result[2])}


def _path_steps(tracer, span, args, result):
    return {"row_steps": int(args[0].grid.k_time)}


def _chunks(tracer, span, args, result):
    return {"chunks": len(result)}


def _replicas(tracer, span, args, result):
    return {"replicas": len(result[0])}


def _kde_pairs(tracer, span, args, result):
    pairs = len(result.points) * int(result.metadata["samples"])
    return {"kde_pairs": pairs, "kde_bytes_computed": 8 * pairs}


def _emit_bytes(tracer, span, args, result):
    return {"emit_bytes": os.path.getsize(result)}


def install():
    """Wrap the layer boundaries of the imported package; returns the tracer."""
    import levyheat.cli as cli
    import levyheat.kernels as kernels
    import levyheat.malliavin as malliavin
    import levyheat.mcstats as mcstats
    import levyheat.noise as noise

    tracer = Tracer()
    wrap = tracer.wrap
    # cli -> mcstats, malliavin, kernels
    wrap(cli, "run_ensemble", "mcstats.run_ensemble", "mcstats")
    wrap(cli, "kde", "mcstats.kde", "mcstats", _kde_pairs)
    wrap(cli, "smoothness_report", "mcstats.smoothness_report", "mcstats")
    wrap(cli, "emit", "mcstats.emit", "mcstats", _emit_bytes)
    wrap(cli, "hnorm_samples", "malliavin.hnorm_samples", "malliavin", _replicas)
    wrap(cli, "negative_moment_estimate", "malliavin.negative_moment_estimate",
         "malliavin")
    wrap(cli, "verify_kernel_bounds", "kernels.verify_kernel_bounds", "kernels")
    # mcstats -> _parallel, noise, solver
    wrap(mcstats, "map_chunks", "mcstats.map_chunks", "mcstats", _chunks)
    wrap(mcstats, "_noise_block", "noise.noise_block", "noise")
    wrap(mcstats, "_evolve_batch", "solver.evolve_batch", "solver", _batch_steps)
    # malliavin -> _parallel, noise, solver, and its own derivative lattice;
    # map_chunks runs malliavin's chunk body, so its time stays malliavin's
    wrap(malliavin, "map_chunks", "malliavin.map_chunks", "malliavin", _chunks)
    wrap(malliavin, "sample_noise", "noise.sample_noise", "noise")
    wrap(malliavin, "solve_path_values", "solver.solve_path_values", "solver",
         _path_steps)
    wrap(malliavin, "_evolve_batch", "solver.evolve_batch", "solver",
         _batch_steps)
    wrap(malliavin, "propagate_all", "malliavin.propagate_all", "malliavin")
    # noise -> scipy: one call per (seed, replica) stream
    wrap(noise, "ndtri", "noise.ndtri", "noise", _cells)
    # kernels: every multiplier evaluation, counting the modes passed in
    exponent = kernels.LevyExponent
    wrap(exponent, "re_phi", "kernels.re_phi", "kernels", _modes)
    post_init = exponent.__post_init__

    def traced_post_init(exp_):
        post_init(exp_)
        phi = exp_.phi
        object.__setattr__(exp_, "phi", functools.partial(
            tracer.call, "kernels.phi", "kernels", _modes, phi))

    exponent.__post_init__ = traced_post_init
    return tracer


# ---------------------------------------------------------------------------
# aggregation, in the parent process


def layer_metrics(spans, import_s):
    """Per-layer metrics of one traced child; times in seconds.

    A layer is busy while any of its spans is open (outermost spans only);
    its self time excludes the spans it calls, of any layer.
    """
    dur = [s[3] - s[2] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] is not None:
            child_time[s[4]] += dur[i]

    def inside_own_layer(i):
        layer, parent = spans[i][1], spans[i][4]
        while parent is not None:
            if spans[parent][1] == layer:
                return True
            parent = spans[parent][4]
        return False

    busy = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    named = {}
    counts = {}
    roots = []
    for i, (name, layer, _, _, parent, cnt) in enumerate(spans):
        self_s[layer] += dur[i] - child_time[i]
        if not inside_own_layer(i):
            busy[layer] += dur[i]
        named[name] = named.get(name, 0.0) + dur[i]
        for key, val in cnt.items():
            if key != "raised":
                counts[key] = counts.get(key, 0) + val
        if cnt.get("raised") == "BlowUpError" and name.startswith("solver."):
            counts["blowups"] = counts.get("blowups", 0) + 1
        if name == ROOT_SPAN:
            roots.append(i)
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN} span, got {len(roots)}")
    root = roots[0]
    top = sum(dur[i] for i, s in enumerate(spans) if s[4] == root)
    cells = counts.get("cells", 0)
    row_steps = counts.get("row_steps", 0)
    modes = counts.get("modes", 0)
    replicas = counts.get("replicas", 0)
    ndtri_s = named.get("noise.ndtri", 0.0)

    def per(total, n, scale):
        return total / n * scale if n else 0.0

    return {
        "run_s": dur[root],
        "noise.busy_s": busy["noise"],
        "noise.ndtri_s": ndtri_s,
        "noise.philox_s": busy["noise"] - ndtri_s,
        "noise.cells": cells,
        "noise.streams": sum(1 for s in spans if s[0] == "noise.ndtri"),
        "noise.ns_per_cell": per(busy["noise"], cells, 1e9),
        "solver.busy_s": busy["solver"],
        "solver.row_steps": row_steps,
        "solver.us_per_row_step": per(busy["solver"], row_steps, 1e6),
        "solver.blowups": counts.get("blowups", 0),
        "malliavin.self_s": self_s["malliavin"],
        "malliavin.replicas": replicas,
        "malliavin.ms_per_replica": per(self_s["malliavin"], replicas, 1e3),
        "mcstats.kde_s": named.get("mcstats.kde", 0.0),
        "mcstats.kde_pairs": counts.get("kde_pairs", 0),
        "mcstats.kde_bytes_computed": counts.get("kde_bytes_computed", 0),
        "mcstats.ensemble_self_s": sum(
            dur[i] - child_time[i] for i, s in enumerate(spans)
            if s[0] in ("mcstats.run_ensemble", "mcstats.map_chunks")),
        "mcstats.chunks": counts.get("chunks", 0),
        "mcstats.emit_s": named.get("mcstats.emit", 0.0),
        "mcstats.emit_bytes": counts.get("emit_bytes", 0),
        "kernels.busy_s": busy["kernels"],
        "kernels.calls": sum(1 for s in spans if "modes" in s[5]),
        "kernels.modes": modes,
        "kernels.ns_per_mode": per(busy["kernels"], modes, 1e9),
        "cli.self_s": self_s["cli"],
        "cli.import_s": import_s,
        "trace.coverage": top / dur[root] if dur[root] > 0 else 0.0,
    }


def import_scipy_s(importtime_stderr):
    """Cumulative import time of the outermost scipy modules, in seconds,
    from the output of python -X importtime (printed children first)."""
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(),
                        int(parts[1])))
    total_us = 0
    stack = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(outer for _, outer in stack):
            total_us += cumulative
        stack.append((depth, is_scipy))
    return total_us / 1e6
