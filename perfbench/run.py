"""levyheat benchmark: four CLI workloads timed end to end, with output
checks, and a traced run for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed run is a fresh child process (child.py) that imports the package
from the checkout's src/ and calls levyheat.cli.parse_and_dispatch once.
Children run one at a time, the next starting when the previous one exits
(a closed loop), for S seconds.  Every child's output is checked after it
exits.  With --trace 1, traced children follow the timed loop and give the
per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A report with every sample, the seed, nproc
and the library versions goes to .perfbench_out/ in the checkout, next to
the spans of the traced children.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
OUT = ROOT / ".perfbench_out"
SEED_ENV = "LEVYHEAT_SEED"  # overrides --seed inside the CLI; never passed on
CHILD_TIMEOUT_S = 60
MIN_TIMED = 3
TRACED_RUNS = 2


@dataclass(frozen=True)
class Workload:
    subcommand: str
    settings: dict
    workers: int = 1
    units: int = 0  # work units per run when the rows carry no replica count


# Replica counts are sized for runs of 1-2 s on a 2-core machine, so that a
# measurement holds several runs; each keeps the layer mix it exists for.
WORKLOADS = {
    # bulk cells: noise (Philox + ndtri) and the spectral step; the only
    # workload that runs _parallel threads
    "ensemble": Workload("simulate", {
        "sigma": "shifted_sine", "m_space": "128", "k_time": "128",
        "replicas": "2048"}, workers=2),
    # derivative mass on the 64x64 default grid: the forward derivative
    # lattice (propagate_all) is nearly all of the run
    "hnorm": Workload("malliavin", {
        "sigma": "shifted_sine", "replicas": "16", "deltas": "0.05,0.1"}),
    # additive noise, known Gaussian law: many short noise streams, tiny
    # FFTs, and a kde matrix that sets peak RSS
    "density": Workload("density", {
        "sigma": "one", "m_space": "16", "k_time": "16",
        "replicas": "32768"}),
    # certified kernel series only; a unit of work is one grid time
    "series": Workload("kernel", {
        "alpha": "1.4", "t_min": "1e-8", "t_points": "33"}, units=33),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "replicas_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Child:
    tag: str
    problems: list = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    peak_rss_mb: float = 0.0
    units: int = 0
    digest: str = ""
    rows: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.problems


def child_env():
    return {k: v for k, v in os.environ.items() if k != SEED_ENV}


def run_child(name, seed, workers, trace, run_dir, tag, refs):
    """One child process, timed from spawn to exit, then its output checked."""
    wl = WORKLOADS[name]
    out_dir = run_dir / tag
    out_dir.mkdir(parents=True)
    result_path = out_dir / "child.json"
    argv = [wl.subcommand, "--seed", str(seed), "--workers", str(workers),
            "--out", str(out_dir)]
    for key, value in wl.settings.items():
        argv += ["--set", f"{key}={value}"]
    child = Child(tag=tag)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(result_path), str(int(trace)), *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=child_env(),
            cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.problems.append(f"timed out after {CHILD_TIMEOUT_S} s")
        shutil.rmtree(out_dir)
        return child
    child.wall_s = time.monotonic() - spawned
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}: "
                             + proc.stderr.decode(errors="replace")[-400:])
        child.result = json.loads(result_path.read_text(encoding="utf-8"))
        data = (out_dir / f"{wl.subcommand}.csv").read_bytes()
    except (OSError, ValueError) as err:
        child.problems.append(str(err))
        return child
    finally:
        shutil.rmtree(out_dir)
    child.setup_s = child.result["imported_at"] - spawned
    child.run_s = child.result["run_s"]
    child.peak_rss_mb = child.result["maxrss_kb"] / 1024.0
    child.digest = hashlib.sha256(data).hexdigest()
    child.rows = checks.parse_rows(data)
    child.problems += checks.check(name, wl.settings, seed, child.rows, refs)
    child.units = wl.units or max(
        int(r["replica_count"]) for rs in child.rows.values() for r in rs)
    return child


def import_command(*flags):
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import levyheat.cli"
    return [sys.executable, *flags, "-c", code]


def warm_up():
    """Compile the package's bytecode and fill the file cache before timing."""
    subprocess.run(import_command(), stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
                   timeout=CHILD_TIMEOUT_S)


def import_scipy_s():
    proc = subprocess.run(import_command("-X", "importtime"),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return spans.import_scipy_s(proc.stderr.decode(errors="replace"))


def closed_loop(name, seed, seconds, run_dir, refs):
    wl = WORKLOADS[name]
    children = []
    start = time.monotonic()
    while len(children) < MIN_TIMED or time.monotonic() - start < seconds:
        children.append(run_child(name, seed, wl.workers, False, run_dir,
                                  f"timed{len(children)}", refs))
    return children


def traced_runs(name, seed, run_dir, refs, timed):
    """Traced children at --workers 1, plus as many untraced --workers 1
    children when the timed runs use more workers; returns (children,
    metrics)."""
    wl = WORKLOADS[name]
    timed_run_s = statistics.median(c.run_s for c in timed if c.ok)
    extras = []
    baseline_s = timed_run_s
    parallel_eff = 0.0
    if wl.workers != 1:
        extras = [run_child(name, seed, 1, False, run_dir, f"serial{i}", refs)
                  for i in range(TRACED_RUNS)]
        serial = [c.run_s for c in extras if c.ok]
        if serial:
            baseline_s = statistics.median(serial)
            parallel_eff = baseline_s / (wl.workers * timed_run_s)
    traced = [run_child(name, seed, 1, True, run_dir, f"traced{i}", refs)
              for i in range(TRACED_RUNS)]
    extras += traced
    layers = []
    for child in traced:
        if not child.ok:
            continue
        try:
            layers.append(spans.layer_metrics(child.result["spans"],
                                              child.result["import_s"]))
        except ValueError as err:
            child.problems.append(f"spans: {err}")
            continue
        first = layers[0]
        diff = [k for k in spans.COUNTS if layers[-1][k] != first[k]]
        if diff:
            child.problems.append(f"counts differ between traced runs: {diff}")
    if not layers:
        return extras, None
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["mcstats.parallel_eff"] = parallel_eff
    metrics["trace.overhead_s"] = statistics.median(
        c.run_s for c in traced if c.ok) - baseline_s
    metrics["cli.import_scipy_s"] = import_scipy_s()
    return extras, metrics


def summarize(values):
    ordered = sorted(values)
    # too few samples for a percentile with ten beyond it: report the max
    return {"median": statistics.median(ordered), "max": ordered[-1],
            "n": len(ordered)}


def write_spans(path, traced):
    out = []
    for child in traced:
        if child.ok:
            t0 = min(s[2] for s in child.result["spans"])
            out.append({
                "tag": child.tag,
                "fields": ["name", "layer", "start_s", "end_s", "parent",
                           "counts"],
                "spans": [[s[0], s[1], s[2] - t0, s[3] - t0, s[4], s[5]]
                          for s in child.result["spans"]],
                "missing": child.result["missing"],
                "uncounted": child.result["uncounted"],
            })
    path.write_text(json.dumps(out), encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "levyheat" / "cli.py").is_file():
        print(f"run.py: no levyheat package under {SRC}", file=sys.stderr)
        return 2
    refs = checks.load_refs()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    warm_up()
    timed = closed_loop(args.workload, args.seed, args.seconds, run_dir, refs)
    extras, layer = [], None
    if args.trace and any(c.ok for c in timed):
        extras, layer = traced_runs(args.workload, args.seed, run_dir, refs,
                                    timed)
    children = timed + extras
    # every child of a run writes the same bytes: reruns, traced runs and
    # --workers 1 against the timed --workers N
    digests = [c.digest for c in children if c.ok]
    for child in children:
        if child.ok and child.digest != digests[0]:
            child.problems.append("data file bytes differ from the first run's")
    failed = sum(not c.ok for c in children)
    for child in children:
        for problem in child.problems:
            print(f"run.py: {child.tag}: {problem}", file=sys.stderr)
    # runs whose output failed a check are still timed; correct is false
    good = [c for c in timed if c.ok] or [c for c in timed if c.result]
    if not good or (args.trace and layer is None):
        print("run.py: no completed run to measure", file=sys.stderr)
        return 1

    samples = {
        "wall_s": [c.wall_s for c in good],
        "setup_s": [c.setup_s for c in good],
        "run_s": [c.run_s for c in good],
        "replicas_per_s": [c.units / c.run_s for c in good],
        "peak_rss_mb": [c.peak_rss_mb for c in good],
    }
    end_to_end = {k: dict(summarize(v), unit=END_TO_END[k], samples=v)
                  for k, v in samples.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": len(os.sched_getaffinity(0)),
        "versions": good[0].result["versions"],
        "settings": WORKLOADS[args.workload].settings,
        "workers": WORKLOADS[args.workload].workers,
        "attempted": len(children), "failed": failed,
        "error_frac": failed / len(children),
        "problems": {c.tag: c.problems for c in children if c.problems},
        "end_to_end": end_to_end,
        "per_layer": layer,
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=1),
                                         encoding="utf-8")
    for k, s in end_to_end.items():
        print(f"run.py: {args.workload} {k}: median {s['median']:.6g} "
              f"max {s['max']:.6g} {s['unit']} (n={s['n']})", file=sys.stderr)
    if args.trace:
        write_spans(run_dir / "spans.json",
                    [c for c in extras if c.tag.startswith("traced")])
        metrics = {k: {"value": layer.get(k, 0.0), "unit": unit}
                   for k, unit in spans.PER_LAYER.items()}
    else:
        metrics = {k: {"value": end_to_end[k]["median"], "unit": unit}
                   for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(children),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
