"""The reference runs: one registry of command lines whose output files are
checked in under tests/reference_data/, and the check that reruns them.

Each entry is a name and a levyheat command line, without --workers and
--out.  An entry with a partner (`same_as`) gives the partner's computation
another way: it must write the partner's bytes, so it has no files of its
own.  Every other entry has its data and metadata files in
tests/reference_data/<name>/, which only pin_reference_runs.py rewrites.

    PYTHONPATH=src python -W error tests/reference_runs.py

runs every entry in a new interpreter under -W error, at --workers 1, at
--workers 2 and once more at --workers 1, and fails unless:

- the three passes write the same bytes, and each pair its partner's;
- every metadata file is strict JSON (no NaN or Infinity);
- every metadata file, header line and non-value cell equals the
  checked-in copy exactly, and every value, stderr and tail bound is within
  RTOL of it, relative to the largest of the three in the row.

The tolerance admits another numpy or scipy build, which may round a sum
differently; it does not admit changed math.  tests/test_reference_runs.py
runs the last check in-process at --workers 1.
"""

import csv
import json
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

from levyheat.cli import parse_and_dispatch

DATA = Path(__file__).resolve().parent / "reference_data"
RTOL = 1e-9  # perfbench/checks.py pins its rows to the same relative bound
EXACT = ("run_id", "replica_count", "t", "x", "quantity")
VALUES = ("value", "stderr", "tail_bound")


@dataclass(frozen=True)
class Run:
    command: str
    same_as: str = None  # the entry whose bytes this one must write
    records: dict = None  # what both runs of a pair record (None: left out)

    @property
    def argv(self):
        return self.command.split()


PROBE_GRID = "simulate --set m_space=16 --set k_time=8 --set replicas=8"
RUNS = {
    # the defaults, one per subcommand
    "kernel": Run("kernel"),
    "simulate": Run("simulate"),
    "picard": Run("picard"),
    "malliavin": Run("malliavin"),
    "smallball": Run("smallball"),
    "density": Run("density"),
    "check-exponent": Run("check-exponent"),
    # the default config writes no tail rows
    "tails": Run("malliavin --set deltas=0.05,0.1"),
    # a constant sigma samples the probe as a Wiener integral
    "density-sigma-one": Run("density --set sigma=one"),
    "simulate-sigma-two": Run("simulate --set sigma=two --set u0=sin"),
    # 8 stepped chunks of 128 replicas, each one noise block of 512 rows
    "small-m": Run("simulate --set m_space=4 --set k_time=2048 "
                   "--set replicas=1024"),
    # the default u0 = 0 has a zero flow, and Picard's loop is the one
    # whose integrand is not sigma of its own field
    "picard-flow": Run("picard --set u0=sin --set drift=0.7 --set m_space=33"),
    # smallball evaluates no kernel series, so it stays fast near alpha = 1
    "smallball-alpha-1.1": Run("smallball --set alpha=1.1"),
    # 5 path chunks of 13 and 12 replicas
    "hnorm-256": Run("malliavin --set m_space=256 --set k_time=256 "
                     "--set replicas=64 --set deltas=0.05,0.1"),
    # 8 noise blocks per Wiener chunk
    "wiener-blocks": Run("density --set sigma=one --set m_space=16 "
                         "--set k_time=1024 --set replicas=1024"),
    # kappa = 0 reads no floor
    "malliavin-kappa-0": Run("malliavin --set sigma=zero --set floor=1e-6"),
    # perfbench's workload settings (perfbench/run.py), at the default seed
    "perfbench-series": Run("kernel --set alpha=1.4 --set t_min=1e-8 "
                            "--set t_points=33"),
    "perfbench-ensemble": Run("simulate --set sigma=shifted_sine "
                              "--set m_space=128 --set k_time=128 "
                              "--set replicas=2048"),
    "perfbench-hnorm": Run("malliavin --set replicas=16 "
                           "--set deltas=0.05,0.1"),
    "perfbench-density": Run("density --set sigma=one --set m_space=16 "
                             "--set k_time=16 --set replicas=32768"),
    "check-exponent-alpha-1.5": Run("check-exponent --set alpha=1.5"),
    "probe-grid": Run(PROBE_GRID),
    # t = 0: every replica holds u0
    "probe-grid-t0": Run(PROBE_GRID + " --set probe_t=0"),
    # pairs: one computation given two ways, recorded as one config
    "deltas": Run("malliavin --set deltas=0.1,0.050", same_as="tails",
                  records={"deltas": "0.05,0.1"}),
    "probe_t": Run("simulate --set probe_t=0.5", same_as="simulate",
                   records={"probe_t": 0.5}),
    "beta": Run("check-exponent --set alpha=1.5 --set beta=1.5",
                same_as="check-exponent-alpha-1.5", records={"beta": 1.5}),
    "u0_amp": Run("simulate --set u0_amp=7", same_as="simulate",
                  records={"u0_amp": None}),
    # a probe is recorded as the grid cell it snaps to
    "probe_x": Run(PROBE_GRID + " --set probe_x=6.283185307179586",
                   same_as="probe-grid", records={"probe_x": 0.0}),
    "probe_x_negative": Run(PROBE_GRID + " --set probe_x=-6.283185307179586",
                            same_as="probe-grid", records={"probe_x": 0.0}),
    "probe_t_near": Run(PROBE_GRID + " --set probe_t=0.5000000000001",
                        same_as="probe-grid", records={"probe_t": 0.5}),
    "probe_t_step0": Run(PROBE_GRID + " --set probe_t=1e-12",
                         same_as="probe-grid-t0", records={"probe_t": 0.0}),
}
PAIRS = {name: run for name, run in RUNS.items() if run.same_as}
PINNED = [name for name, run in RUNS.items() if not run.same_as]


def stem(name):
    """The file stem entry `name` writes: its subcommand."""
    return RUNS[name].argv[0].replace("-", "_")


def write(name, out, workers=1, fresh=False):
    """Run entry `name` into directory out, under -W error: in-process, or
    with fresh, in a new interpreter, as the command line runs it."""
    argv = RUNS[name].argv + ["--workers", str(workers), "--out", str(out)]
    if fresh:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "levyheat", *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        code, err = proc.returncode, proc.stderr
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = parse_and_dispatch(argv), ""
    if code != 0:
        raise RuntimeError(f"{name}: levyheat {' '.join(argv)} exited {code}"
                           f"\n{err}")


def strict_json(text):
    """text as JSON, refusing NaN and Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def compare(got, pinned):
    """Problems of the files in directory got against the checked-in files
    in directory pinned; an empty list means they agree."""
    names = sorted(p.name for p in pinned.iterdir())
    found = sorted(p.name for p in got.iterdir())
    if found != names:
        return [f"{got}: files {found} != pinned {names}"]
    problems = []
    for name in names:
        text = (got / name).read_text(encoding="utf-8")
        want = (pinned / name).read_text(encoding="utf-8")
        if name.endswith(".meta.json"):
            try:
                strict_json(text)
            except ValueError as err:
                problems.append(f"{got / name}: {err}")
            if text != want:
                problems.append(f"{got / name}: differs from the pinned copy")
        else:
            problems += _compare_rows(got / name, text, want)
    return problems


def _compare_rows(path, text, want):
    lines, want_lines = text.splitlines(), want.splitlines()
    if lines[:2] != want_lines[:2]:
        return [f"{path}: header {lines[:2]} != pinned {want_lines[:2]}"]
    if len(lines) != len(want_lines):
        return [f"{path}: {len(lines)} lines != pinned {len(want_lines)}"]
    columns = want_lines[1].split(",")
    problems = []
    for cells, want_cells in zip(csv.reader(lines[2:]),
                                 csv.reader(want_lines[2:])):
        if len(cells) != len(columns):
            problems.append(f"{path}: row {cells} has {len(cells)} cells")
            continue
        row, pin = dict(zip(columns, cells)), dict(zip(columns, want_cells))
        where = f"{path}: {pin['quantity']} at t={pin['t']}, x={pin['x']}"
        for col in EXACT:
            if row[col] != pin[col]:
                problems.append(f"{where}: {col} {row[col]} != pinned "
                                f"{pin[col]}")
        scale = max(abs(float(pin[col])) for col in VALUES)
        for col in VALUES:
            if abs(float(row[col]) - float(pin[col])) > RTOL * scale:
                problems.append(f"{where}: {col} {row[col]} != pinned "
                                f"{pin[col]}")
    return problems


def _same_bytes(a, b):
    """Problems unless directories a and b hold the same files, byte for
    byte."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return [f"{a} and {b} hold other files"]
    return [f"{b / name} differs from {a / name}" for name in names
            if (a / name).read_bytes() != (b / name).read_bytes()]


def main():
    passes = {"workers-1": 1, "workers-2": 2, "rerun": 1}
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for tag, workers in passes.items():
            for name in RUNS:
                try:
                    write(name, root / tag / name, workers, fresh=True)
                except RuntimeError as err:
                    problems.append(str(err))
            files = [p for p in (root / tag).rglob("*") if p.is_file()]
            if len(files) != 2 * len(RUNS):
                problems.append(f"{tag}: {len(files)} files, not two for "
                                f"each of the {len(RUNS)} runs")
        if not problems:
            first = root / "workers-1"
            for tag in list(passes)[1:]:
                for name in RUNS:
                    problems += _same_bytes(first / name, root / tag / name)
            for name, run in PAIRS.items():
                problems += _same_bytes(first / run.same_as, first / name)
            for name in PINNED:
                problems += compare(first / name, DATA / name)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(RUNS)} reference runs ({len(PAIRS)} pairs) at "
          f"{' and '.join(passes)}: "
          + (f"{len(problems)} problem(s)" if problems else "all agree"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
