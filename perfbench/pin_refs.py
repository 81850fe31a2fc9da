"""Regenerate refs.json, the pinned output rows of the ensemble and hnorm
workloads for seeds 0..31.

    python3 perfbench/pin_refs.py

The references belong to the commit that defined the benchmark.  Regenerate
them only for a change that is meant to alter these outputs, and say so in
that change's notes.
"""

import json
import shutil
import sys

import checks
import run

PINNED = ("ensemble", "hnorm")
SEEDS = range(32)


def main():
    run_dir = run.OUT / "pin_refs"
    shutil.rmtree(run_dir, ignore_errors=True)
    refs = {}
    for name in PINNED:
        wl = run.WORKLOADS[name]
        seeds = {}
        for seed in SEEDS:
            child = run.run_child(name, seed, wl.workers, False, run_dir,
                                  f"{name}-{seed}", {})
            if not child.ok:
                print(f"{name} seed {seed}: {child.problems}", file=sys.stderr)
                return 1
            seeds[str(seed)] = checks.reference_rows(child.rows)
        refs[name] = {"settings": wl.settings, "seeds": seeds}
    shutil.rmtree(run_dir)
    checks.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
