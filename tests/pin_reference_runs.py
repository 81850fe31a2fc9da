"""Regenerate tests/reference_data, the checked-in files of every reference
run that has no partner (tests/reference_runs.py).

    PYTHONPATH=src python tests/pin_reference_runs.py

The files belong to the commit that pinned them.  Regenerate them only in a
change that is meant to move output bytes, and say so in that change's
notes: the diff of tests/reference_data then shows which rows moved.
"""

import shutil
import sys

from reference_runs import DATA, PINNED, write


def main():
    shutil.rmtree(DATA, ignore_errors=True)
    for name in PINNED:
        write(name, DATA / name, fresh=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
