"""The reference runs of tests/reference_runs.py against their checked-in
files, in-process at --workers 1, and the comparison that checks them."""

import csv
import io
import json
import math
import shutil

import pytest

from reference_runs import (DATA, PAIRS, PINNED, RTOL, RUNS, VALUES, compare,
                            stem, write)


@pytest.mark.parametrize("name", PINNED)
def test_a_reference_run_writes_its_pinned_files(tmp_path, name):
    write(name, tmp_path / name)
    assert compare(tmp_path / name, DATA / name) == []


def test_the_pinned_files_are_the_registrys():
    assert sorted(p.name for p in DATA.iterdir()) == sorted(PINNED)
    for name in PINNED:
        assert sorted(p.name for p in (DATA / name).iterdir()) == [
            f"{stem(name)}.csv", f"{stem(name)}.meta.json"]
    for name, run in PAIRS.items():
        # a pair's partner is pinned, and writes the same file names
        assert RUNS[run.same_as].same_as is None
        assert stem(name) == stem(run.same_as)
        assert run.records


# the row the edits below change: simulate's u_mean, whose value, stderr
# and tail bound are 0.0125, 0.0264 and 0
ROW = 3


def _edit_row(directory, change):
    path = directory / "simulate.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    columns = lines[1].strip().split(",")
    row = dict(zip(columns, next(csv.reader([lines[ROW]]))))
    assert row["quantity"] == "u_mean"
    change(row)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row.values())
    lines[ROW] = buf.getvalue()
    path.write_text("".join(lines), encoding="utf-8")


def _move_value(row, beyond):
    """Move the value one ulp beyond its tolerance, or to the last float
    within it."""
    pinned = float(row["value"])
    bound = RTOL * max(abs(float(row[col])) for col in VALUES)
    moved = pinned + bound
    while abs(moved - pinned) <= bound:
        moved = math.nextafter(moved, math.inf)
    if not beyond:
        moved = math.nextafter(moved, -math.inf)
    row["value"] = format(moved, ".17g")


def _edit_header(directory):
    path = directory / "simulate.csv"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("schema v2", "schema v3"), encoding="utf-8")


def _add_meta_key(directory):
    path = directory / "simulate.meta.json"
    meta = json.loads(path.read_text(encoding="utf-8"))
    meta["elapsed_s"] = 0.25
    path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


@pytest.mark.parametrize("edit, agrees", [
    (lambda d: _edit_row(d, lambda r: _move_value(r, beyond=False)), True),
    (lambda d: _edit_row(d, lambda r: _move_value(r, beyond=True)), False),
    (lambda d: _edit_row(d, lambda r: r.update(run_id=r["run_id"][::-1])),
     False),
    (lambda d: _edit_row(d, lambda r: r.update(x="0.0")), False),
    (_edit_header, False),
    (_add_meta_key, False),
], ids=["value-within", "value-one-ulp-beyond", "run_id",
        "x-spelling", "header", "meta-key"])
def test_the_comparison_fails_each_moved_byte(tmp_path, edit, agrees):
    copy = tmp_path / "simulate"
    shutil.copytree(DATA / "simulate", copy)
    edit(copy)
    assert any((copy / f.name).read_bytes() != f.read_bytes()
               for f in (DATA / "simulate").iterdir())
    assert (compare(copy, DATA / "simulate") == []) == agrees
