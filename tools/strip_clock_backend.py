#!/usr/bin/env python3
"""Drop the retired vector-clock representation axis from baselines.

The library has one clock representation, so committed ``repro-bench/1``
sweep baselines no longer carry the axis that used to select one.  This
rewrites each file given on the command line, in place, and touches
nothing else:

* ``params.clock_backends`` (the recorded matrix axis) is deleted;
* ``clock_backend`` is deleted from every ``sweep.cells[].cell``;
* the ``/packed`` group suffix is removed from cell ids, cell groups and
  the group column of the summary rows.

Before writing, every file is checked: each cell's paper units must be
byte-identical (canonical JSON) before and after, and the rewritten
``params`` must load as a :class:`repro.sweep.SweepMatrix` that expands
to exactly the rewritten cell ids.  The script prints one sha256 over
all cells' paper units per file, before and after, so the identity can
be shown without trusting the script.  Files without the axis are left
byte-for-byte alone, so re-running it is a no-op.

Usage::

    python tools/strip_clock_backend.py benchmarks/baselines/*.json \\
        benchmarks/baselines/*/*.json [--check]

``--check`` reports what would change and exits 1 if anything would.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.sweep import SweepMatrix  # noqa: E402

AXIS = "clock_backends"
FIELD = "clock_backend"
SUFFIX = "/packed"


def _strip(name: str) -> str:
    return name.replace(SUFFIX + "/", "/").removesuffix(SUFFIX)


def units_digest(doc: dict) -> str:
    """sha256 over every cell's paper units, in cell order."""
    cells = doc.get("sweep", {}).get("cells", [])
    canonical = json.dumps([c.get("units") for c in cells], sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def rewrite(doc: dict) -> dict:
    out = copy.deepcopy(doc)
    out.get("params", {}).pop(AXIS, None)
    for cell in out.get("sweep", {}).get("cells", []):
        cell.get("cell", {}).pop(FIELD, None)
        for key in ("id", "group"):
            if key in cell:
                cell[key] = _strip(cell[key])
    headers = out.get("headers", [])
    if "group" in headers:
        col = headers.index("group")
        for row in out.get("rows", []):
            row[col] = _strip(row[col])
    return out


def verify(before: dict, after: dict, path: pathlib.Path) -> None:
    old_cells = before.get("sweep", {}).get("cells", [])
    new_cells = after.get("sweep", {}).get("cells", [])
    assert len(old_cells) == len(new_cells), path
    for old, new in zip(old_cells, new_cells):
        assert json.dumps(old.get("units"), sort_keys=True) == json.dumps(
            new.get("units"), sort_keys=True
        ), f"{path}: paper units changed for {old.get('id')}"
    if new_cells:
        matrix = SweepMatrix.from_dict(after["params"])
        expanded = sorted(cell.cell_id for cell in matrix.cells())
        assert expanded == sorted(c["id"] for c in new_cells), (
            f"{path}: rewritten params do not expand to the rewritten cells"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", type=pathlib.Path)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    changed = 0
    for path in args.paths:
        text = path.read_text(encoding="utf-8")
        before = json.loads(text)
        after = rewrite(before)
        new_text = json.dumps(after, indent=2) + "\n"
        if new_text == text:
            print(f"{path}: unchanged")
            continue
        verify(before, after, path)
        changed += 1
        print(
            f"{path}: paper units sha256 {units_digest(before)[:16]} -> "
            f"{units_digest(after)[:16]}"
        )
        if not args.check:
            path.write_text(new_text, encoding="utf-8")
    return 1 if args.check and changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
