#!/usr/bin/env python
"""Exact gate on the counted columns of an end-to-end benchmark run.

``benchmarks/e2e/run.py --smoke --out FILE`` runs every workload on
fixed seeds.  Its counted columns (messages, bits, kernel steps,
verdicts, simulated time) come out the same on every run of the same
code, so any change to one of them is a change in behaviour.  This
tool compares, per workload, exactly those columns of a fresh results
file with a committed one and exits 1 if any differs or is missing:

* the end-to-end ``wire_bits_per_verdict``, ``sim_time_to_verdict_p50``,
  ``mon_msgs_per_verdict`` and ``failed_frac``;
* every per-layer column that is not a wall time, a rate over wall
  time or the traced pass's wall overhead.

Wall times and ``peak_alloc_mb`` depend on the host and are ignored.

Usage::

    python benchmarks/e2e/run.py --smoke --out e2e-smoke.json
    python tools/e2e_counted_gate.py benchmarks/baselines/e2e/smoke.json \
        e2e-smoke.json
"""

import argparse
import json
import pathlib
import sys

#: Units of columns measured in, or per unit of, wall time.
WALL_UNITS = {"s", "1/s"}
#: Columns in other units that still depend on the host.
NOT_COUNTED = {"peak_alloc_mb", "obs.tracing_overhead"}


def counted(workload: dict) -> dict[str, float]:
    """Column -> value for every counted column of one workload."""
    return {
        name: metric["value"]
        for section in ("metrics", "per_layer")
        for name, metric in workload[section].items()
        if metric["unit"] not in WALL_UNITS and name not in NOT_COUNTED
    }


def differences(baseline: dict, fresh: dict) -> list[str]:
    """One line per counted column that differs or is missing."""
    if (baseline["seed"], baseline["smoke"]) != (fresh["seed"], fresh["smoke"]):
        return [
            f"runs differ in --seed/--smoke: baseline "
            f"({baseline['seed']}, {baseline['smoke']}), fresh "
            f"({fresh['seed']}, {fresh['smoke']})"
        ]
    lines = []
    for workload, entry in baseline["workloads"].items():
        if workload not in fresh["workloads"]:
            lines.append(f"{workload}: missing from the fresh run")
            continue
        want = counted(entry)
        got = counted(fresh["workloads"][workload])
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                lines.append(
                    f"{workload} {name}: baseline={want.get(name)} "
                    f"fresh={got.get(name)}"
                )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("fresh", type=pathlib.Path)
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    fresh = json.loads(args.fresh.read_text(encoding="utf-8"))
    lines = differences(baseline, fresh)
    for line in lines:
        print(line)
    columns = sum(len(counted(w)) for w in baseline["workloads"].values())
    print(
        f"e2e counted gate: {len(lines)} difference(s) over {columns} counted "
        f"columns in {len(baseline['workloads'])} workloads"
    )
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
