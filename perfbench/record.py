#!/usr/bin/env python3
"""Record reference outputs of the current code into perfbench/reference/.

    python3 perfbench/record.py table --count 240   # first 240 catalog curves
    python3 perfbench/record.py euler               # the whole euler catalog
    python3 perfbench/record.py rank
    python3 perfbench/record.py scan                # all 256 grid points

References are keyed by input, not by seed, and merged into the existing
file, which is rewritten after every request.  Record on a commit whose
outputs are known to be right: the benchmark compares later code to them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import program  # noqa: E402
import workloads  # noqa: E402


def inputs(name: str, count: int | None):
    items = {"table": gen.catalog_order,
             "euler": workloads.Euler.catalog,
             "rank": lambda: [workloads.RANK_ARGV],
             "scan": lambda: range(1, gen.SCAN_STEPS + 1)}[name]()
    return itertools.islice(items, count)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--count", type=int, default=None)
    args = parser.parse_args()
    hw = program.import_program()
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(hw, 0)  # loads the reference and any state requests share
    path = os.path.join(workloads.REFERENCE_DIR, f"{args.workload}.json")
    reference = workload.reference
    for item in inputs(args.workload, args.count):
        key = workload.key(item)
        if key in reference:
            continue
        reference[key], _ = workload.request(hw, item)
        with open(path + ".tmp", "w") as handle:
            json.dump(reference, handle, sort_keys=True, indent=0)
        os.replace(path + ".tmp", path)
        print(key, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
