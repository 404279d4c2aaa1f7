"""Record the golden digests the benchmark checks every run against.

Usage (from the repository root)::

    python3 perfbench/record_digests.py --seeds 1 2 3

Runs one untraced iteration of every workload per seed and merges the
digests into ``perfbench/digests.json``.  Only a change that defines or
corrects the benchmark records digests; a change to the program must
reproduce the recorded ones bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from workloads import WORKLOADS

    golden = {}
    if os.path.exists(run.GOLDEN):
        with open(run.GOLDEN) as handle:
            golden = json.load(handle)
    for name in args.workloads or list(WORKLOADS):
        for seed in args.seeds:
            value = run.run_once(name, seed, traced=False)["digest"]
            golden.setdefault(name, {})[str(seed)] = value
            print("%s seed=%d %s" % (name, seed, value))
    with open(run.GOLDEN, "w") as handle:
        json.dump({name: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
                   for name, seeds in sorted(golden.items())},
                  handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
