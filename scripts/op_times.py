#!/usr/bin/env python3
"""Time each op of a benchmark workload in process, and its share of a pass.

    python3 scripts/op_times.py sweep --seed 1 --passes 3

It builds the ops of ``WORKLOAD`` from ``perfbench/workloads.py`` (read,
never changed) with the seed, runs ``--passes`` passes over them in this
process, checks every output, and prints one line per op: its index and
name, its median time over the passes, that median's share of the sum of
all medians, and the space a campaign op runs on.  BLAS runs one thread per calling thread, as in
perfbench.  The times are raw, not rescaled to a reference speed, so
compare them only within one run or between runs taken side by side.
"""
import os

# as perfbench/run.py does, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def space_of(op) -> str:
    """The space (or operator-norm size) a campaign op runs on, as compact JSON, or ''."""
    if op.config is None:
        return ""
    params = op.config[op.config["command"]]
    for key in ("space", "d"):
        if key in params:
            return json.dumps({key: params[key]}, separators=(",", ":"))
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=["search", "sweep", "solve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    ops = workloads.make_ops(args.workload, args.seed, ROOT)
    times = [[] for _ in ops]
    for _ in range(args.passes):
        for k, op in enumerate(ops):
            t0 = time.perf_counter()
            result = op.call()
            times[k].append(time.perf_counter() - t0)
            error = op.check(result)
            if error is not None:
                print(f"op {k} {op.name}: {error}", file=sys.stderr)
                return 1
    medians = [statistics.median(t) for t in times]
    total = sum(medians)
    print(f"{args.workload} seed {args.seed}, {args.passes} passes, {len(ops)} ops, "
          f"sum of medians {total * 1e3:.1f} ms")
    for k, op in enumerate(ops):
        print(f"{k:4d}  {op.name:28s} {medians[k] * 1e3:10.2f} ms  {100.0 * medians[k] / total:5.1f}%  "
              f"{space_of(op)}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
