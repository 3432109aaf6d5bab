#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and write one JSON report.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workloads sweep search \\
        --pairs 10 --seed-base 14000 --out BENCH_14.json

Each pair runs ``perfbench/run.py`` once from each checkout, as it stands
there, with the same workload and seed and with ``--seconds`` set to
``run_seconds`` of the change's ``BENCHMARK.json``.  Pair i of the j-th
workload uses seed ``seed_base + 100 * j + i`` (i from 1), and the side that
runs first alternates from pair to pair, parent first in pair 1.  Put both
checkouts at the same path depth: perfbench's rescaled times have been seen
to depend on where a checkout lives.

They also depend on glibc's dynamic mmap threshold.  The reference kernel of
``perfbench/speed.py`` allocates temporaries of 256 KiB, above the 128 KiB
threshold glibc starts with, so it mmaps them.  Once the process frees an
mmapped chunk of 256 KiB or more, glibc raises the threshold to that
chunk's size, and the kernel's temporaries come from the heap, faster.  In
a ``solve`` process, freeing one 1 MB array before the ops took the kernel
from 3.13 ms to 2.60 ms, and ``wall_s`` read about 20% worse while the raw
pass times did not move.  So every run records its
implied kernel time, 1.5 ms (``speed.REF_SECONDS``) times its median raw
pass over its ``wall_s``: the kernel time at which the rescaled wall time
matches the raw one.  Two sides whose implied kernels differ were rescaled
by different kernel speeds, and their rescaled metrics differ by that ratio
whatever their code does.  The report also records every ``MALLOC_*``
variable of the run's environment, which both sides inherit.

The report holds every run's end-to-end metrics, counts, raw (unscaled)
pass times and implied kernel time, and per workload the quartiles of each
metric and of the implied kernel time on both sides, how many pairs the
change won, the ratio of the medians and the gap between the medians over
the parent's interquartile range.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

RAW_PASSES = re.compile(r"raw pass times = (.*) s$")
#: perfbench's reference kernel time, speed.REF_SECONDS, in ms
REF_KERNEL_MS = 1.5


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    raw = [float(t) for t in next(m.group(1) for m in map(RAW_PASSES.search, lines) if m).split(", ")]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {
        "metrics": metrics,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "raw_pass_s": raw,
        "implied_kernel_ms": REF_KERNEL_MS * statistics.median(raw) / metrics["wall_s"],
    }


def quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(pairs: list, better: dict) -> dict:
    out = {"pairs": len(pairs)}
    n = len(pairs)
    for name, direction in better.items():
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < q) if direction == "lower" else (c > q) for q, c in zip(par, chg))
        pq, cq = quartiles(par), quartiles(chg)
        iqr = pq[2] - pq[0]
        out[name] = {
            "better": direction,
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_better_pairs": f"{wins}/{n}",
            "median_ratio_change_over_parent": cq[1] / pq[1] if pq[1] else None,
            "median_gap_over_parent_iqr": abs(cq[1] - pq[1]) / iqr if iqr else None,
        }
    par = [statistics.median(p["parent"]["raw_pass_s"]) for p in pairs]
    chg = [statistics.median(p["change"]["raw_pass_s"]) for p in pairs]
    out["raw_pass_s_median_per_run"] = {
        "parent_q1_median_q3": quartiles(par),
        "change_q1_median_q3": quartiles(chg),
        "change_faster_pairs": f"{sum(c < q for q, c in zip(par, chg))}/{n}",
    }
    par = [p["parent"]["implied_kernel_ms"] for p in pairs]
    chg = [p["change"]["implied_kernel_ms"] for p in pairs]
    out["implied_kernel_ms"] = {"parent_q1_median_q3": quartiles(par), "change_q1_median_q3": quartiles(chg)}
    out["failed"] = {
        "parent": sum(p["parent"]["failed"] for p in pairs),
        "change": sum(p["change"]["failed"] for p in pairs),
        "attempted_parent": sum(p["parent"]["attempted"] for p in pairs),
        "attempted_change": sum(p["change"]["attempted"] for p in pairs),
    }
    return out


def git_rev(checkout: Path):
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "what": "perfbench end-to-end runs, parent against change, alternating which side runs first",
        "command": f"PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
        "malloc_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")},
        "parent": git_rev(sides["parent"]),
        "metrics_note": "metrics are rescaled to the reference kernel speed by perfbench; raw_pass_s are "
                        "unscaled seconds of each timed pass, and raw_pass_s_median_per_run summarizes each "
                        "run's median pass; implied_kernel_ms is 1.5 ms * median raw pass / wall_s, the "
                        "kernel time the run was rescaled by; quartiles are "
                        "statistics.quantiles(n=4, method='inclusive')",
        "summary": {},
        "seeds": {},
        "pairs": [],
    }
    for j, workload in enumerate(args.workloads):
        seeds = [args.seed_base + 100 * j + i for i in range(1, args.pairs + 1)]
        report["seeds"][workload] = f"{seeds[0]}-{seeds[-1]}"
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(sides[side], workload, seed, seconds)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics']['secondary_per_s']:.6g}/{pair[side]['metrics']['wall_s']:.4g}s"
                f"/{pair[side]['implied_kernel_ms']:.3f}ms"
                for side in order) + " (secondary_per_s/wall_s/implied kernel)", file=sys.stderr)
            pairs.append(pair)
        report["pairs"] += pairs
        report["summary"][workload] = summarize(pairs, better)
        # write after every workload, so a long session keeps what it measured
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
