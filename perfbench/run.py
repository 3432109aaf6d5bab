#!/usr/bin/env python3
"""Benchmark for modbanach: run one workload from a seed and check every output.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search|sweep|solve --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout; the run fails
with exit code 2 when it is not there.  Passes of the workload run back to
back for about ``--seconds`` seconds, each op's output is checked outside the
timed region, and the last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``wall_s``, ``primary_per_s``, ``secondary_per_s``, ``campaign_p50_ms`` and
``campaign_p90_ms``.  Their times are rescaled to a reference CPU speed by
the kernel in ``speed.py``, timed next to every op.  With ``--trace 1``
untraced passes alternate with passes under the tracer of ``tracing.py``;
the metrics are the per-layer ones.  The lines before the JSON give the
environment and each metric under its workload-specific name.
"""
import os

# One BLAS thread per calling thread: with the verify pool at jobs 2 the
# process then runs no more compute threads than the box has cores.  This
# must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
MIN_PASSES = 3

#: Fresh-process set-up: import the package and validate a first config.  The
#: child then times the reference kernel three times and rescales by the median.
PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import json\n"
    "from modbanach import cli\n"
    "cli.validate_config(json.loads(sys.argv[3]))\n"
    "setup = time.perf_counter() - t0\n"
    "import speed, statistics\n"
    "kernel = statistics.median(speed.kernel_seconds() for _ in range(3))\n"
    "print(repr(setup * speed.REF_SECONDS / kernel))\n"
)


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs."""


def import_package():
    if not (SRC / "modbanach" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'modbanach'}")
    sys.path.insert(0, str(SRC))
    import modbanach
    if Path(modbanach.__file__).resolve().parent != (SRC / "modbanach").resolve():
        raise SetupError(f"imported modbanach from {modbanach.__file__}, not from {SRC}")


def measure_setup(config: dict) -> float:
    """Median over fresh processes of import plus first validation, at the reference speed."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(Path(speed.__file__).parent), json.dumps(config)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "not a git checkout"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = out.stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python_threads": threading.active_count(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "git": sha,
    }


class Recorder:
    """Times passes over a fixed op list, checks outputs, keeps per-op times.

    Every op runs once per pass, between two timings of the reference kernel
    of ``speed.py``; its time is kept rescaled to the reference speed.  An
    op's figure is the median over the run's passes.
    """

    def __init__(self, ops: list):
        self.ops = ops
        self.times = [[] for _ in ops]
        self.units = [0.0] * len(ops)
        self.pass_times = []          # raw seconds per pass
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None, label: str = "") -> None:
        total = 0.0
        before = speed.kernel_seconds()
        for k, op in enumerate(self.ops):
            self.attempted += 1
            error = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.call()
                    dt = time.perf_counter() - t0
                else:
                    result, dt = tracer.run_op(self.attempted, op.call)
            except Exception as e:  # any raise is a failed op, and the run goes on
                error = f"raised {type(e).__name__}: {e}"
            after = speed.kernel_seconds()
            if error is None:
                total += dt
                error = op.check(result)
            if error is not None:
                self.failures.append(f"{label}{op.name}: {error}")
            else:
                self.times[k].append(speed.rescale(dt, before, after))
                self.units[k] = op.units(result)
            before = after
        self.pass_times.append(total)

    def run_for(self, budget: float, min_passes: int) -> None:
        """Passes until the next one would end past ``budget`` seconds."""
        start = time.perf_counter()
        walls = []                    # whole passes, checks and kernel timings included
        while True:
            self.run_pass()
            walls.append(time.perf_counter() - start - sum(walls))
            if (len(walls) >= min_passes
                    and sum(walls) + statistics.median(walls) > budget):
                return

    def typical(self, k: int) -> float:
        return statistics.median(self.times[k]) if self.times[k] else 0.0

    def total(self, pick=lambda op: True) -> float:
        return sum(self.typical(k) for k, op in enumerate(self.ops) if pick(op))

    def rate(self, cls: str) -> float:
        units = sum(u for op, u in zip(self.ops, self.units) if op.cls == cls)
        secs = self.total(lambda op: op.cls == cls)
        return units / secs if secs else 0.0

    def campaign_ms(self) -> list:
        return [self.typical(k) * 1e3 for k, op in enumerate(self.ops)
                if op.campaign and self.times[k]]


def hd_quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all order statistics.

    On the 8-13 campaigns of ``search`` and ``sweep`` a single order
    statistic jumps between campaign kinds from seed to seed; weighing its
    neighbours too halves that spread.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    # Beta(a, b) cdf by the midpoint rule: the density may be infinite at an
    # end (b < 1 for q = 0.9 and n < 9) but never at a cell's midpoint
    edges = np.linspace(0.0, 1.0, 8193)
    mid = 0.5 * (edges[1:] + edges[:-1])
    log_pdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, edges, cdf / cdf[-1]))
    return float(weights @ x)


def end_to_end(workloads, name: str, seed: int, seconds: float):
    ops = workloads.make_ops(name, seed, ROOT)
    setup = measure_setup(next(op.config for op in ops if op.campaign))
    rec = Recorder(ops)
    rec.run_for(seconds, MIN_PASSES)
    primary, secondary = workloads.CLASSES[name]
    lat = rec.campaign_ms()
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (rec.total(), "s"),
        "primary_per_s": (rec.rate(primary), "1/s"),
        "secondary_per_s": (rec.rate(secondary), "1/s"),
        "campaign_p50_ms": (hd_quantile(lat, 0.5), "ms"),
        "campaign_p90_ms": (hd_quantile(lat, 0.9), "ms"),
    }
    notes = [
        f"passes = {len(rec.pass_times)}, raw pass times = "
        + ", ".join(f"{t:.3f}" for t in rec.pass_times) + " s",
        f"ops per pass = {len(ops)}, campaigns per pass = {len(lat)}",
    ]
    for cls, key in ((primary, "primary_per_s"), (secondary, "secondary_per_s")):
        rate_name, unit = workloads.CLASS_RATES[cls]
        notes.append(f"{rate_name} = {rec.rate(cls):.6g} {unit}/s ({key})")
    return metrics, [rec], notes


def per_layer(workloads, tracing, name: str, seed: int, seconds: float):
    """Rounds of one untraced pass then one traced pass, for about ``seconds``.

    Interleaving puts both sides of ``trace.overhead`` through the same
    stretches of machine noise.  On ``sweep`` each round also reruns the
    verify campaigns at jobs 1 for ``verify.jobs_speedup``.
    """
    ops = workloads.make_ops(name, seed, ROOT)
    plain, traced = Recorder(ops), Recorder(ops)
    jobs1 = None
    if name == "sweep":
        jobs1 = Recorder([workloads.with_jobs(op, 1) for op in ops if op.cls == "verify"])
    tracer = tracing.Tracer()
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        plain.run_pass()
        if jobs1 is not None:
            jobs1.run_pass(label="jobs 1 ")
        tracer.install()
        try:
            traced.run_pass(tracer, "traced ")
        finally:
            tracer.uninstall()
        tracer.fold()
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    layers = tracer.layer_metrics(rounds)
    layers["trace.overhead"] = traced.total() / plain.total() - 1.0
    layers["verify.jobs_speedup"] = (
        jobs1.total() / plain.total(lambda op: op.cls == "verify") if jobs1 is not None else 0.0
    )
    metrics = {k: (v, tracing.unit_of(k)) for k, v in layers.items()}
    notes = [f"rounds = {rounds}; per-layer counts and times are per traced pass; self times "
             f"sum to {layers['trace.self_sum_s']:.6f} s of {layers['trace.wall_s']:.6f} s traced"]
    recorders = [plain, traced] + ([jobs1] if jobs1 is not None else [])
    return metrics, recorders, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
        import tracing
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
        workloads.load_goldens(ROOT)
    except (SetupError, ImportError, OSError) as e:
        print(f"benchmark setup failed: {e}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        metrics, recorders, notes = per_layer(workloads, tracing, args.workload, args.seed, args.seconds)
    else:
        metrics, recorders, notes = end_to_end(workloads, args.workload, args.seed, args.seconds)
    attempted = sum(r.attempted for r in recorders)
    failures = [f for r in recorders for f in r.failures]
    for f in failures:
        print(f"FAILED {f}")
    for line in notes:
        print(line)
    print(f"fail_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    for k, (v, unit) in metrics.items():
        print(f"{k} = {v:.9g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
