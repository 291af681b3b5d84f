#!/usr/bin/env python3
"""Run one npn benchmark workload and print its metrics.

Run from the root of a checkout, with the BLAS thread count fixed as in
``BENCHMARK.json``:

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 npnbench/run.py --workload mc_marginals_n100_d25 \\
        --seed 0 --seconds 20 --trace 0

The npn package is imported from ``src`` under the working directory; the
run stops with an error, and prints no result, when it is not there.

A run draws the workload's inputs from ``--seed``, then executes the
workload's fixed body again and again until ``--seconds`` have passed, and
checks every output outside the timed region. With ``--trace 0`` it
reports the end-to-end metrics:

* ``setup_s``     - median, over five fresh processes, of the time from
  ``import npn`` through input generation and warm-up;
* ``wall_s``      - median wall time of one body execution, untraced;
* ``peak_alloc_mb`` - peak of the memory one body execution allocates, as
  ``tracemalloc`` counts it (Python objects and NumPy buffers), in MB
  (10^6 bytes). It is taken on one more, untimed execution after the timed
  ones. Unlike the process's resident set, it leaves out shared-library
  pages, whose count varies with the host's memory pressure.

With ``--trace 1`` it alternates untraced and traced executions and
reports the per-layer metrics of ``metrics.PER_LAYER``: the median over
traced executions of each span's self time, inclusive time or count, and
``trace.overhead_s``, the traced median minus the untraced median. Layers a
workload never enters report 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each body execution
is one operation, and so is each comparison against the NumPy/SciPy
reference estimators; an operation fails when any of its checks fails.
Details of the run go to ``npnbench/.work/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
WORKDIR = HERE / ".work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def import_workloads(root: Path):
    """Put ``root/src`` first on the path and import the workload module."""
    src = (root / "src").resolve()
    if not (src / "npn" / "__init__.py").is_file():
        sys.exit(f"error: no npn package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import npn
    import workloads

    if not Path(npn.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: npn was imported from {npn.__file__}, not from {src}")
    return workloads


def measure_setup(args) -> list[float]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: set-up process exited with {proc.returncode}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def timed(workload) -> tuple[float, object]:
    start = time.perf_counter()
    out = workload.body()
    return time.perf_counter() - start, out


def run_plain(workload, seconds: float):
    times, outputs = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        elapsed, out = timed(workload)
        times.append(elapsed)
        outputs.append(out)
    return times, outputs


def run_tracemalloc(workload) -> tuple[float, object]:
    """One execution under ``tracemalloc``: its peak allocation in MB, and its output.

    A full collection first resets the collector's counters, so the same
    body collects at the same points however many executions came before.
    """
    gc.collect()
    tracemalloc.start()
    try:
        out = workload.body()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6, out


def run_traced(workload, seconds: float, modules):
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, outputs, layers = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        elapsed, out = timed(workload)
        plain.append(elapsed)
        outputs.append(out)
        tracer.reset()
        with tracer.installed(modules):
            elapsed, out = timed(workload)
        traced.append(elapsed)
        outputs.append(out)
        layers.append(tracer.metrics())
    return plain, traced, outputs, layers


def check_outputs(workload, outputs, traced: bool) -> list[list[str]]:
    """Failures per execution: the first is checked, the rest must equal it
    bit for bit (``==`` on MSE summaries and on the document text).

    In a traced run the executions alternate untraced and traced, so every
    odd-numbered output is a traced one.
    """
    first = outputs[0]
    found = [workload.check(first)]
    for i, out in enumerate(outputs[1:], start=1):
        kind = "traced" if traced and i % 2 else "repeat"
        found.append([] if out == first else [f"{kind}: output of execution {i} differs from the first"])
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    workloads = import_workloads(Path.cwd())
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, False, WORKDIR)
    if args.setup_only:
        workload.prepare()
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    setup_times = measure_setup(args) if args.trace == 0 else []
    workload.prepare()
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "setup_s": setup_times}
    if args.trace == 0:
        times, outputs = run_plain(workload, args.seconds)
        alloc_mb, out = run_tracemalloc(workload)
        outputs.append(out)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(times),
            "peak_alloc_mb": alloc_mb,
        }
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        detail["wall_s"] = times
    else:
        plain, traced, outputs, layers = run_traced(workload, args.seconds, workloads.LAYER_MODULES)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        values = {
            name: statistics.median(layer.get(name, 0) for layer in layers)
            for name in units
        }
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        detail.update(wall_s=plain, traced_s=traced, layers=layers)

    found = check_outputs(workload, outputs, traced=args.trace == 1)
    found += workload.references(outputs[0])
    failures = [msg for op in found for msg in op]
    for msg in failures:
        sys.stderr.write(f"check failed: {msg}\n")
    result = {
        "correct": not failures,
        "attempted": len(found),
        "failed": sum(1 for op in found if op),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    detail.update(result=result, failures=failures, python=platform.python_version(),
                  nproc=os.cpu_count(),
                  blas_threads={k: os.environ.get(k) for k in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    out = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
