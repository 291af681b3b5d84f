#!/usr/bin/env python3
"""Print the wall time and ``tracemalloc`` peak of each stage of ``npn estimate`` on a CSV file.

    python3 scripts/stage_peaks.py DATA.csv [CHECKOUT ...] [--estimators gaussian,gauss,rho,tau]
                                   [--pipe]
    python3 scripts/stage_peaks.py --simulate [CHECKOUT ...] [--seed S]

The stages are the ones ``npn estimate --entropy`` runs: ``load_csv``, then
``estimate_mi`` of each estimator on the loaded matrix, then ``entropy_npn``
given the rho estimate (``mi=``), so that it runs only the marginal kNN
pass. Beside ``estimate_mi tau``, whose Kendall merge kernel runs on a
thread pool on a large input, the ``tau (1 core)`` row measures it with
``_available_cores`` forced to 1, as ``--simulate`` does, so that one
thread runs every chunk. The loaded matrix exists before each later stage
starts, so those peaks leave it out; ``load_csv``'s peak includes it. The last row is the
whole ``npn estimate`` command run in-process, which is how the benchmark's
``peak_alloc_mb`` counts it.

``--pipe`` hands ``load_csv`` and the whole ``npn estimate`` the CSV
through ``os.pipe``, as a ``/dev/fd`` path that a thread writes beside the
read, instead of the file's path: a fresh pipe for each call. Run with and
without it, the script compares a piped input with the same file on disk.

A stage's time is the least of three untraced calls, and its peak comes
from one more call under ``tracemalloc``, which slows allocation. Each
checkout (this script's own when none is given) is measured in a fresh
process with its own ``src`` on the path, and the table has two columns per
checkout: seconds and MB (10^6 bytes).

``--simulate`` measures the serial Monte Carlo trial loop instead: the
body of each Monte Carlo workload of the checkout's ``npnbench`` (after its
set-up), with ``_available_cores`` forced to 1, so that every trial runs in
the measured process. The benchmark's pooled ``peak_alloc_mb`` sees only
the parent, which runs no trial, so this is what a trial loop holds. Run
it with ``OPENBLAS_NUM_THREADS=1``, as the benchmark runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

SCRIPT = Path(__file__).resolve()
DEFAULT_ESTIMATORS = "gaussian,gauss,rho,tau"
MONTE_CARLO = ("mc_sample_size_d8", "mc_marginals_n100_d25")
REPEATS = 3


def measure(fn, *args, **kwargs):
    """``fn``'s result and its (least wall seconds, traced peak bytes) over REPEATS + 1 calls."""
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args, **kwargs)
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, (min(seconds), tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def piped(data: bytes):
    """A ``/dev/fd`` path that reads ``data`` from a pipe, written beside the read by a thread."""
    read, write = os.pipe()

    def feed():
        # a reader that fails before reading closes the pipe under the write
        with contextlib.suppress(BrokenPipeError), os.fdopen(write, "wb") as stream:
            stream.write(data)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        yield f"/dev/fd/{read}"
    finally:
        os.close(read)
        feeder.join(timeout=60)
    # a reader that leaves its end open keeps the write waiting
    assert not feeder.is_alive(), "the pipe's reader left it open"


def child(csv: Path, estimators: str, pipe: bool) -> None:
    """Measure every stage in the checkout at the working directory."""
    sys.path[:0] = ["src"]
    from npn import cli, rank_stats
    from npn.estimators import EstimatorConfig, EstimatorKind, entropy_npn, estimate_mi

    csv_bytes = csv.read_bytes() if pipe else None

    def on_input(fn):
        """``fn`` of the CSV's path, or with --pipe of a fresh pipe that carries its bytes."""
        def call():
            with piped(csv_bytes) if pipe else contextlib.nullcontext(str(csv)) as source:
                return fn(source)
        return call

    stages = {}
    data, stages["load_csv"] = measure(on_input(cli.load_csv))
    rho = None
    for name in estimators.split(","):
        cfg = EstimatorConfig(EstimatorKind(name))
        est, stages[f"estimate_mi {name}"] = measure(estimate_mi, data, cfg)
        rho = est if name == "rho" else rho
        if name == "tau":
            cores, rank_stats._available_cores = rank_stats._available_cores, lambda: 1
            try:
                _, stages["tau (1 core)"] = measure(estimate_mi, data, cfg)
            finally:
                rank_stats._available_cores = cores
    if rho is None:
        rho = estimate_mi(data, EstimatorConfig(EstimatorKind.RHO))
    _, stages["entropy_npn (mi=)"] = measure(entropy_npn, data, mi=rho)
    del data
    with tempfile.TemporaryDirectory(prefix="stage-peaks-") as work:
        argv = ["estimate", "--estimators", estimators, "--entropy",
                "--out", str(Path(work) / "out.json"), "--input"]
        code, stages["npn estimate"] = measure(on_input(lambda source: cli.main([*argv, source])))
    if code != 0:
        sys.exit(f"npn estimate exited with {code}")
    print(json.dumps(stages))


def simulate_child(seed: int) -> None:
    """Measure every Monte Carlo workload's body on one core in the checkout at the working directory."""
    sys.path[:0] = ["src", "npnbench"]
    import workloads
    from npn import simulation

    simulation._available_cores = lambda: 1
    stages = {}
    for name in MONTE_CARLO:
        w = workloads.WORKLOADS[name](seed, False, None)
        w.prepare()
        _, stages[name] = measure(w.body)
    print(json.dumps(stages))


def run_side(checkout: Path, child_args: list[str]) -> dict:
    argv = [sys.executable, str(SCRIPT), "--child", *child_args]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: {checkout} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="DATA.csv then checkouts, or only checkouts with --simulate")
    parser.add_argument("--estimators", default=DEFAULT_ESTIMATORS)
    parser.add_argument("--simulate", action="store_true",
                        help="time the serial Monte Carlo trial loop, not npn estimate")
    parser.add_argument("--seed", type=int, default=0, help="workload seed for --simulate")
    parser.add_argument("--pipe", action="store_true",
                        help="feed the CSV through os.pipe, not as the file's path")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.simulate:
        checkouts, child_args = args.paths, ["--simulate", "--seed", str(args.seed)]
    elif args.paths:
        csv, checkouts = args.paths[0].resolve(), args.paths[1:]
        child_args = [str(csv), "--estimators", args.estimators, *["--pipe"] * args.pipe]
    else:
        parser.error("give DATA.csv, or --simulate")
    if args.child:
        if args.simulate:
            simulate_child(args.seed)
        else:
            child(csv, args.estimators, args.pipe)
        return 0
    checkouts = checkouts or [SCRIPT.parent.parent]
    sides = [run_side(c.resolve(), child_args) for c in checkouts]
    stage_width = max(len(stage) for stage in sides[0])
    for i, c in enumerate(checkouts):
        print(f"side {i}: {c}")
    print(f"{'stage':<{stage_width}}" + "".join(
        f"  {f'{i} s':>7}  {f'{i} MB':>7}" for i in range(len(sides))))
    for stage in sides[0]:
        print(f"{stage:<{stage_width}}" + "".join(
            f"  {s[stage][0]:>7.3f}  {s[stage][1] / 1e6:>7.2f}" for s in sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
