#!/usr/bin/env python3
"""Print the ``tracemalloc`` peak of each stage of ``npn estimate`` on a CSV file.

    python3 scripts/stage_peaks.py DATA.csv [CHECKOUT ...] [--estimators gaussian,gauss,rho,tau]

The stages are the ones ``npn estimate --entropy`` runs: ``load_csv``, then
``estimate_mi`` of each estimator on the loaded matrix, then ``entropy_npn``
given the rho estimate (``mi=``), so that it runs only the marginal kNN
pass. The loaded matrix exists before each later stage starts, so those
peaks leave it out; ``load_csv``'s peak includes it. The last row is the
whole ``npn estimate`` command run in-process, which is how the benchmark's
``peak_alloc_mb`` counts it.

Each checkout (this script's own when none is given) is measured in a fresh
process with its own ``src`` on the path, and the table has one column per
checkout, in MB (10^6 bytes).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

SCRIPT = Path(__file__).resolve()
DEFAULT_ESTIMATORS = "gaussian,gauss,rho,tau"


def peak(fn, *args, **kwargs):
    """``fn``'s result and the peak bytes ``tracemalloc`` counts while it runs."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child(csv: Path, estimators: str) -> None:
    """Measure every stage in the checkout at the working directory."""
    sys.path[:0] = ["src"]
    from npn import cli
    from npn.estimators import EstimatorConfig, EstimatorKind, entropy_npn, estimate_mi

    peaks = {}
    data, peaks["load_csv"] = peak(cli.load_csv, csv)
    rho = None
    for name in estimators.split(","):
        cfg = EstimatorConfig(EstimatorKind(name))
        est, peaks[f"estimate_mi {name}"] = peak(estimate_mi, data, cfg)
        rho = est if name == "rho" else rho
    if rho is None:
        rho = estimate_mi(data, EstimatorConfig(EstimatorKind.RHO))
    _, peaks["entropy_npn (mi=)"] = peak(entropy_npn, data, mi=rho)
    del data
    with tempfile.TemporaryDirectory(prefix="stage-peaks-") as work:
        argv = ["estimate", "--input", str(csv), "--estimators", estimators, "--entropy",
                "--out", str(Path(work) / "out.json")]
        code, peaks["npn estimate"] = peak(cli.main, argv)
    if code != 0:
        sys.exit(f"npn estimate exited with {code}")
    print(json.dumps(peaks))


def run_side(checkout: Path, csv: Path, estimators: str) -> dict:
    argv = [sys.executable, str(SCRIPT), str(csv), "--child", "--estimators", estimators]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: {checkout} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv", type=Path)
    parser.add_argument("checkouts", nargs="*", type=Path, help="default: this checkout")
    parser.add_argument("--estimators", default=DEFAULT_ESTIMATORS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    csv = args.csv.resolve()
    if args.child:
        child(csv, args.estimators)
        return 0
    checkouts = args.checkouts or [SCRIPT.parent.parent]
    sides = [run_side(c.resolve(), csv, args.estimators) for c in checkouts]
    stage_width = max(len(stage) for stage in sides[0])
    print(f"{'stage':<{stage_width}}  " + "  ".join(f"{str(c):>12}" for c in checkouts))
    for stage in sides[0]:
        print(f"{stage:<{stage_width}}  " + "  ".join(f"{s[stage] / 1e6:>12.2f}" for s in sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
