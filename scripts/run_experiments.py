"""Run the four benchmark protocols and write one CSV per configuration.

Experiment 2 is repeated for every non-identity marginal transform so the
robustness comparison covers the full set. Expect the default settings to
take a few minutes; cut --trials down for a smoke run.
"""

import argparse
import sys
import time
from pathlib import Path

from npn.cli import main as npn_main
from npn.simulation import MarginalTransform

TRANSFORMS = [t.value for t in MarginalTransform if t is not MarginalTransform.IDENTITY]

# (experiment, heading, output file, simulate arguments) of every run, in order;
# experiment 4 runs --trials-e4 trials and the others --trials.
E2 = "experiment 2: marginal transforms, D = 25, n = 100"
RUNS = [
    ("1", "experiment 1: sample-size sweep, D = 8", "e1_sample_size.csv", ["--d", "8"]),
    *(("2", E2, f"e2_marginals_{name}.csv",
       ["--transform", name, "--estimators", "gaussian,gauss,rho,tau"]) for name in TRANSFORMS),
    ("3", "experiment 3: outlier contamination, D = 25, n = 100", "e3_outliers.csv",
     ["--estimators", "gaussian,tau,knn"]),
    ("4", "experiment 4: strong dependence, D = 2", "e4_sigma.csv",
     ["--estimators", "gaussian,rho,knn"]),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--trials-e4", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--experiments",
        default="1,2,3,4",
        help="comma list of experiment ids to run",
    )
    args = parser.parse_args()

    wanted = {s.strip() for s in args.experiments.split(",") if s.strip()}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    printed = None
    for experiment, heading, name, extra in RUNS:
        if experiment not in wanted:
            continue
        if heading != printed:
            print(heading)
            printed = heading
        trials = args.trials_e4 if experiment == "4" else args.trials
        start = time.perf_counter()
        rc = npn_main(["simulate", "--experiment", experiment, *extra, "--trials", str(trials),
                       "--seed", str(args.seed), "--format", "csv",
                       "--out", str(args.out_dir / name)])
        status = "ok" if rc == 0 else f"exit {rc}"
        print(f"  {name:24s} {status} ({time.perf_counter() - start:.1f}s)")
        failures += rc != 0

    if failures:
        print(f"{failures} run(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
