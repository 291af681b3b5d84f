#!/usr/bin/env python3
"""Run the benchmark repeatedly and report the spread of every metric.

One checkout, ten seeds:

    python3 npnbench/compare.py --workload mc_sample_size_d8 --runs 10 .

Parent against change, in alternating pairs:

    python3 npnbench/compare.py --workload mc_sample_size_d8 --runs 10 ../parent .

Every run executes the command and run length from the first checkout's
``BENCHMARK.json``, from the root of its checkout, with seed
``--first-seed + i`` for pair i. With two checkouts, even pairs run the
first checkout first and odd pairs the second. For each metric and side the
report gives the median, the quartiles from ``statistics.quantiles(n=4)``
and the spread (Q3 - Q1) / median. With two sides it adds the ratio of the
medians (second / first) and how many pairs the second side won. Raw values
go to ``npnbench/.work/compare-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def run_once(checkout: Path, command: list[str], args, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", args.workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: run in {checkout} with seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("checkouts", nargs="+", type=Path)
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one checkout, or a parent and a change")

    config = json.loads((args.checkouts[0] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {name: b for name, _, b, *_ in metrics.END_TO_END + metrics.PER_LAYER}
    sides = [[] for _ in args.checkouts]
    for i in range(args.runs):
        order = list(range(len(args.checkouts)))
        if i % 2:
            order.reverse()
        for side in order:
            result = run_once(args.checkouts[side], config["command"], args,
                              args.first_seed + i, config["run_seconds"])
            sides[side].append(result)
            print(f"pair {i} side {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    report = {}
    for name in sides[0][0]["metrics"]:
        values = [[r["metrics"][name]["value"] for r in runs] for runs in sides]
        row = {"values": values, "sides": [summary(v) for v in values]}
        line = f"{name:48s}" + "".join(
            f"  median {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.2%}"
            for s in row["sides"])
        if len(sides) == 2:
            first, second = values
            sign = -1 if better[name] == "lower" else 1
            row["wins"] = sum(1 for a, b in zip(first, second) if sign * (b - a) > 0)
            row["ratio"] = row["sides"][1]["median"] / row["sides"][0]["median"]
            line += f"  ratio {row['ratio']:.4f}  second won {row['wins']}/{len(first)}"
        report[name] = row
        print(line)
    failed = [[r["failed"] / r["attempted"] for r in runs] for runs in sides]
    print(f"{'failed share':48s}  " + "  ".join(str(sorted(set(f))) for f in failed))
    (HERE / ".work").mkdir(exist_ok=True)
    out = HERE / ".work" / f"compare-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps({"checkouts": [str(c) for c in args.checkouts], "metrics": report,
                               "failed_share": failed}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
