#!/usr/bin/env python3
"""Check that two checkouts give bit-identical benchmark outputs.

    python3 scripts/same_outputs.py PARENT CHANGE --seed S [S ...] [--workload W ...]

For every seed and every workload declared by the ``BENCHMARK.json`` at the
root of this script's checkout (or those named), each checkout runs the
workload's set-up and body once, in a fresh process started with the
interpreter and environment of its ``BENCHMARK.json`` command and with its
own ``src`` and ``npnbench`` on the path. The outputs
are then compared line by line: Monte Carlo cells field by field, every
float written with ``float.hex``, and the ``npn estimate`` document as text
with its work directory masked. Each differing line is printed with the
largest absolute and relative difference between the numbers of its two
sides. Exits 1 on any difference, 0 when every workload matches at every
seed.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPT = Path(__file__).resolve()
MASK = "<work>"
NUMBER = re.compile(r"-?0x[0-9a-f]+(?:\.[0-9a-f]*)?p[+-]?\d+|-?\d+(?:\.\d*)?(?:e[+-]?\d+)?")


def _hex(v) -> str:
    return v.hex() if isinstance(v, float) else repr(v)


def canonical(out, work: Path) -> list[str]:
    """The body's output as lines that are equal only when the bits are."""
    if isinstance(out, tuple):
        code, text = out
        return [f"exit {code}"] + text.replace(str(work), MASK).splitlines()
    return [
        f"{_hex(s.sweep_value)} {s.estimator.value} mse={_hex(s.mse)} stderr={_hex(s.stderr)} "
        f"finite={_hex(s.finite_fraction)} trials={s.trials}"
        for s in out
    ]


def numbers(line: str) -> list[float]:
    """Every number in a line, hex-written floats included, in order."""
    return [float.fromhex(t) if "0x" in t else float(t) for t in NUMBER.findall(line)]


def largest_difference(parent: list[str], change: list[str]) -> str:
    """Largest absolute and relative difference between two lines' numbers."""
    a, b = numbers(" ".join(parent)), numbers(" ".join(change))
    if len(a) != len(b):
        return f"{len(a)} numbers against {len(b)}"
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    if not pairs:
        return "numbers equal"
    abs_diff = max(abs(x - y) for x, y in pairs)
    rel_diff = max(abs(x - y) / max(abs(x), abs(y)) for x, y in pairs)
    return f"max abs diff {abs_diff:.3g}, max rel diff {rel_diff:.3g}"


def child(workload: str, seed: int, work: Path) -> None:
    """Run one workload in the checkout at the working directory."""
    sys.path[:0] = ["src", "npnbench"]
    import workloads

    w = workloads.WORKLOADS[workload](seed, False, work)
    w.prepare()
    print(json.dumps(canonical(w.body(), work)))


def run_side(checkout: Path, workload: str, seed: int) -> list[str]:
    config = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        argv = config["command"][:-1] + [str(SCRIPT), "--child", workload,
                                          "--seed", str(seed), "--work", work]
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: {workload} in {checkout} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    config = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = tuple(w["name"] for w in config["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, help="PARENT CHANGE")
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--child", choices=workloads, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child, args.seed[0], args.work)
        return 0
    if len(args.checkouts) != 2:
        parser.error("give two checkouts: PARENT CHANGE")

    differ = False
    for seed in args.seed:
        for workload in args.workload or workloads:
            parent, change = (run_side(c, workload, seed) for c in args.checkouts)
            diffs = [i for i in range(max(len(parent), len(change)))
                     if parent[i:i + 1] != change[i:i + 1]]
            print(f"{workload} seed {seed}: {len(parent)} lines, {len(diffs)} differ")
            for n, i in enumerate(diffs):
                old, new = parent[i:i + 1], change[i:i + 1]
                print(f"  line {i}: {largest_difference(old, new)}")
                if n < 10:
                    print(f"    parent {old}\n    change {new}")
            differ = differ or bool(diffs)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
