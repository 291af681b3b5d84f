#!/usr/bin/env python3
"""Fast self-test of the benchmark itself.

Run from the root of a checkout:

    python3 npnbench/selftest.py

It shows that

1. ``BENCHMARK.json`` lists exactly the workloads and metrics of
   ``metrics.py``;
2. every workload, at toy size and on seeds 0 and 1, passes its output
   checks and its reference comparisons, and a traced execution reports
   every per-layer metric of the layers the workload enters and returns an
   output bit-identical to the untraced one;
3. every check fails when the output it checks is perturbed;
4. ``run.py`` exits with a non-zero code, printing no result, in a
   directory that holds only ``BENCHMARK.json`` and the benchmark.

It prints one line per step and exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import metrics
import run

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEEDS = (0, 1)

# Per-layer metrics a workload never produces: the layers it does not enter.
ABSENT = {
    "mc_marginals_n100_d25": lambda name: name.startswith("cli.") or name == "estimators.entropy_npn_s",
    "mc_sample_size_d8": lambda name: name.startswith("cli.") or name in (
        "estimators.entropy_npn_s", "simulation.apply_marginal_transform.self_s"),
    "cli_estimate_n20k_d25": lambda name: name.startswith("simulation.") or name in (
        "estimators.estimate_mi.knn_s", "estimators.true_mi.self_s"),
}


def expect(condition: bool, what: str) -> None:
    if not condition:
        sys.exit(f"FAIL: {what}")


def check_benchmark_json() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS), "workload names")
    expect([(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]]
           == list(metrics.END_TO_END), "end-to-end metrics")
    expect([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
           == list(metrics.PER_LAYER), "per-layer metrics")
    expect(doc["paths"] == [HERE.name], "paths")
    print("ok   BENCHMARK.json matches metrics.py")


def replace_cell(out, sweep_value, kind, **changes):
    return [dataclasses.replace(s, **changes)
            if (s.sweep_value, s.estimator.value) == (sweep_value, kind) else s for s in out]


def mse(out, sweep_value, kind):
    return next(s.mse for s in out if (s.sweep_value, s.estimator.value) == (sweep_value, kind))


def edit_document(out, edit):
    code, text = out
    doc = json.loads(text)
    edit(doc)
    return code, json.dumps(doc)


def set_estimate(kind, change):
    def edit(doc):
        for entry in doc["estimates"]:
            if entry["estimator"] == kind:
                entry["value"] = change(entry["value"])
    return edit


def perturbations(workload, out) -> dict:
    """Check name -> an output that the check must reject."""
    if workload.name == "cli_estimate_n20k_d25":
        truth = workload.truth
        return {
            "exit": (3, out[1]),
            "document": (0, out[1][:-3]),
            "errors": edit_document(out, lambda d: d.update(errors=[{"estimator": "tau", "error": "X"}])),
            "closed_form": edit_document(out, set_estimate("gauss", lambda v: v + 0.2)),
            "plugin": edit_document(out, set_estimate("gaussian", lambda v: truth)),
            "entropy": edit_document(out, lambda d: d.update(entropy=d["entropy"] + 0.3)),
        }
    first, last = workload.sweep[0], workload.sweep[-1]
    common = {
        "cells": out[:-1],
        "trials": replace_cell(out, first, "rho", trials=workload.trials - 1),
        "finite": replace_cell(out, first, "rho", finite_fraction=0.95),
        "band": replace_cell(out, first, "gaussian", mse=0.0),
    }
    if workload.name == "mc_marginals_n100_d25":
        common["invariance"] = replace_cell(out, last, "rho", mse=math.nextafter(mse(out, last, "rho"), math.inf))
        common["distortion"] = replace_cell(out, last, "gaussian", mse=2.0 * mse(out, first, "gaussian"))
    else:
        common["decrease"] = replace_cell(out, last, "tau", mse=2.0 * mse(out, first, "tau"))
    return common


@contextlib.contextmanager
def shifted_estimates(estimators):
    """Make ``estimate_mi`` return values off by 1e-6, as a faulty kernel would."""
    original = estimators.estimate_mi

    def shifted(x, cfg):
        est = original(x, cfg)
        return dataclasses.replace(est, value=est.value + 1e-6)

    estimators.estimate_mi = shifted
    try:
        yield
    finally:
        estimators.estimate_mi = original


def check_workload(workloads, name: str, seed: int, workdir: Path) -> None:
    from tracer import Tracer

    workload = workloads.WORKLOADS[name](seed, True, workdir)
    workload.prepare()
    out = workload.body()
    label = f"{name} seed {seed}"
    expect(workload.check(out) == [], f"{label}: checks {workload.check(out)}")
    refs = workload.references(out)
    expect(all(op == [] for op in refs), f"{label}: references {refs}")

    tracer = Tracer()
    with tracer.installed(workloads.LAYER_MODULES):
        traced = workload.body()
    expect(run.check_outputs(workload, [out, traced], traced=True) == [[], []],
           f"{label}: traced output differs")
    recorded = tracer.metrics()
    absent = ABSENT[name]
    for metric, _, _ in metrics.PER_LAYER:
        if metric == "trace.overhead_s":
            continue
        if absent(metric):
            expect(metric not in recorded, f"{label}: {metric} recorded in a layer the workload skips")
        else:
            expect(recorded.get(metric, 0) > 0, f"{label}: {metric} not recorded")
    print(f"ok   {label}: checks, references and trace")

    if seed != SEEDS[0]:
        return
    perturbed = perturbations(workload, out)
    for check, bad in perturbed.items():
        found = workload.check(bad)
        expect(any(msg.startswith(f"{check}:") for msg in found),
               f"{label}: perturbed output passes check {check!r} ({found})")
    bad = perturbed["closed_form" if name.startswith("cli") else "band"]
    changed = run.check_outputs(workload, [out, out, bad], traced=True)
    expect(changed[2] and changed[2][0].startswith("repeat:"), f"{label}: repeat check")
    changed = run.check_outputs(workload, [out, bad], traced=True)
    expect(changed[1] and changed[1][0].startswith("traced:"), f"{label}: traced check")
    with shifted_estimates(workloads.estimators):
        refs = workload.references(out)
    expect(refs[-1] and refs[-1][0].startswith("reference:"), f"{label}: reference check")
    if name.startswith("cli"):
        shifted = edit_document(out, set_estimate("rho", lambda v: v + 1e-6))
        refs = workload.references(shifted)
        expect(refs[0] and refs[0][0].startswith("reference:"), f"{label}: document reference check")
    print(f"ok   {label}: every check rejects its perturbed output")


def check_bare_directory() -> None:
    """The benchmark alone, without the npn sources, must refuse to run."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            doc["command"] + ["--workload", metrics.WORKLOADS[0], "--seed", "0",
                              "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    expect(proc.returncode != 0, "run.py succeeded without the npn sources")
    expect(not proc.stdout.strip(), f"run.py printed a result without the npn sources: {proc.stdout!r}")
    print("ok   run.py refuses to run without the npn sources")


def main() -> int:
    check_benchmark_json()
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    check_bare_directory()
    workloads = run.import_workloads(ROOT)
    for name in metrics.WORKLOADS:
        for seed in SEEDS:
            check_workload(workloads, name, seed, workdir)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
