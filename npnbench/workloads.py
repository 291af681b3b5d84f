"""The benchmark's workloads: inputs drawn from a seed, a fixed body to
time, and checks of the body's output.

Import this module only after ``src`` is on ``sys.path``: it imports npn.

``reference`` is imported where it is used: it loads ``scipy.stats``, whose
import time should not count as npn's set-up.

Every check compares against a computation made apart from npn or against
a property the method must have, never against a stored copy of an earlier
output. A check returns one message per failure, each starting with the
check's name and a colon.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import chdtri, polygamma

from npn import cli, estimators, matrix_core, rank_stats, simulation
from npn.estimators import EstimatorConfig, EstimatorKind

LAYER_MODULES = (simulation, estimators, rank_stats, matrix_core, cli)

KINDS = tuple(kind.value for kind in EstimatorKind)

# Tail probability, per side, of the chi-square band on the plug-in's MSE.
_BAND_TAIL = 1e-7


def plugin_variance(n: int, d: int) -> float:
    """Exact variance of the bias-corrected plug-in on Gaussian data.

    n S is Wishart with n - 1 degrees of freedom, so log det S is a sum of
    D independent log chi-square terms and
    Var = 1/4 sum_{j=1}^{D} psi'((n - j) / 2), for every Sigma.
    """
    return 0.25 * sum(float(polygamma(1, (n - j) / 2.0)) for j in range(1, d + 1))


def plugin_band(mse, n: int, d: int, trials: int, where: str) -> list[str]:
    """The plug-in's MSE over ``trials`` draws against its exact variance.

    The plug-in is unbiased, so trials * MSE / Var is close to chi-square
    with ``trials`` degrees of freedom; the band holds its central
    1 - 2e-7 mass.
    """
    if mse is None:
        return [f"band: plug-in MSE at {where} is absent"]
    ratio = mse / plugin_variance(n, d)
    lo = chdtri(trials, 1.0 - _BAND_TAIL) / trials
    hi = chdtri(trials, _BAND_TAIL) / trials
    if lo <= ratio <= hi:
        return []
    return [f"band: plug-in MSE / exact variance at {where} is {ratio:.4g}, outside [{lo:.4g}, {hi:.4g}]"]


def wishart_correlation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-normalized Wishart draw with d degrees of freedom."""
    g = rng.standard_normal((d, d))
    w = g @ g.T
    scale = np.sqrt(np.diag(w))
    corr = w / np.outer(scale, scale)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr


def gaussian_rows(sigma: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, sigma.shape[0])) @ np.linalg.cholesky(sigma).T


def check_against_reference(label: str, x: np.ndarray, sigma: np.ndarray) -> list[str]:
    """Every ``estimate_mi`` kind and ``true_mi`` against the references."""
    import reference

    got = {
        kind: estimators.estimate_mi(x, EstimatorConfig(EstimatorKind(kind))).value
        for kind in KINDS
    }
    got["true_mi"] = estimators.true_mi(sigma)
    want = reference.estimates(x, z=estimators.DEFAULT_Z, k=estimators.DEFAULT_K, kinds=KINDS)
    want["true_mi"] = reference.true_mi(sigma)
    return reference.compare(label, got, want)


class _MonteCarlo:
    """``run_experiment`` on one of the paper's protocols."""

    name = ""
    experiment: simulation.ExperimentId
    trials_full = 0
    trials_toy = 0
    n = 100
    d = 25
    sweep: tuple[float, ...] = ()

    def __init__(self, seed: int, toy: bool, workdir: Path):
        self.seed = seed
        self.trials = self.trials_toy if toy else self.trials_full
        self.spec = simulation.ExperimentSpec(
            experiment=self.experiment,
            trials=self.trials,
            n=self.n,
            d=self.d,
            sweep=self.sweep,
            transform=simulation.MarginalTransform.EXP,
            seed=seed,
        )

    def prepare(self) -> None:
        simulation.run_experiment(simulation.ExperimentSpec(
            experiment=self.experiment, trials=1, n=self.n, d=self.d,
            sweep=self.sweep, seed=self.seed,
        ))

    def body(self):
        return simulation.run_experiment(self.spec)

    def _cells(self, out) -> tuple[dict | None, list[str]]:
        """Cells by (sweep value, kind), or None when the set of cells is wrong."""
        cells = {(s.sweep_value, s.estimator.value): s for s in out}
        expected = {(v, kind) for v in self.sweep for kind in KINDS}
        if set(cells) != expected:
            return None, [f"cells: got {sorted(cells)}, expected {sorted(expected)}"]
        fails = []
        for (v, kind), s in sorted(cells.items()):
            if s.trials != self.trials:
                fails.append(f"trials: cell ({v}, {kind}) has {s.trials} trials, expected {self.trials}")
            if s.finite_fraction != 1.0:
                fails.append(f"finite: cell ({v}, {kind}) has finite fraction {s.finite_fraction}")
        return cells, fails


class MarginalsMonteCarlo(_MonteCarlo):
    """Experiment 2: exp on the first ceil(alpha D) columns, alpha in {0, 0.5}."""

    name = "mc_marginals_n100_d25"
    experiment = simulation.ExperimentId.MARGINALS
    trials_full = 40
    trials_toy = 4
    sweep = (0.0, 0.5)

    def check(self, out) -> list[str]:
        cells, fails = self._cells(out)
        if cells is None:
            return fails
        for kind in ("gauss", "rho", "tau"):
            clean, bent = cells[(0.0, kind)].mse, cells[(0.5, kind)].mse
            if clean != bent:
                fails.append(f"invariance: {kind} MSE {clean!r} at alpha 0, {bent!r} at alpha 0.5")
        clean, bent = cells[(0.0, "gaussian")].mse, cells[(0.5, "gaussian")].mse
        if clean is None or bent is None or not bent >= 5.0 * clean:
            fails.append(f"distortion: plug-in MSE {bent!r} at alpha 0.5 is not 5x its {clean!r} at alpha 0")
        fails += plugin_band(clean, self.n, self.d, self.trials, "alpha 0")
        return fails

    def references(self, out) -> list[list[str]]:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 2)))
        sigma = wishart_correlation(self.d, rng)
        x = gaussian_rows(sigma, self.n, rng)
        bent = x.copy()
        cols = np.arange(self.d) < 0.5 * self.d
        bent[:, cols] = np.exp(bent[:, cols])
        return [
            check_against_reference("alpha 0", x, sigma),
            check_against_reference("alpha 0.5", bent, sigma),
        ]


class SampleSizeMonteCarlo(_MonteCarlo):
    """Experiment 1: clean Gaussian data, D = 8, n from 32 to 1024."""

    name = "mc_sample_size_d8"
    experiment = simulation.ExperimentId.SAMPLE_SIZE
    trials_full = 16
    trials_toy = 3
    d = 8
    sweep = (32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)

    def check(self, out) -> list[str]:
        cells, fails = self._cells(out)
        if cells is None:
            return fails
        for v in self.sweep:
            fails += plugin_band(cells[(v, "gaussian")].mse, int(v), self.d, self.trials, f"n {int(v)}")
        small, large = self.sweep[0], self.sweep[-1]
        for kind in KINDS:
            first, last = cells[(small, kind)].mse, cells[(large, kind)].mse
            if first is None or last is None or not last < first:
                fails.append(f"decrease: {kind} MSE {last!r} at n {int(large)} is not below {first!r} at n {int(small)}")
        return fails

    def references(self, out) -> list[list[str]]:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 1)))
        sigma = wishart_correlation(self.d, rng)
        return [
            check_against_reference(f"n {n}", gaussian_rows(sigma, n, rng), sigma)
            for n in (int(self.sweep[0]), int(self.sweep[-1]))
        ]


class CliEstimate:
    """One in-process ``npn estimate`` on a CSV of AR(1) copula data."""

    name = "cli_estimate_n20k_d25"
    rho = 0.5
    shapes = {False: (20000, 25), True: (4000, 6)}
    estimators = "gaussian,gauss,rho,tau"
    reference_rows = 2000

    def __init__(self, seed: int, toy: bool, workdir: Path):
        self.seed = seed
        self.n, self.d = self.shapes[toy]
        stem = f"{self.name}-toy" if toy else self.name
        self.csv = workdir / f"{stem}.csv"
        self.out = workdir / f"{stem}.json"
        self.warm_csv = workdir / f"{stem}-warmup.csv"
        self.warm_out = workdir / f"{stem}-warmup.json"
        idx = np.arange(self.d)
        self.sigma = self.rho ** np.abs(idx[:, None] - idx[None, :])
        # -1/2 log det of the AR(1) correlation, whose determinant is (1 - rho^2)^(D - 1).
        self.truth = -(self.d - 1) / 2.0 * math.log(1.0 - self.rho ** 2)
        self.x = None

    def _argv(self, csv: Path, out: Path) -> list[str]:
        return ["estimate", "--input", str(csv), "--estimators", self.estimators,
                "--entropy", "--out", str(out)]

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        x = gaussian_rows(self.sigma, self.n, rng)
        bent = (self.d + 1) // 2
        x[:, :bent] = np.exp(x[:, :bent])
        self.x = x
        np.savetxt(self.csv, x, fmt="%.17g", delimiter=",")
        np.savetxt(self.warm_csv, x[:200], fmt="%.17g", delimiter=",")
        cli.main(self._argv(self.warm_csv, self.warm_out))

    def body(self):
        code = cli.main(self._argv(self.csv, self.out))
        return code, self.out.read_text(encoding="utf-8")

    def check(self, out) -> list[str]:
        code, text = out
        fails = []
        if code != 0:
            fails.append(f"exit: npn estimate exited with {code}")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return fails + [f"document: not JSON ({exc})"]
        if doc.get("errors"):
            fails.append(f"errors: {doc['errors']}")
        values = {e.get("estimator"): e.get("value") for e in doc.get("estimates", [])}
        for kind in ("gauss", "rho", "tau"):
            v = values.get(kind)
            if not isinstance(v, float) or not abs(v - self.truth) <= 0.1:
                fails.append(f"closed_form: {kind} gives {v!r}, closed form {self.truth:.4f}")
        v = values.get("gaussian")
        if not isinstance(v, float) or not abs(v - self.truth) > 1.0:
            fails.append(f"plugin: plug-in gives {v!r}, within 1 nat of {self.truth:.4f}")
        # The exp Jacobian adds E[X_j] = 0 to each marginal entropy, so the
        # entropy is that of the latent Gaussian.
        h = doc.get("entropy")
        h_true = self.d / 2.0 * math.log(2.0 * math.pi * math.e) - self.truth
        if not isinstance(h, float) or not abs(h - h_true) <= 0.15:
            fails.append(f"entropy: {h!r}, expected {h_true:.4f} +/- 0.15")
        return fails

    def references(self, out) -> list[list[str]]:
        """The document's estimates on the whole file, then every kind on its first rows."""
        import reference

        kinds = self.estimators.split(",")
        want = reference.estimates(self.x, z=estimators.DEFAULT_Z, k=estimators.DEFAULT_K, kinds=kinds)
        try:
            got = {e["estimator"]: e["value"] for e in json.loads(out[1])["estimates"]}
            document = reference.compare("document", got, want)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            document = [f"reference: document unreadable ({exc!r})"]
        head = self.x[: self.reference_rows]
        return [document, check_against_reference(f"first {len(head)} rows", head, self.sigma)]


WORKLOADS = {w.name: w for w in (MarginalsMonteCarlo, SampleSizeMonteCarlo, CliEstimate)}
