"""Command line interface and dataset/result serialization.

Three subcommands:

* ``npn estimate`` - run selected estimators on a CSV dataset.
* ``npn simulate`` - run one of the four benchmark protocols.
* ``npn bandable`` - print eigenvalue bounds for banded correlation decay,
  optionally verifying them on random draws.

Result documents carry the tool version and the resolved configuration,
never timestamps, so identical invocations produce byte-identical output.
Infinite estimates are serialized as the literal string ``inf``; absent
values (for example the MSE of a cell with no finite trials) are empty CSV
fields and ``null`` in JSON.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
malformed input), 3 numeric failure (singular or degenerate computation).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DegenerateColumn,
    DegenerateDraw,
    DomainError,
    EmptyFile,
    InsufficientSamples,
    NoConvergence,
    NonFiniteValue,
    NotPositiveDefinite,
    NpnError,
    ParseError,
    SingularScatter,
)
from .estimators import DEFAULT_Z, EstimatorConfig, EstimatorKind, entropy_npn, estimate_mi
from .matrix_core import bandable_eigen_bounds
from .rank_stats import TiePolicy, ensure_data_matrix
from .simulation import (
    ExperimentId,
    ExperimentSpec,
    MarginalTransform,
    run_experiment,
    sample_bandable,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_DATA_ERRORS = (ParseError, NonFiniteValue, EmptyFile, OSError)
_NUMERIC_ERRORS = (
    NotPositiveDefinite,
    NoConvergence,
    DegenerateColumn,
    SingularScatter,
    InsufficientSamples,
    DegenerateDraw,
)


class _UsageError(Exception):
    pass


# Exit code and stderr prefix of each error group; the first group that
# matches wins, and any other library error is a numeric failure.
_ERROR_GROUPS = (
    (_DATA_ERRORS, EXIT_DATA, "data error"),
    (_NUMERIC_ERRORS, EXIT_NUMERIC, "numeric error"),
    ((_UsageError, DomainError), EXIT_USAGE, "error"),
)

_ESTIMATE_COLUMNS = ("estimator", "value", "lambda_min", "clamped", "diag_second_moment", "error")
_SIMULATE_COLUMNS = (
    "experiment",
    "sweep_param",
    "sweep_value",
    "estimator",
    "mse",
    "stderr",
    "finite_fraction",
    "trials",
)
_BANDABLE_COLUMNS = ("c", "d", "lower", "upper", "draws", "min_eigenvalue", "max_eigenvalue", "violations")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: one command plus every knob it uses."""

    command: str
    input: str | None = None
    estimators: tuple[EstimatorKind, ...] = ()
    z: float | None = None
    k: int = 2
    ties: TiePolicy = TiePolicy.LITERAL
    entropy: bool = False
    experiment: ExperimentId | None = None
    trials: int = 200
    n: int = 100
    d: int = 25
    grid: tuple[float, ...] = ()
    transform: MarginalTransform = MarginalTransform.EXP
    seed: int = 0
    c: float | None = None
    verify: int = 0
    fmt: str = "json"
    out: str | None = None


# ---------------------------------------------------------------------------
# CSV dataset I/O


def _parse_cell(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def load_csv(path) -> np.ndarray:
    """Read a numeric CSV file into an (n, D) matrix.

    A single header row is auto-detected: if any comma-separated token of
    the first row fails to parse as a number, the row is skipped. Tokens
    like ``NaN`` or ``inf`` parse as numbers, so they are treated as data
    and rejected with their position. Blank lines are ignored.

    Raises
    ------
    ParseError
        Malformed token or inconsistent column count (with 1-based row and
        column of the offender).
    NonFiniteValue
        A cell parsed to NaN or infinity.
    EmptyFile
        No data rows remain.
    """
    text = Path(path).read_text(encoding="utf-8")
    rows: list[list[float]] = []
    width = None
    first_content_row = True
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = [t.strip() for t in line.split(",")]
        parsed = [_parse_cell(t) for t in tokens]
        if first_content_row:
            first_content_row = False
            if any(v is None for v in parsed):
                continue
        for col, value in enumerate(parsed, start=1):
            if value is None:
                raise ParseError(
                    f"row {lineno}, column {col}: cannot parse {tokens[col - 1]!r} as a number",
                    row=lineno,
                    column=col,
                )
            if not math.isfinite(value):
                raise NonFiniteValue(
                    f"row {lineno}, column {col}: non-finite value {tokens[col - 1]!r}",
                    row=lineno,
                    column=col,
                )
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise ParseError(
                f"row {lineno}: expected {width} columns, found {len(parsed)}",
                row=lineno,
            )
        rows.append([v for v in parsed if v is not None])
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def save_csv(x, path, header: tuple[str, ...] | None = None) -> None:
    """Write a data matrix as CSV with full round-trip float precision."""
    m = ensure_data_matrix(x)
    lines = []
    if header:
        lines.append(",".join(header))
    for row in m:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# result document rendering


def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    return str(v)


def _json_value(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _config_echo(cfg: RunConfig) -> dict:
    if cfg.command == "estimate":
        fields = {
            "input": cfg.input,
            "estimators": ",".join(k.value for k in cfg.estimators),
            "z": cfg.z,
            "k": cfg.k,
            "ties": cfg.ties.value,
            "entropy": cfg.entropy,
        }
    elif cfg.command == "simulate":
        fields = {
            "experiment": cfg.experiment.value,
            "trials": cfg.trials,
            "n": cfg.n,
            "d": cfg.d,
            "grid": ",".join(_fmt_value(v) for v in cfg.grid),
            "estimators": ",".join(k.value for k in cfg.estimators),
            "transform": cfg.transform.value,
            "z": cfg.z,
            "k": cfg.k,
            "ties": cfg.ties.value,
            "seed": cfg.seed,
        }
    else:
        fields = {"c": cfg.c, "d": cfg.d, "verify": cfg.verify, "seed": cfg.seed}
    fields["format"] = cfg.fmt
    return fields


def _render_csv(cfg: RunConfig, columns: tuple[str, ...], rows: list[dict]) -> str:
    echo = "; ".join(f"{k}={_fmt_value(v)}" for k, v in _config_echo(cfg).items())
    lines = [
        f"# version: {__version__}",
        f"# command: {cfg.command}",
        f"# config: {echo}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt_value(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def _render_json(cfg: RunConfig, body: dict) -> str:
    doc = {"version": __version__, "command": cfg.command, "config": _config_echo(cfg)}
    doc.update(body)

    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [clean(v) for v in obj]
        return _json_value(obj)

    return json.dumps(clean(doc), indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def _classify(exc: Exception) -> tuple[int, str]:
    """Exit code and stderr prefix of an error."""
    for group, code, prefix in _ERROR_GROUPS:
        if isinstance(exc, group):
            return code, prefix
    return EXIT_NUMERIC, "error"


def cmd_estimate(cfg: RunConfig) -> int:
    """Run the selected estimators on one dataset and emit a document."""
    data = load_csv(cfg.input)
    rows: list[dict] = []
    estimates: list[dict] = []
    errors: list[dict] = []
    worst = EXIT_OK
    entropy_rho = None

    def record_error(name: str, exc: NpnError) -> int:
        errors.append({"estimator": name, "error": type(exc).__name__, "message": str(exc)})
        rows.append({"estimator": name, "error": type(exc).__name__})
        return _classify(exc)[0]

    for kind in cfg.estimators:
        z = cfg.z if kind in (EstimatorKind.RHO, EstimatorKind.TAU) else None
        try:
            est_cfg = EstimatorConfig(kind, z=z, k=cfg.k, tie_policy=cfg.ties)
            est = estimate_mi(data, est_cfg)
            if (kind is EstimatorKind.RHO and est_cfg.tie_policy is TiePolicy.LITERAL
                    and est_cfg.effective_z == cfg.z):
                # The very estimate entropy_npn would compute.
                entropy_rho = est
            entry = {
                "estimator": kind.value,
                "value": est.value,
                "lambda_min": est.lambda_min,
                "clamped": est.clamped,
                "diag_second_moment": est.diag_second_moment,
            }
            estimates.append(entry)
            rows.append(dict(entry, error=None))
        except NpnError as exc:
            worst = max(worst, record_error(kind.value, exc))
    body: dict = {"estimates": estimates, "errors": errors}
    if cfg.entropy:
        try:
            h = entropy_npn(data, z=cfg.z, k=cfg.k, mi=entropy_rho)
            body["entropy"] = h
            rows.append({"estimator": "entropy", "value": h, "error": None})
        except NpnError as exc:
            worst = max(worst, record_error("entropy", exc))
    if cfg.fmt == "csv":
        _emit(_render_csv(cfg, _ESTIMATE_COLUMNS, rows), cfg.out)
    else:
        _emit(_render_json(cfg, body), cfg.out)
    return worst


def cmd_simulate(cfg: RunConfig) -> int:
    """Run a benchmark protocol and emit its MSE summary table."""
    estimator_cfgs = tuple(
        EstimatorConfig(
            kind,
            z=cfg.z if kind in (EstimatorKind.RHO, EstimatorKind.TAU) else None,
            k=cfg.k if kind is EstimatorKind.KNN else 2,
            tie_policy=cfg.ties,
        )
        for kind in cfg.estimators
    )
    spec = ExperimentSpec(
        experiment=cfg.experiment,
        trials=cfg.trials,
        n=cfg.n,
        d=cfg.d,
        sweep=cfg.grid,
        estimators=estimator_cfgs,
        transform=cfg.transform,
        seed=cfg.seed,
    ).resolved()
    summaries = run_experiment(spec)
    rows = [
        {
            "experiment": spec.experiment.value,
            "sweep_param": spec.experiment.sweep_param,
            "sweep_value": s.sweep_value,
            "estimator": s.estimator.value,
            "mse": s.mse,
            "stderr": s.stderr,
            "finite_fraction": s.finite_fraction,
            "trials": s.trials,
        }
        for s in summaries
    ]
    if cfg.fmt == "csv":
        _emit(_render_csv(cfg, _SIMULATE_COLUMNS, rows), cfg.out)
    else:
        _emit(_render_json(cfg, {"summaries": rows}), cfg.out)
    return EXIT_OK


def cmd_bandable(cfg: RunConfig) -> int:
    """Print bandable eigenvalue bounds, optionally verified on samples."""
    lower, upper = bandable_eigen_bounds(cfg.c, cfg.d)
    if cfg.c >= 1.0 / 3.0:
        sys.stderr.write(
            "warning: lower bound is not a positivity guarantee unless c < 1/3\n"
        )
    row: dict = {
        "c": cfg.c,
        "d": cfg.d,
        "lower": lower,
        "upper": upper,
        "draws": cfg.verify or None,
        "min_eigenvalue": None,
        "max_eigenvalue": None,
        "violations": None,
    }
    verify_block = None
    if cfg.verify > 0:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed,)))
        lo = math.inf
        hi = -math.inf
        violations = 0
        for i in range(cfg.verify):
            m = sample_bandable(cfg.c, cfg.d, rng, boundary=(i == 0))
            eig = np.linalg.eigvalsh(m)
            lo = min(lo, float(eig[0]))
            hi = max(hi, float(eig[-1]))
            if eig[0] < lower - 1e-9 or eig[-1] > upper + 1e-9:
                violations += 1
        row.update(min_eigenvalue=lo, max_eigenvalue=hi, violations=violations)
        verify_block = {
            "draws": cfg.verify,
            "min_eigenvalue": lo,
            "max_eigenvalue": hi,
            "violations": violations,
        }
    body = {"lower": lower, "upper": upper, "verify": verify_block}
    if cfg.fmt == "csv":
        _emit(_render_csv(cfg, _BANDABLE_COLUMNS, [row]), cfg.out)
    else:
        _emit(_render_json(cfg, body), cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _split_estimators(text: str) -> tuple[EstimatorKind, ...]:
    kinds = []
    for name in text.split(","):
        name = name.strip().lower()
        try:
            kinds.append(EstimatorKind(name))
        except ValueError:
            raise _UsageError(
                f"unknown estimator {name!r}; choose from "
                + ",".join(k.value for k in EstimatorKind)
            )
    if not kinds:
        raise _UsageError("at least one estimator is required")
    return tuple(kinds)


def _split_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise _UsageError(f"cannot parse grid {text!r}")
    if not values:
        raise _UsageError("grid must contain at least one value")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="npn",
        description="Rank-based mutual information and entropy estimation "
        "under the Gaussian copula model.",
    )
    parser.add_argument("--version", action="version", version=f"npn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate mutual information from a CSV dataset")
    est.add_argument("--input", required=True, help="CSV file, rows = samples")
    est.add_argument(
        "--estimators",
        default="rho",
        help="comma list from gaussian,gauss,rho,tau,knn (default rho)",
    )
    est.add_argument("--z", type=float, default=DEFAULT_Z,
                     help="eigenvalue floor for rho/tau (default 1e-3; gauss is never floored)")
    est.add_argument("--k", type=int, default=2, help="kNN neighbor count (default 2)")
    est.add_argument("--ties", choices=["literal", "midrank"], default="literal",
                     help="tie handling for ranks (default literal)")
    est.add_argument("--entropy", action="store_true",
                     help="also report the copula entropy estimate")
    est.add_argument("--format", choices=["csv", "json"], default="json")
    est.add_argument("--out", default=None, help="output path (default stdout)")

    sim = sub.add_parser("simulate", help="run one of the benchmark protocols")
    sim.add_argument("--experiment", required=True, type=int, choices=[1, 2, 3, 4],
                     help="1 sample size, 2 marginals, 3 outliers, 4 strong dependence")
    sim.add_argument("--trials", type=int, default=200)
    sim.add_argument("--n", type=int, default=100)
    sim.add_argument("--d", type=int, default=25)
    sim.add_argument("--grid", "--n-grid", "--alpha-grid", "--beta-grid", "--sigma-grid",
                     dest="grid", default=None,
                     help="comma list of sweep values (default per experiment)")
    sim.add_argument("--transform",
                     choices=[t.value for t in MarginalTransform],
                     default="exp", help="marginal transform for experiment 2")
    sim.add_argument("--estimators", default="gaussian,gauss,rho,tau,knn",
                     help="comma list from gaussian,gauss,rho,tau,knn")
    sim.add_argument("--z", type=float, default=DEFAULT_Z)
    sim.add_argument("--k", type=int, default=None,
                     help="kNN neighbor count (default 2; 20 for experiment 3)")
    sim.add_argument("--ties", choices=["literal", "midrank"], default="literal")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--format", choices=["csv", "json"], default="csv")
    sim.add_argument("--out", default=None)

    band = sub.add_parser("bandable", help="eigenvalue bounds for banded correlation decay")
    band.add_argument("--c", required=True, type=float, help="decay base in (0, 1)")
    band.add_argument("--d", required=True, type=int, help="matrix dimension")
    band.add_argument("--verify", type=int, default=0,
                      help="sample this many bandable matrices and report extreme eigenvalues")
    band.add_argument("--seed", type=int, default=0)
    band.add_argument("--format", choices=["csv", "json"], default="json")
    band.add_argument("--out", default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "estimate":
        return RunConfig(
            command="estimate",
            input=args.input,
            estimators=_split_estimators(args.estimators),
            z=args.z,
            k=args.k,
            ties=TiePolicy(args.ties),
            entropy=args.entropy,
            fmt=args.format,
            out=args.out,
        )
    if args.command == "simulate":
        experiment = ExperimentId(args.experiment)
        k = args.k if args.k is not None else (20 if experiment is ExperimentId.OUTLIERS else 2)
        return RunConfig(
            command="simulate",
            experiment=experiment,
            trials=args.trials,
            n=args.n,
            d=args.d,
            grid=_split_grid(args.grid) if args.grid else (),
            estimators=_split_estimators(args.estimators),
            transform=MarginalTransform(args.transform),
            z=args.z,
            k=k,
            ties=TiePolicy(args.ties),
            seed=args.seed,
            fmt=args.format,
            out=args.out,
        )
    return RunConfig(
        command="bandable",
        c=args.c,
        d=args.d,
        verify=args.verify,
        seed=args.seed,
        fmt=args.format,
        out=args.out,
    )


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        if cfg.command == "estimate":
            return cmd_estimate(cfg)
        if cfg.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_bandable(cfg)
    except (_UsageError, NpnError, OSError) as exc:
        code, prefix = _classify(exc)
        sys.stderr.write(f"{prefix}: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
