"""Command line interface and dataset/result serialization.

Three subcommands:

* ``npn estimate`` - run selected estimators on a CSV dataset.
* ``npn simulate`` - run one of the four benchmark protocols.
* ``npn bandable`` - print eigenvalue bounds for banded correlation decay,
  optionally verifying them on random draws.

``--z`` is the eigenvalue floor of rho and tau only, and ``--k`` the
neighbor count of knn only; the other estimators ignore both. (``npn
estimate --entropy`` uses them too: its marginal entropies take k and its
rho term takes z.) ``--verify`` counts draws and must be >= 0, and so
must ``bandable``'s ``--seed``.

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
import contextlib
import dataclasses
import io
import itertools
import json
import math
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, DomainError, EmptyFile, NonFiniteValue, NpnError, NumericError, ParseError
from .estimators import DEFAULT_K, DEFAULT_Z, EstimatorConfig, EstimatorKind, entropy_npn, estimate_mi
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


class _UsageError(Exception):
    pass


# Exit code and stderr prefix of each error group; the first group that
# matches wins, and any other library error is a numeric failure.
_ERROR_GROUPS = (
    ((DataError, OSError), EXIT_DATA, "data error"),
    (NumericError, EXIT_NUMERIC, "numeric error"),
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

_FORMATS = ("csv", "json")
# Lines per block of the CSV error locator, :func:`_first_error`.
_LOCATOR_LINES = 1 << 10
_TIES = tuple(t.value for t in TiePolicy)
_ESTIMATOR_NAMES = ",".join(k.value for k in EstimatorKind)

# The options each command echoes in its document's config, in order.
_ECHO_FIELDS = {
    "estimate": ("input", "estimators", "z", "k", "ties", "entropy", "format"),
    "simulate": ("experiment", "trials", "n", "d", "grid", "estimators", "transform", "z", "k",
                 "ties", "seed", "format"),
    "bandable": ("c", "d", "verify", "seed", "format"),
}


# ---------------------------------------------------------------------------
# CSV dataset I/O


def _numbers(lines, ndmin: int = 1) -> np.ndarray:
    """The comma-separated cells of ``lines``, an iterable of lines, read by NumPy's C reader.

    ValueError when a cell is not a number by NumPy's grammar or the rows are ragged.
    """
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=ndmin)


def load_csv(path) -> np.ndarray:
    """Read a numeric CSV file into an (n, D) matrix.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``; any other character
    that ``str.splitlines`` takes for a line break (``\\x0b``, ``\\x0c``,
    ``\\x1c``-``\\x1e``, U+0085, U+2028, U+2029) is whitespace inside a cell.
    A single header row is auto-detected: if any comma-separated token of
    the first non-blank line fails to parse as a number, the line is
    skipped. Tokens like ``NaN`` or ``inf`` parse as numbers, so they are
    treated as data and rejected with their position. Blank lines, also of
    whitespace alone, and a leading UTF-8 byte order mark are ignored.

    One reader reads every input: NumPy's C reader (``np.loadtxt``) over the
    non-blank lines, so a number is one by NumPy's grammar (``1_000`` and
    ``\\u0661``, which ``float`` reads, are not). An input that cannot seek,
    a pipe or a FIFO, is first copied to an unnamed temporary file. Only if
    the C reader fails, warns, finds no rows or reads a non-finite cell does
    :func:`_first_error` read the input again and name the error below.

    Raises
    ------
    ParseError
        Malformed token or inconsistent column count (with 1-based row and
        column of the offender), or a byte that is not UTF-8 (with its row).
    NonFiniteValue
        A cell parsed to NaN or infinity.
    EmptyFile
        No data rows remain.
    """
    # A pipe or a FIFO cannot seek back for the locator, so it is read from a copy.
    with open(path, "rb") as raw, (raw if raw.seekable() else tempfile.TemporaryFile()) as f:
        if f is not raw:
            shutil.copyfileobj(raw, f)
            f.seek(0)
        with io.TextIOWrapper(f, encoding="utf-8-sig", newline=None) as text:
            try:
                lines = itertools.filterfalse(str.isspace, text)
                first = next(lines, "")
                with warnings.catch_warnings():
                    # NumPy warns on input with no rows, which this makes an error.
                    warnings.simplefilter("error")
                    with contextlib.suppress(ValueError):  # a header stays dropped
                        _numbers([first])
                        lines = itertools.chain([first], lines)
                    m = _numbers(lines, ndmin=2)
                if np.isfinite(m).all():
                    return m
                refusal = None
            except (ValueError, Warning) as exc:
                # A byte that is not UTF-8, a cell NumPy cannot parse, a ragged
                # row or no rows: the locator meets it again and names it.
                refusal = exc
            error = _first_error(text, path)
            if error is None:
                # The two disagree; NumPy's own error shows it, not a relabelled one.
                raise RuntimeError(f"{path}: NumPy's reader refused the input, but the locator "
                                   "finds no error in it") from refusal
            raise error


def _first_error(text: io.TextIOWrapper, path) -> NpnError | None:
    """The error of the input that the C reader refused, with its place.

    Reads ``text`` again from its start, ``_LOCATOR_LINES`` lines at a time,
    and keeps no rows. A byte that is not UTF-8 comes first wherever it is,
    as the input is then not text; otherwise the first error in file order
    does. Each block's bytes are checked for UTF-8 at once. Once a data row
    has set the column count, each block's rows are checked by one C reader
    call too, and only a block that fails it is read a line at a time, as
    are the blocks up to that first data row. None if the input has data
    rows and no error.
    """
    text.seek(0)
    text.reconfigure(errors="surrogateescape")
    error = None
    width = None  # the column count of the first data row
    header = True  # the first non-blank line may be a header
    rows = enumerate(text, start=1)
    while block := list(itertools.islice(rows, _LOCATOR_LINES)):
        raw = "".join(line for _, line in block).encode("utf-8", "surrogateescape")
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Every line ends at its one \n, so the bad byte's row counts them.
            row = block[0][0] + raw.count(b"\n", 0, exc.start)
            return ParseError(f"row {row}: byte {raw[exc.start]:#04x} is not UTF-8 ({exc.reason})",
                              row=row)
        data = [(row, line) for row, line in block if not line.isspace()]
        if error or width is not None and _rows_are_clean([line for _, line in data], width):
            continue
        for row, line in data:
            may_be_header, header = header, False
            try:
                cells = _numbers([line])
            except ValueError:
                if not may_be_header:
                    error = _cell_error(line, row)
            else:
                if not np.isfinite(cells).all():
                    error = _cell_error(line, row)
                elif width is None:
                    width = cells.size
                elif cells.size != width:
                    error = ParseError(f"row {row}: expected {width} columns, found {cells.size}",
                                       row=row)
            if error:
                break
    if error is None and width is None:
        return EmptyFile(f"{path}: no data rows")
    return error


def _rows_are_clean(lines: list[str], width: int) -> bool:
    """Whether every one of ``lines`` is a row of ``width`` finite numbers, by one C reader call."""
    if not lines:
        return True
    try:
        cells = _numbers(lines, ndmin=2)
    except ValueError:
        return False
    return cells.shape[1] == width and bool(np.isfinite(cells).all())


def _cell_error(line: str, row: int) -> NpnError | None:
    """The error of ``line``'s first cell, in column order, that is not a finite number, if any."""
    for col, token in enumerate((t.strip() for t in line.split(",")), start=1):
        try:
            (value,) = _numbers([token]) if token else ()
        except ValueError:
            return ParseError(f"row {row}, column {col}: cannot parse {token!r} as a number",
                              row=row, column=col)
        if not math.isfinite(value):
            return NonFiniteValue(f"row {row}, column {col}: non-finite value {token!r}",
                                  row=row, column=col)


def save_csv(x, path, header: tuple[str, ...] | None = None) -> None:
    """Write a data matrix as CSV with full round-trip float precision."""
    lines = [",".join(header)] if header else []
    lines += [",".join(map(repr, row)) for row in ensure_data_matrix(x).tolist()]
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


def _json_value(obj):
    """``obj`` with every infinite float spelled as a string."""
    if isinstance(obj, dict):
        return {k: _json_value(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_value(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _config_echo(args: argparse.Namespace) -> dict:
    fields = {}
    for name in _ECHO_FIELDS[args.command]:
        value = getattr(args, name)
        if isinstance(value, tuple):  # estimator kinds or grid values
            value = ",".join(_fmt_value(getattr(v, "value", v)) for v in value)
        fields[name] = value
    return fields


def _emit(args: argparse.Namespace, columns: tuple[str, ...], rows: list[dict], body: dict) -> None:
    """Write the result document, as ``args.format`` asks, to ``args.out`` or stdout.

    A CSV document is a ``#`` preamble, ``columns`` and one line per row;
    a JSON document is the preamble's fields followed by ``body``.
    """
    config = _config_echo(args)
    if args.format == "csv":
        echo = "; ".join(f"{k}={_fmt_value(v)}" for k, v in config.items())
        lines = [
            f"# version: {__version__}",
            f"# command: {args.command}",
            f"# config: {echo}",
            ",".join(columns),
        ]
        lines += [",".join(_fmt_value(row.get(col)) for col in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {"version": __version__, "command": args.command, "config": config, **body}
        text = json.dumps(_json_value(doc), indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def _classify(exc: Exception) -> tuple[int, str]:
    """Exit code and stderr prefix of an error."""
    for group, code, prefix in _ERROR_GROUPS:
        if isinstance(exc, group):
            return code, prefix
    return EXIT_NUMERIC, "error"


def _estimator_config(kind: EstimatorKind, args: argparse.Namespace) -> EstimatorConfig:
    """The estimator's config: ``--z`` reaches rho/tau only, ``--k`` knn only."""
    return EstimatorConfig(
        kind,
        z=args.z if kind.floored else None,
        k=args.k if kind is EstimatorKind.KNN else DEFAULT_K,
        tie_policy=TiePolicy(args.ties),
    )


def cmd_estimate(args: argparse.Namespace) -> int:
    """Run the selected estimators on one dataset and emit a document."""
    data = load_csv(args.input)
    rows: list[dict] = []
    estimates: list[dict] = []
    errors: list[dict] = []
    worst = EXIT_OK
    entropy_rho = None

    def record_error(name: str, exc: NpnError) -> int:
        errors.append({"estimator": name, "error": type(exc).__name__, "message": str(exc)})
        rows.append({"estimator": name, "error": type(exc).__name__})
        return _classify(exc)[0]

    for kind in args.estimators:
        try:
            est_cfg = _estimator_config(kind, args)
            est = estimate_mi(data, est_cfg)
            if kind is EstimatorKind.RHO and est_cfg.tie_policy is TiePolicy.LITERAL:
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
    if args.entropy:
        try:
            h = entropy_npn(data, z=args.z, k=args.k, mi=entropy_rho)
            body["entropy"] = h
            rows.append({"estimator": "entropy", "value": h, "error": None})
        except NpnError as exc:
            worst = max(worst, record_error("entropy", exc))
    _emit(args, _ESTIMATE_COLUMNS, rows, body)
    return worst


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run a benchmark protocol and emit its MSE summary table."""
    experiment = ExperimentId(args.experiment)
    if args.k is None:
        # Resolved in place, so the document echoes the k that ran.
        args.k = experiment.default_k
    spec = ExperimentSpec(
        experiment=experiment,
        trials=args.trials,
        n=args.n,
        d=args.d,
        sweep=args.grid,
        estimators=tuple(_estimator_config(kind, args) for kind in args.estimators),
        transform=MarginalTransform(args.transform),
        seed=args.seed,
    ).resolved()
    # Echo the D and sweep that run, not the options as given.
    args.d, args.grid = spec.d, spec.sweep
    rows = [
        {
            "experiment": experiment.value,
            "sweep_param": experiment.sweep_param,
            "sweep_value": s.sweep_value,
            "estimator": s.estimator.value,
            "mse": s.mse,
            "stderr": s.stderr,
            "finite_fraction": s.finite_fraction,
            "trials": s.trials,
        }
        for s in run_experiment(spec)
    ]
    _emit(args, _SIMULATE_COLUMNS, rows, {"summaries": rows})
    return EXIT_OK


def cmd_bandable(args: argparse.Namespace) -> int:
    """Print bandable eigenvalue bounds, optionally verified on samples."""
    if args.verify < 0:
        raise _UsageError(f"--verify must be >= 0, got {args.verify}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    lower, upper = bandable_eigen_bounds(args.c, args.d)
    if args.c >= 1.0 / 3.0:
        sys.stderr.write(
            "warning: lower bound is not a positivity guarantee unless c < 1/3\n"
        )
    verify = None
    if args.verify > 0:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(args.seed,)))
        lo = math.inf
        hi = -math.inf
        violations = 0
        for i in range(args.verify):
            m = sample_bandable(args.c, args.d, rng, boundary=(i == 0))
            eig = np.linalg.eigvalsh(m)
            lo = min(lo, float(eig[0]))
            hi = max(hi, float(eig[-1]))
            if eig[0] < lower - 1e-9 or eig[-1] > upper + 1e-9:
                violations += 1
        verify = {
            "draws": args.verify,
            "min_eigenvalue": lo,
            "max_eigenvalue": hi,
            "violations": violations,
        }
    row = {"c": args.c, "d": args.d, "lower": lower, "upper": upper, **(verify or {})}
    _emit(args, _BANDABLE_COLUMNS, [row], {"lower": lower, "upper": upper, "verify": verify})
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
            raise _UsageError(f"unknown estimator {name!r}; choose from {_ESTIMATOR_NAMES}")
    return tuple(kinds)


def _split_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise _UsageError(f"cannot parse grid {text!r}")
    # An empty argument keeps the experiment's default grid.
    if text and not values:
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
        type=_split_estimators,
        default="rho",
        help=f"comma list from {_ESTIMATOR_NAMES} (default rho)",
    )
    est.add_argument("--z", type=float, default=DEFAULT_Z,
                     help="eigenvalue floor for rho/tau (default 1e-3; gauss is never floored)")
    est.add_argument("--k", type=int, default=DEFAULT_K,
                     help="neighbor count for knn (default 2; the other estimators ignore it)")
    est.add_argument("--ties", choices=_TIES, default="literal",
                     help="tie handling for ranks (default literal)")
    est.add_argument("--entropy", action="store_true",
                     help="also report the copula entropy estimate")
    est.add_argument("--format", choices=_FORMATS, default="json")
    est.add_argument("--out", default=None, help="output path (default stdout)")

    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentSpec)}
    sim = sub.add_parser("simulate", help="run one of the benchmark protocols")
    sim.add_argument("--experiment", required=True, type=int,
                     choices=[e.value for e in ExperimentId],
                     help="1 sample size, 2 marginals, 3 outliers, 4 strong dependence")
    for name in ("trials", "n", "d"):
        sim.add_argument(f"--{name}", type=int, default=defaults[name])
    sim.add_argument("--grid", *(f"--{e.sweep_param}-grid" for e in ExperimentId),
                     dest="grid", type=_split_grid, default=(),
                     help="comma list of sweep values (default per experiment)")
    sim.add_argument("--transform", choices=[t.value for t in MarginalTransform],
                     default=defaults["transform"].value,
                     help="marginal transform for experiment 2")
    sim.add_argument("--estimators", type=_split_estimators, default=_ESTIMATOR_NAMES,
                     help=f"comma list from {_ESTIMATOR_NAMES}")
    sim.add_argument("--z", type=float, default=DEFAULT_Z, help="eigenvalue floor for rho/tau")
    sim.add_argument("--k", type=int, default=None,
                     help="neighbor count for knn (default 2; 20 for experiment 3)")
    sim.add_argument("--ties", choices=_TIES, default="literal")
    sim.add_argument("--seed", type=int, default=defaults["seed"])
    sim.add_argument("--format", choices=_FORMATS, default="csv")
    sim.add_argument("--out", default=None)

    band = sub.add_parser("bandable", help="eigenvalue bounds for banded correlation decay")
    band.add_argument("--c", required=True, type=float, help="decay base in (0, 1)")
    band.add_argument("--d", required=True, type=int, help="matrix dimension")
    band.add_argument("--verify", type=int, default=0,
                      help="sample this many (>= 0) bandable matrices and report extreme "
                      "eigenvalues")
    band.add_argument("--seed", type=int, default=0)
    band.add_argument("--format", choices=_FORMATS, default="json")
    band.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "estimate":
            return cmd_estimate(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_bandable(args)
    except (_UsageError, NpnError, OSError) as exc:
        code, prefix = _classify(exc)
        sys.stderr.write(f"{prefix}: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
