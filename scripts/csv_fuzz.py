#!/usr/bin/env python3
"""Check that two checkouts' ``load_csv`` give the same outcome on random CSV files.

    python3 scripts/csv_fuzz.py PARENT CHANGE --files N --seed S

Writes N random CSV files to a temporary directory. Most are plain numeric
files, each with at most a few odd parts: a byte order mark, a header row,
blank or whitespace-only lines, padded cells, CRLF and lone-CR endings,
ragged rows, a trailing comma, ``nan``/``inf``, ``1_000``, overflowing or
malformed tokens, one row or one column, and now and then a byte that is
not UTF-8. Pads and line ends also draw the eight characters that
``str.splitlines`` breaks at besides ``\\n`` and ``\\r`` (``\\x0b``,
``\\x0c``, ``\\x1c``-``\\x1e``, U+0085, U+2028, U+2029). ``load_csv`` ends a
line only at ``\\n``, ``\\r\\n`` or a lone ``\\r``, so these are whitespace
inside a cell, and a line "ended" by one runs on into the next.

Each checkout then reads every file in a fresh process, with its own
``src`` on the path and the interpreter running this script. The outcome
of a file is the array's shape, dtype and a hash of its bytes, or the
error's type, message, row and column. The report counts each kind of
outcome, counts the differing files by their pair of outcome kinds, those
of them that hold none of the eight characters, and those that hold no
cell only Python's ``float`` reads (``1_000``, ``\u0661``), and prints the
first of them. Exits 1 on any difference, 0 when every file agrees.

``load_csv`` reads a cell by NumPy's grammar, which refuses those two
cells, where a reader built on ``float`` took them. Against such a
checkout the gate is the last count: it must read 0.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPT = Path(__file__).resolve()
# Line breaks to str.splitlines, and whitespace that ends no row to load_csv.
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
PADS = [" ", "\t", "\x1f", "\u2003", "\u3000", *SPLITLINES_ONLY]
ENDS = ["\r\n", "\r", *SPLITLINES_ONLY]
ODD_CELLS = ["nan", "NaN", "-inf", "Infinity", "1e400", "-1e400", "1_000", "-0", ".5", "5.",
             "+1", "1e-320", "0x10", "x", "", " ", "1e", "--1", "1.0.0", "\u0661", "\ufeff1",
             "1\x002", "1e5j", '"1"']
BLANKS = ["", " ", "\t", "\u3000", "\x1f"]
# Cells that Python's float reads and NumPy's grammar does not.
FLOAT_ONLY = ["1_000", "\u0661"]


def number(rng: random.Random) -> str:
    value = rng.choice([rng.gauss(0.0, 1.0), rng.uniform(-1e6, 1e6),
                        rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-300, 300)])
    return rng.choice([repr(value), f"{value:.3g}", f"{value:.17g}", str(round(value))])


def csv_file(rng: random.Random) -> bytes:
    """A random CSV file: a plain one with each odd part switched on at a small rate."""
    odd = {part: rng.random() < 0.15 for part in ("cell", "pad", "end", "ragged", "comma")}
    cols = rng.choice([1, 1, 2, 3, 5])
    header = ",".join(rng.choice(["x", "y", "a b"]) for _ in range(cols))
    lines = [header] if rng.random() < 0.2 else []
    for _ in range(rng.choice([0, 1, 1, 2, 3, 5, 8])):
        if rng.random() < 0.1:
            lines.append(rng.choice(BLANKS))
            continue
        width = rng.randint(1, 5) if odd["ragged"] and rng.random() < 0.3 else cols
        cells = []
        for _ in range(width):
            cell = rng.choice(ODD_CELLS) if odd["cell"] and rng.random() < 0.3 else number(rng)
            if odd["pad"] and rng.random() < 0.3:
                cell = rng.choice(["", *PADS]) + cell + rng.choice(["", *PADS])
            cells.append(cell)
        lines.append(",".join(cells) + ("," if odd["comma"] and rng.random() < 0.3 else ""))
    text = "".join(line + (rng.choice(ENDS) if odd["end"] and rng.random() < 0.3 else "\n")
                   for line in lines)
    if lines and rng.random() < 0.5:
        text = text[:-1]  # no final line end
    data = text.encode("utf-8")
    if rng.random() < 0.1:
        data = b"\xef\xbb\xbf" + data
    if rng.random() < 0.01:
        data += b"\xff"
    return data


def outcome(path: Path) -> str:
    """One line that is equal only when ``load_csv`` does the same on ``path``."""
    from npn.cli import load_csv

    try:
        m = load_csv(path)
    except Exception as exc:
        return json.dumps([type(exc).__name__, str(exc), getattr(exc, "row", None),
                           getattr(exc, "column", None)])
    return json.dumps(["array", m.shape, m.dtype.str, m.flags.c_contiguous,
                       hashlib.sha256(m.tobytes()).hexdigest()])


def child(work: Path, files: int) -> None:
    """Print the outcome of every file, in order, with the checkout at the working directory."""
    sys.path[:0] = ["src"]
    for i in range(files):
        print(outcome(work / f"{i}.csv"))


def run_side(checkout: Path, work: Path, files: int) -> list[str]:
    argv = [sys.executable, str(SCRIPT), "--child", str(work), "--files", str(files)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: {checkout} exited with {proc.returncode}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, help="PARENT CHANGE")
    parser.add_argument("--files", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child, args.files)
        return 0
    if len(args.checkouts) != 2:
        parser.error("give two checkouts: PARENT CHANGE")

    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(prefix="csv-fuzz-") as tmp:
        work = Path(tmp)
        for i in range(args.files):
            (work / f"{i}.csv").write_bytes(csv_file(rng))
        parent, change = (run_side(c, work, args.files) for c in args.checkouts)
        diffs = [i for i in range(args.files) if parent[i] != change[i]]
        kinds = collections.Counter(json.loads(line)[0] for line in parent)
        print(f"{args.files} files, seed {args.seed}: {len(diffs)} differ")
        print("parent outcomes: " + ", ".join(f"{k} {v}" for k, v in kinds.most_common()))
        moved = collections.Counter(f"{json.loads(parent[i])[0]} -> {json.loads(change[i])[0]}"
                                    for i in diffs)
        if moved:
            print("differing: " + ", ".join(f"{k} {v}" for k, v in moved.most_common()))
            texts = [(work / f"{i}.csv").read_bytes() for i in diffs]
            for label, chars in ((f"none of {SPLITLINES_ONLY!r}", SPLITLINES_ONLY),
                                 (f"no cell only float reads {FLOAT_ONLY!r}", FLOAT_ONLY)):
                count = sum(not any(c.encode() in text for c in chars) for text in texts)
                print(f"differing files holding {label}: {count}")
        for i in diffs[:10]:
            print(f"  file {i}: {(work / f'{i}.csv').read_bytes()!r}")
            print(f"    parent {parent[i]}\n    change {change[i]}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
