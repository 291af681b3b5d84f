"""Per-layer spans for the traced run, recorded from outside the program.

Every public function of the npn layers (see ``_public``) is wrapped in each namespace it is
looked up from: ``run_experiment`` calls ``estimate_mi`` through
``npn.simulation.estimate_mi``, ``estimate_mi`` calls ``kendall_matrix``
through ``npn.estimators.kendall_matrix``, and so on, so each wrapper sees
the calls made from that module. Spans nest on one stack (the program is
single-threaded); a span's self time is its duration minus the durations
of its direct children. The originals are restored when the ``installed``
block ends, so untraced executions in the same process run the program
exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _estimate_mi_kind(duration, args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return f"estimators.estimate_mi.{cfg.kind.value}_s", duration


def _entropy_npn(duration, args, kwargs):
    return "estimators.entropy_npn_s", duration


def _kendall_pair_ops(duration, args, kwargs):
    # Computed from the input's shape, not counted inside the kernel:
    # column pairs times sample pairs.
    shape = np.shape(args[0])
    n, d = shape[0], (shape[1] if len(shape) > 1 else 1)
    return "rank_stats.kendall_matrix.pair_ops", (d * (d - 1) // 2) * (n * (n - 1) // 2)


# Figures some spans record beside self time and call count: each handler
# returns a metric name and the amount one call adds to it.
_EXTRAS = {
    "estimators.estimate_mi": _estimate_mi_kind,
    "estimators.entropy_npn": _entropy_npn,
    "rank_stats.kendall_matrix": _kendall_pair_ops,
}


def _public(fn) -> bool:
    """Listed in its npn module's ``__all__``, or not underscored where there is none.

    Helpers such as ``rank_stats.count_inversions`` stay inside their
    caller's span, so ``kendall_matrix`` counts the whole merge kernel.
    """
    if not fn.__module__.startswith("npn."):
        return False
    exported = getattr(sys.modules[fn.__module__], "__all__", None)
    return fn.__name__ in exported if exported is not None else not fn.__name__.startswith("_")


class Tracer:
    """Span accounting for one traced execution at a time."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = {}
        self._stack: list[list[float]] = []

    def metrics(self) -> dict[str, float]:
        """Every recorded figure, keyed ``<layer>.<function>.self_s`` etc."""
        out: dict[str, float] = {}
        for span, value in self.self_s.items():
            out[f"{span}.self_s"] = value
        for span, value in self.calls.items():
            out[f"{span}.calls"] = value
        out.update(self.extra)
        return out

    def _wrap(self, span: str, fn):
        extra = _EXTRAS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                self.self_s[span] += duration - frame[0]
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1][0] += duration
                if extra is not None:
                    key, amount = extra(duration, args, kwargs)
                    self.extra[key] = self.extra.get(key, 0) + amount

        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap the public npn functions visible in ``modules``; restore on exit."""
        saved = []
        try:
            for module in modules:
                for name, value in list(vars(module).items()):
                    if not inspect.isfunction(value) or not _public(value):
                        continue
                    span = f"{value.__module__[len('npn.'):]}.{value.__name__}"
                    saved.append((module, name, value))
                    setattr(module, name, self._wrap(span, value))
            yield self
        finally:
            for module, name, value in saved:
                setattr(module, name, value)
