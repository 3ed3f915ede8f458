"""Per-layer tracing of one CLI invocation, from outside the library.

Run as ``python -X importtime tracer.py SUMMARY.json ARG...`` with the
library on PYTHONPATH. It imports ``bandgauss.cli``, wraps the functions
named in ``LAYER_SPANS`` (and ``TwoModeGaussianState.__post_init__``), calls
``cli.main(ARGS)`` in process, and writes self times and counts per span to
SUMMARY.json. The exit code is that of ``main``. The import layer is read
by the parent from the ``-X importtime`` lines on this process's stderr.

A span's self time is its duration minus the durations of the spans it
caused. Work in a function that is not wrapped counts toward the nearest
wrapped caller; so ``scenario`` parsing and row building fall into
``cli.cmd``, and the private helpers of a module into its public caller.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from functools import wraps

import numpy as np

# Span name per wrapped function, per module of the library.
LAYER_SPANS = {
    "spectral": {
        "kernel_cos_thermal": "spectral.thermal",
        "kernel_sin": "spectral.lowt",
        "kernel_cos": "spectral.lowt",
    },
    "coefficients": {"build_trace": "coefficients.trace"},
    "dynamics": {
        "apply_channel": "dynamics.channel",
        "snapshots_from_trace": "dynamics.channel",
    },
    "entanglement": {
        "kappa_secular": "entanglement.kappa",
        "kappa_full": "entanglement.kappa",
        "kappa_full_curve": "entanglement.kappa",
        "kappa_secular_channel_curve": "entanglement.kappa",
        "state_kappa_curve": "entanglement.kappa",
        "nu_min_pt": "entanglement.eigensolve",
        "find_last_upcrossing": "entanglement.bisection",
    },
    "cli": {"main": "cli.cmd", "write_csv": "cli.csv"},
}


class Tracer:
    """In-memory span aggregation: self time and calls per span name, and
    the layer counters."""

    def __init__(self):
        self._stack = []                 # [span name, time in child spans]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.thermal_nodes = 0
        self.trace_keys = []
        self.csv_rows = 0
        self.csv_bytes = 0

    def span(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if parent:
                    parent[1] += duration
        return wrapper

    def thermal(self, fn):
        # kernel_cos_thermal calls itself once per node of an array argument:
        # the outer call is one span, the inner calls are counted as nodes.
        outer = self.span("spectral.thermal", fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][0] == "spectral.thermal":
                self.thermal_nodes += 1
                return fn(*args, **kwargs)
            return outer(*args, **kwargs)
        return wrapper

    def build_trace(self, fn):
        signature = inspect.signature(fn)
        spanned = self.span("coefficients.trace", fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            grid = np.asarray(a["tau_grid"], dtype=float).tobytes()
            self.trace_keys.append(repr((a["env"], a["method"], a["n_dense"],
                                         hashlib.sha256(grid).hexdigest())))
            return spanned(*args, **kwargs)
        return wrapper

    def write_csv(self, fn):
        spanned = self.span("cli.csv", fn)

        @wraps(fn)
        def wrapper(path, header, rows):
            rows = list(rows)
            result = spanned(path, header, rows)
            self.csv_rows += len(rows)
            self.csv_bytes += os.path.getsize(path)
            return result
        return wrapper

    def summary(self) -> dict:
        return {
            "self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
            "calls": dict(self.calls),
            "thermal_nodes": self.thermal_nodes,
            "trace_calls": len(self.trace_keys),
            "trace_distinct": len(set(self.trace_keys)),
            "csv_rows": self.csv_rows,
            "csv_bytes": self.csv_bytes,
        }


def _rebind(original, wrapper) -> None:
    # `from .x import y` copies the name into the importing module, so
    # replace every binding of the original in every library module.
    for name, module in list(sys.modules.items()):
        if name != "bandgauss" and not name.startswith("bandgauss."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the library's layer boundaries in spans of ``tracer``."""
    special = {"kernel_cos_thermal": tracer.thermal,
               "build_trace": tracer.build_trace,
               "write_csv": tracer.write_csv}
    for module_name, spans in LAYER_SPANS.items():
        module = importlib.import_module(f"bandgauss.{module_name}")
        for fn_name, span_name in spans.items():
            original = getattr(module, fn_name)
            make = special.get(fn_name)
            wrapper = make(original) if make else tracer.span(span_name, original)
            _rebind(original, wrapper)
    from bandgauss.dynamics import TwoModeGaussianState
    TwoModeGaussianState.__post_init__ = tracer.span(
        "dynamics.state", TwoModeGaussianState.__post_init__)


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    from bandgauss import cli

    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        with open(summary_path, "w") as f:
            json.dump(tracer.summary(), f, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
