"""Sweep configuration: flat JSON files plus command-line overrides."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, replace

import numpy as np

from .coefficients import METHOD_CLOSED, METHOD_QUADRATURE
from .errors import UsageError

MODES = ("secular", "full", "both")
KAPPA_SOURCES = ("symmetric", "paper", "oracle")

_METHOD_ALIASES = {
    "closed": METHOD_CLOSED,
    METHOD_CLOSED: METHOD_CLOSED,
    "quad": METHOD_QUADRATURE,
    METHOD_QUADRATURE: METHOD_QUADRATURE,
}


def canonical_method(value: str) -> str:
    try:
        return _METHOD_ALIASES[value]
    except KeyError:
        raise UsageError(f"method: unknown value {value!r} "
                         f"(use closed or quad)") from None


@dataclass(frozen=True)
class SweepScenario:
    """Parameter grids and output options for one command run."""

    tau_start: float = 0.0
    tau_stop: float = 30.0
    tau_steps: int = 600
    r_values: tuple = (1.0,)
    j0_values: tuple = (1.0,)
    delta_values: tuple = (1e-3,)
    omega_values: tuple = (1.0,)
    beta: float | None = None  # None: the low-temperature limit
    mode: str = "secular"
    method: str = METHOD_CLOSED
    kappa: str = "paper"
    out: str | None = None
    jobs: int = 1

    def validate(self) -> "SweepScenario":
        if self.tau_steps < 2:
            raise UsageError(f"tau_steps: must be >= 2, got {self.tau_steps}")
        for name in ("tau_start", "tau_stop", "beta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"{name}: must be finite, got {value}")
        if self.tau_start < 0.0:
            raise UsageError(f"tau_start: must be >= 0, got {self.tau_start}")
        if not self.tau_stop > self.tau_start:
            raise UsageError(f"tau_stop: must exceed tau_start, got {self.tau_stop}")
        for name in ("r_values", "j0_values", "delta_values", "omega_values"):
            values = getattr(self, name)
            if len(values) == 0:
                raise UsageError(f"{name}: must not be empty")
            if not all(map(math.isfinite, values)):
                raise UsageError(f"{name}: must be finite, got {list(values)}")
        if self.mode not in MODES:
            raise UsageError(f"mode: unknown value {self.mode!r}")
        if self.kappa not in KAPPA_SOURCES:
            raise UsageError(f"kappa: unknown value {self.kappa!r}")
        canonical_method(self.method)
        if self.jobs < 1:
            raise UsageError(f"jobs: must be >= 1, got {self.jobs}")
        return self

    def tau_grid(self) -> np.ndarray:
        return np.linspace(self.tau_start, self.tau_stop, self.tau_steps)

    def to_meta(self) -> dict:
        meta = asdict(self)
        for key in ("r_values", "j0_values", "delta_values", "omega_values"):
            meta[key] = list(meta[key])
        return meta


_LIST_KEYS = {"r": "r_values", "j0": "j0_values", "delta": "delta_values",
              "omega": "omega_values"}
_SCALAR_KEYS = {"tau_start", "tau_stop", "tau_steps", "beta", "mode", "method",
                "kappa", "out", "jobs"}


def scenario_from_file(path: str) -> SweepScenario:
    """Load a scenario from a flat JSON object; unknown keys are rejected."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise UsageError("config: top level must be a JSON object")
    kwargs = {}
    for key, value in raw.items():
        if key in _LIST_KEYS:
            if not isinstance(value, (list, tuple)):
                raise UsageError(f"{key}: must be a list")
            kwargs[_LIST_KEYS[key]] = tuple(float(v) for v in value)
        elif key in _SCALAR_KEYS:
            kwargs[key] = value
        else:
            raise UsageError(f"config: unknown key {key!r}")
    if "method" in kwargs:
        kwargs["method"] = canonical_method(kwargs["method"])
    return SweepScenario(**kwargs)


def apply_overrides(scenario: SweepScenario, **overrides) -> SweepScenario:
    """Return a copy with any non-None override applied."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    if "method" in updates:
        updates["method"] = canonical_method(updates["method"])
    return replace(scenario, **updates)
