"""Sweep configuration: one name per setting, the ``SweepScenario`` field
name. It is the config-file key, the sidecar key and, with ``-`` for ``_``,
the flag (``tau_start`` is config-only), so a sidecar reruns its CSV."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .coefficients import METHOD_CLOSED, METHOD_QUADRATURE
from .errors import UsageError

MODES = ("secular", "full", "both")
KAPPA_SOURCES = ("symmetric", "paper", "oracle")
_METHOD_ALIASES = {"closed": METHOD_CLOSED, "quad": METHOD_QUADRATURE}

# Most output rows (tau_steps times the number of curves) a run may ask for.
# A row held in memory costs about 0.9 kB (evolve), so this is about 1 GB.
MAX_ROWS = 10 ** 6

# field type -> (accepted Python types, what the error calls it)
_TYPES = {"float": ((int, float), "a number"), "int": (int, "an integer"),
          "str": (str, "a string"), "tuple": ((list, tuple), "a list")}


def _checked(name: str, value, kind: str):
    """``value`` as a field of type ``kind``: finite numbers as float, lists
    as tuples of them; a ``UsageError`` naming ``name`` for anything else."""
    types, what = _TYPES[kind]
    # JSON true/false are ints to Python, but not numbers here
    if isinstance(value, bool) or not isinstance(value, types):
        raise UsageError(f"{name}: must be {what}, got {value!r}")
    if kind == "tuple":
        return tuple(_checked(name, v, "float") for v in value)
    # also refuses nan, and an int too large for a float (float() raises)
    if kind == "float" and not abs(value) <= sys.float_info.max:
        raise UsageError(f"{name}: must be finite, got {value}")
    return float(value) if kind == "float" else value


@dataclass(frozen=True)
class SweepScenario:
    """Parameter grids and output options for one command run."""

    tau_start: float = 0.0
    tau_max: float = 30.0
    tau_steps: int = 600
    r: tuple = (1.0,)
    j0: tuple = (1.0,)
    delta: tuple = (1e-3,)
    omega: tuple = (1.0,)
    beta: float | None = None  # None: the low-temperature limit
    mode: str = "secular"
    method: str = METHOD_CLOSED
    kappa: str = "paper"
    out: str | None = None
    jobs: int = 1

    def __post_init__(self):
        # the one place a scenario is normalised: every value is checked
        # against its field's type, and closed/quad become the method tags
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or not f.type.endswith("None"):
                object.__setattr__(self, f.name, _checked(
                    f.name, value, f.type.split(" |")[0]))
        object.__setattr__(self, "method",
                           _METHOD_ALIASES.get(self.method, self.method))

    def validate(self) -> "SweepScenario":
        if self.tau_steps < 2:
            raise UsageError(f"tau_steps: must be >= 2, got {self.tau_steps}")
        if self.tau_start < 0.0:
            raise UsageError(f"tau_start: must be >= 0, got {self.tau_start}")
        if not self.tau_max > self.tau_start:
            raise UsageError(f"tau_max: must exceed tau_start, got {self.tau_max}")
        for name in ("r", "j0", "delta", "omega"):
            if not getattr(self, name):
                raise UsageError(f"{name}: must not be empty")
        for name, choices in (("mode", MODES), ("kappa", KAPPA_SOURCES),
                              ("method", (METHOD_CLOSED, METHOD_QUADRATURE))):
            if getattr(self, name) not in choices:
                raise UsageError(f"{name}: unknown value {getattr(self, name)!r}")
        if self.jobs < 1:
            raise UsageError(f"jobs: must be >= 1, got {self.jobs}")
        return self

    def tau_grid(self) -> np.ndarray:
        return np.linspace(self.tau_start, self.tau_max, self.tau_steps)


def scenario_from_file(path: str) -> SweepScenario:
    """Load a scenario from a flat JSON object keyed by field name; unknown
    keys are rejected."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise UsageError("config: top level must be a JSON object")
    unknown = sorted(raw.keys() - {f.name for f in fields(SweepScenario)})
    if unknown:
        raise UsageError(f"config: unknown key {unknown[0]!r}")
    return SweepScenario(**raw)


def apply_overrides(scenario: SweepScenario, **overrides) -> SweepScenario:
    """Return a copy with any non-None override applied."""
    return replace(scenario, **{k: v for k, v in overrides.items()
                                if v is not None})
