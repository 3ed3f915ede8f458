"""Output check for the CSVs a pass writes.

When a seed runs the default seed's inputs, every CSV is compared cell by
cell with the reference written at the baseline commit
(``reference/<workload>/<name>.csv.gz``):

* cells that are not numbers in the reference (text columns, ``none``,
  empty cells) must match exactly;
* numbers must agree to ``RTOL`` relative with an ``ATOL`` absolute floor,
  ``|a - b| <= ATOL + RTOL * max(|a|, |b|)``; the bound admits reordered
  floating-point sums (deviations near 1e-13 relative) and rejects any
  change of method;
* ``tau_sd`` (sudden-death time) is compared at twice the bisection
  ``xtol`` of 1e-6.

For other inputs the parameters differ, so the check is structural: the
same header, the same row count as the reference, text where the reference
has text, and a finite number where it has a number (``tau_sd`` may also
be ``none``).

The sha256 of each CSV and its largest relative deviation from the
reference are recorded as information only; neither gates anything.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
TAU_SD_ATOL = 2e-6

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class CheckResult:
    ok: bool
    reason: str
    sha256: str
    max_rel_dev: float | None = None


def reference_path(workload: str, name: str) -> Path:
    return REFERENCE_DIR / workload / f"{name}.csv.gz"


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare(text: str, ref_text: str, exact: bool) -> tuple[bool, str, float]:
    """Compare CSV ``text`` with ``ref_text``; return (ok, reason, max_rel_dev).

    ``exact`` selects the cell-by-cell comparison; otherwise only the
    structure and finiteness are checked.
    """
    rows, ref = _rows(text), _rows(ref_text)
    if not rows or rows[0] != ref[0]:
        return False, "header differs from the reference", math.nan
    if len(rows) != len(ref):
        return False, f"{len(rows) - 1} data rows, reference has {len(ref) - 1}", math.nan
    header = ref[0]
    max_dev = 0.0
    for i, (row, ref_row) in enumerate(zip(rows[1:], ref[1:]), start=2):
        if len(row) != len(header):
            return False, f"line {i}: {len(row)} cells", math.nan
        for col, cell, ref_cell in zip(header, row, ref_row):
            where = f"line {i}, column {col}"
            want = _number(ref_cell)
            got = _number(cell)
            if not exact:
                if col == "tau_sd" and cell == "none":
                    continue
                if (want is None) != (got is None):
                    return False, f"{where}: {cell!r} where reference has {ref_cell!r}", math.nan
                if got is not None and not math.isfinite(got):
                    return False, f"{where}: {cell!r} is not finite", math.nan
                continue
            if want is None or got is None:
                if cell != ref_cell:
                    return False, f"{where}: {cell!r} != {ref_cell!r}", math.nan
                continue
            dev = abs(got - want)
            scale = max(abs(got), abs(want))
            if scale > 0.0:
                max_dev = max(max_dev, dev / scale)
            tol = TAU_SD_ATOL if col == "tau_sd" else ATOL + RTOL * scale
            if not dev <= tol:
                return False, f"{where}: {cell} != {ref_cell} (tol {tol:.3g})", max_dev
    return True, "ok", max_dev


def check_csv(path: Path, workload: str, name: str, exact: bool) -> CheckResult:
    """Check one CSV written by a pass against its reference."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    with gzip.open(reference_path(workload, name), "rt", newline="") as f:
        ref_text = f.read()
    ok, reason, dev = compare(data.decode(), ref_text, exact)
    return CheckResult(ok, reason, digest, dev if exact else None)
