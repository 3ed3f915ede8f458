"""Command-line front end.

Subcommands: ``coefficients`` (channel coefficient sweeps), ``evolve``
(covariance-matrix evolution), ``fig1`` (secular-validity comparison recipe),
``fig2`` (negativity-dynamics recipe), ``sweep`` (general parameter product)
and ``verify`` (oracle cross-check table, nonzero exit on failure).

The five data commands share one engine, :func:`_table`: it builds each
distinct environment (j0, delta, omega_lo) of the scenario once, with its
one coefficient trace, and runs the command's row function on it (in
parallel under ``--jobs``). A row function returns its curves as blocks:
numpy columns beside the curve's constant cells. Every check that can
refuse runs there, so a refused run writes nothing; the rows then stream
from the blocks, in sorted order, as the CSV is written, and a run holds
its curves as arrays rather than as rows. The ``fig1`` and ``fig2`` panels
are presets of the scenario's parameter lists, so their sidecars record the
values that ran.

All data output is CSV with a fixed format: 17 significant digits, comma
delimiter, LF line endings, header row first, rows in sorted parameter
order, so identical scenarios produce byte-identical files. Every run also
writes a JSON metadata sidecar (same basename, ``.meta`` suffix) recording
the logarithm-base choice, the library version and the scenario that ran
(for ``verify``, its ``tol_scale``). Each option sets the scenario field of
its own name, so a sidecar's ``scenario`` block reruns it as ``--config``.

``--beta`` is the one temperature option; omitted, it is the low-temperature
limit. ``build_trace`` refuses a finite beta on the closed route, and
``fig1``, ``fig2`` and the ``paper`` kappa source refuse it here; that
source, the secular closed form, also refuses other modes and methods, and
``fig1``, whose secular column is that form, the quadrature method.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from dataclasses import asdict, fields, replace
from functools import partial
from itertools import product, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import (METHOD_CLOSED, CoefficientTrace,
                           EnvironmentParams, build_trace)
from .dynamics import evolve_covariances, make_twb
from .entanglement import (find_last_upcrossing, kappa_full_curve,
                           kappa_secular, negativity, state_kappa_curve)
from .errors import DomainError, NumericError, UsageError
from .scenario import (KAPPA_SOURCES, MAX_ROWS, METHOD_ALIASES, MODES,
                       SweepScenario, read_config)
from .spectral import SpectralDensity


def _panel(r: tuple, delta: tuple, omega: tuple) -> dict:
    # kappa depends on j0 and delta only through their product: j0 = 1
    return {"r": r, "j0": (1.0,), "delta": delta, "omega": omega}


# The paper's panels, as dataclasses.replace presets of SweepScenario.
FIG1_RS = (0.01, 0.1, 0.3, 0.5, 0.9)
FIG1_PANELS = {"a": _panel(FIG1_RS, (1e-4,), (1.0,)),
               "b": _panel(FIG1_RS, (1e-3,), (1.0,)),
               "c": _panel(FIG1_RS, (1e-3,), (3.0,))}
FIG2_PANELS = {
    "a": _panel((0.1, 0.5, 1.0, 2.0, 10.0), (0.01,), (1.0,)),
    "b": _panel((1.0,), (1e-3, 10.0 ** -2.5, 1e-2, 10.0 ** -1.5, 1e-1),
                (1.0,)),
    "c": _panel((1.0,), (0.01,), (0.1, 0.5, 1.0, 2.0, 10.0)),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0  # fold negative zero
        return format(value, ".17g")
    return str(value)


class _Cells(dict):
    """Each cell value's text, formatted on first use; _MEMO_TEXTS at most."""

    def __missing__(self, value):
        if len(self) >= _MEMO_TEXTS:
            self.clear()
        text = self[value] = _fmt(value)
        return text


# Cell types that share one memo keyed by value: no float equals a string,
# and equal floats print alike. True == 1 == 1.0 would share a key, so a row
# holding any other type is formatted cell by cell.
_MEMO_TYPES = frozenset((float, str))
_MEMO_TEXTS = 2 ** 16  # then the memo starts over; a benchmark file needs 30,263


def write_csv(path: str, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` to ``path``, each row as it is consumed
    from the iterable ``rows`` (the data commands stream them from their
    per-environment arrays)."""
    # most cells repeat a value (a grid time, a parameter, a saturated
    # curve), so each distinct value is formatted once per file
    cells = _Cells()
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            text = (cells.__getitem__ if _MEMO_TYPES.issuperset(map(type, row))
                    else _fmt)
            f.write(",".join(map(text, row)) + "\n")


_ROW_SLICE = 4096  # rows of a block held as Python values at a time


def _rows(blocks):
    """The rows of each block in turn. A block is a list of cells: an array
    cell is a column, one value per row, and any other cell repeats down the
    block; a block without an array is one row. The columns are expanded
    into Python values ``_ROW_SLICE`` rows at a time."""
    for block in blocks:
        n = max((len(c) for c in block if isinstance(c, np.ndarray)),
                default=1)
        for lo in range(0, n, _ROW_SLICE):
            hi = min(lo + _ROW_SLICE, n)
            yield from zip(*(c[lo:hi].tolist() if isinstance(c, np.ndarray)
                             else repeat(c, hi - lo) for c in block))


def _write(out: str, header: list[str], blocks, **meta) -> int:
    """Write the CSV of ``blocks`` (see :func:`_rows`) and its ``.meta``
    sidecar; return the exit code 0."""
    write_csv(out, header, _rows(blocks))
    meta = {"log_base": "e", "version": __version__, **meta}
    with open(Path(out).with_suffix(".meta"), "w", newline="") as f:
        f.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return 0


def _require_low_t(what: str, scenario: SweepScenario) -> None:
    # A finite beta that the computation never reads would still be
    # recorded in the sidecar; refuse it instead.
    if scenario.beta is not None:
        raise UsageError(f"beta: {what} runs at low temperature only; use "
                         "sweep for a finite beta")


def _require_paper_route(scenario: SweepScenario) -> None:
    # the paper source, kappa_secular, is the secular closed form at low
    # temperature: a beta, mode or method it would not read is refused
    for name, only in (("beta", None), ("mode", "secular"),
                       ("method", METHOD_CLOSED)):
        if scenario.kappa == "paper" and getattr(scenario, name) != only:
            raise UsageError(
                f"{name}: --kappa paper is the secular closed form at low "
                f"temperature, got {getattr(scenario, name)!r}; use --kappa "
                "symmetric or oracle (with --method quad for a finite beta)")


# ---------------------------------------------------------------------------
# the per-environment engine
# ---------------------------------------------------------------------------

def _trace(scenario: SweepScenario, key: tuple) -> CoefficientTrace:
    # the one call of build_trace: a row function makes it once per
    # environment, and only if it reads the channel
    j0, delta, omega_lo = key
    env = EnvironmentParams(SpectralDensity(j0, omega_lo, delta), scenario.beta)
    return build_trace(env, scenario.tau_grid(), scenario.method)


def _modes(scenario: SweepScenario) -> tuple:
    return ("secular", "full") if scenario.mode == "both" else (scenario.mode,)


def _map_payloads(worker, payloads, jobs: int):
    # the pool forks all its workers up front: no more than payloads or CPUs
    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(p) for p in payloads]
    # imported here: it loads multiprocessing, which a run in process skips
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads))


def _table(scenario: SweepScenario, rows_of, per_r: int | None):
    """The blocks (see :func:`_rows`) of every parameter combination of
    ``scenario``, sorted, as an iterator.

    ``rows_of(scenario, key)`` gives the blocks of one environment ``key =
    (j0, delta, omega_lo)``: a dict from each squeezing value to the blocks
    of its ``per_r`` curves, or with ``per_r`` None the blocks of one curve.
    It runs once per distinct environment, every one before this returns,
    and ``--jobs`` runs environments in parallel. Repeated parameter values
    repeat their blocks. Over ``MAX_ROWS`` rows, or if j0 * delta
    overflows, it refuses before any work.
    """
    keys = sorted(product(scenario.j0, scenario.delta, scenario.omega))
    for j0, delta, _ in keys:
        if not np.isfinite(j0 * delta):
            raise NumericError(f"j0, delta: {j0:g} * {delta:g} overflows")
    curves = len(keys) * (1 if per_r is None else len(scenario.r) * per_r)
    if scenario.tau_steps * curves > MAX_ROWS:
        raise UsageError(f"tau_steps: {scenario.tau_steps} x {curves} "
                         f"curve(s) exceeds the ceiling of {MAX_ROWS} rows")
    distinct = sorted(set(keys))
    results = _map_payloads(partial(rows_of, scenario), distinct,
                            scenario.jobs)
    blocks_at = dict(zip(distinct, results))
    if per_r is None:
        return (block for key in keys for block in blocks_at[key])
    return (block for r in sorted(scenario.r) for key in keys
            for block in blocks_at[key][r])


# ---------------------------------------------------------------------------
# subcommands: a row function and a header each; a row function computes
# every array its blocks hold
# ---------------------------------------------------------------------------

# the coefficient columns of a trace: its fields between tau_grid and method
_TRACE_COLUMNS = [f.name for f in fields(CoefficientTrace)][1:-1]
COEFF_HEADER = ["tau", "j0", "delta", "omega_lo", *_TRACE_COLUMNS, "method"]


def _coefficient_rows(scenario: SweepScenario, key: tuple) -> list[list]:
    tr = _trace(scenario, key)
    columns = [getattr(tr, name) for name in _TRACE_COLUMNS]
    return [[tr.tau_grid, *key, *columns, tr.method]]


def cmd_coefficients(scenario: SweepScenario) -> int:
    return _write(scenario.out, COEFF_HEADER,
                  _table(scenario, _coefficient_rows, per_r=None),
                  command="coefficients", scenario=asdict(scenario))


EVOLVE_HEADER = ["tau", "r", "j0", "delta", "omega_lo", "mode", "method",
                 "gamma_int", "delta_gamma",
                 "cm_11", "cm_12", "cm_13", "cm_14", "cm_22", "cm_23",
                 "cm_24", "cm_33", "cm_34", "cm_44"]


def _evolve_rows(scenario: SweepScenario, key: tuple) -> dict:
    trace = _trace(scenario, key)
    upper = (slice(None),) + np.triu_indices(4)
    blocks_at = {}
    for r in sorted(set(scenario.r)):
        state = make_twb(r)
        blocks_at[r] = [
            [trace.tau_grid, r, *key, mode, trace.method, trace.gamma_int,
             trace.delta_gamma,
             *evolve_covariances(state, trace if mode == "full"
                                 else trace.secular_approximation())[upper].T]
            for mode in _modes(scenario)]
    return blocks_at


def cmd_evolve(scenario: SweepScenario) -> int:
    return _write(scenario.out, EVOLVE_HEADER,
                  _table(scenario, _evolve_rows, len(_modes(scenario))),
                  command="evolve", scenario=asdict(scenario))


FIG1_HEADER = ["panel", "tau", "r", "j0", "delta", "omega_lo",
               "kappa_secular", "kappa_full", "method"]


def _fig1_rows(scenario: SweepScenario, key: tuple) -> dict:
    j0, delta, omega_lo = key
    trace = _trace(scenario, key)
    return {r: [[trace.tau_grid, r, *key,
                 kappa_secular(r, j0 * delta, omega_lo, trace.tau_grid),
                 kappa_full_curve(trace, r), scenario.method]]
            for r in sorted(set(scenario.r))}


def cmd_fig1(scenario: SweepScenario, panel: str) -> int:
    _require_low_t("fig1", scenario)
    # kappa_secular is the closed form whatever the method: beside a
    # quadrature kappa_full it would mix two routes under one label
    if scenario.method != METHOD_CLOSED:
        raise UsageError(f"method: fig1 runs on the closed route only, got "
                         f"{scenario.method!r}; use sweep --kappa symmetric "
                         "--mode both for the quadrature route")
    scenario = replace(scenario, **FIG1_PANELS[panel])
    blocks = ([panel, *block]
              for block in _table(scenario, _fig1_rows, per_r=1))
    return _write(scenario.out, FIG1_HEADER, blocks, command="fig1",
                  scenario=asdict(scenario), panel=panel)


SWEEP_HEADER = ["kind", "tau", "r", "j0", "delta", "omega_lo", "kappa_source",
                "mode", "method", "kappa", "e_n", "tau_sd"]


def _kappa_rows(scenario: SweepScenario, key: tuple) -> dict:
    """Kappa curves of one environment: per r and mode, the block of point
    rows and the sudden_death row."""
    j0, delta, omega_lo = key
    source, grid = scenario.kappa, scenario.tau_grid()
    paper = source == "paper"
    trace = None if paper else _trace(scenario, key)
    blocks_at = {}
    for r in sorted(set(scenario.r)):
        blocks = blocks_at[r] = []
        for mode in _modes(scenario):
            if paper:
                kappa = kappa_secular(r, j0 * delta, omega_lo, grid)
                point_fn = lambda t: kappa_secular(r, j0 * delta, omega_lo, t)
            else:
                kappa = state_kappa_curve(trace if mode == "full"
                                          else trace.secular_approximation(),
                                          r, source)
                point_fn = None
            tags = [r, *key, source, mode, scenario.method]
            e_n = negativity(kappa)
            tau_sd = find_last_upcrossing(grid, kappa, 1.0, point_fn)
            blocks += [["point", grid, *tags, kappa, e_n, ""],
                       ["sudden_death", "", *tags, "", "",
                        "none" if tau_sd is None else float(tau_sd)]]
    return blocks_at


def cmd_sweep(scenario: SweepScenario) -> int:
    _require_paper_route(scenario)
    return _write(scenario.out, SWEEP_HEADER,
                  _table(scenario, _kappa_rows, len(_modes(scenario))),
                  command="sweep", scenario=asdict(scenario))


FIG2_HEADER = ["kind", "panel", "tau", "r", "j0_delta", "omega_lo",
               "kappa_source", "mode", "method", "kappa", "e_n", "tau_sd"]


def cmd_fig2(scenario: SweepScenario, panel: str) -> int:
    _require_low_t("fig2", scenario)
    if scenario.mode == "both":
        raise UsageError("mode: fig2 emits one curve per combination; "
                         "choose secular or full")
    _require_paper_route(scenario)
    scenario = replace(scenario, **FIG2_PANELS[panel])
    # the sweep blocks with the panel for j0 = 1: delta is then j0_delta
    blocks = ([kind, panel, tau, r, *rest]
              for kind, tau, r, _, *rest
              in _table(scenario, _kappa_rows, len(_modes(scenario))))
    return _write(scenario.out, FIG2_HEADER, blocks, command="fig2",
                  scenario=asdict(scenario), panel=panel)


VERIFY_HEADER = ["name", "primary", "oracle", "abs_dev", "rel_dev", "tol",
                 "passed"]


def cmd_verify(out: str | None, tol_scale: float) -> int:
    # imported here: the oracle, and scipy with it, is for verify alone
    from .oracle import run_verification
    reports = run_verification(tol_scale)
    for rep in reports:
        tag = "PASS" if rep.passed else "FAIL"
        print(f"[{tag}] {rep.name}: primary={rep.primary:.12g} "
              f"oracle={rep.oracle:.12g} abs={rep.abs_dev:.3e} "
              f"rel={rep.rel_dev:.3e} tol={rep.tol:g}")
    n_pass = sum(r.passed for r in reports)
    print(f"verification: {n_pass}/{len(reports)} checks passed")
    if out:
        _write(out, VERIFY_HEADER,
               [[r.name, r.primary, r.oracle, r.abs_dev, r.rel_dev, r.tol,
                 r.passed] for r in reports],
               command="verify", tol_scale=tol_scale)
    return 0 if n_pass == len(reports) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _fig2_panel_help() -> str:
    swept = "; ".join(f"{p}: {name} = " + ", ".join(f"{v:g}" for v in values)
                      for p, panel in FIG2_PANELS.items()
                      for name, values in panel.items() if len(values) > 1)
    return (f"{swept}. Panel a's r = 10 is past the oracle eigensolver's "
            "limit of about r = 4.5: use --kappa symmetric there")


def _add_common(sp, extras: str, panel_help: str | None = None):
    # the options of every data command, plus any of panel, mode, kappa and
    # params (the four parameter lists) named in ``extras``
    extras = extras.split()
    sp.add_argument("--config", help="JSON scenario file")
    sp.add_argument("--out", help="output CSV path")
    if "panel" in extras:
        sp.add_argument("--panel", choices=["a", "b", "c"], required=True,
                        help=panel_help)
    if "mode" in extras:
        sp.add_argument("--mode", choices=list(MODES), default=None)
    sp.add_argument("--method", choices=list(METHOD_ALIASES), default=None)
    if "kappa" in extras:
        sp.add_argument("--kappa", choices=list(KAPPA_SOURCES), default=None)
    sp.add_argument("--tau-max", type=float, default=None)
    sp.add_argument("--tau-steps", type=int, default=None)
    sp.add_argument("--beta", type=float, help="omit for the low-T limit")
    sp.add_argument("--jobs", type=int, default=None)
    if "params" in extras:
        for name in ("r", "j0", "delta", "omega"):
            sp.add_argument(f"--{name}", type=_float_list,
                            help=f"comma-separated {name} values")


# data command -> (its function, help, the extra options it takes)
DATA_COMMANDS = {
    "coefficients": (cmd_coefficients, "channel coefficient tables", "params"),
    "evolve": (cmd_evolve, "covariance-matrix evolution tables", "mode params"),
    "fig1": (cmd_fig1, "secular-validity comparison recipe", "panel"),
    "fig2": (cmd_fig2, "negativity-dynamics recipe", "panel mode kappa"),
    "sweep": (cmd_sweep, "general parameter-product sweep", "mode kappa params"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandgauss",
        description="Gaussian-state propagation in band-limited environments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, extras) in DATA_COMMANDS.items():
        _add_common(sub.add_parser(name, help=help_text), extras,
                    _fig2_panel_help() if name == "fig2" else None)
    sp = sub.add_parser("verify", help="run the oracle cross-check table")
    sp.add_argument("--out", help="also write the table as CSV")
    sp.add_argument("--tol-scale", type=float, default=1.0,
                    help="scale factor on every tolerance (0 fails all rows)")
    # a token starting with "-" is a value where argparse's matcher accepts
    # it: by default a plain decimal only, here "-inf", "-1e3", "-1,2" too
    for sp in sub.choices.values():
        sp._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)
    return parser


def main(argv=None) -> int:
    if argv is None:
        # a run of the console script: the interpreter's exit then skips a
        # cyclic-GC pass over everything imported so far, numpy included
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.out, args.tol_scale)
        # the config keys, overridden by each option given (its dest is the
        # name of the field it sets)
        keys = read_config(args.config) if args.config else {}
        for f in fields(SweepScenario):
            if getattr(args, f.name, None) is not None:
                keys[f.name] = getattr(args, f.name)
        scenario = SweepScenario(**keys)
        if not scenario.out:
            raise UsageError("out: required (use --out or the config file)")
        panel = (args.panel,) if "panel" in args else ()
        return DATA_COMMANDS[args.command][0](scenario, *panel)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
