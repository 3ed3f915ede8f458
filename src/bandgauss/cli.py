"""Command-line front end.

Subcommands: ``coefficients`` (channel coefficient sweeps), ``evolve``
(covariance-matrix evolution), ``fig1`` (secular-validity comparison recipe),
``fig2`` (negativity-dynamics recipe), ``sweep`` (general parameter product)
and ``verify`` (oracle cross-check table, nonzero exit on failure).

The five data commands share one engine, :func:`_table`: it builds each
distinct environment (j0, delta, omega_lo) of the scenario once, with its
one coefficient trace, runs the command's row function on it (in parallel
under ``--jobs``) and orders the rows. The ``fig1`` and ``fig2`` panels are
presets of the scenario's parameter lists, so their sidecars record the
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
``fig1``, ``fig2`` and the ``paper`` kappa source refuse it here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields, replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import CoefficientTrace, EnvironmentParams, build_trace
from .dynamics import evolve_covariances, make_twb
from .entanglement import (find_last_upcrossing, kappa_full_curve,
                           kappa_secular, negativity, state_kappa_curve)
from .errors import DomainError, NumericError, UnsupportedStateError, UsageError
from .oracle import run_verification
from .scenario import (KAPPA_SOURCES, MAX_ROWS, MODES, SweepScenario,
                       apply_overrides, scenario_from_file)
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


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write(out: str, header: list[str], rows, **meta) -> int:
    """Write the CSV and its ``.meta`` sidecar; return the exit code 0."""
    write_csv(out, header, rows)
    meta = {"log_base": "e", "version": __version__, **meta}
    with open(Path(out).with_suffix(".meta"), "w", newline="") as f:
        f.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return 0


def _require_low_t(what: str, scenario: SweepScenario,
                   hint: str = "use sweep for a finite beta") -> None:
    # A finite beta that the computation never reads would still be
    # recorded in the sidecar; refuse it instead.
    if scenario.beta is not None:
        raise UsageError(f"beta: {what} runs at low temperature only; {hint}")


# ---------------------------------------------------------------------------
# the per-environment engine
# ---------------------------------------------------------------------------

def _environment(scenario: SweepScenario, key: tuple) -> EnvironmentParams:
    j0, delta, omega_lo = key
    return EnvironmentParams(SpectralDensity(j0, omega_lo, delta),
                             scenario.beta)


def _trace(scenario: SweepScenario, key: tuple) -> CoefficientTrace:
    # the one call of build_trace: a row function makes it once per
    # environment, and only if it reads the channel
    return build_trace(_environment(scenario, key), scenario.tau_grid(),
                       scenario.method)


def _modes(scenario: SweepScenario) -> tuple:
    return ("secular", "full") if scenario.mode == "both" else (scenario.mode,)


def _map_payloads(worker, payloads, jobs: int):
    # the pool forks all its workers up front: no more than payloads or CPUs
    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads))


def _table(scenario: SweepScenario, rows_of, by_r: bool = True) -> list[list]:
    """Rows of every parameter combination of ``scenario``, sorted.

    ``rows_of(scenario, key)`` gives the rows of one environment ``key =
    (j0, delta, omega_lo)``; with ``by_r`` it gives a dict from each
    squeezing value to its rows. It runs once per distinct environment, and
    ``--jobs`` runs environments in parallel. Repeated parameter values
    repeat their rows. Over ``MAX_ROWS`` rows, it refuses before any work.
    """
    keys = sorted(product(scenario.j0, scenario.delta, scenario.omega))
    curves = len(keys) * (len(scenario.r) * len(_modes(scenario))
                          if by_r else 1)
    if scenario.tau_steps * curves > MAX_ROWS:
        raise UsageError(f"tau_steps: {scenario.tau_steps} x {curves} "
                         f"curve(s) exceeds the ceiling of {MAX_ROWS} rows")
    distinct = sorted(set(keys))
    results = _map_payloads(partial(rows_of, scenario), distinct,
                            scenario.jobs)
    rows_at = dict(zip(distinct, results))
    if not by_r:
        return [row for key in keys for row in rows_at[key]]
    return [row for r in sorted(scenario.r) for key in keys
            for row in rows_at[key][r]]


# ---------------------------------------------------------------------------
# subcommands: a row function and a header each
# ---------------------------------------------------------------------------

COEFF_HEADER = ["tau", "j0", "delta", "omega_lo", "gamma", "delta_coef",
                "pi_coef", "r_shift", "gamma_int", "delta_gamma",
                "sec_delta_co", "sec_delta_si", "sec_pi_co", "sec_pi_si",
                "method"]


def _coefficient_rows(scenario: SweepScenario, key: tuple) -> list[list]:
    tr = _trace(scenario, key)
    columns = (tr.tau_grid, tr.gamma, tr.delta_coef, tr.pi_coef, tr.r_shift,
               tr.gamma_int, tr.delta_gamma, *tr.secular)
    return [[t, *key, *values, tr.method]
            for t, *values in zip(*(c.tolist() for c in columns))]


def cmd_coefficients(scenario: SweepScenario) -> int:
    return _write(scenario.out, COEFF_HEADER,
                  _table(scenario, _coefficient_rows, by_r=False),
                  command="coefficients", scenario=asdict(scenario))


EVOLVE_HEADER = ["tau", "r", "j0", "delta", "omega_lo", "mode", "method",
                 "gamma_int", "delta_gamma",
                 "cm_11", "cm_12", "cm_13", "cm_14", "cm_22", "cm_23",
                 "cm_24", "cm_33", "cm_34", "cm_44"]


def _evolve_rows(scenario: SweepScenario, key: tuple) -> dict:
    trace = _trace(scenario, key)
    upper = (slice(None),) + np.triu_indices(4)
    lead = (trace.tau_grid.tolist(), trace.gamma_int.tolist(),
            trace.delta_gamma.tolist())
    rows_at = {}
    for r in sorted(set(scenario.r)):
        state = make_twb(r)
        rows = rows_at[r] = []
        for mode in _modes(scenario):
            cms = evolve_covariances(state, trace,
                                     include_secular=(mode == "full"))
            rows.extend([t, r, *key, mode, trace.method, g_int, d_gamma] + cm
                        for t, g_int, d_gamma, cm
                        in zip(*lead, cms[upper].tolist()))
    return rows_at


def cmd_evolve(scenario: SweepScenario) -> int:
    return _write(scenario.out, EVOLVE_HEADER, _table(scenario, _evolve_rows),
                  command="evolve", scenario=asdict(scenario))


FIG1_HEADER = ["panel", "tau", "r", "j0", "delta", "omega_lo",
               "kappa_secular", "kappa_full", "method"]


def _fig1_rows(scenario: SweepScenario, key: tuple) -> dict:
    j0, delta, omega_lo = key
    trace = _trace(scenario, key)
    tau = trace.tau_grid.tolist()
    rows_at = {}
    for r in sorted(set(scenario.r)):
        k_sec = kappa_secular(r, j0 * delta, omega_lo, trace.tau_grid).tolist()
        k_full = kappa_full_curve(trace, r).tolist()
        rows_at[r] = [[t, r, *key, ks, kf, scenario.method]
                      for t, ks, kf in zip(tau, k_sec, k_full)]
    return rows_at


def cmd_fig1(scenario: SweepScenario, panel: str) -> int:
    _require_low_t("fig1", scenario)
    scenario = replace(scenario, **FIG1_PANELS[panel]).validate()
    rows = ([panel, *row] for row in _table(scenario, _fig1_rows))
    return _write(scenario.out, FIG1_HEADER, rows, command="fig1",
                  scenario=asdict(scenario), panel=panel)


SWEEP_HEADER = ["kind", "tau", "r", "j0", "delta", "omega_lo", "kappa_source",
                "mode", "method", "kappa", "e_n", "tau_sd"]


def _kappa_rows(scenario: SweepScenario, key: tuple) -> dict:
    """Kappa curves of one environment: per r and mode, the point rows and
    a sudden_death row. The paper source reads no trace and has no mode;
    it gives one curve tagged secular."""
    j0, delta, omega_lo = key
    source, grid = scenario.kappa, scenario.tau_grid()
    paper = source == "paper"
    trace = None if paper else _trace(scenario, key)
    rows_at = {}
    for r in sorted(set(scenario.r)):
        rows = rows_at[r] = []
        for mode in ("secular",) if paper else _modes(scenario):
            if paper:
                kappa = kappa_secular(r, j0 * delta, omega_lo, grid)
                point_fn = lambda t: kappa_secular(r, j0 * delta, omega_lo, t)
            else:
                kappa = state_kappa_curve(trace, r, mode == "full", source)
                point_fn = None
            tags = [r, *key, source, mode, scenario.method]
            rows.extend(["point", t, *tags, k, e, ""]
                        for t, k, e in zip(grid.tolist(), kappa.tolist(),
                                           negativity(kappa).tolist()))
            tau_sd = find_last_upcrossing(grid, kappa, 1.0, point_fn)
            rows.append(["sudden_death", "", *tags, "", "",
                         "none" if tau_sd is None else float(tau_sd)])
    return rows_at


def cmd_sweep(scenario: SweepScenario) -> int:
    if scenario.kappa == "paper":  # kappa_secular takes no environment
        _require_low_t("sweep --kappa paper", scenario,
                       "use --kappa symmetric or oracle with --method quad "
                       "for a finite beta")
    return _write(scenario.out, SWEEP_HEADER, _table(scenario, _kappa_rows),
                  command="sweep", scenario=asdict(scenario))


FIG2_HEADER = ["kind", "panel", "tau", "r", "j0_delta", "omega_lo",
               "kappa_source", "mode", "method", "kappa", "e_n", "tau_sd"]


def cmd_fig2(scenario: SweepScenario, panel: str) -> int:
    _require_low_t("fig2", scenario)
    if scenario.mode == "both":
        raise UsageError("mode: fig2 emits one curve per combination; "
                         "choose secular or full")
    scenario = replace(scenario, **FIG2_PANELS[panel]).validate()
    # the sweep rows with the panel for j0 = 1: delta is then j0_delta
    rows = ([kind, panel, tau, r, *rest]
            for kind, tau, r, _, *rest in _table(scenario, _kappa_rows))
    return _write(scenario.out, FIG2_HEADER, rows, command="fig2",
                  scenario=asdict(scenario), panel=panel)


VERIFY_HEADER = ["name", "primary", "oracle", "abs_dev", "rel_dev", "tol",
                 "passed"]


def cmd_verify(out: str | None, tol_scale: float) -> int:
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


def _add_common(sp, extras: str):
    # the options of every data command, plus any of panel, mode, kappa and
    # params (the four parameter lists) named in ``extras``
    extras = extras.split()
    sp.add_argument("--config", help="JSON scenario file")
    sp.add_argument("--out", help="output CSV path")
    if "panel" in extras:
        sp.add_argument("--panel", choices=["a", "b", "c"], required=True)
    if "mode" in extras:
        sp.add_argument("--mode", choices=list(MODES), default=None)
    sp.add_argument("--method", choices=["closed", "quad"], default=None)
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
        _add_common(sub.add_parser(name, help=help_text), extras)
    sp = sub.add_parser("verify", help="run the oracle cross-check table")
    sp.add_argument("--out", help="also write the table as CSV")
    sp.add_argument("--tol-scale", type=float, default=1.0,
                    help="scale factor on every tolerance (0 fails all rows)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.out, args.tol_scale)
        base = scenario_from_file(args.config) if args.config else SweepScenario()
        # an option's dest is the name of the field it sets
        scenario = apply_overrides(base, **{
            f.name: getattr(args, f.name, None)
            for f in fields(SweepScenario)}).validate()
        if not scenario.out:
            raise UsageError("out: required (use --out or the config file)")
        panel = (args.panel,) if "panel" in args else ()
        return DATA_COMMANDS[args.command][0](scenario, *panel)
    except (UsageError, UnsupportedStateError) as exc:
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
