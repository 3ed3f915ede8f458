"""Command-line front end.

Subcommands: ``coefficients`` (channel coefficient sweeps), ``evolve``
(covariance-matrix evolution), ``fig1`` (secular-validity comparison recipe),
``fig2`` (negativity-dynamics recipe), ``sweep`` (general parameter product)
and ``verify`` (oracle cross-check table, nonzero exit on failure).

All data output is CSV with a fixed format: 17 significant digits, comma
delimiter, LF line endings, header row first, rows in sorted parameter
order, so identical scenarios produce byte-identical files. Every run also
writes a JSON metadata sidecar (same basename, ``.meta`` suffix) recording
the scenario, the logarithm-base choice and the library version.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from . import __version__
from .coefficients import METHOD_CLOSED, EnvironmentParams, build_trace
from .dynamics import evolve_covariances, make_twb
from .entanglement import (find_last_upcrossing, kappa_full_curve,
                           kappa_secular, state_kappa_curve)
from .errors import DomainError, NumericError, UnsupportedStateError, UsageError
from .oracle import run_verification
from .scenario import (KAPPA_SOURCES, MODES, SweepScenario,
                       apply_overrides, scenario_from_file)
from .spectral import SpectralDensity

FIG1_RS = (0.01, 0.1, 0.3, 0.5, 0.9)
FIG1_PANELS = {
    "a": {"j0": 1.0, "delta": 1e-4, "omega_lo": 1.0},
    "b": {"j0": 1.0, "delta": 1e-3, "omega_lo": 1.0},
    "c": {"j0": 1.0, "delta": 1e-3, "omega_lo": 3.0},
}
FIG2_PANELS = {
    "a": {"r": (0.1, 0.5, 1.0, 2.0, 10.0), "j0_delta": (0.01,), "omega_lo": (1.0,)},
    "b": {"r": (1.0,), "j0_delta": (1e-3, 10.0 ** -2.5, 1e-2, 10.0 ** -1.5, 1e-1),
          "omega_lo": (1.0,)},
    "c": {"r": (1.0,), "j0_delta": (0.01,), "omega_lo": (0.1, 0.5, 1.0, 2.0, 10.0)},
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


def write_meta(out_path: str, command: str, scenario: SweepScenario,
               extra: dict | None = None) -> None:
    meta = {
        "command": command,
        "log_base": "e",
        "version": __version__,
        "scenario": scenario.to_meta(),
    }
    if extra:
        meta.update(extra)
    with open(Path(out_path).with_suffix(".meta"), "w", newline="") as f:
        f.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _require_out(scenario: SweepScenario) -> str:
    if not scenario.out:
        raise UsageError("out: required (use --out or the config file)")
    return scenario.out


def _require_low_t(what: str, scenario: SweepScenario,
                   hint: str = "use sweep for a finite beta") -> None:
    # A finite beta that the computation never reads would still be
    # recorded in the sidecar; refuse it instead.
    if scenario.beta is not None:
        raise UsageError(f"beta: {what} runs at low temperature only; {hint}")


def _require_beta_route(command: str, scenario: SweepScenario) -> None:
    # The closed-form coefficients and the paper kappa are low-temperature
    # expressions; only the quadrature route reads beta.
    if scenario.method == METHOD_CLOSED:
        _require_low_t(f"{command} --method closed", scenario,
                       "use --method quad for a finite beta")
    if command == "sweep" and scenario.kappa == "paper":
        _require_low_t("sweep --kappa paper", scenario,
                       "use --kappa symmetric or oracle with --method quad "
                       "for a finite beta")


def _environment(scenario: SweepScenario, j0: float, delta: float,
                 omega_lo: float) -> EnvironmentParams:
    return EnvironmentParams(SpectralDensity(j0, omega_lo, delta),
                             beta=scenario.beta, low_t=scenario.low_t)


def _negativity_curve(kappa: np.ndarray) -> np.ndarray:
    return np.where(kappa >= 1.0, 0.0,
                    -2.0 * np.log(np.maximum(kappa, 1e-300)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

COEFF_HEADER = ["tau", "j0", "delta", "omega_lo", "gamma", "delta_coef",
                "pi_coef", "r_shift", "gamma_int", "delta_gamma",
                "sec_delta_co", "sec_delta_si", "sec_pi_co", "sec_pi_si",
                "method"]


def cmd_coefficients(scenario: SweepScenario) -> int:
    out = _require_out(scenario)
    _require_beta_route("coefficients", scenario)
    grid = scenario.tau_grid()
    rows = []
    for j0, delta, omega_lo in sorted(product(scenario.j0_values,
                                              scenario.delta_values,
                                              scenario.omega_values)):
        env = _environment(scenario, j0, delta, omega_lo)
        tr = build_trace(env, grid, scenario.method)
        for i, tau in enumerate(grid):
            rows.append([float(tau), j0, delta, omega_lo,
                         float(tr.gamma[i]), float(tr.delta_coef[i]),
                         float(tr.pi_coef[i]), float(tr.r_shift[i]),
                         float(tr.gamma_int[i]), float(tr.delta_gamma[i]),
                         float(tr.sec_delta_co[i]), float(tr.sec_delta_si[i]),
                         float(tr.sec_pi_co[i]), float(tr.sec_pi_si[i]),
                         tr.method])
    write_csv(out, COEFF_HEADER, rows)
    write_meta(out, "coefficients", scenario)
    return 0


EVOLVE_HEADER = ["tau", "r", "j0", "delta", "omega_lo", "mode", "method",
                 "gamma_int", "delta_gamma",
                 "cm_11", "cm_12", "cm_13", "cm_14", "cm_22", "cm_23",
                 "cm_24", "cm_33", "cm_34", "cm_44"]


def cmd_evolve(scenario: SweepScenario) -> int:
    out = _require_out(scenario)
    _require_beta_route("evolve", scenario)
    grid = scenario.tau_grid()
    modes = ("secular", "full") if scenario.mode == "both" else (scenario.mode,)
    env_values = (scenario.j0_values, scenario.delta_values,
                  scenario.omega_values)
    traces = {key: build_trace(_environment(scenario, *key), grid,
                               scenario.method)
              for key in sorted(set(product(*env_values)))}
    upper = (slice(None),) + np.triu_indices(4)
    tau = grid.tolist()
    rows = []
    for r, j0, delta, omega_lo in sorted(product(scenario.r_values,
                                                 *env_values)):
        trace = traces[j0, delta, omega_lo]
        state = make_twb(r)
        for mode in modes:
            cms = evolve_covariances(state, trace,
                                     include_secular=(mode == "full"))
            for t, g_int, d_gamma, cm in zip(tau, trace.gamma_int.tolist(),
                                             trace.delta_gamma.tolist(),
                                             cms[upper].tolist()):
                rows.append([t, r, j0, delta, omega_lo, mode, trace.method,
                             g_int, d_gamma] + cm)
    write_csv(out, EVOLVE_HEADER, rows)
    write_meta(out, "evolve", scenario)
    return 0


FIG1_HEADER = ["panel", "tau", "r", "j0", "delta", "omega_lo",
               "kappa_secular", "kappa_full", "method"]


def _fig1_rows(panel: str, method: str, grid: np.ndarray) -> list[list]:
    params = FIG1_PANELS[panel]
    env = EnvironmentParams(
        SpectralDensity(params["j0"], params["omega_lo"], params["delta"]),
        low_t=True)
    trace = build_trace(env, grid, method)
    tau = grid.tolist()
    rows = []
    for r in FIG1_RS:
        k_sec = kappa_secular(r, params["j0"] * params["delta"],
                              params["omega_lo"], grid)
        k_full = kappa_full_curve(trace, r)
        rows.extend([panel, t, r, params["j0"], params["delta"],
                     params["omega_lo"], ks, kf, method]
                    for t, ks, kf in zip(tau, k_sec.tolist(), k_full.tolist()))
    return rows


def cmd_fig1(panel: str, scenario: SweepScenario) -> int:
    out = _require_out(scenario)
    _require_low_t("fig1", scenario)
    # one environment per panel, hence one trace and nothing for --jobs
    rows = _fig1_rows(panel, scenario.method, scenario.tau_grid())
    write_csv(out, FIG1_HEADER, rows)
    write_meta(out, "fig1", scenario, {"panel": panel})
    return 0


def _environment_curves(payload: dict) -> list[list[list]]:
    """Kappa rows of one environment: for each r of ``payload["r_values"]``,
    the rows of its curves in mode order. The environment's coefficient
    trace is built once and serves every curve."""
    j0, delta, omega_lo = payload["spectral"]
    source, method, grid = payload["kappa"], payload["method"], payload["grid"]
    lead, columns = payload["lead"], payload["columns"]
    trace = None
    if source != "paper":
        env = EnvironmentParams(SpectralDensity(j0, omega_lo, delta),
                                beta=payload["beta"], low_t=payload["low_t"])
        trace = build_trace(env, grid, method)
    tau = grid.tolist()
    curves = []
    for r in payload["r_values"]:
        rows = []
        for mode in payload["modes"]:
            if source == "paper":
                kappa = kappa_secular(r, j0 * delta, omega_lo, grid)
                point_fn = lambda t: kappa_secular(r, j0 * delta, omega_lo, t)
            else:
                kappa = state_kappa_curve(trace, r,
                                          include_secular=(mode == "full"),
                                          source=source)
                spline = CubicSpline(grid, kappa)
                point_fn = lambda t: float(spline(t))
            tags = [r, *columns, source, mode, method]
            rows.extend(["point", *lead, t, *tags, k, e, ""]
                        for t, k, e in zip(tau, kappa.tolist(),
                                           _negativity_curve(kappa).tolist()))
            tau_sd = find_last_upcrossing(grid, kappa, 1.0, point_fn)
            rows.append(["sudden_death", *lead, "", *tags, "", "",
                         "none" if tau_sd is None else float(tau_sd)])
        curves.append(rows)
    return curves


def _kappa_table(scenario: SweepScenario, combos: list[tuple], spectral_of,
                 lead: tuple = ()) -> list[list]:
    """Rows of the kappa curves of ``combos``, in their order.

    Each combo is ``(r, *columns)``: the squeezing and the environment's CSV
    columns, which ``spectral_of`` maps to (j0, delta, omega_lo). Curves are
    computed one environment per payload, so each environment's trace is
    built once and ``--jobs`` runs environments in parallel. The paper
    source has no mode; it gives one curve tagged secular.
    """
    if scenario.kappa == "paper":
        modes = ("secular",)
    elif scenario.mode == "both":
        modes = ("secular", "full")
    else:
        modes = (scenario.mode,)
    r_values = sorted({combo[0] for combo in combos})
    keys = sorted({combo[1:] for combo in combos})
    common = {"beta": scenario.beta, "low_t": scenario.low_t,
              "kappa": scenario.kappa, "method": scenario.method,
              "grid": scenario.tau_grid(), "r_values": r_values,
              "modes": modes, "lead": lead}
    payloads = [dict(common, spectral=spectral_of(key), columns=key)
                for key in keys]
    results = _map_payloads(_environment_curves, payloads, scenario.jobs)
    rows_of = {(r, *key): rows for key, curves in zip(keys, results)
               for r, rows in zip(r_values, curves)}
    return [row for combo in combos for row in rows_of[combo]]


FIG2_HEADER = ["kind", "panel", "tau", "r", "j0_delta", "omega_lo",
               "kappa_source", "mode", "method", "kappa", "e_n", "tau_sd"]


def cmd_fig2(panel: str, scenario: SweepScenario) -> int:
    out = _require_out(scenario)
    _require_low_t("fig2", scenario)
    if scenario.mode == "both":
        raise UsageError("mode: fig2 emits one curve per combination; "
                         "choose secular or full")
    params = FIG2_PANELS[panel]
    combos = sorted(product(params["r"], params["j0_delta"],
                            params["omega_lo"]))
    # kappa depends on j0 and delta only through their product: j0 = 1
    rows = _kappa_table(scenario, combos,
                        lambda key: (1.0, key[0], key[1]), lead=(panel,))
    write_csv(out, FIG2_HEADER, rows)
    write_meta(out, "fig2", scenario, {"panel": panel})
    return 0


SWEEP_HEADER = ["kind", "tau", "r", "j0", "delta", "omega_lo", "kappa_source",
                "mode", "method", "kappa", "e_n", "tau_sd"]


def cmd_sweep(scenario: SweepScenario) -> int:
    out = _require_out(scenario)
    _require_beta_route("sweep", scenario)
    combos = sorted(product(scenario.r_values, scenario.j0_values,
                            scenario.delta_values, scenario.omega_values))
    rows = _kappa_table(scenario, combos, lambda key: key)
    write_csv(out, SWEEP_HEADER, rows)
    write_meta(out, "sweep", scenario)
    return 0


def _map_payloads(worker, payloads, jobs: int):
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, payloads))


VERIFY_HEADER = ["name", "primary", "oracle", "abs_dev", "rel_dev", "tol",
                 "passed"]


def cmd_verify(scenario: SweepScenario, tol_scale: float) -> int:
    reports = run_verification(tol_scale)
    for rep in reports:
        tag = "PASS" if rep.passed else "FAIL"
        print(f"[{tag}] {rep.name}: primary={rep.primary:.12g} "
              f"oracle={rep.oracle:.12g} abs={rep.abs_dev:.3e} "
              f"rel={rep.rel_dev:.3e} tol={rep.tol:g}")
    n_pass = sum(r.passed for r in reports)
    print(f"verification: {n_pass}/{len(reports)} checks passed")
    if scenario.out:
        write_csv(scenario.out, VERIFY_HEADER,
                  [[r.name, r.primary, r.oracle, r.abs_dev, r.rel_dev, r.tol,
                    r.passed] for r in reports])
        write_meta(scenario.out, "verify", scenario,
                   {"tol_scale": tol_scale})
    return 0 if n_pass == len(reports) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _add_common(sp, with_panel=False, with_mode=False, with_kappa=False,
                with_params=False):
    sp.add_argument("--config", help="JSON scenario file")
    sp.add_argument("--out", help="output CSV path")
    if with_panel:
        sp.add_argument("--panel", choices=["a", "b", "c"], required=True)
    if with_mode:
        sp.add_argument("--mode", choices=list(MODES), default=None)
    sp.add_argument("--method", choices=["closed", "quad"], default=None)
    if with_kappa:
        sp.add_argument("--kappa", choices=list(KAPPA_SOURCES), default=None)
    sp.add_argument("--tau-max", type=float, default=None)
    sp.add_argument("--tau-steps", type=int, default=None)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--low-t", action="store_const", const=True, default=None)
    group.add_argument("--beta", type=float, default=None)
    sp.add_argument("--jobs", type=int, default=None)
    if with_params:
        sp.add_argument("--r", type=_float_list, default=None,
                        help="comma-separated squeezing values")
        sp.add_argument("--j0", type=_float_list, default=None)
        sp.add_argument("--delta", type=_float_list, default=None)
        sp.add_argument("--omega", type=_float_list, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandgauss",
        description="Gaussian-state propagation in band-limited environments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coefficients", help="channel coefficient tables")
    _add_common(sp, with_params=True)
    sp = sub.add_parser("evolve", help="covariance-matrix evolution tables")
    _add_common(sp, with_mode=True, with_params=True)
    sp = sub.add_parser("fig1", help="secular-validity comparison recipe")
    _add_common(sp, with_panel=True)
    sp = sub.add_parser("fig2", help="negativity-dynamics recipe")
    _add_common(sp, with_panel=True, with_mode=True, with_kappa=True)
    sp = sub.add_parser("sweep", help="general parameter-product sweep")
    _add_common(sp, with_mode=True, with_kappa=True, with_params=True)
    sp = sub.add_parser("verify", help="run the oracle cross-check table")
    sp.add_argument("--out", help="also write the table as CSV")
    sp.add_argument("--tol-scale", type=float, default=1.0,
                    help="scale factor on every tolerance (0 fails all rows)")
    return parser


def _scenario_from_args(args) -> SweepScenario:
    base = scenario_from_file(args.config) if getattr(args, "config", None) \
        else SweepScenario()
    overrides = {
        "out": getattr(args, "out", None),
        "method": getattr(args, "method", None),
        "tau_stop": getattr(args, "tau_max", None),
        "tau_steps": getattr(args, "tau_steps", None),
        "beta": getattr(args, "beta", None),
        "low_t": getattr(args, "low_t", None),
        "jobs": getattr(args, "jobs", None),
        "mode": getattr(args, "mode", None),
        "kappa": getattr(args, "kappa", None),
        "r_values": getattr(args, "r", None),
        "j0_values": getattr(args, "j0", None),
        "delta_values": getattr(args, "delta", None),
        "omega_values": getattr(args, "omega", None),
    }
    return apply_overrides(base, **overrides).validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            scenario = SweepScenario(out=args.out)
            return cmd_verify(scenario, args.tol_scale)
        scenario = _scenario_from_args(args)
        if args.command == "coefficients":
            return cmd_coefficients(scenario)
        if args.command == "evolve":
            return cmd_evolve(scenario)
        if args.command == "fig1":
            return cmd_fig1(args.panel, scenario)
        if args.command == "fig2":
            return cmd_fig2(args.panel, scenario)
        if args.command == "sweep":
            return cmd_sweep(scenario)
        raise UsageError(f"unknown command {args.command!r}")
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
