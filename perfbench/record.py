"""Run the benchmark several times per workload and summarise the runs.

    python3 perfbench/record.py [--first-seed 0] [--write perfbench/baseline.json]

For each workload: ``RUNS`` untraced runs of ``run.py`` of
``run_seconds`` (from BENCHMARK.json) each, with seeds ``first-seed``,
``first-seed + 1``, ..., then one traced run with the default seed.
Prints every end-to-end metric (median, quartiles and the quartile spread
as a share of the median, which BENCHMARK.json bounds) and every per-layer
metric, with units, plus the checks that say why each workload was chosen. ``--write`` stores all of it, with the machine, the
git commit and the sample counts, as the run record of a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import PER_LAYER_UNITS, ROOT, WORK
from workloads import DEFAULT_SEED, WORKLOADS, invocations

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
RUNS = 10


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run of run.py: its JSON result and its record file."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (WORK / "records" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def layer_sums(layers: dict) -> dict:
    """Self time per library module, from the per-layer metrics."""
    return {
        "spectral": layers["spectral.thermal_ms"] + layers["spectral.lowt_ms"],
        "coefficients": layers["coefficients.trace_ms"],
        "dynamics": layers["dynamics.state_ms"] + layers["dynamics.channel_ms"],
        "entanglement": layers["entanglement.kappa_ms"]
        + layers["entanglement.eigensolve_ms"] + layers["entanglement.bisection_ms"],
        "cli": layers["cli.cmd_ms"] + layers["cli.csv_ms"],
    }


def workload_checks(name: str, e2e: dict, layers: dict) -> dict:
    """The measured reasons for choosing each workload."""
    sums = layer_sums(layers)
    launches = len(invocations(name, DEFAULT_SEED))
    import_share = launches * e2e["setup_s"]["median"] / e2e["wall_s"]["median"]
    spectral_idle = sums["spectral"] == 0 and layers["spectral.thermal_nodes"] == 0
    if name == "recipes":
        return {"import_share_of_wall": import_share,
                "import_over_half": import_share > 0.5,
                "spectral_idle": spectral_idle}
    if name == "thermal":
        return {"largest_layer": max(sums, key=sums.get),
                "thermal_share_of_compute": sums["spectral"] / sum(sums.values())}
    return {"spectral_idle": spectral_idle,
            "dyn_ent_cli_ms": sums["dynamics"] + sums["entanglement"] + sums["cli"],
            "coefficients_ms": sums["coefficients"],
            "dyn_ent_cli_exceed_coefficients":
            sums["dynamics"] + sums["entanglement"] + sums["cli"] > sums["coefficients"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    out = {"run_seconds": BENCHMARK["run_seconds"], "bounds": BOUNDS,
           "workloads": {}}
    for name in WORKLOADS:
        seeds = list(range(args.first_seed, args.first_seed + RUNS))
        runs = [bench(name, seed, 0) for seed in seeds]
        traced, traced_record = bench(name, DEFAULT_SEED, 1)
        e2e = {m: spread([r["metrics"][m]["value"] for r, _ in runs])
               for m in BOUNDS}
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        records = [rec for _, rec in runs] + [traced_record]
        summary = {
            "seeds": seeds,
            "samples": {"runs": len(runs),
                        "passes_per_run": [rec["samples"]["passes"] for rec in records[:-1]],
                        "setup_launches_per_run": records[0]["samples"]["setup_launches"]},
            "loadavg_start": [rec["machine"]["loadavg_start"] for rec in records],
            "cpu_probe_s": [rec["cpu_probe_s"] for rec in records],
            "attempted": sum(r["attempted"] for r, _ in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r, _ in runs) + traced["failed"],
            "end_to_end": e2e,
            "per_layer": layers,
            "outputs": traced_record["outputs"],
            "checks": workload_checks(name, e2e, layers),
        }
        out["machine"] = traced_record["machine"]
        out["workloads"][name] = summary

        print(f"{name}: seeds {seeds[0]}..{seeds[-1]}, "
              f"failed {summary['failed']}/{summary['attempted']}")
        for m, s in e2e.items():
            flag = "" if s["spread"] < BOUNDS[m] / 3 else "  <-- spread >= bound/3"
            print(f"  {m:30s} median {s['median']:10.5g}  q1 {s['q1']:10.5g}  "
                  f"q3 {s['q3']:10.5g}  spread {s['spread']:.4f} "
                  f"(bound {BOUNDS[m]}){flag}")
        for k, v in layers.items():
            print(f"  {k:30s} {v:14.6g} {PER_LAYER_UNITS[k]}")
        for k, v in summary["checks"].items():
            print(f"  check {k}: {v}")

    if args.write:
        try:
            out["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            out["commit"] = None
        args.write.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
