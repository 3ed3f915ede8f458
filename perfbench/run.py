"""Benchmark of the bandgauss command line, timed from outside the library.

    python3 perfbench/run.py --workload recipes|thermal|states \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Every CLI invocation runs in a fresh interpreter, started the way the
installed ``bandgauss`` script starts it, so interpreter start and imports
are part of every time.

End-to-end metrics (``--trace 0``; the traced run prints them too):

* ``wall_s``: wall clock of one pass, i.e. the workload's invocations back
  to back (see ``workloads.py``). At least ``MIN_PASSES`` passes run, and
  more while the next one is expected to fit in ``--seconds``; ``wall_s``
  is the sum over the invocations of each one's median wall clock across
  the passes, which keeps a burst of load on a shared machine, hitting one
  invocation of one pass, out of the result.
* ``setup_s``: median wall clock of ``bandgauss --version`` (interpreter
  start plus the full CLI import) over ``SETUP_LAUNCHES`` launches, after
  one untimed launch that fills the bytecode cache.
* ``peak_rss_mb``: median over passes of the largest max-RSS of any child
  of the pass, read per child with ``os.wait4``.

An operation is one CLI invocation: every ``--version`` launch, every
invocation of every pass, and one untimed ``bandgauss verify`` per run. It
fails on a nonzero exit or a failed output check (``check.py``). The last
line of stdout is the JSON result; ``failed / attempted`` is printed above
it as ``failed_ratio``.

Per-layer metrics (``--trace 1``) come from one extra pass in which each
invocation runs under ``tracer.py`` with ``-X importtime``. Times and
counts are summed over the pass, except the ``import.*`` times, which are
the median per launch. Each traced launch follows an untraced launch of
the same invocation, and ``trace.overhead_s`` is the sum over the
invocations of traced minus untraced wall clock; pairing the launches keeps
the drift of a shared machine's speed, which moves over minutes, mostly
out of the difference. The tracer's true cost is below the noise of one
pair (on a 2-vCPU VM two untraced launches of one invocation differ by up
to 0.3 s), so the value is noise-dominated and may be negative: it bounds
the tracer's cost, it does not measure it.

Each run leaves a record (machine, versions, load, sample counts, output
hashes, deviations from the reference and, when traced, each invocation's
spans) in ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from check import check_csv
from workloads import DEFAULT_SEED, WORKLOADS, invocations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"
# What the installed `bandgauss` console script runs.
ENTRY = "import sys; from bandgauss.cli import main; sys.exit(main())"
SETUP_LAUNCHES = 5
# Three, so that the median per invocation drops a burst in one pass
# rather than averaging it in.
MIN_PASSES = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "import.total_ms": "ms", "import.scipy_ms": "ms", "import.numpy_ms": "ms",
    "import.bandgauss_ms": "ms",
    "spectral.thermal_ms": "ms", "spectral.thermal_nodes": "count",
    "spectral.lowt_ms": "ms",
    "coefficients.trace_ms": "ms", "coefficients.trace_calls": "count",
    "coefficients.trace_distinct": "count",
    "coefficients.trace_redundancy": "ratio",
    "dynamics.state_ms": "ms", "dynamics.states_built": "count",
    "dynamics.channel_ms": "ms",
    "entanglement.kappa_ms": "ms", "entanglement.eigensolve_ms": "ms",
    "entanglement.eigensolves": "count", "entanglement.bisection_ms": "ms",
    "cli.cmd_ms": "ms", "cli.csv_ms": "ms", "cli.csv_rows": "count",
    "cli.csv_bytes": "count",
    "trace.overhead_s": "s",
}
# Span names of tracer.py behind each per-layer time.
SPAN_METRICS = {
    "spectral.thermal_ms": "spectral.thermal", "spectral.lowt_ms": "spectral.lowt",
    "coefficients.trace_ms": "coefficients.trace",
    "dynamics.state_ms": "dynamics.state", "dynamics.channel_ms": "dynamics.channel",
    "entanglement.kappa_ms": "entanglement.kappa",
    "entanglement.eigensolve_ms": "entanglement.eigensolve",
    "entanglement.bisection_ms": "entanglement.bisection",
    "cli.cmd_ms": "cli.cmd", "cli.csv_ms": "cli.csv",
}


@dataclass
class Child:
    code: int
    rss_mb: float
    seconds: float
    log: Path


class Operations:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {reason}")


def launch(args: list[str], log: Path) -> Child:
    """Run one child to completion; its stdout and stderr go to ``log``."""
    # Children keep a bytecode cache, as an installed package has one.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=out, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, usage.ru_maxrss / 1024.0, seconds, log)


def cli_args(argv: tuple[str, ...], out: Path) -> list[str]:
    return [*argv, "--out", str(out), "--jobs", "1"]


def run_pass(workload, invs, out_dir: Path, ops: Operations, exact: bool,
             traced: bool = False):
    """One pass; returns its children and the output checks."""
    children = []
    for inv in invs:
        args = cli_args(inv.argv, out_dir / f"{inv.name}.csv")
        if traced:
            cmd = [sys.executable, "-X", "importtime", str(TRACER),
                   str(out_dir / f"{inv.name}.trace.json"), *args]
        else:
            cmd = [sys.executable, "-c", ENTRY, *args]
        children.append(launch(cmd, out_dir / f"{inv.name}.log"))
    checks = {}
    for inv, child in zip(invs, children):
        label = f"{inv.name} (exit {child.code})"
        if child.code != 0:
            ops.add(label, False, _tail(child.log))
            continue
        try:
            res = check_csv(out_dir / f"{inv.name}.csv", workload, inv.name, exact)
        except (OSError, UnicodeDecodeError) as exc:
            ops.add(label, False, str(exc))
            continue
        checks[inv.name] = res
        ops.add(label, res.ok, res.reason)
    return children, checks


def _tail(log: Path, n: int = 3) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return " | ".join(lines[-n:])


def measure_setup(out_dir: Path, ops: Operations) -> list[float]:
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        child = launch([sys.executable, "-c", ENTRY, "--version"],
                       out_dir / "version.log")
        ops.add("--version", child.code == 0, _tail(child.log))
        if i > 0:  # the first launch writes the bytecode cache
            times.append(child.seconds)
    return times


def import_times(log: Path) -> dict:
    """Self import time in ms per top-level package, plus ``total``, from
    the ``-X importtime`` lines of a traced child's output."""
    out = {"total": 0.0}
    for line in log.read_text(errors="replace").splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        ms = int(fields[0]) / 1e3
        package = fields[2].strip().split(".")[0]
        out[package] = out.get(package, 0.0) + ms
        out["total"] += ms
    return out


def read_traces(invs, out_dir: Path) -> dict:
    """The tracer summary of each invocation of a traced pass, by name."""
    return {inv.name: json.loads((out_dir / f"{inv.name}.trace.json").read_text())
            for inv in invs}


def layer_metrics(invs, out_dir: Path, overhead_s: float) -> dict:
    summaries = list(read_traces(invs, out_dir).values())
    imports = [import_times(out_dir / f"{inv.name}.log") for inv in invs]

    def total(key):
        return sum(s[key] for s in summaries)

    def span_ms(span):
        return sum(s["self_ms"].get(span, 0.0) for s in summaries)

    def span_calls(span):
        return sum(s["calls"].get(span, 0) for s in summaries)

    calls, distinct = total("trace_calls"), total("trace_distinct")
    m = {f"import.{pkg}_ms": statistics.median(i.get(pkg, 0.0) for i in imports)
         for pkg in ("total", "scipy", "numpy", "bandgauss")}
    m.update({name: span_ms(span) for name, span in SPAN_METRICS.items()})
    m.update({
        "spectral.thermal_nodes": total("thermal_nodes"),
        "coefficients.trace_calls": calls,
        "coefficients.trace_distinct": distinct,
        "coefficients.trace_redundancy": 1.0 - distinct / calls if calls else 0.0,
        "dynamics.states_built": span_calls("dynamics.state"),
        "entanglement.eigensolves": span_calls("entanglement.eigensolve"),
        "cli.csv_rows": total("csv_rows"),
        "cli.csv_bytes": total("csv_bytes"),
        "trace.overhead_s": overhead_s,
    })
    return {k: m[k] for k in PER_LAYER_UNITS}


def cpu_probe() -> float:
    """Seconds for a fixed pure-Python loop: information only, so a run
    taken while other tenants slowed the machine can be recognised (the
    load average inside a guest does not show them)."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - start


def machine() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        with open("/proc/loadavg") as f:
            load = f.read().split()[:3]
    except OSError:
        load = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "loadavg_start": load,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bandgauss" / "cli.py").is_file():
        print(f"error: no library source at {SRC}; run from the root of a "
              "bandgauss checkout", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine()}
    invs = invocations(args.workload, args.seed)
    # Seeds that leave a workload's inputs as they are (all of `recipes`)
    # are compared with the reference cell by cell.
    exact = invs == invocations(args.workload, DEFAULT_SEED)
    out_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = Operations()
    probes = [cpu_probe()]
    try:
        setup = measure_setup(out_dir, ops)

        passes, peaks = [], []   # per pass: seconds of each invocation
        start = time.perf_counter()
        while True:
            children, checks = run_pass(args.workload, invs, out_dir, ops, exact)
            passes.append([c.seconds for c in children])
            peaks.append(max(c.rss_mb for c in children))
            elapsed = time.perf_counter() - start
            if (len(passes) >= MIN_PASSES and
                    elapsed + statistics.median(map(sum, passes)) > args.seconds):
                break
        probes.append(cpu_probe())

        verify = launch([sys.executable, "-c", ENTRY, "verify"],
                        out_dir / "verify.log")
        ops.add("verify", verify.code == 0, _tail(verify.log))

        e2e = {"wall_s": sum(map(statistics.median, zip(*passes))),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": statistics.median(peaks)}
        layers = traces = None
        if args.trace:
            overhead_s, failed_before = 0.0, len(ops.failures)
            for inv in invs:
                plain, _ = run_pass(args.workload, [inv], out_dir, ops, exact)
                traced, _ = run_pass(args.workload, [inv], out_dir, ops, exact,
                                     traced=True)
                overhead_s += traced[0].seconds - plain[0].seconds
            if len(ops.failures) == failed_before:
                layers = layer_metrics(invs, out_dir, overhead_s)
                traces = read_traces(invs, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = len(ops.failures)
    record.update({
        "samples": {"setup_launches": len(setup), "passes": len(passes)},
        "cpu_probe_s": probes,
        "setup_s_launches": setup,
        "invocation_s_passes": passes,
        "end_to_end": e2e,
        "per_layer": layers,
        "traces": traces,
        "failed_ratio": failed / ops.attempted,
        "failures": ops.failures,
        "outputs": {name: {"sha256": c.sha256, "max_rel_dev": c.max_rel_dev}
                    for name, c in checks.items()},
    })
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({len(passes)} passes, {len(setup)} setup launches)")
    for name, value in e2e.items():
        print(f"  {name:32s} {value:14.6g} {END_TO_END_UNITS[name]}")
    for name, value in (layers or {}).items():
        print(f"  {name:32s} {value:14.6g} {PER_LAYER_UNITS[name]}")
    print(f"  {'failed_ratio':32s} {failed / ops.attempted:14.6g} "
          f"({failed}/{ops.attempted})")
    for name, c in checks.items():
        dev = "n/a" if c.max_rel_dev is None else f"{c.max_rel_dev:.3g}"
        print(f"  output {name + '.csv':25s} sha256 {c.sha256[:16]}  "
              f"max rel dev {dev}")
    for failure in ops.failures:
        print(f"  FAILED {failure}")

    # A traced pass with a failed child (counted in `failed`) has no layers.
    units, metrics = ((PER_LAYER_UNITS, layers or {}) if args.trace
                      else (END_TO_END_UNITS, e2e))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
