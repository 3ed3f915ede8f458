"""Write the default-seed reference CSVs that ``check.py`` compares with.

    python3 perfbench/make_reference.py

Run once per baseline commit, from the root of a checkout: one pass of
every workload with seed ``DEFAULT_SEED``, gzipped (with a fixed header
timestamp) into ``perfbench/reference/<workload>/<name>.csv.gz``.
"""

from __future__ import annotations

import gzip
import shutil
import sys

from check import reference_path
from run import ENTRY, WORK, cli_args, launch
from workloads import DEFAULT_SEED, WORKLOADS, invocations


def main() -> int:
    out_dir = WORK / "reference"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS:
            for inv in invocations(workload, DEFAULT_SEED):
                csv_path = out_dir / f"{inv.name}.csv"
                child = launch([sys.executable, "-c", ENTRY,
                                *cli_args(inv.argv, csv_path)],
                               out_dir / f"{inv.name}.log")
                if child.code != 0:
                    print(f"{workload}/{inv.name}: exit {child.code}",
                          file=sys.stderr)
                    return 1
                target = reference_path(workload, inv.name)
                target.parent.mkdir(parents=True, exist_ok=True)
                with open(target, "wb") as raw, \
                        gzip.GzipFile(fileobj=raw, mode="wb", mtime=0,
                                      filename="") as gz:
                    gz.write(csv_path.read_bytes())
                print(f"wrote {target}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
