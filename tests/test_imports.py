"""scipy is off the runtime import path: the CLI and every data command run
on numpy alone, and only ``verify`` (its oracle references) imports scipy.
Each check starts a fresh interpreter, since the test process has scipy
loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import bandgauss

SRC = str(Path(bandgauss.__file__).resolve().parents[1])

DATA_RUNS = [
    ["fig1", "--panel", "a", "--tau-steps", "5"],
    ["fig2", "--panel", "c", "--kappa", "symmetric", "--mode", "full",
     "--tau-steps", "5"],
    ["coefficients", "--method", "quad", "--beta", "2", "--tau-steps", "5"],
    ["evolve", "--method", "quad", "--mode", "both", "--tau-steps", "5"],
    ["sweep", "--kappa", "oracle", "--mode", "both", "--tau-steps", "5"],
]

# prints the exit codes and the scipy modules loaded after each stage
PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from bandgauss.cli import main
report = {"import": scipy_modules(), "codes": []}
for argv in json.loads(sys.argv[1]):
    report["codes"].append(main(argv))
report["after"] = scipy_modules()
print(json.dumps(report))
"""


def probe(runs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(runs)],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_data_commands_do_not_import_scipy(tmp_path):
    runs = [argv + ["--out", str(tmp_path / f"{i}.csv")]
            for i, argv in enumerate(DATA_RUNS)]
    report = probe(runs)
    assert report["import"] == []
    assert report["codes"] == [0] * len(runs)
    assert report["after"] == []


def test_verify_imports_scipy_and_passes():
    report = probe([["verify"]])
    assert report["import"] == []
    assert report["codes"] == [0]
    assert "scipy.integrate" in report["after"]
