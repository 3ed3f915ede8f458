"""scipy is off the runtime import path: the CLI and every data command run
on numpy alone, and only ``verify`` (its oracle references) imports scipy
and ``bandgauss.oracle``. Nor does a run in process load the worker pool's
modules. Each check starts a fresh interpreter, since the test process has
these loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

# prints the exit codes (argparse's exit, as from --version, included) and
# the modules of the given packages (scipy by default; a dotted name
# matches its subpackage) loaded after each stage
PROBE = """
import json, sys
runs, packages = json.loads(sys.argv[1]), sys.argv[2:] or ["scipy"]
def loaded():
    return sorted(m for m in sys.modules
                  if any(f"{m}.".startswith(f"{p}.") for p in packages))
from bandgauss.cli import main
report = {"import": loaded(), "codes": []}
for argv in runs:
    try:
        report["codes"].append(main(argv))
    except SystemExit as exc:
        report["codes"].append(exc.code)
report["after"] = loaded()
print(json.dumps(report))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def probe(runs, *packages):
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(runs),
                           *packages],
                          env=_env(), capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_data_commands_do_not_import_scipy(tmp_path):
    runs = [argv + ["--out", str(tmp_path / f"{i}.csv")]
            for i, argv in enumerate(DATA_RUNS)]
    report = probe(runs)
    assert report["import"] == []
    assert report["codes"] == [0] * len(runs)
    assert report["after"] == []


def test_data_commands_do_not_import_numpy_polynomial(tmp_path):
    # the thermal kernel's Gauss-Legendre rule is literals, so no run pays
    # for numpy.polynomial's import or its eigensolve
    runs = [argv + ["--out", str(tmp_path / f"{i}.csv")]
            for i, argv in enumerate(DATA_RUNS)]
    report = probe(runs, "numpy.polynomial")
    assert report["import"] == []
    assert report["codes"] == [0] * len(runs)
    assert report["after"] == []


def test_data_commands_do_not_import_the_oracle(tmp_path):
    runs = [argv + ["--out", str(tmp_path / f"{i}.csv")]
            for i, argv in enumerate(DATA_RUNS)] + [["--version"]]
    report = probe(runs, "bandgauss.oracle")
    assert report["import"] == []
    assert report["codes"] == [0] * len(runs)
    assert report["after"] == []


def test_package_loads_the_oracle_on_first_use():
    code = ("import sys, bandgauss; "
            "assert 'bandgauss.oracle' not in sys.modules; "
            "from bandgauss import *; "
            "from bandgauss.oracle import run_verification as f; "
            "assert run_verification is f and bandgauss.run_verification is f")
    subprocess.run([sys.executable, "-c", code], env=_env(), timeout=300,
                   check=True)


@pytest.mark.parametrize("entry,frozen", [
    # the console script: main reads sys.argv
    ("sys.argv[1:] = args; code = main()", True),
    ("code = main(args)", False)], ids=["console-script", "in-process"])
def test_console_script_freezes_the_heap(tmp_path, entry, frozen):
    # frozen objects are skipped by the collection at interpreter exit
    out = str(tmp_path / "a.csv")
    code = ("import gc, sys; from bandgauss.cli import main; "
            "args = ['fig1', '--panel', 'a', '--tau-steps', '5', "
            f"'--out', {out!r}]; "
            f"{entry}; print(code, gc.get_freeze_count() > 0)")
    done = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=300,
                          check=True)
    assert done.stdout.split() == ["0", str(frozen)]


def test_verify_imports_scipy_and_passes():
    report = probe([["verify"]])
    assert report["import"] == []
    assert report["codes"] == [0]
    assert "scipy.integrate" in report["after"]


def test_verify_without_scipy_names_the_extra(tmp_path):
    # a fresh interpreter where importing scipy fails: verify exits 2
    # before any check runs and writes nothing
    out = tmp_path / "verify.csv"
    code = ("import sys; sys.modules['scipy'] = None; "
            "from bandgauss.cli import main; "
            f"sys.exit(main(['verify', '--out', {str(out)!r}]))")
    done = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "bandgauss[verify]" in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_runs_in_process_load_no_worker_pool(tmp_path):
    # --jobs 1 runs every environment in process: the pool's import, and
    # with it multiprocessing, is left for a run that starts one
    runs = [argv + ["--jobs", "1", "--out", str(tmp_path / f"{i}.csv")]
            for i, argv in enumerate(DATA_RUNS)]
    report = probe(runs, "concurrent", "multiprocessing")
    assert report["import"] == []
    assert report["codes"] == [0] * len(runs)
    assert report["after"] == []
