"""The benchmark's tracer wraps library functions by name from outside the
library (``perfbench/tracer.py``). A refactor that renames one of them, or
changes the parameters the tracer binds, breaks traced benchmark runs
without breaking any other test; these tests make that visible. They read
the tracer's source and do not import or change it."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from bandgauss.coefficients import build_trace
from bandgauss.cli import write_csv
from bandgauss.dynamics import TwoModeGaussianState

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def layer_spans():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYER_SPANS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("LAYER_SPANS not found in perfbench/tracer.py")


@pytest.mark.parametrize("module,name", [
    (module, name) for module, spans in layer_spans().items()
    for name in spans])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"bandgauss.{module}"),
                            name, None))


def test_state_validation_hook_exists():
    assert callable(TwoModeGaussianState.__dict__.get("__post_init__"))


def test_build_trace_keeps_the_bound_parameters():
    # the tracer binds each call and keys it by these arguments
    params = inspect.signature(build_trace).parameters
    assert {"env", "tau_grid", "method", "n_dense"} <= set(params)


def test_write_csv_takes_path_header_rows():
    # the tracer's wrapper takes exactly these three and sizes the file
    assert list(inspect.signature(write_csv).parameters) == [
        "path", "header", "rows"]
