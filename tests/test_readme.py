"""The README's library quickstart runs against the current API, every
name the package exports resolves, the package exports exactly what the
quickstart and the acceptance gate reach, and every flag the README names
exists."""

import argparse
import ast
import inspect
import re
from pathlib import Path

import bandgauss
from bandgauss import errors
from bandgauss.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# what the quickstart and the acceptance gate take or return
SURFACE_TYPES = {"CoefficientTrace", "TwbSpec", "TwoModeGaussianState",
                 "OracleReport"}


def quickstart():
    section = README.read_text().split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block under 'Library quickstart'"
    return block.group(1)


def imported_from_bandgauss(source: str) -> set:
    # the library names a module imports, the command line's entry aside
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "bandgauss"
            and node.module != "bandgauss.cli"
            for alias in node.names}


def test_quickstart_runs_on_the_exported_api():
    exec(compile(quickstart(), str(README), "exec"), {})
    missing = [name for name in bandgauss.__all__
               if not hasattr(bandgauss, name)]
    assert missing == []


def test_exports_are_what_the_quickstart_and_the_gate_reach():
    # the public surface cannot regrow unnoticed: a name joins __all__ only
    # when the quickstart or the acceptance gate uses it
    error_classes = {name for name, obj in vars(errors).items()
                     if inspect.isclass(obj) and issubclass(obj, Exception)}
    want = (imported_from_bandgauss(quickstart())
            | imported_from_bandgauss(ACCEPTANCE.read_text())
            | SURFACE_TYPES | error_classes | {"__version__"})
    assert len(bandgauss.__all__) == len(set(bandgauss.__all__))
    assert sorted(bandgauss.__all__) == sorted(want)


def test_command_line_flags_exist():
    # every --flag the README's command-line section names is an option of
    # some subcommand, so the docs cannot drift from the parser
    section = README.read_text().split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {flag for sp in subparsers.choices.values()
               for flag in sp._option_string_actions}
    assert named, "no --flag found under 'Command line'"
    assert sorted(named - options) == []
