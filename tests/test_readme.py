"""The README's library quickstart runs against the current API, every
name the package exports resolves, and every flag it names exists."""

import argparse
import re
from pathlib import Path

import bandgauss
from bandgauss.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs_on_the_exported_api():
    section = README.read_text().split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block under 'Library quickstart'"
    exec(compile(block.group(1), str(README), "exec"), {})
    missing = [name for name in bandgauss.__all__
               if not hasattr(bandgauss, name)]
    assert missing == []


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
