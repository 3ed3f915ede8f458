"""The README's library quickstart runs against the current API, and every
name the package exports resolves."""

import re
from pathlib import Path

import bandgauss

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs_on_the_exported_api():
    section = README.read_text().split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block under 'Library quickstart'"
    exec(compile(block.group(1), str(README), "exec"), {})
    missing = [name for name in bandgauss.__all__
               if not hasattr(bandgauss, name)]
    assert missing == []
