"""The README's Python examples run as written, so that a doc naming a
function the package no longer has fails the suite."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
