"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    """The single python block under '## Library' runs to its end, its own
    assertion included, under the suite's warnings-as-errors filter."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)
    assert len(blocks) == 1, f"{len(blocks)} python blocks under '## Library', expected 1"
    exec(compile(blocks[0], f"{README.name}, ## Library", "exec"), {})
