"""The README's library example runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.slow
@pytest.mark.filterwarnings("error")
def test_library_example_runs():
    block = re.search(r"^## Library\n+```python\n(.*?)^```", README.read_text(),
                      re.M | re.S)
    assert block, "no python block under '## Library' in README.md"
    exec(compile(block.group(1), str(README), "exec"), {})
