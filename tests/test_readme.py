"""The ``python`` code blocks of README.md run as written.

Each block is executed in a fresh namespace, so the library example fails
the suite as soon as an API change leaves it stale.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
