"""README.md's Python examples, run as written, so that the documented API cannot rot unnoticed."""

import re
from pathlib import Path


def test_readme_python_examples_run():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.S | re.M)
    assert blocks, "README.md has no python example"
    for block in blocks:  # each in a fresh namespace
        exec(compile(block, str(readme), "exec"), {})
