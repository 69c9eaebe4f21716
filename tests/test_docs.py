"""The package docstring's examples and the README's library example run."""

import doctest
import re
from pathlib import Path

import fobw

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_docstring_examples():
    result = doctest.testmod(fobw)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
