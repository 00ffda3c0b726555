"""The documentation's code runs as written.

README's ``python`` example prints what its comments say, and every
``martkit`` module's doctests pass.
"""

import contextlib
import doctest
import importlib
import io
import pkgutil
import re
from pathlib import Path

import martkit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_example_prints_what_its_comments_state():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["MartingaleClass.MARTINGALE", "(None, None, None, None)"]
    assert len(lines) == 3  # and the per-atom upcrossing counts


def test_every_module_doctest_passes():
    attempted = {}
    for module in pkgutil.iter_modules(martkit.__path__):
        result = doctest.testmod(importlib.import_module(f"martkit.{module.name}"))
        assert result.failed == 0, module.name
        attempted[module.name] = result.attempted
    assert attempted["measure"] >= 4
