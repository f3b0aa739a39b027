"""The README's library sketch and the names the package root exports."""

import re
from pathlib import Path

import xft

_README = Path(__file__).resolve().parents[1] / "README.md"


def _library_sketch() -> str:
    section = _README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs():
    namespace = {}
    exec(_library_sketch(), namespace)
    res = namespace["res"]
    assert res.values.shape == res.abscissae.shape == (512,)


def test_star_import_gives_exactly_the_exports():
    namespace = {}
    exec("from xft import *", namespace)  # raises if a name in __all__ does not resolve
    assert set(namespace) - {"__builtins__"} == set(xft.__all__)
