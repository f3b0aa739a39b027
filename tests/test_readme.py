"""The README's library sketch, its reproduction numbers, its CLI usage block, its size and
the names the package root exports."""

import argparse
import re
import shlex
from decimal import Decimal
from pathlib import Path

import pytest

import xft
from xft.cli import build_parser, main, rect_peaks

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


def _reproductions():
    """{number: (xft command lines, comment text)} of the README reproduction block."""
    section = _README.read_text(encoding="utf-8").split("## Reproduction commands", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    entries = {}
    for chunk in re.split(r"^(?=# \d+\. )", block, flags=re.M)[1:]:
        lines = [ln.strip() for ln in chunk.splitlines()]
        number = int(re.match(r"# (\d+)\.", lines[0]).group(1))
        comment = " ".join(ln.lstrip("# ") for ln in lines if ln.startswith("#"))
        entries[number] = ([ln for ln in lines if ln.startswith("xft ")], comment)
    return entries


REPRODUCTIONS = _reproductions()

# "key ~ value", where "(machine floor)" after the value means "below 1e-12"
_QUOTED = re.compile(r"(\w+) ~ (\d[\d.]*(?:e-?\d+)?)( \(machine floor\))?")


def _half_unit(text: str) -> float:
    """Half a unit in the last quoted digit of text."""
    return 0.5 * 10.0 ** Decimal(text).as_tuple().exponent


def test_reproduction_block_numbers_eight_commands():
    assert sorted(REPRODUCTIONS) == list(range(1, 9))


@pytest.mark.parametrize("number", range(1, 8))
def test_reproduction_prints_the_quoted_summary(number, tmp_path):
    (command,), comment = REPRODUCTIONS[number]
    quoted = _QUOTED.findall(comment)
    assert quoted, f"no 'key ~ value' in the comment of command {number}"
    out = tmp_path / "out.csv"
    assert main(shlex.split(command)[1:] + ["--out", str(out)]) == 0
    tail = out.read_text(encoding="utf-8").splitlines()[-1]
    summary = dict(token.split("=") for token in tail.removeprefix("# summary ").split())
    for key, text, floor in quoted:
        value = float(summary[key])
        if floor:
            assert value < 1e-12, key
        else:
            assert abs(value - float(text)) <= _half_unit(text), (key, value, text)


def test_reproduction_rect_peaks():
    _, comment = REPRODUCTIONS[8]
    quoted = re.search(r"grows (\d[\d., ]*\d)", comment).group(1).split(", ")
    peaks = rect_peaks()
    assert len(quoted) == len(peaks)
    for text, peak in zip(quoted, peaks):
        assert abs(peak - float(text)) <= _half_unit(text), (peak, text)


def test_readme_stays_under_its_byte_budget():
    # mechanism lives in the docstrings of the code that implements it, not here as a second copy
    assert len(_README.read_bytes()) < 14_000


def test_usage_block_names_every_option_of_each_subcommand():
    section = _README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    usage = {}
    for line in re.search(r"```\n(.*?)```", section, re.S).group(1).splitlines():
        if line.startswith("xft "):
            command = line.split()[1]
        usage.setdefault(command, set()).update(re.findall(r"--[\w-]+", line))
        if "...same flags..." in line:
            usage[command] |= usage["fft"]
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
              for name, p in sub.choices.items()}
    assert usage == parsed
