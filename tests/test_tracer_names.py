"""The benchmark's names for package functions against the package."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import xft
from xft.signals import PARAM_NAMES

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACER = _PERFBENCH / "tracer.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _load_layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_traced_name_is_a_function(layer):
    # a deleted or renamed function would otherwise only break the traced run
    module = importlib.import_module(f"xft.{layer}")
    for name in LAYERS[layer]:
        assert callable(getattr(module, name, None)), f"xft.{layer}.{name}"


def _root_reads():
    """Every xft.<name> that perfbench's workloads and worker read, submodules aside."""
    submodules = {m.name for m in pkgutil.iter_modules(xft.__path__)}
    names = set()
    for file in ("workloads.py", "worker.py"):
        tree = ast.parse((_PERFBENCH / file).read_text(encoding="utf-8"))
        names.update(node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "xft")
    return names - submodules


def test_every_benchmark_root_name_exists():
    # a trimmed package root would otherwise only break the benchmark run
    names = _root_reads()
    assert names, "no xft.<name> reads found in perfbench"
    assert sorted(n for n in names if not hasattr(xft, n)) == []


def _text(node):
    """The string a list element spells, up to the first field of an f-string."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _signal_params():
    """(signal, key) of every --param of a --signal run in perfbench's CLI workloads."""
    tree = ast.parse((_PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    pairs = set()
    for node in ast.walk(tree):
        args = [_text(e) for e in node.elts] if isinstance(node, ast.List) else []
        if "--signal" in args:
            signal = args[args.index("--signal") + 1]
            pairs.update((signal, a.partition("=")[0])
                         for prev, a in zip(args, args[1:]) if prev == "--param")
    return pairs


def test_every_benchmark_signal_parameter_is_accepted():
    # a parameter its signal does not take fails the CLI run with exit 1, which
    # would otherwise show only when the benchmark runs
    pairs = _signal_params()
    assert {key for _, key in pairs} == {"b", "omega0", "beta"}
    assert sorted(p for p in pairs if p[1] not in PARAM_NAMES[p[0]]) == []
