"""The benchmark's names for package functions against the package."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import xft

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
