"""The benchmark tracer's function names against the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
