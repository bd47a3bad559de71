"""The benchmark's traced run resolves its functions by name in facelaser."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, name) for layer, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("layer, name", _traced_names())
def test_traced_name_resolves(layer, name):
    owner = importlib.import_module(f"facelaser.{layer}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
