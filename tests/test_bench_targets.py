"""The benchmark's per-layer spans wrap public rwspn functions by name
(``perfbench/spans.py``); the metrics of a renamed or deleted target read
zero, so every name it lists must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer,names", sorted(_targets().items()))
def test_wrap_targets_are_callable(layer, names):
    module = importlib.import_module(f"rwspn.{layer}")
    absent = [name for name in names if not callable(getattr(module, name, None))]
    assert absent == []
