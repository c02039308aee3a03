"""The functions the benchmark's tracer wraps must still exist where it looks for them.

The tracer looks each (module, function) of its TRACED table up by name and
silently drops the per-layer metrics of a name that has gone, so a rename in
cskit would thin the traced result without any error. The table is read from
perfbench/tracer.py by path; that file is not changed here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module_name, name, layer", _traced())
def test_traced_function_is_in_its_module(module_name, name, layer):
    assert callable(getattr(importlib.import_module(module_name), name, None))
