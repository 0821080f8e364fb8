"""Every function the benchmark's tracer wraps still exists under its name.

``benchmark/spans.py`` looks each ``(module, attribute)`` of ``TRACED`` up
with ``getattr`` (plus ``train.Adam.step``), so a renamed or deleted
function would break every ``--trace 1`` benchmark run.
"""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmark", "spans.py")


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, attr) for mod, attr, _, _ in spans.TRACED] + [("train", "Adam.step")]


@pytest.mark.parametrize("module, attribute", _traced())
def test_traced_attribute_exists(module, attribute):
    obj = importlib.import_module(f"lcdet.{module}")
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
