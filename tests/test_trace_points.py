"""What the benchmark reads of the package still exists under its name.

``benchmark/spans.py`` looks each ``(module, attribute)`` of ``TRACED`` up
with ``getattr`` (plus ``train.Adam.step``), so a renamed or deleted
function would break every ``--trace 1`` benchmark run. ``benchmark/workloads.py``
reads module attributes and calls ``model.qconv2d`` with its own arguments,
so a renamed function or a dropped parameter would break every run.
"""

import ast
import importlib
import importlib.util
import inspect
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


# ---------------------------------------------------------------------------
# what benchmark/workloads.py reads of the package

WORKLOADS = os.path.join(os.path.dirname(SPANS), "workloads.py")


def _workloads_tree():
    with open(WORKLOADS) as f:
        return ast.parse(f.read())


def _lcdet_modules(tree) -> set:
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "lcdet"
            for alias in node.names}


def _module_attribute(node, modules):
    """``(module, attribute)`` when ``node`` reads an attribute of an lcdet module."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules):
        return node.value.id, node.attr
    return None


def _attribute_reads():
    tree = _workloads_tree()
    modules = _lcdet_modules(tree)
    return sorted({read for node in ast.walk(tree) if (read := _module_attribute(node, modules))})


def test_workloads_read_the_package():
    assert ("model", "qconv2d") in _attribute_reads()


@pytest.mark.parametrize("module, attribute", _attribute_reads())
def test_workloads_attribute_exists(module, attribute):
    assert hasattr(importlib.import_module(f"lcdet.{module}"), attribute)


def test_workloads_calls_through_saved_functions_still_bind():
    """``record_quantized_layers`` saves ``model.qconv2d`` and ``model.qmaxpool2d``
    and calls them with its own arguments; the package's signatures must take them."""
    tree = _workloads_tree()
    modules = _lcdet_modules(tree)
    saved = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for name, value in zip(getattr(node.targets[0], "elts", []), node.value.elts):
                if read := _module_attribute(value, modules):
                    saved[name.id] = getattr(importlib.import_module(f"lcdet.{read[0]}"), read[1])
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in saved]
    assert "qconv2d" in {saved[call.func.id].__name__ for call in calls}
    for call in calls:
        inspect.signature(saved[call.func.id]).bind(
            *[None] * len(call.args), **{kw.arg: None for kw in call.keywords})
