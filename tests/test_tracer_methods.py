"""The benchmark's tracer wraps class methods by name; they must all exist.

`perfbench/tracer.py` looks each `(module, class, method)` of its `METHODS`
table up in the class `__dict__` when it installs.  A method deleted from
the library would make a traced benchmark run crash, so this test fails
first.  It imports the tracer without installing it.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_method_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = []
    for layer, classes in tracer.METHODS.items():
        module = importlib.import_module(f"ppavlab.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            missing.extend(f"{layer}.{cls_name}.{m}" for m in methods
                           if m not in cls.__dict__)
    assert missing == []
