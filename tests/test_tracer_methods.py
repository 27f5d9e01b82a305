"""The benchmark reaches into the library by name; those names must exist.

`perfbench/tracer.py` looks each `(module, class, method)` of its `METHODS`
table up in the class `__dict__` when it installs, and `perfbench/child.py`
reads `rational_rep.cache_info` before every pass.  A deleted method or a
dropped cache would make benchmark runs crash, so these tests fail first.
They import the tracer without installing it.
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


def test_rational_rep_keeps_its_cache():
    from ppavlab import tori

    assert callable(getattr(tori.rational_rep, "cache_info", None))
