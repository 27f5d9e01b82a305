"""Every name `ppavlab` exports, and every function, class and method of
the library, has a caller inside the library.

A name that only its own tests call is dead API: it is either wired into a
check or deleted.  The few members kept for another reason are listed with
that reason.
"""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

import ppavlab

SRC = Path(ppavlab.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _references(tree):
    """(name, the top-level definition it sits in) of each name read or attribute."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def test_every_export_has_a_library_caller():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used.update(name for name, owner in _references(ast.parse(path.read_text()))
                        if name != owner)
    assert sorted(set(ppavlab.__all__) - used) == []


MEMBERS_KEPT_WITHOUT_REFERENCE = {
    "polarization_to_json": "the serialized format's boundary",
    "polarization_from_json": "the serialized format's boundary",
    "group_to_json": "the serialized format's boundary",
    "group_from_json": "the serialized format's boundary",
    "glued_to_json": "the serialized format's boundary",
    "glued_from_json": "the serialized format's boundary",
    "GlueReport.fixed_dim": "the benchmark's glue digest reads it",
}


def _members(tree):
    """(qualified name, name, first line, last line) of each top-level
    function or class and each non-dunder method."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top.name, top.lineno, top.end_lineno
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not (
                        node.name.startswith("__") and node.name.endswith("__")):
                    yield f"{top.name}.{node.name}", node.name, node.lineno, node.end_lineno


def _traced_methods(monkeypatch):
    """`Class.method` of each method `perfbench/tracer.py` wraps by name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    return {f"{cls}.{method}" for classes in tracer.METHODS.values()
            for cls, methods in classes.items() for method in methods}


def test_every_member_is_referenced_in_the_library(monkeypatch):
    """Every module-level function or class and every non-dunder method of
    `src/ppavlab/*.py` (but `__init__.py`) is read by name somewhere outside
    its own definition, or is a method the benchmark tracer wraps by name.

    The check is name-based: a reference is any loaded name or attribute
    with that name, so a member whose name another class also uses (say a
    method `elements`) escapes it.
    """
    members, references = [], defaultdict(set)  # name -> {(file, line)}
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        members.extend((path.name, *m) for m in _members(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references[node.id].add((path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                references[node.attr].add((path.name, node.lineno))
    unreferenced = {
        qualified for file, qualified, name, first, last in members
        if all(where == file and first <= line <= last for where, line in references[name])
    } - _traced_methods(monkeypatch)
    assert unreferenced <= set(MEMBERS_KEPT_WITHOUT_REFERENCE), sorted(unreferenced)
    assert set(MEMBERS_KEPT_WITHOUT_REFERENCE) <= {m[1] for m in members}


def test_every_classmethod_is_called_through_its_class():
    """Every `classmethod` of a class in `src/ppavlab/*.py` is read as
    `Class.method` somewhere in `src/`.

    The name-based check above cannot see a dead builder whose name another
    class also uses (`RatMatrix.from_rows` beside `IntMatrix.from_rows`).
    """
    builders, references = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                builders.update(
                    f"{top.name}.{node.name}" for node in top.body
                    if isinstance(node, ast.FunctionDef)
                    and any(isinstance(d, ast.Name) and d.id == "classmethod"
                            for d in node.decorator_list))
        references.update(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name))
    assert builders, "no classmethod found"
    assert sorted(builders - references) == []
