"""Every name `ppavlab` exports has a caller inside the library.

An exported name that only its own tests call is dead API: it is either
wired into a check or deleted.  The few names kept for another reason are
listed with that reason.
"""

import ast
from pathlib import Path

import ppavlab

SRC = Path(ppavlab.__file__).resolve().parent

KEPT_WITHOUT_CALLER = {
    "weil_pairing": "the checked reference pairing the tests compare against",
    "CoverDatum": "ROADMAP item 7 decides it",
    "ramification_realizable": "ROADMAP item 7 decides it",
}


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
    assert set(ppavlab.__all__) - used == set(KEPT_WITHOUT_CALLER)
