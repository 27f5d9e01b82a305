"""The library's runtime dependencies are the standard library alone."""

import ast
import sys
from pathlib import Path

import ppavlab

SRC = Path(ppavlab.__file__).resolve().parent


def test_every_library_import_is_relative_or_stdlib():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.extend(f"{path.name}:{node.lineno} {name}" for name in names
                           if name.split(".")[0] not in sys.stdlib_module_names)
    assert outside == []
