"""The library's runtime dependencies are the standard library alone."""

import ast
import subprocess
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


def test_importing_the_cli_loads_no_dataclasses_and_no_inspect():
    # the two modules cost about a fifth of the package's cold import; -I
    # keeps site customisations and environment paths out of the child
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import ppavlab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
