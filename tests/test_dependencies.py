"""octcyst depends on numpy and the standard library, nothing else."""

import ast
import sys
from pathlib import Path

import octcyst

_ALLOWED = {"numpy", "octcyst"}


def test_every_absolute_import_is_stdlib_numpy_or_octcyst():
    root = Path(octcyst.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    stray = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in _ALLOWED:
                    stray.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    assert stray == []
