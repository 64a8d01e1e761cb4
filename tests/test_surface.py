"""The library's modules reach one another through public names only, so the
CLI uses the same streaming readers and writers as any other caller."""

import ast
from pathlib import Path

import mapnet


def test_no_module_imports_another_modules_private_name():
    private = []
    for path in sorted(Path(mapnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
