"""The library's modules reach one another through public names only, so the
CLI uses the same streaming readers and writers as any other caller, and
each public function has a caller outside the tests.  The package lists each
public name once and loads its module on first use."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mapnet

ROOT = Path(__file__).resolve().parents[1]


def test_no_module_imports_another_modules_private_name():
    private = []
    for path in sorted(Path(mapnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def _names_used(tree) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_function_has_a_caller_outside_the_tests():
    # a caller is another library module, the README's Python code or a function the
    # benchmark's traced run wraps; the package's __init__ only re-exports
    used = {path.stem: _names_used(ast.parse(path.read_text(encoding="utf-8")))
            for path in Path(mapnet.__file__).parent.glob("*.py") if path.name != "__init__.py"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = _names_used(ast.parse("".join(re.findall(r"```python\n(.*?)```", readme, re.S))))
    trace_boot = ast.parse((ROOT / "perfbench" / "trace_boot.py").read_text(encoding="utf-8"))
    entries = next(node.value.elts for node in trace_boot.body if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "WRAPPED")
    wrapped = {entry.elts[1].value for entry in entries}
    uncalled = []
    for name in mapnet.__all__:
        fn = getattr(mapnet, name)
        if not inspect.isfunction(fn):
            continue
        home = fn.__module__.rsplit(".", 1)[1]
        if not (name in examples or name in wrapped
                or any(name in names for module, names in used.items() if module != home)):
            uncalled.append(name)
    assert uncalled == []


@pytest.mark.parametrize("probe", ["True", "set(mapnet.__all__) <= set(dir(mapnet))",
                                   "not hasattr(mapnet, 'no_such_name')"],
                         ids=["import", "dir", "unknown name"])
def test_the_package_import_loads_no_module(probe):
    # so the CLI can set the BLAS thread count before numpy loads
    code = (f"import sys, mapnet\nassert {probe}\n"
            "print([name for name in sys.modules if name == 'numpy' or name.startswith('mapnet.')])")
    src = str(Path(mapnet.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert proc.stdout == "[]\n"


def test_each_public_name_is_defined_in_the_module_its_table_names():
    for name in mapnet.__all__:
        home = importlib.import_module(f"mapnet.{mapnet._HOME[name]}")
        assert getattr(mapnet, name) is getattr(home, name)
        assert getattr(mapnet, name).__module__ == home.__name__
