"""Every name a package module imports is used in that module, only `fsio`
opens or reads files, and only listed functions recurse."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "exlibris").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "from .errors import ExlibrisError\nimport os\n\nos.getcwd()\n"
    assert unused_imports(source) == ["ExlibrisError (line 1)"]


def direct_reads(source: str) -> list[str]:
    """Calls that open or read a file other than through `fsio`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr in ("open", "read_text", "read_bytes")
        ):
            found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "fsio.py"], ids=lambda path: path.name
)
def test_only_fsio_reads_files(path):
    assert direct_reads(path.read_text(encoding="utf-8")) == []


def test_a_direct_read_is_reported():
    source = (
        "from pathlib import Path\nimport shutil\n\n"
        "open('a')\nPath('b').read_text()\nPath('c').read_bytes()\n"
        "read_text('d')\nshutil.copyfile('e', 'f')\n"
    )
    assert direct_reads(source) == ["line 4", "line 5", "line 6"]


# Module-level functions that recurse, directly or through others of their
# module.  Each recursion is one Python frame per level of nesting in its
# input, which a deep enough term turns into a RecursionError, so none is
# allowed.
RECURSIVE: set[str] = set()


def recursive_functions(source: str) -> set[str]:
    """Module-level functions on a cycle of calls by name within the module."""
    tree = ast.parse(source)
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    calls = {
        name: {
            call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id in defs
        }
        for name, node in defs.items()
    }
    found = set()
    for name in defs:
        reached, todo = set(), list(calls[name])
        while todo:
            callee = todo.pop()
            if callee not in reached:
                reached.add(callee)
                todo.extend(calls[callee])
        if name in reached:
            found.add(name)
    return found


def test_only_listed_functions_recurse():
    found = {
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in recursive_functions(path.read_text(encoding="utf-8"))
    }
    assert found == RECURSIVE


def test_a_call_cycle_is_reported():
    source = (
        "def a(x):\n    return [b(y) for y in x]\n\n"
        "def b(x):\n    return a(x)\n\n"
        "def c(x):\n    return c(x - 1) if x else a(x)\n\n"
        "def d(x):\n    return a(x)\n"
    )
    assert recursive_functions(source) == {"a", "b", "c"}
