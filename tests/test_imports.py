"""Every name a package module imports is used in that module, and every
private top-level name it defines is read there; every annotated class field
is read somewhere in the package; only `fsio` opens or reads files, and only
listed functions recurse."""

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


def unread_private_names(source: str) -> list[str]:
    """Private top-level functions, classes and constants the module never reads."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{name} (line {line})" for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_reads_every_private_name(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_an_unread_private_name_is_reported():
    source = (
        "def _scan():\n    pass\n\nclass _Hit:\n    pass\n\n"
        "_A, B = 1, 2\n_C: int = 3\n_D = 4\n__all__ = []\n\n"
        "def f():\n    _E = 5\n    return _D\n"
    )
    assert unread_private_names(source) == [
        "_scan (line 1)", "_Hit (line 4)", "_A (line 7)", "_C (line 8)"
    ]


def unread_fields(sources: list[str]) -> list[str]:
    """Annotated class fields, as `Class.field`, that no source reads as an attribute."""
    fields: dict[str, str] = {}
    read: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields[f"{node.name}.{item.target.id}"] = item.target.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [field for field, name in fields.items() if name not in read]


# Fields kept for callers outside the package: the acceptance gate
# (tests/test_acceptance.py) checks a closure's resolution and the library
# files it reaches against its oracle.
READ_OUTSIDE = {"DepClosure.resolution", "DepClosure.home_files", "DepClosure.local_files"}


def test_package_reads_every_field():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert set(unread_fields(sources)) == READ_OUTSIDE


def test_an_unread_field_is_reported():
    sources = [
        "class Facts:\n    deps: tuple = ()\n    spans: tuple = ()\n    size = 0\n",
        "def f(facts):\n    facts.spans = ()\n    return facts.deps, facts.size\n",
    ]
    assert unread_fields(sources) == ["Facts.spans"]


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
