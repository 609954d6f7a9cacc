"""Every name a module of the package imports is read somewhere in it, and
every function, class and method it defines is read somewhere in the
package, the benchmark or the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "streamcheck"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [name for name in _imported(tree) if name not in read]
    assert not unused, f"{path.name} imports {unused} and never reads them"


def _read_names(path: Path) -> set[str]:
    """The names and attributes that the file's code reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def _definitions(tree: ast.Module) -> list[str]:
    """The module's functions and classes and their methods, as
    `name` or `Class.method`, without dunders and without the `item_*`
    methods that `_Parser` calls by keyword through getattr."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                      and not (node.name == "_Parser" and m.name.startswith("item_"))]
    return names


def test_every_definition_is_read():
    read = set().union(*(_read_names(p) for d in ("src", "bench", "tests")
                         for p in (ROOT / d).rglob("*.py")))
    unread = [f"{path.name}: {name}" for path in MODULES
              for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
              if name.rsplit(".", 1)[-1] not in read]
    assert not unread, f"defined and never read: {unread}"
