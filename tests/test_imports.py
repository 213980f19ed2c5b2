"""Source hygiene: every imported name is read by the module importing it,
and every name the package exports has a reader."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never reads.  Names listed in a literal
    ``__all__`` count as read, since they are re-exported."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            read.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_no_unused_imports():
    paths = sorted(path for top in ("src", "tests")
                   for path in (ROOT / top).rglob("*.py")
                   if path.name != "__init__.py")
    assert paths
    assert [hit for path in paths for hit in unused_imports(path)] == []


def read_names() -> set[str]:
    """Every name the library outside __init__.py or the benchmark reads
    (as a bare name or an attribute), plus every word of the README."""
    read = set()
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    for path in paths:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    read.update(re.findall(r"\w+", readme))
    return read


def test_public_names_are_used():
    # Every name the package exports is read by the library outside
    # __init__.py, read by the benchmark, or shown in the README, so
    # test-only API does not return to src/.
    import carpetq
    read = read_names()
    assert [name for name in carpetq.__all__ if name not in read] == []


def init_assigned(path: Path, cls: str) -> list[str]:
    """The ``self.<name>`` attributes that class ``cls``'s own
    ``__init__`` in ``path`` assigns."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                names += [sub.attr for sub in ast.walk(item)
                          if isinstance(sub, ast.Attribute)
                          and isinstance(sub.ctx, ast.Store)
                          and isinstance(sub.value, ast.Name)
                          and sub.value.id == "self"]
    return names


def test_public_fields_are_read():
    # Every dataclass field and every attribute an __init__ sets, on a
    # class a submodule exports, has a reader by the same rule as the
    # exported names: a field only the tests read is test-only API.
    import carpetq
    read = read_names()
    unread = []
    for info in pkgutil.iter_modules(carpetq.__path__):
        if info.name == "__main__":       # importing it runs the CLI
            continue
        module = importlib.import_module(f"carpetq.{info.name}")
        path = Path(module.__file__)
        for name in getattr(module, "__all__", ()):
            cls = getattr(module, name)
            if not isinstance(cls, type):
                continue
            fields = ([f.name for f in dataclasses.fields(cls)]
                      if dataclasses.is_dataclass(cls) else [])
            unread += [f"{info.name}.{name}.{field}"
                       for field in fields + init_assigned(path, name)
                       if field not in read]
    assert unread == []
