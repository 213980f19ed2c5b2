"""Source hygiene: every imported name is read by the module importing it,
and every name the package exports has a reader."""

import ast
import dataclasses
import importlib
import pkgutil
import re
import subprocess
import sys
import types
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


def public_members(cls: type) -> list[str]:
    """The public properties and methods that ``cls`` itself defines."""
    return [name for name, value in vars(cls).items()
            if not name.startswith("_")
            and isinstance(value, (property, classmethod, staticmethod,
                                   types.FunctionType))]


def test_public_fields_are_read():
    # Every dataclass field, every attribute an __init__ sets, and every
    # public property and method, on a class a submodule exports, has a
    # reader by the same rule as the exported names: a member only the
    # tests read is test-only API.
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
                       for field in (fields + init_assigned(path, name)
                                     + public_members(cls))
                       if field not in read]
    assert unread == []


def test_cli_imports_no_numpy():
    # The CLI reports what the layers compute, so the sample arithmetic,
    # and numpy with it, stays in the library.
    tree = ast.parse((ROOT / "src" / "carpetq" / "cli.py").read_text(
        encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    assert [name for name in modules if name.split(".")[0] == "numpy"] == []


def private_reads(path: Path) -> list[str]:
    """Where ``path`` imports a private name from a sibling module or
    reads a private attribute of anything but ``self`` or ``cls``.
    Dunder names are not private."""
    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            hits += [f"{node.lineno}: from .{node.module or ''} import "
                     f"{alias.name}"
                     for alias in node.names if private(alias.name)]
        elif (isinstance(node, ast.Attribute) and private(node.attr)
              and not (isinstance(node.value, ast.Name)
                       and node.value.id in ("self", "cls"))):
            hits.append(f"{node.lineno}: .{node.attr}")
    return [f"{path.relative_to(ROOT)}:{hit}" for hit in hits]


def test_no_private_reads_across_modules():
    # Each module reaches another only through its public names, so a
    # private name can be changed where it is defined alone.
    paths = sorted((ROOT / "src" / "carpetq").glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in private_reads(path)] == []


# Runs every exact layer and the quantize pass on carpet A at k = 2 and
# 3, then prints whether numpy.ma was ever imported.
_LAYERS_THEN_MA = """
import sys
from carpetq import CarpetSpec, derive_params
from carpetq.coding import build_antichain
from carpetq.partition import enumerate_lambda_k, stopped_statistics
from carpetq.quantizer import draw_cloud, tally
params = derive_params(CarpetSpec.of(
    4, 3, {(0, 0): "1/3", (0, 2): "1/3", (2, 2): "1/3"}))
levels = [stopped_statistics(params, k) for k in (2, 3)]
for k in (2, 3):
    build_antichain(enumerate_lambda_k(params, k))
tally(levels, draw_cloud(params, 1000, seed=1))
print("numpy.ma" in sys.modules)
"""


def test_layers_leave_numpy_ma_unloaded():
    # On numpy >= 2.3 an np.unique with no index output reads
    # np.ma.is_masked, and importing numpy.ma costs every process that
    # reaches it 7-15 ms of CPU and 0.8 MB of memory; no layer needs it.
    done = subprocess.run([sys.executable, "-c", _LAYERS_THEN_MA],
                          cwd=ROOT / "src", capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
