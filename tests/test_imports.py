"""Every module of the package, the tests and the benchmark reads each name
it imports, no module of the package takes a private name from another,
and every function, class and method of the package and every top-level
helper of the tests is read by name somewhere."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    """The names path binds by an import statement and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in read]


MODULES = [path for folder in ("src/grflab", "tests", "bench")
           for path in sorted((ROOT / folder).glob("*.py"))]


def test_no_unused_imports():
    assert len(MODULES) > 25
    unused = [entry for path in MODULES for entry in unused_imports(path)]
    assert not unused, unused


def private_imports(path: Path) -> list[str]:
    """The underscore names path takes from a grflab module: by an import, or
    as an attribute of a grflab module it imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules, taken = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "grflab"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    taken.append((alias.name, node.lineno))
                elif node.module in (None, "grflab"):  # from . import torsion
                    modules.add(alias.asname or alias.name)
    taken += [(node.attr, node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")]
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in taken]


def test_package_reads_no_private_name_of_another_module():
    # a name another module needs is public; the tests may still read
    # private names
    package = [path for path in MODULES if path.parent.name == "grflab"]
    assert len(package) > 8
    taken = [entry for path in package for entry in private_imports(path)]
    assert not taken, taken


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module):
    """The top-level functions and classes of a module and the methods of
    its classes, except the dunder methods Python calls itself."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, DEFINITIONS[:2])
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def reads(tree: ast.Module):
    """(name, line) of every name a module reads: a Name, an Attribute or a
    part of a dotted string constant such as "geometry.derive"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            yield from ((part, node.lineno) for part in node.value.split("."))


def checked_definitions(trees: dict):
    """(path, node) of every definition of the package, and of every
    top-level function and class of the tests that pytest does not collect
    by its test_ name."""
    for path, tree in trees.items():
        if path.parent.name == "grflab":
            yield from ((path, node) for node in definitions(tree))
        elif path.parent.name == "tests":
            yield from ((path, node) for node in tree.body
                        if isinstance(node, DEFINITIONS)
                        and not node.name.startswith("test_"))


def test_no_unreferenced_definitions():
    # a refactor that leaves a helper orphaned fails here: every definition
    # is read by name outside its own body
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in MODULES}
    read = {}
    for path, tree in trees.items():
        for name, line in reads(tree):
            read.setdefault(name, []).append((path, line))
    unread = [f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
              for path, node in checked_definitions(trees)
              if not any(where != path or not node.lineno <= line <= node.end_lineno
                         for where, line in read.get(node.name, []))]
    assert not unread, unread
