"""Every module of the package, the tests and the benchmark reads each name
it imports."""

import ast
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


def test_no_unused_imports():
    modules = [path for folder in ("src/grflab", "tests", "bench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    assert len(modules) > 25
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, unused
