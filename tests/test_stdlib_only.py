"""The package stays pure standard library: numpy and the like are never imported."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twistfield"


def absolute_imports():
    """(location, top-level module) for every absolute import in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or package-relative
            for name in names:
                yield f"{path.relative_to(PACKAGE)}:{node.lineno} {name}", name.split(".")[0]


def test_package_imports_only_the_standard_library():
    imports = list(absolute_imports())
    assert len(imports) > 10
    assert [where for where, top in imports if top not in sys.stdlib_module_names] == []


def test_no_module_imports_random():
    # every verdict is exact; none may rest on sampling again
    assert [where for where, top in absolute_imports() if top == "random"] == []


def unused_imports(package=PACKAGE):
    """(location, name) for every top-level import a module never uses; __init__ re-exports."""
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in imported.items():
            if name not in used:
                yield f"{path.relative_to(package)}:{line} {name}"


def test_every_import_is_used():
    assert list(unused_imports()) == []


def private_imports(package=PACKAGE):
    """(location, name) for every package-relative import of a name starting with "_"."""
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        yield f"{path.relative_to(package)}:{node.lineno} {alias.name}"


def test_no_private_names_cross_modules():
    # a name another module needs is public; a private one stays in its module
    assert list(private_imports()) == []
