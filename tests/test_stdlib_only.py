"""Lints on the package source: pure standard library (numpy and the like are never
imported), no unused or cross-module private imports, no unreferenced definitions,
one reader of the structure tensor, one module that builds fields, and 2x2 normal-form
kernels that read field tables."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "twistfield"


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


def test_no_module_imports_dataclasses():
    # records are namedtuples or plain classes: dataclasses imports inspect, about 10 ms
    # of every CLI process's start-up
    assert [where for where, top in absolute_imports() if top == "dataclasses"] == []


def scope_imports(scope):
    """{name: line} for the imports in `scope`'s own body, outside any nested function."""
    imported = {}
    todo = list(scope.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))
    return imported


def unused_imports(package=PACKAGE):
    """(location, name) for every import its scope never uses: the module for a top-level
    import, the function for one inside a function.  __init__ modules are skipped."""
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [tree] + [node for node in ast.walk(tree)
                           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
            for name, line in scope_imports(scope).items():
                if name not in used:
                    yield f"{path.relative_to(package)}:{line} {name}"


def test_every_import_is_used():
    assert list(unused_imports()) == []


def test_unused_import_lint_reads_function_scopes(tmp_path):
    # a top-level import may be used in any function; one inside a function only in it
    (tmp_path / "mod.py").write_text(
        "import os\n"
        "def f():\n"
        "    import json\n"
        "    from io import StringIO\n"
        "    return os.sep, StringIO\n"
        "def g():\n"
        "    return json\n")
    assert list(unused_imports(tmp_path)) == ["mod.py:3 json"]


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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(node):
    """The names `node` itself refers to: a name, an attribute, an imported name, or a
    string that is one identifier (as `monkeypatch.setattr` and `getattr` take them)."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.isidentifier():
            yield node.value


CALLER_ROOTS = (REPO / "src", REPO / "tests", REPO / "bench")


def definitions(tree):
    """(qualified name, node) for every top-level function or class of `tree`, and for
    every function (method or property) in a top-level class body."""
    for top in tree.body:
        if isinstance(top, DEFINITIONS):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{top.name}.{node.name}", node


def unreferenced_definitions(package=PACKAGE, roots=CALLER_ROOTS):
    """(location, qualified name) for every top-level function or class and every method
    of the package that no file under `roots` names outside the definition itself.
    Dunder names are exempt.

    A bare name counts in the defining module only: another file that uses the name
    imports it, and that import counts.  Attributes and identifier strings count anywhere."""
    refs: dict[str, set] = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            # the innermost definition around each node; a method's nodes come after its class's
            owner = {id(node): qualname for qualname, top in definitions(tree)
                     for node in ast.walk(top)}
            for node in ast.walk(tree):
                for name in referenced_names(node):
                    refs.setdefault(name, set()).add(
                        (path, owner.get(id(node)), isinstance(node, ast.Name)))
    for path in sorted(package.rglob("*.py")):
        for qualname, node in definitions(ast.parse(path.read_text(), filename=str(path))):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            # a reference inside the definition, or inside one of its methods, is its own
            outside = [where for where, o, bare in refs.get(node.name, ())
                       if (not bare or where == path)
                       and not (where == path and f"{o}.".startswith(f"{qualname}."))]
            if not outside:
                yield f"{path.relative_to(package)}:{node.lineno} {qualname}"


def test_every_definition_is_referenced():
    # a function or class nothing names is dead code; tests and bench/ count as callers
    assert list(unreferenced_definitions()) == []


# Definitions that only tests or bench/ name.  A bare name counts outside the defining
# module only where it is imported, so a local variable or a test helper that shares a
# definition's name does not hide it (the linalg wrappers rank, span and kernel once were).
TEST_ONLY_DEFINITIONS = {
    # paper statements the acceptance criteria check (ROADMAP keep list)
    "char_poly_ratio", "scale_isomorphism", "cyclic_isomorphism", "reversal_isomorphism",
    "construct_two_dim_partner", "rho_map", "lambda_map",
    # L_x and the closed-form R_y^-1 of the split Albert map, and paper checks
    "lmat", "rmat_inv", "valid_c_values", "isotopy_witness", "solution_space",
    "complementary_space_count", "global_counts", "nu_via_phi", "check_splitting_identity",
    # bench/layers.py times it until the benchmark drops it (ROADMAP item 1)
    "added_rank",
    # R_y of the split Albert map: the tests' references and bench/layers.py read it,
    # while split Theorem 3.1 keys R_y R_x^-1 through algebra3.graph_keys
    "rmat",
}
# Methods that only tests name: FieldTower.frobenius keeps its ext.check ValueError guard
# (ROADMAP keep list), and Subspace.contains is the membership test of the linalg tests.
TEST_ONLY_METHODS = {"FieldTower.frobenius", "Subspace.contains"}


def test_test_only_definitions_are_pinned():
    # a src/ definition that nothing in src/ names is either on these lists or dead weight
    found = {where.split()[-1] for where in unreferenced_definitions(PACKAGE, roots=(PACKAGE,))}
    assert found == TEST_ONLY_DEFINITIONS | TEST_ONLY_METHODS


def test_unreferenced_lint_skips_self_references(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def loop(n):\n"
        "    return loop(n - 1) if n else 0\n"
        "def used():\n"
        "    return 1\n"
        "class Kept:\n"
        "    def __init__(self):\n"
        "        self.size = 0\n"
        "    def grow(self):\n"
        "        return self.grow() if self.size else self.size\n"
        "    @property\n"
        "    def full(self):\n"
        "        return Kept()\n"
        "def __getattr__(name):\n"
        "    return used\n"
        "def shadowed():\n"
        "    return 2\n")
    # a local variable elsewhere that shares a dead function's name is not a reference to it
    (tmp_path / "test_mod.py").write_text(
        "import mod\n"
        "mod.Kept().full\n"
        "total = sum(shadowed for shadowed in range(3))\n")
    found = list(unreferenced_definitions(tmp_path, roots=(tmp_path,)))
    # nor is a method's call to itself; the dunder __init__ is exempt
    assert found == ["mod.py:1 loop", "mod.py:8 Kept.grow", "mod.py:15 shadowed"]


def tensor_reads(package=PACKAGE):
    """The location of every read of an attribute named `tensor` in the package."""
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "tensor" \
                    and isinstance(node.ctx, ast.Load):
                yield f"{path.relative_to(package)}:{node.lineno}"


def test_only_algebra3_reads_the_structure_tensor():
    # one contraction: every product goes through algebra3.basis_products
    reads = list(tensor_reads())
    assert reads and all(where.startswith("algebra3.py:") for where in reads), reads


FIELD_BUILDERS = {"Field", "FieldSpec", "of_order", "extension"}


def field_constructions(package=PACKAGE):
    """The location of every call, outside gf.py, of a name or attribute in FIELD_BUILDERS."""
    for path in sorted(package.rglob("*.py")):
        if path == package / "gf.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FIELD_BUILDERS:
                    yield f"{path.relative_to(package)}:{node.lineno} {name}"


def test_only_gf_builds_fields(tmp_path):
    # one way to build a field: every other module gets its fields from FieldTower.build
    assert list(field_constructions()) == []
    # and the lint sees a stray construction
    (tmp_path / "gf.py").write_text("def f():\n    return Field(None, (0, 1))\n")
    (tmp_path / "mod.py").write_text(
        "from gf import Field, FieldTower\n"
        "tower = FieldTower.build(3)\n"
        "prime = Field(None, (0, 1))\n")
    assert list(field_constructions(tmp_path)) == ["mod.py:3 Field"]


FIELD_METHODS = {"mul", "add", "sub", "neg"}


def field_method_calls(path):
    """The location of every call of a method named in FIELD_METHODS in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in FIELD_METHODS:
            yield f"{path.name}:{node.lineno} {node.func.attr}"


def test_normalform_kernels_read_field_tables(tmp_path):
    # the 2x2 kernels read rows of mul_t, add_t, sub_t and neg_t, not a call per entry
    assert list(field_method_calls(PACKAGE / "engine" / "normalform.py")) == []
    # and the lint sees a method call, but not a table read
    (tmp_path / "mod.py").write_text(
        "def det(fld, a, b, c, d):\n"
        "    return fld.sub_t[fld.mul_t[a][d]][fld.mul(b, c)]\n")
    assert list(field_method_calls(tmp_path / "mod.py")) == ["mod.py:2 mul"]
