"""Every name that a module under src/findual imports is used in that module,
and only the kernel and the algebra layer take row reductions.

The package ``__init__.py`` files import names to re-export them, so they are
left out.  A name counts as used when it appears as an identifier anywhere in
the module, or as a string in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import findual

SRC = Path(findual.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) of each imported name the module never mentions."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return sorted((line, name) for line, name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_reports_unused_names():
    source = ("from itertools import combinations, islice\n"
              "import os.path\n"
              "from .algebra import _semisimple_factors as factors, center\n"
              "print(islice, center)\n")
    assert unused_imports(source) == [(1, "combinations"), (2, "os"), (3, "factors")]


# The radical and the center of every algebra, graded or not, are one kernel
# construction in algebra.py; a module that takes its own RREF would be a
# second one.
ROW_REDUCTIONS = {"echelon_rows", "rref_kernel"}
REDUCING_MODULES = [p for p in MODULES if p.parent.name != "kernel" and p.name != "algebra.py"]


def row_reduction_uses(source: str):
    """(line, name) of each row reduction the module imports or reads as an
    attribute."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            uses += [(node.lineno, alias.name) for alias in node.names if alias.name in ROW_REDUCTIONS]
        elif isinstance(node, ast.Attribute) and node.attr in ROW_REDUCTIONS:
            uses.append((node.lineno, node.attr))
    return sorted(uses)


@pytest.mark.parametrize("path", REDUCING_MODULES, ids=[str(p.relative_to(SRC)) for p in REDUCING_MODULES])
def test_no_row_reduction_outside_kernel_and_algebra(path):
    assert row_reduction_uses(path.read_text()) == []


def test_row_reduction_guard_reports_imports_and_attributes():
    source = ("from .kernel import Matrix, echelon_rows as rows\n"
              "from . import kernel\n"
              "kernel.rref_kernel(Matrix.zeros(None, 0, 0))\n")
    assert row_reduction_uses(source) == [(1, "echelon_rows"), (3, "rref_kernel")]


# Every import is a statement of the module body: a module that a function
# imports at call time is one that its file can import at the top.
PACKAGE_FILES = sorted(SRC.rglob("*.py"))


def local_imports(source: str):
    """(line, module) of each import below the top level of the module."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return sorted(
        (node.lineno, node.module if isinstance(node, ast.ImportFrom) else node.names[0].name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    )


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=[str(p.relative_to(SRC)) for p in PACKAGE_FILES])
def test_no_function_local_imports(path):
    assert local_imports(path.read_text()) == []


def test_local_import_guard_reports_nested_imports():
    source = ("import os\n"
              "def f():\n"
              "    from .kernel import Poly\n"
              "    import json\n"
              "class C:\n"
              "    def g(self):\n"
              "        from . import twist\n")
    assert local_imports(source) == [(3, "kernel"), (4, "json"), (7, None)]
