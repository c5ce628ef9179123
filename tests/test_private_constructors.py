"""`algebra._from_normal_table` stores a table without normalizing it, so
only the builders whose tables are normal by construction may call it:
public input stays on the normalizing `FinDimAlgebra`, and the codec builds
a document's table only once its checks have proved the decoded entries
normal (`codec._entries_in`).  The same holds for `_store`, which both
classes' constructors end in, which `coalgebra.dualize_algebra` calls to
store the transpose of a normal table as a comultiplication, and which
`codec._decode_coalgebra` calls on a document's checked entries.
Likewise `Subspace._from_disjoint_blocks` takes rows as the span's RREF
once sorted by pivot, without eliminating, so only the callers that hand it
`_block_kernel`'s per-component kernels may call it.

A mention counts wherever the name appears in a module under src/findual:
as a name, an attribute, a string (say, for getattr) or an import under
another name.  Each is attributed to the top-level function or class it
sits in; the definition itself and plain imports of the name are left out.
"""

import ast
from pathlib import Path

import pytest

import findual

SRC = Path(findual.__file__).parent
MODULES = sorted(SRC.rglob("*.py"))
NAME = "_from_normal_table"
BUILDERS = {
    ("algebra.py", "quotient_algebra"),
    ("algebra.py", "monogenic_algebra"),
    ("qplane.py", "_monomial_algebra"),
    ("qplane.py", "_jet_algebra"),
    ("qplane.py", "box_dual_tower"),
    ("twist.py", "raw_twisted_algebra"),
    ("coalgebra.py", "dualize_coalgebra"),
    ("codec.py", "_decode_algebra"),
}
STORE_CALLERS = {
    ("algebra.py", "FinDimAlgebra"),
    ("algebra.py", "_from_normal_table"),
    ("coalgebra.py", "FinDimCoalgebra"),
    ("coalgebra.py", "dualize_algebra"),
    ("codec.py", "_decode_coalgebra"),
}

DISJOINT_BLOCK_CALLERS = {
    ("algebra.py", "_annihilator"),
    ("algebra.py", "_graded_radical"),
    ("algebra.py", "_graded_center"),
}


def mentions(source: str, name: str = NAME):
    """(line, top-level owner) of each mention of `name` in `source`; the
    owner is "<module>" outside every function and class."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        if owner == name:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                found += [(node.lineno, f"import as {alias.asname}") for alias in node.names
                          if alias.name == name and alias.asname not in (None, name)]
            elif (isinstance(node, ast.Name) and node.id == name
                  or isinstance(node, ast.Attribute) and node.attr == name
                  or isinstance(node, ast.Constant) and node.value == name):
                found.append((node.lineno, owner))
    return found


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_only_builders_skip_normalization(path):
    assert {(path.name, owner) for _, owner in mentions(path.read_text())} <= BUILDERS


def test_every_builder_uses_the_private_constructor():
    used = {(path.name, owner) for path in MODULES for _, owner in mentions(path.read_text())}
    assert used == BUILDERS


def test_only_builders_store_unnormalized_tables():
    used = {(path.name, owner) for path in MODULES for _, owner in mentions(path.read_text(), "_store")}
    assert used == STORE_CALLERS


def test_only_block_kernels_skip_elimination():
    used = {(path.name, owner) for path in MODULES for _, owner in mentions(path.read_text(), "_from_disjoint_blocks")}
    assert used == DISJOINT_BLOCK_CALLERS


def test_guard_flags_stray_uses():
    source = ("from .algebra import _from_normal_table, _from_normal_table as build\n"
              "def _from_normal_table_user():\n"
              "    return _from_normal_table(1, 2, 3, 4, None)\n"
              "class Codec:\n"
              "    def decode(self, module):\n"
              "        return getattr(module, '_from_normal_table')\n"
              "def loads(algebra):\n"
              "    return algebra._from_normal_table\n"
              "def _from_normal_table(field, labels, mul, unit, gens):\n"
              "    return _from_normal_table\n"
              "TABLE = _from_normal_table\n")
    assert mentions(source) == [(1, "import as build"), (3, "_from_normal_table_user"), (6, "Codec"),
                                (8, "loads"), (11, "<module>")]
