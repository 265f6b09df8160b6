"""No public name exists only for tests.

Every name that `cogent/__init__.py` re-exports, and every name in
`tensor.__all__`, must be used by the package's own code outside
`__init__.py`: imported by another module (`from .x import name`) or read
as a name in the module that defines it.
"""

import ast
from pathlib import Path

import cogent
from cogent import tensor

SRC = Path(cogent.__file__).parent


def exported_names() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return imported | set(tensor.__all__)


def referenced_names() -> set[str]:
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
    return used


def test_every_export_is_used_by_the_package():
    unused = sorted(exported_names() - referenced_names())
    assert unused == [], f"exported but only tests use them: {unused}"
