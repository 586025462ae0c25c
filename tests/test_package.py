import ast
from pathlib import Path

import sepk


def test_every_imported_public_name_is_exported():
    tree = ast.parse(Path(sepk.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert imported, "no imports found in sepk/__init__.py"
    assert sorted(imported - set(sepk.__all__)) == []
    assert all(hasattr(sepk, name) for name in sepk.__all__)
