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


def _defined_and_used(path: Path) -> tuple[set[str], set[str]]:
    """A module's top-level functions and classes, and the names its code reads.

    A name counts as read where it is loaded, imported, or read as an
    attribute; a definition's reads of its own name (recursion) do not count.
    """
    defined, used = set(), set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        names = {
            n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
        }
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
            names.discard(node.name)
        used |= names
    return defined, used


def test_nothing_in_src_exists_only_for_tests():
    # every top-level function and class is read by the package or exported;
    # matrix_rank stays until the bench tracer no longer wraps it by name
    defined, used = set(), set()
    for path in sorted(Path(sepk.__file__).parent.glob("*.py")):
        names, reads = _defined_and_used(path)
        defined |= names
        used |= reads
    assert sorted(defined - used - set(sepk.__all__)) == ["matrix_rank"]


def test_every_private_method_in_src_is_read_in_src():
    # a method named with one "_" that nothing in the package reads is dead
    # code, whatever a test may call
    methods, reads = set(), set()
    for path in sorted(Path(sepk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods |= {
                    f"{node.name}.{f.name}"
                    for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and f.name.startswith("_")
                    and not f.name.startswith("__")
                }
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    assert methods, "no private methods found in src"
    assert sorted(m for m in methods if m.split(".")[1] not in reads) == []


def _assigned_and_never_read(path: Path) -> list[str]:
    """function:name for each public name a function assigns and never reads.

    A function's reads include those of the functions nested in it, so a
    name its closures read counts as read; global and nonlocal names, and
    names that start with "_", are left out.
    """
    found = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = set(), set()
        for n in ast.walk(fn):
            if isinstance(n, ast.Name):
                (read if isinstance(n.ctx, ast.Load) else stored).add(n.id)
            elif isinstance(n, (ast.Global, ast.Nonlocal)):
                read.update(n.names)
        found += [f"{fn.name}:{name}" for name in sorted(stored - read) if not name.startswith("_")]
    return found


def test_no_function_in_src_assigns_a_name_it_never_reads():
    found = []
    for path in sorted(Path(sepk.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{f}" for f in _assigned_and_never_read(path)]
    assert found == []
