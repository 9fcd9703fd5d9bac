"""Every private top-level name in the library has a caller in the library.

A private function, class or constant (one leading underscore) that no other
statement of ``src/bergman`` reads is code without a caller: tests and
benchmarks may call it, but nothing they check depends on it.  References are
names, attributes and ``from ... import`` entries, taken from every top-level
statement but the one that defines the name, so a recursive call or a
self-reference does not count.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bergman"


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read(stmt: ast.stmt) -> set[str]:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def private_names_without_a_caller(root: pathlib.Path = SRC) -> list[str]:
    statements = [(path, stmt) for path in sorted(root.glob("*.py"))
                  for stmt in ast.parse(path.read_text(), str(path)).body]
    reads = [_read(stmt) for _, stmt in statements]
    dead = []
    for i, (path, stmt) in enumerate(statements):
        for name in _defined(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                dead.append(f"{path.name}: {name}")
    return dead


def test_every_private_top_level_name_has_a_caller_in_the_library():
    assert private_names_without_a_caller() == []


def test_a_private_name_read_only_by_itself_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "def _used():\n    return _LIMIT\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "class _Unused:\n    pass\n"
        "def public():\n    return _used()\n")
    (tmp_path / "b.py").write_text("from .a import _helper_elsewhere\n")
    (tmp_path / "c.py").write_text("def _helper_elsewhere():\n    return 1\n")
    assert private_names_without_a_caller(tmp_path) == ["a.py: _recursive", "a.py: _Unused"]
