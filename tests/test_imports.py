"""Every import in the package, the tools and the tests is used."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/bluefive", "tools", "tests") for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imported[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                imported[alias.asname or alias.name] = stmt.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            used.update(ast.literal_eval(stmt.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == [
        "b (line 2)", "os (line 1)"]
    assert unused_imports("import os.path\nos.sep\n__all__ = ['x']\nfrom m import x\n") == []


def test_every_import_is_used():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}
