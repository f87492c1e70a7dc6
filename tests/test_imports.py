"""Tooling: no module in src/, tests/ or demos/ imports a name at module
level that it never reads. Package ``__init__.py`` files and names listed
in a module's ``__all__`` are re-exports and are exempt."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(
    path for top in ("src", "tests", "demos") for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by the module-level imports of source and never loaded."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names if a.name != "*")
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        f"{name} (line {line})" for name, line in imported.items()
        if name not in loaded and name not in exported
    )


def test_scanner_finds_unused_and_spares_used_and_exported():
    source = "import os\nimport a.b\nfrom x import y, z as w\n__all__ = ['y']\nprint(a)\n"
    assert unused_imports(source) == ["os (line 1)", "w (line 3)"]


def test_no_unused_module_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in FILES}
    assert {name: unused for name, unused in found.items() if unused} == {}
