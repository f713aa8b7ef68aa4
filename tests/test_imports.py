"""Import and export hygiene: every export resolves, no import goes unused."""
import ast
from pathlib import Path

import pld

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "pld"


def test_every_exported_name_resolves():
    assert [name for name in pld.__all__ if not hasattr(pld, name)] == []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":  # from __future__
                    imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_use_every_import():
    # __init__ imports to re-export, which __all__ above checks
    unused = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unused.items() if names} == {}
