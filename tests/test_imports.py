"""Import and export hygiene: every export resolves, no import or name goes unused."""
import ast
import re
from collections import Counter
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


def imported_modules(source: str) -> set[str]:
    """Every module an import in ``source`` names, nested imports included,
    with ``pld`` written out for a relative import."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["pld" if node.level else "", node.module]))
            modules |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    return modules


def test_only_cli_imports_cli():
    # the library takes its inputs as arguments; the CLI's types stay in cli
    importers = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if path.name != "cli.py"
                 and "pld.cli" in imported_modules(path.read_text(encoding="utf-8"))]
    assert importers == []


ROOT = PACKAGE_DIR.parents[1]


def module_level_names(source: str) -> list[str]:
    """Functions, classes and constants a module defines at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def test_every_module_level_name_is_referenced():
    # a name's own definition is one word match; anything beyond it is a use
    texts = [path.read_text(encoding="utf-8")
             for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    texts.append((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    words = Counter(re.findall(r"\w+", "\n".join(texts)))
    defined = Counter(
        name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for name in module_level_names(path.read_text(encoding="utf-8"))
    )
    assert sorted(name for name, n in defined.items() if words[name] <= n) == []


def referenced_names(tree: ast.AST, enclosing: tuple[str, ...] = ()) -> set[str]:
    """``Name`` ids and ``Attribute`` attrs under ``tree``, less each use
    inside a ``def`` or ``class`` of the same name: a definition does not
    call itself into use."""
    names = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names |= referenced_names(node, enclosing + (node.name,))
            continue
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in enclosing:
            names.add(name)
        names |= referenced_names(node, enclosing)
    return names


def quick_use_imports() -> set[str]:
    """The names the README's quick-use block imports from ``pld``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```python\n(.*?)```", readme, re.S)
    return {alias.name for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "pld"
            for alias in node.names}


def test_every_export_has_a_caller_in_the_package():
    # an export only the tests use belongs under tests/, not in the package
    used = quick_use_imports()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name != "__init__.py":
            used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    exports = [name for name in pld.__all__ if not name.startswith("__")]
    assert sorted(name for name in exports if name not in used) == []


def test_each_coding_layer_rule_has_one_home():
    # the receivers' SNRs are ranged in core and evaluated on the code in
    # fbl; 10^(dB/10) is computed once, in core.snr_db_to_linear
    readers, pows = set(), 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                if node.attr in ("snr_bob_db", "snr_eve_db"):
                    readers.add(path.name)
                pows += (node.attr == "pow" and isinstance(node.value, ast.Name)
                         and node.value.id == "math")
    assert readers <= {"core.py", "fbl.py"}
    assert pows == 1
