"""Every module imports only names that it uses.

A name bound by an import statement counts as used when it appears as a
name anywhere else in the module (attribute bases such as ``np`` in
``np.zeros`` included).  ``from __future__`` imports and the re-exports of
a package's ``__init__.py`` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fracch").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    assert len(SOURCES) > 20  # both trees were found
    unused = [hit for path in SOURCES if path.name != "__init__.py"
              for hit in _unused_imports(path)]
    assert unused == []
