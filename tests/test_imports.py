"""Every name a module imports is used by that module.

No lint tool ships with the package, so this scan stands in for one over
``src/`` and ``tests/``.  ``__init__.py`` files are skipped, because their
imports are re-exports, and so are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for top in ("src", "tests")
    for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom sys import argv, exit\nexit(osp)\n"
    assert unused_imports(source) == ["argv", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
