"""Every name a module imports is used by that module, and every
module-level private name in ``src/`` is read somewhere in ``src/``.

No lint tool ships with the package, so these scans stand in for one.  The
import scan covers ``src/`` and ``tests/``; ``__init__.py`` files are
skipped, because their imports are re-exports, and so are
``from __future__`` imports.
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level private name (``def _x``,
    ``class _X``, ``_X = ...``) of ``sources`` that no source reads: as a
    loaded name, an attribute or an imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, n) for n in names if n.startswith("_") and not n.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
        "_X, _Y = 1, 2\n__all__ = []\n",
        "b": "from a import _X\nimport a\nprint(a._used())\n",
    }
    assert unread_private_names(sources) == ["a:_Gone", "a:_Y", "a:_dead"]


def test_every_private_name_in_src_is_read():
    sources = {
        str(path.relative_to(ROOT)): path.read_text() for path in (ROOT / "src").rglob("*.py")
    }
    assert unread_private_names(sources) == []
