"""Every name a module imports is used by that module, every
module-level private name in ``src/`` is read somewhere in ``src/``, and
every attribute a ``src/`` method sets on its instance is read somewhere in
``src/``.

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
SRC = {str(path.relative_to(ROOT)): path.read_text() for path in (ROOT / "src").rglob("*.py")}


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
    assert unread_private_names(SRC) == []


def unread_instance_attributes(sources: dict[str, str]) -> list[str]:
    """``module:Class.attr`` for each attribute a method of ``sources`` assigns
    on its first argument (``self.attr = ...``) that no source reads as an
    attribute, of any object."""
    assigned, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or not fn.args.args:
                    continue
                me = fn.args.args[0].arg
                assigned.update(
                    (module, cls.name, node.attr)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == me
                )
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    return sorted(f"{m}:{c}.{a}" for m, c, a in assigned if a not in read)


def test_the_scan_finds_unread_instance_state():
    sources = {
        "a": "class A:\n    def __init__(self):\n        self.kept = 1\n        self.gone = 2\n"
        "    def bump(this):\n        this.count += 1\n        this.kept[0] = 0\n",
        "b": "def f(a):\n    return a.kept\n",
    }
    assert unread_instance_attributes(sources) == ["a:A.count", "a:A.gone"]


def test_the_scan_finds_state_planted_in_src():
    path = "src/qwavenet/inference.py"
    line = "        self.rings = ["
    assert SRC[path].count(line) == 1
    planted = {**SRC, path: SRC[path].replace(line, "        self._unused = 0\n" + line)}
    assert unread_instance_attributes(planted) == ["src/qwavenet/inference.py:_Session._unused"]


def test_every_instance_attribute_in_src_is_read():
    assert unread_instance_attributes(SRC) == []
