"""Every backticked identifier in README's ``## Library`` section names
something that exists, so a rename or removal cannot leave the docs stale.

A token resolves when it is a name in ``qwavenet`` or one of its
submodules (dotted tails resolved by attribute), an attribute or dataclass
field of a class that ``qwavenet`` defines, a builtin, or a stdlib dotted
name, checked by importing it.  ``k0`` and ``k1`` are the README's notation
for a layer's two taps.
"""

import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import qwavenet

README = Path(__file__).resolve().parent.parent / "README.md"
NOTATION = {"k0", "k1"}
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

MODULES = [qwavenet] + [
    importlib.import_module(f"qwavenet.{info.name}")
    for info in pkgutil.iter_modules(qwavenet.__path__)
]
NAMES = {"qwavenet": qwavenet}
for module in MODULES:
    NAMES.update((k, v) for k, v in vars(module).items() if not k.startswith("_"))
CLASSES = [
    cls
    for module in MODULES
    for _, cls in inspect.getmembers(module, inspect.isclass)
    if cls.__module__.startswith("qwavenet.")
]


def library_identifiers(readme: str) -> list[str]:
    """The backticked identifier tokens of the ``## Library`` section."""
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return sorted({t for t in re.findall(r"`([^`]+)`", section) if IDENTIFIER.fullmatch(t)})


def _walk(obj, attrs) -> bool:
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _is_member(name: str) -> bool:
    return any(
        hasattr(cls, name)
        or (dataclasses.is_dataclass(cls) and name in {f.name for f in dataclasses.fields(cls)})
        for cls in CLASSES
    )


def _is_stdlib(parts) -> bool:
    if len(parts) == 1:
        return hasattr(builtins, parts[0])
    if parts[0] not in sys.stdlib_module_names:
        return False
    for i in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        return _walk(module, parts[i:])
    return False


def unresolved(tokens) -> list[str]:
    """The tokens that name nothing in ``qwavenet``, its classes or the stdlib."""
    missing = []
    for token in tokens:
        parts = token.split(".")
        head, tail = parts[0], parts[1:]
        if token in NOTATION:
            continue
        if head in NAMES and _walk(NAMES[head], tail):
            continue
        if not tail and _is_member(head):
            continue
        if _is_stdlib(parts):
            continue
        missing.append(token)
    return missing


def test_the_scan_finds_stale_names():
    stale = ["metric_report", "FixedMode.fold", "fixedpoint.mul_raw"]
    live = [
        "FixedMode.mac",
        "numerics.mul_raw",
        "qwavenet.fixedpoint",
        "out_channels",
        "dataclasses.replace",
        "int",
        "k0",
    ]
    assert unresolved(stale + live) == stale


def test_library_names_in_the_readme_resolve():
    tokens = library_identifiers(README.read_text())
    assert len(tokens) > 40
    assert unresolved(tokens) == []
