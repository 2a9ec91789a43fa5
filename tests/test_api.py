"""Every public name of ``cereduce`` has a caller outside the tests, and the
modules below the reduction pipeline do not import it.

A name in the ``__all__`` of a module under ``src/cereduce`` counts as
called when ``src/``, ``bench/`` or ``demos/`` loads it: as a bare name read
in Load context, or as the attribute of some object.  Imports, ``__all__``
strings and the tests themselves are not callers.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cereduce"
CALLER_DIRS = ("src", "bench", "demos")


def _exported(path: Path) -> list[str]:
    """The strings of the module's ``__all__`` list, or none."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


@cache
def _loaded_names() -> frozenset[str]:
    loaded = set()
    for folder in CALLER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
    return frozenset(loaded)


MODULES = sorted(p for p in PACKAGE.glob("*.py") if _exported(p))


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"operators", "model", "observability", "algebra"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_has_a_caller(path):
    loaded = _loaded_names()
    unused = [name for name in _exported(path) if name not in loaded]
    assert not unused, f"{path.name} exports names nothing in {', '.join(CALLER_DIRS)} loads: {unused}"


def _imported_modules(path: Path) -> set[str]:
    """The ``cereduce`` modules a module imports, by their names within the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 or module.startswith("cereduce"):
                base = module.removeprefix("cereduce").lstrip(".")
                found |= {base} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("cereduce.") for alias in node.names
                      if alias.name.startswith("cereduce.")}
    return found


@pytest.mark.parametrize("name", ["observability", "trajectories"])
def test_realization_modules_import_neither_reduction_nor_algebra(name):
    # the minimal linear realization and the tables read off it need only the model and the
    # closures, not the algebra the reduction builds
    imported = _imported_modules(PACKAGE / f"{name}.py")
    assert not imported & {"reduction", "algebra"}, f"{name}.py imports {sorted(imported)}"
