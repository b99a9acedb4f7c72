"""The public API's settable values, counted one way, and the module
boundaries inside the package.

A settable value is a dataclass init field, or a parameter of a function
or of a public method (``self`` and ``cls`` excluded), over the names in
each litscreen module's ``__all__``. The pinned figure is the one ROADMAP
reports, checked by

    PYTHONPATH=src python -m pytest -q tests/test_api.py

whose failure message gives the new count and its split by name.
"""
import ast
import dataclasses
import glob
import importlib
import inspect
import os
import pkgutil

import pytest

import litscreen

# A change that adds or removes a public parameter or dataclass field
# moves this figure, and says so.
SETTABLE_VALUES = 155


def _parameters(fn, bound: bool) -> int:
    return len(inspect.signature(fn).parameters) - bound


def settable_values() -> dict[str, int]:
    """Settable values by ``module.name``, for every public name that has any."""
    counts = {}
    for info in pkgutil.iter_modules(litscreen.__path__):
        module = importlib.import_module(f"litscreen.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            n = 0
            if inspect.isfunction(obj):
                n = _parameters(obj, bound=False)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    n = sum(f.init for f in dataclasses.fields(obj))
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, staticmethod):
                        n += _parameters(member.__func__, bound=False)
                    elif isinstance(member, classmethod):
                        n += _parameters(member.__func__, bound=True)
                    elif inspect.isfunction(member):
                        n += _parameters(member, bound=True)
            if n:
                counts[f"{info.name}.{name}"] = n
    return counts


def test_public_settable_value_count():
    counts = settable_values()
    total = sum(counts.values())
    assert total == SETTABLE_VALUES, f"{total} settable values: {counts}"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str) -> list[str]:
    """Each import of another litscreen module's private name in ``source``,
    and each read of one through a name bound to a litscreen module."""
    submodules = {info.name for info in pkgutil.iter_modules(litscreen.__path__)}
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 and node.module is None or node.module == "litscreen"
            if node.level or (node.module or "").startswith("litscreen"):
                for alias in node.names:
                    if _private(alias.name):
                        found.append(f"line {node.lineno}: imports {alias.name}")
                    elif package and alias.name in submodules:
                        modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "litscreen":
                    modules.add(alias.asname or "litscreen")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append(f"line {node.lineno}: reads {ast.unparse(node)}")
    return found


def test_no_module_reaches_another_modules_private_names():
    # a private helper reached across modules is a second owner of its
    # policy; a shared one belongs in its module's __all__
    found = {}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(litscreen.__file__), "*.py"))):
        with open(path, encoding="utf-8") as f:
            reaches = private_reaches(f.read())
        if reaches:
            found[os.path.basename(path)] = reaches
    assert found == {}


@pytest.mark.parametrize("source, found", [
    ("from .corpus import _not_utf8_message\n", ["line 1: imports _not_utf8_message"]),
    ("from . import corpus\ncorpus._read_data_file('x')\n",
     ["line 2: reads corpus._read_data_file"]),
    ("import litscreen.corpus\nlitscreen.corpus._read_data_file('x')\n",
     ["line 2: reads litscreen.corpus._read_data_file"]),
    ("from . import __version__\nfrom .corpus import load_corpus\nself._x = __version__\n", []),
])
def test_private_reaches_are_found(source, found):
    assert private_reaches(source) == found
