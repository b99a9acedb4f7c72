"""The public API's settable values, counted one way.

A settable value is a dataclass init field, or a parameter of a function
or of a public method (``self`` and ``cls`` excluded), over the names in
each litscreen module's ``__all__``. The pinned figure is the one ROADMAP
reports, checked by

    PYTHONPATH=src python -m pytest -q tests/test_api.py

whose failure message gives the new count and its split by name.
"""
import dataclasses
import importlib
import inspect
import pkgutil

import litscreen

# A change that adds or removes a public parameter or dataclass field
# moves this figure, and says so.
SETTABLE_VALUES = 150


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
