"""The functions the benchmark's tracer keys its layers on stay where it
looks for them.

``perfbench/tracing.py`` wraps every public function that ``litscreen.cli``
and ``litscreen.refine`` bind from another litscreen module, and ``_NAMED``
maps each wrapped name to a per-layer metric. A call that moves out of those
modules, or a function renamed or moved to another module, is no longer
wrapped, and its layer reads 0 without any error; this test fails instead.
"""
import ast
import importlib
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")

# Names _NAMED holds that litscreen no longer defines; ROADMAP open item 1
# drops them from the tracer.
DEAD = {"persistence.save_iteration_table"}
# The root span: the benchmark worker wraps cli.main itself, not through a
# host module's import.
ENTRY = "cli.main"


def tracer_constants():
    """``_NAMED`` and ``HOST_MODULES`` of the tracer, read without importing it."""
    with open(TRACING, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("_NAMED", "HOST_MODULES"):
                values[target.id] = ast.literal_eval(node.value)
    return values["_NAMED"], values["HOST_MODULES"]


def calls(module, name: str) -> list[ast.expr]:
    """The callee of each call in ``module``'s source to ``name`` or ``x.name``."""
    tree = ast.parse(inspect.getsource(module))
    return [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


NAMED, HOST_MODULES = tracer_constants()


@pytest.mark.parametrize("key", sorted(DEAD))
def test_excused_entries_are_dead(key):
    # a name that comes back is traced like the rest, not excused
    layer, name = key.split(".")
    assert not hasattr(importlib.import_module(f"litscreen.{layer}"), name)


@pytest.mark.parametrize("key", sorted(NAMED.keys() - DEAD))
def test_traced_function_is_called_where_the_tracer_wraps_it(key):
    layer, name = key.split(".")
    origin = importlib.import_module(f"litscreen.{layer}")
    fn = getattr(origin, name, None)
    assert inspect.isfunction(fn) and (fn.__module__, fn.__name__) == (origin.__name__, name), (
        f"{key}: no longer a function defined in litscreen.{layer}")
    if key == ENTRY:
        return
    callers = []
    for host_name in HOST_MODULES:
        host = importlib.import_module(host_name)
        callees = calls(host, name)
        if host_name == origin.__name__ or not callees:
            continue
        callers.append(host_name)
        assert vars(host).get(name) is fn, f"{host_name} calls {key} but does not bind it"
        assert all(isinstance(callee, ast.Name) for callee in callees), (
            f"{host_name} calls {key} through another module, past the tracer's wrapper")
    assert callers, f"{key}: neither of {HOST_MODULES} calls it, so its layer reads 0"
