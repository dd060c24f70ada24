"""The resolution cases the deleted whole-project call graph modelled,
held now by the runtime pickle guard in ``tests/conftest.py``.

The graph followed a callable by name, through aliases, methods, nested
scopes and re-exports, to ``submit``/``dispatch``.  The guard pickles
the object that arrives, so none of that resolution is needed; each
case pins that the guard still gets it right.
"""

from repro.parallel import ExecutionEngine as Reexported
from repro.parallel.engine import ExecutionEngine

from . import pickle_guard as h
from .pickle_guard import (
    nested_def,
    passed_by_the_pickle_guard,
    rejected_by_the_pickle_guard,
    task,
)
from .pickle_guard import task as aliased


def test_plain_module_level_call_resolves():
    assert passed_by_the_pickle_guard(lambda e: e.submit(task, 7)) == 7


def test_aliased_import_resolves_across_modules():
    # Pickled by its defining module and name, not by the alias.
    assert passed_by_the_pickle_guard(lambda e: e.submit(aliased, 7)) == 7


def test_module_alias_attribute_call_resolves():
    rejected_by_the_pickle_guard(
        lambda e: h.fan_out(e, "dispatch", task, lambda: 3)
    )


def test_init_reexport_is_followed():
    # The guard patches the class, so every import path sees it.
    assert Reexported is ExecutionEngine
    rejected_by_the_pickle_guard(lambda e: Reexported.dispatch(e, lambda: 3))


class Stage:
    def __init__(self, engine):
        self.engine = engine

    def step(self, item):
        return self._send(lambda: item)

    def _send(self, fn):
        return self.engine.dispatch(fn, key="stage")


def test_self_method_call_resolves_within_class():
    rejected_by_the_pickle_guard(lambda e: Stage(e).step(1))


class TracedEngine(ExecutionEngine):
    """A receiver no static analysis could type: a subclass."""


def test_unknown_receiver_unions_all_methods_of_that_name():
    rejected_by_the_pickle_guard(
        lambda e: e.submit(lambda: 3), make_engine=TracedEngine
    )


def test_nested_def_gets_locals_qualname_and_resolves():
    inner = nested_def()
    assert inner.__qualname__ == "nested_def.<locals>.inner"
    rejected_by_the_pickle_guard(lambda e: e.submit(inner))


def test_external_call_has_no_edge():
    # A callable from outside the project pickles by reference.
    assert passed_by_the_pickle_guard(lambda e: e.submit(abs, -3)) == 3


def test_nested_scope_shadows_module_level_def():
    def task(x):  # shadows the module-level task, which pickles
        return x

    rejected_by_the_pickle_guard(lambda e: e.submit(task, 1))
