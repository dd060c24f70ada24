"""Shared helpers for the tests of the runtime pickle guard in
``tests/conftest.py``."""

from __future__ import annotations

import pickle
from concurrent.futures import Future

import pytest

from repro.parallel.engine import ExecutionEngine

#: What ``pickle.dumps`` raises for a value that cannot reach a worker.
UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError)


def task(x, *rest):
    """A module-level task: it pickles by reference."""
    return x


def fan_out(engine, method, fn, *args):
    """A helper between the caller and the engine, as pipelines have."""
    return getattr(engine, method)(fn, *args)


def nested_def():
    def inner():
        return 3

    return inner


def rejected_by_the_pickle_guard(call, make_engine=ExecutionEngine):
    """``call(engine)`` fails to pickle before a pool or supervisor exists."""
    with make_engine(2) as engine:
        with pytest.raises(UNPICKLABLE):
            call(engine)
        assert engine._executor is None
        assert engine._dispatcher_obj is None


def passed_by_the_pickle_guard(call):
    """The value of the future or ticket ``call(engine)`` returns."""
    with ExecutionEngine(1) as engine:
        handle = call(engine)
        if isinstance(handle, Future):
            return handle.result()
        return engine.result(handle)


def mutated_after_dispatch(call):
    """``call(engine)`` dispatches, mutates an argument, then collects:
    the guard refuses the collection."""
    with ExecutionEngine(1) as engine:
        with pytest.raises(AssertionError, match="mutated after dispatch"):
            call(engine)
