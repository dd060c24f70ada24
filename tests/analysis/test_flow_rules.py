"""FLOW002 (lint), and FLOW003's cases held by the runtime pickle guard.

FLOW003 guessed from a call graph what reaches ``submit``/``dispatch``.
The autouse fixture in ``tests/conftest.py`` pickles exactly what does,
before the engine delegates; the ``test_flow003_*`` cases below run real
engines under it.  Without it a pool's pickling error is retried and
the serial fallback runs the task in-process: a lambda still gives 42.
"""

import os
import pickle

import pytest

from .helpers import (
    fan_out,
    lint_tree,
    nested_def,
    passed_by_the_pickle_guard,
    rejected_by_the_pickle_guard,
    rules_of,
    task,
)

# ---------------------------------------------------------------------------
# FLOW002
# ---------------------------------------------------------------------------


def test_flow002_fires_on_mutation_after_submit():
    tree = {
        "repro.core.driver": """
        def task(x):
            return x

        def run(engine, payload):
            handle = engine.submit(task, payload)
            payload["late"] = 1
            return handle
        """,
    }
    findings = lint_tree(tree, select=["FLOW002"])
    assert rules_of(findings) == ["FLOW002"]
    assert "payload" in findings[0].message


def test_flow002_fires_on_mutating_method_call():
    tree = {
        "repro.core.driver": """
        def task(x):
            return x

        def run(engine, batch):
            handle = engine.dispatch(task, batch)
            batch.append(9)
            return handle
        """,
    }
    findings = lint_tree(tree, select=["FLOW002"])
    assert rules_of(findings) == ["FLOW002"]


def test_flow002_quiet_when_mutation_precedes_submit():
    tree = {
        "repro.core.driver": """
        def task(x):
            return x

        def run(engine, payload):
            payload["early"] = 1
            return engine.submit(task, payload)
        """,
    }
    assert lint_tree(tree, select=["FLOW002"]) == []


def test_flow002_quiet_when_name_is_rebound_first():
    tree = {
        "repro.core.driver": """
        def task(x):
            return x

        def run(engine, payload):
            handle = engine.submit(task, payload)
            payload = {}
            payload["fresh"] = 1
            return handle
        """,
    }
    # Rebinding makes a new object; mutating it cannot race the worker.
    assert lint_tree(tree, select=["FLOW002"]) == []


# ---------------------------------------------------------------------------
# FLOW003, retired to the pickle guard
# ---------------------------------------------------------------------------


def apply_a_lambda(x):
    return (lambda v: v + 1)(x)


def test_flow003_fires_on_lambda_argument_to_submit():
    rejected_by_the_pickle_guard(
        lambda engine: engine.submit(task, 3, lambda v: v + 1)
    )


def test_flow003_fires_transitively_through_a_helper():
    rejected_by_the_pickle_guard(
        lambda engine: fan_out(engine, "submit", task, lambda: 3)
    )


def test_flow003_fires_on_open_handle_through_chain():
    with open(os.devnull) as handle:
        rejected_by_the_pickle_guard(
            lambda engine: fan_out(engine, "submit", task, handle)
        )


def test_flow003_quiet_on_plain_data_through_chain():
    value = passed_by_the_pickle_guard(
        lambda engine: fan_out(engine, "submit", task, [1, 2, 3])
    )
    assert value == [1, 2, 3]


def test_flow003_quiet_when_helper_never_submits():
    # Lambdas are fine in-process; only the pool boundary pickles, so a
    # task that makes and applies one inside the worker passes.
    value = passed_by_the_pickle_guard(
        lambda engine: engine.submit(apply_a_lambda, 3)
    )
    assert value == 4


#: Shape of the unpicklable value -> a fresh one.  The empty prefix is a
#: lambda, so the parent's ids (``callable-direct`` ...) keep their names.
SHAPES = {
    "": lambda: lambda v: v,
    "nested-": nested_def,
    "generator-": lambda: (n for n in range(3)),
    "open-file-": lambda: open(os.devnull),
}


@pytest.mark.parametrize("method", ["submit", "dispatch"])
@pytest.mark.parametrize(
    "shape, position, route",
    [
        pytest.param(shape, position, route, id=f"{shape}{position}-{route}")
        for shape in SHAPES
        for position in ("callable", "argument")
        for route in ("direct", "chain")
    ],
)
def test_flow003_covers_both_entry_points_and_positions(
    method, shape, position, route
):
    value = SHAPES[shape]()
    call = (value,) if position == "callable" else (task, value)
    if route == "direct":
        rejected_by_the_pickle_guard(
            lambda engine: getattr(engine, method)(*call)
        )
    else:
        rejected_by_the_pickle_guard(
            lambda engine: fan_out(engine, method, *call)
        )
    getattr(value, "close", lambda: None)()


def test_flow003_reports_a_dispatch_site_once_on_the_real_engine_shape(
    monkeypatch,
):
    # ``dispatch`` hands ``fn`` to the supervisor, not to the guarded
    # ``submit``: the value is pickled once, at the call.
    pickled = []
    dumps = pickle.dumps

    def counted(obj, *args, **kwargs):
        pickled.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", counted)
    rejected_by_the_pickle_guard(
        lambda engine: engine.dispatch(lambda: 3, key="k")
    )
    assert len(pickled) == 1


def test_flow003_sees_a_sibling_closure_handed_on_by_a_closure():
    def run(engine, items):
        def task(x):
            return x

        def fan(item):
            return engine.dispatch(task, item)

        return [fan(item) for item in items]

    rejected_by_the_pickle_guard(lambda engine: run(engine, [1, 2]))


def test_flow003_quiet_on_module_level_task_to_dispatch():
    value = passed_by_the_pickle_guard(
        lambda engine: engine.dispatch(task, (1, 2), key="extend:0")
    )
    assert value == (1, 2)
