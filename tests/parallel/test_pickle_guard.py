"""The runtime pickle guard of ``tests/conftest.py``, on real engines.

The ``test_flow003_*`` cases: the guard pickles what reaches
``submit``/``dispatch`` before the engine delegates.  Without it a
pool's pickling error is retried and the serial fallback runs the task
in-process: a lambda still gives 42.

The ``test_flow002_*`` cases: the guard keeps the bytes it pickles at
``dispatch`` and pickles the ticket again when ``result`` collects it,
so an argument mutated after dispatch fails, through whatever alias or
function the mutation came.
"""

import os
import pickle

import pytest

from .pickle_guard import (
    fan_out,
    mutated_after_dispatch,
    nested_def,
    passed_by_the_pickle_guard,
    rejected_by_the_pickle_guard,
    task,
)

# ---------------------------------------------------------------------------
# An argument mutated after dispatch
# ---------------------------------------------------------------------------


def test_flow002_fires_on_mutation_after_submit():
    def run(engine):
        payload = {"early": 0}
        ticket = engine.dispatch(task, payload, key="unit")
        payload["late"] = 1
        return engine.result(ticket)

    mutated_after_dispatch(run)


def test_flow002_fires_on_mutating_method_call():
    def run(engine):
        batch = [1, 2]
        ticket = engine.dispatch(task, batch, key="unit")
        alias = batch  # a name-based rule loses the object here
        alias.append(9)
        return engine.result(ticket)

    mutated_after_dispatch(run)


def test_flow002_quiet_when_mutation_precedes_submit():
    def run(engine):
        payload = {}
        payload["early"] = 1
        return engine.dispatch(task, payload, key="unit")

    assert passed_by_the_pickle_guard(run) == {"early": 1}


def test_flow002_quiet_when_name_is_rebound_first():
    def run(engine):
        payload = {"sent": 1}
        ticket = engine.dispatch(task, payload, key="unit")
        payload = {}
        payload["fresh"] = 1
        return ticket

    # Rebinding makes a new object; mutating it cannot race the worker.
    assert passed_by_the_pickle_guard(run) == {"sent": 1}


# ---------------------------------------------------------------------------
# A task or argument that cannot pickle
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
def test_flow003_covers_each_entry_point_and_position(
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


# ---------------------------------------------------------------------------
# Task callables handed to ``submit`` as pipelines write them
# ---------------------------------------------------------------------------


def double_task(x):
    return x * 2


class TestLambdaTask:
    def test_flags_lambda_submitted_to_pool(self):
        rejected_by_the_pickle_guard(
            lambda engine: [
                engine.submit(lambda x: x * 2, item) for item in (1, 2)
            ]
        )


class TestNestedTask:
    def test_flags_closure_submitted_to_pool(self):
        scale = 3

        def task(x):
            return x * scale

        rejected_by_the_pickle_guard(lambda engine: engine.submit(task, 1))

    def test_flags_lambda_assigned_then_submitted(self):
        task = lambda x: x * 2  # noqa: E731 - the shape under test
        rejected_by_the_pickle_guard(lambda engine: engine.submit(task, 1))

    def test_module_level_task_passes(self):
        value = passed_by_the_pickle_guard(
            lambda engine: engine.submit(double_task, 4)
        )
        assert value == 8
