"""FLOW002/FLOW003: true positives and true negatives each, including
every way an unpicklable value can reach the pool."""

import pytest

from .helpers import lint_tree, rules_of

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
# FLOW003
# ---------------------------------------------------------------------------


def test_flow003_fires_on_lambda_argument_to_submit():
    tree = {
        "repro.core.driver": """
        def task(x, fn):
            return fn(x)

        def run(engine):
            return engine.submit(task, 3, lambda v: v + 1)
        """,
    }
    findings = lint_tree(tree, select=["FLOW003"])
    assert rules_of(findings) == ["FLOW003"]
    assert "lambda" in findings[0].message


def test_flow003_fires_transitively_through_a_helper():
    tree = {
        "repro.core.driver": """
        def _dispatch(engine, fn, arg):
            return engine.submit(fn, arg)

        def task(x):
            return x

        def run(engine):
            return _dispatch(engine, task, lambda: 3)
        """,
    }
    findings = lint_tree(tree, select=["FLOW003"])
    assert rules_of(findings) == ["FLOW003"]
    assert "_dispatch" in findings[0].message


def test_flow003_fires_on_open_handle_through_chain():
    tree = {
        "repro.core.driver": """
        def _dispatch(engine, fn, arg):
            return engine.submit(fn, arg)

        def task(x):
            return x

        def run(engine, path):
            fh = open(path)
            return _dispatch(engine, task, fh)
        """,
    }
    findings = lint_tree(tree, select=["FLOW003"])
    assert rules_of(findings) == ["FLOW003"]
    assert "file handle" in findings[0].message


def test_flow003_quiet_on_plain_data_through_chain():
    tree = {
        "repro.core.driver": """
        def _dispatch(engine, fn, arg):
            return engine.submit(fn, arg)

        def task(x):
            return x

        def run(engine):
            return _dispatch(engine, task, [1, 2, 3])
        """,
    }
    assert lint_tree(tree, select=["FLOW003"]) == []


def test_flow003_quiet_when_helper_never_submits():
    tree = {
        "repro.core.driver": """
        def _apply(fn, arg):
            return fn(arg)

        def run():
            return _apply(lambda v: v + 1, 3)
        """,
    }
    # Lambdas are fine in-process; only the pool boundary pickles.
    assert lint_tree(tree, select=["FLOW003"]) == []


# Both pool entry points x both positions x direct / through a helper.
# The parent linter saw the callable only on a direct ``.submit(`` and
# never on ``.dispatch(`` — the spelling both production sites use.

_DIRECT_CALLABLE = """
def run(engine, k):
    return engine.{method}(lambda: 3, key=k)
"""

_DIRECT_NESTED_CALLABLE = """
def run(engine, k):
    def inner():
        return 3
    return engine.{method}(inner, key=k)
"""

_DIRECT_ARGUMENT = """
def task(x, fn):
    return fn(x)

def run(engine):
    return engine.{method}(task, 3, lambda v: v + 1)
"""

_CHAIN_CALLABLE = """
def _fan_out(engine, fn, arg):
    return engine.{method}(fn, arg)

def run(engine):
    return _fan_out(engine, lambda v: v, 3)
"""

_CHAIN_ARGUMENT = """
def _fan_out(engine, fn, arg):
    return engine.{method}(fn, arg)

def task(x):
    return x

def run(engine):
    return _fan_out(engine, task, lambda: 3)
"""


@pytest.mark.parametrize("method", ["submit", "dispatch"])
@pytest.mark.parametrize(
    "source, fragment",
    [
        pytest.param(_DIRECT_CALLABLE, "task callable", id="callable-direct"),
        pytest.param(
            _DIRECT_NESTED_CALLABLE,
            "nested function inner",
            id="nested-callable-direct",
        ),
        pytest.param(_DIRECT_ARGUMENT, "task argument", id="argument-direct"),
        pytest.param(_CHAIN_CALLABLE, "parameter fn", id="callable-chain"),
        pytest.param(_CHAIN_ARGUMENT, "parameter arg", id="argument-chain"),
    ],
)
def test_flow003_covers_both_entry_points_and_positions(
    method, source, fragment
):
    findings = lint_tree({"repro.core.driver": source.format(method=method)})
    assert rules_of(findings) == ["FLOW003"]
    assert fragment in findings[0].message


def test_flow003_reports_a_dispatch_site_once_on_the_real_engine_shape():
    # ExecutionEngine.submit/dispatch forward ``fn`` into the pool's own
    # ``.submit(``, so their ``fn`` parameter reaches a dispatch too;
    # the direct finding must not be repeated as a transitive one.
    tree = {
        "repro.parallel.engine": """
        class ExecutionEngine:
            def submit(self, fn, *args):
                return self._pool().submit(fn, *args)

            def dispatch(self, fn, *args, key=""):
                return self._dispatcher().submit(fn, *args, key=key)
        """,
        "repro.core.driver": """
        def run(engine, k):
            return engine.dispatch(lambda: 3, key=k)
        """,
    }
    findings = lint_tree(tree)
    assert rules_of(findings) == ["FLOW003"]


def test_flow003_sees_a_sibling_closure_handed_on_by_a_closure():
    tree = {
        "repro.core.driver": """
        def run(engine, items):
            def task(x):
                return x

            def fan(item):
                return engine.dispatch(task, item)

            return [fan(item) for item in items]
        """,
    }
    findings = lint_tree(tree)
    assert rules_of(findings) == ["FLOW003"]
    assert "nested function task" in findings[0].message


def test_flow003_quiet_on_module_level_task_to_dispatch():
    tree = {
        "repro.core.tasks": """
        def extend_batch_task(batch):
            return batch
        """,
        "repro.core.driver": """
        from repro.core.tasks import extend_batch_task

        def run(engine, batch, n):
            return engine.dispatch(
                extend_batch_task, tuple(batch), key=f"extend:{n}"
            )
        """,
    }
    assert lint_tree(tree) == []
