"""Good/bad fixtures for the parallel-safety rule PAR003.

The task-callable cases (PAR001/PAR002, then FLOW003, all retired) run
real engines under the pickle guard in ``tests/conftest.py``.
"""

from .helpers import (
    lint_snippet,
    passed_by_the_pickle_guard,
    rejected_by_the_pickle_guard,
    rules_of,
)


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


class TestUnboundedStageBuffer:
    PAR3 = ["PAR003"]

    def test_flags_bare_deque(self):
        findings = lint_snippet(
            """
            from collections import deque

            def stage():
                return deque()
            """,
            select=self.PAR3,
        )
        assert rules_of(findings) == ["PAR003"]

    def test_flags_deque_with_maxlen_none(self):
        findings = lint_snippet(
            """
            from collections import deque

            def stage(items):
                return deque(items, maxlen=None)
            """,
            select=self.PAR3,
        )
        assert rules_of(findings) == ["PAR003"]

    def test_deque_with_maxlen_passes(self):
        findings = lint_snippet(
            """
            from collections import deque

            def stage(window):
                return deque(maxlen=window)
            """,
            select=self.PAR3,
        )
        assert findings == []

    def test_flags_queue_without_maxsize(self):
        findings = lint_snippet(
            """
            import queue

            def stage():
                return queue.Queue()
            """,
            select=self.PAR3,
        )
        assert rules_of(findings) == ["PAR003"]

    def test_flags_queue_with_zero_maxsize(self):
        findings = lint_snippet(
            """
            import queue

            def stage():
                return queue.Queue(maxsize=0)
            """,
            select=self.PAR3,
        )
        assert rules_of(findings) == ["PAR003"]

    def test_flags_simplequeue_always(self):
        findings = lint_snippet(
            """
            import queue

            def stage():
                return queue.SimpleQueue()
            """,
            select=self.PAR3,
        )
        assert rules_of(findings) == ["PAR003"]

    def test_bounded_queue_passes(self):
        findings = lint_snippet(
            """
            import queue

            def stage():
                return queue.Queue(maxsize=8)
            """,
            select=self.PAR3,
        )
        assert findings == []

    def test_variable_maxsize_taken_on_trust(self):
        findings = lint_snippet(
            """
            import multiprocessing

            def stage(depth):
                return multiprocessing.Queue(depth)
            """,
            select=self.PAR3,
        )
        assert findings == []

    def test_suppression_with_reason_is_honoured(self):
        findings = lint_snippet(
            """
            from collections import deque

            def stage():
                return deque()  # repro: allow[PAR003] watermark-capped
            """,
            select=self.PAR3,
        )
        assert findings == []
