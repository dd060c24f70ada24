"""Good/bad fixtures for the parallel-safety rules.

The task-callable snippets were written for PAR001/PAR002 (retired);
they now run against FLOW003, which absorbed both.
"""

from .helpers import lint_snippet, rules_of

PAR = ["FLOW003"]


class TestLambdaTask:
    def test_flags_lambda_submitted_to_pool(self):
        findings = lint_snippet(
            """
            def fan_out(engine, items):
                return [engine.submit(lambda x: x * 2, item)
                        for item in items]
            """,
            select=PAR,
        )
        assert rules_of(findings) == ["FLOW003"]
        assert "a lambda is submitted as the task callable" in (
            findings[0].message
        )


class TestNestedTask:
    def test_flags_closure_submitted_to_pool(self):
        findings = lint_snippet(
            """
            def fan_out(engine, items, scale):
                def task(x):
                    return x * scale
                return [engine.submit(task, item) for item in items]
            """,
            select=PAR,
        )
        assert rules_of(findings) == ["FLOW003"]
        assert "nested function task" in findings[0].message

    def test_flags_lambda_assigned_then_submitted(self):
        findings = lint_snippet(
            """
            def fan_out(engine, items):
                task = lambda x: x * 2
                return [engine.submit(task, item) for item in items]
            """,
            select=PAR,
        )
        assert rules_of(findings) == ["FLOW003"]
        assert "nested function task" in findings[0].message

    def test_module_level_task_passes(self):
        findings = lint_snippet(
            """
            def double_task(x):
                return x * 2

            def fan_out(engine, items):
                return [engine.submit(double_task, item)
                        for item in items]
            """,
            select=PAR,
        )
        assert findings == []


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
