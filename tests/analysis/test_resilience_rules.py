"""Good/bad fixtures for the RES resilience-hygiene rules."""

from .helpers import lint_snippet, rules_of

RES = ["RES001"]


class TestSwallowedException:
    def test_flags_except_exception_pass(self):
        findings = lint_snippet(
            """
            def fragile():
                try:
                    risky()
                except Exception:
                    pass
            """,
            modname="repro.resilience.bad",
            select=RES,
        )
        assert rules_of(findings) == ["RES001"]

    def test_flags_base_exception_with_ellipsis_body(self):
        findings = lint_snippet(
            """
            def fragile():
                try:
                    risky()
                except BaseException:
                    ...
            """,
            modname="repro.resilience.bad",
            select=RES,
        )
        assert rules_of(findings) == ["RES001"]

    def test_flags_broad_member_of_tuple(self):
        findings = lint_snippet(
            """
            def fragile():
                try:
                    risky()
                except (ValueError, Exception):
                    pass
            """,
            modname="repro.resilience.bad",
            select=RES,
        )
        assert rules_of(findings) == ["RES001"]

    def test_narrow_handler_passes(self):
        findings = lint_snippet(
            """
            import os

            def best_effort_unlink(path):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            """,
            modname="repro.resilience.good",
            select=RES,
        )
        assert findings == []

    def test_handler_that_acts_passes(self):
        findings = lint_snippet(
            """
            def guarded(stats):
                try:
                    return risky()
                except Exception:
                    stats.failures += 1
                    raise
            """,
            modname="repro.resilience.good",
            select=RES,
        )
        assert findings == []

    def test_bare_except_left_to_ker004(self):
        # A bare except is not RES001's business: it is ruff's E722
        # (CI's ruff job).
        findings = lint_snippet(
            """
            def fragile():
                try:
                    risky()
                except:
                    pass
            """,
            modname="repro.resilience.bad",
            select=RES,
        )
        assert findings == []

    def test_suppression_comment_silences(self):
        findings = lint_snippet(
            """
            def shutdown_hook():
                try:
                    flush()
                except Exception:  # repro: allow[RES001] atexit must not raise
                    pass
            """,
            modname="repro.resilience.good",
            select=RES,
        )
        assert findings == []
