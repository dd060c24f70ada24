"""OBS rules: ad-hoc sampling locality and worker stdout hygiene.

The worker-stdout snippets were written for OBS002 (retired); they now
run against KER005, which bans terminal output from all library code
and therefore from worker code too.
"""

from .helpers import lint_snippet, rules_of


class TestObs001AdhocSampling:
    def test_process_time_outside_obs_flagged(self):
        findings = lint_snippet(
            """
            import time

            def measure():
                return time.process_time()
            """,
            select=["OBS001"],
        )
        assert rules_of(findings) == ["OBS001"]

    def test_getrusage_outside_obs_flagged(self):
        findings = lint_snippet(
            """
            import resource

            def peak():
                return resource.getrusage(resource.RUSAGE_SELF)
            """,
            select=["OBS001"],
        )
        assert rules_of(findings) == ["OBS001"]

    def test_from_import_alias_resolved(self):
        findings = lint_snippet(
            """
            from time import process_time as cpu

            def measure():
                return cpu()
            """,
            select=["OBS001"],
        )
        assert rules_of(findings) == ["OBS001"]

    def test_repro_obs_modules_are_exempt(self):
        findings = lint_snippet(
            """
            import time

            def sample():
                return time.process_time()
            """,
            modname="repro.obs.resource",
            select=["OBS001"],
        )
        assert findings == []

    def test_wall_clocks_are_not_obs001_business(self):
        # perf_counter is DET003's concern; OBS001 must not double-flag.
        findings = lint_snippet(
            """
            import time

            def stamp():
                return time.perf_counter()
            """,
            select=["OBS001"],
        )
        assert findings == []

    def test_suppression_comment_honoured(self):
        findings = lint_snippet(
            """
            import time

            def measure():
                return time.process_time()  # repro: allow[OBS001] calibration script
            """,
            select=["OBS001"],
        )
        assert findings == []


class TestObs002WorkerStdout:
    def test_print_in_task_function_flagged(self):
        findings = lint_snippet(
            """
            def align_unit_task(unit):
                print("starting", unit)
                return unit
            """,
            select=["KER005"],
        )
        assert rules_of(findings) == ["KER005"]

    def test_stdout_write_in_worker_module_flagged(self):
        findings = lint_snippet(
            """
            import sys

            def helper():
                sys.stdout.write("hello")
            """,
            modname="repro.parallel.worker",
            select=["KER005"],
        )
        assert rules_of(findings) == ["KER005"]

    def test_print_with_explicit_stdout_file_flagged(self):
        findings = lint_snippet(
            """
            import sys

            def extend_batch_task(batch):
                print("batch", file=sys.stdout)
            """,
            select=["KER005"],
        )
        assert rules_of(findings) == ["KER005"]

    def test_print_to_stderr_flagged_too(self):
        # OBS002 let stderr through; a worker's stderr interleaves with
        # the parent's progress line just the same.
        findings = lint_snippet(
            """
            import sys

            def align_unit_task(unit):
                print("debug", file=sys.stderr)
            """,
            select=["KER005"],
        )
        assert rules_of(findings) == ["KER005"]

    def test_stderr_write_in_worker_module_flagged(self):
        findings = lint_snippet(
            """
            import sys

            def helper():
                sys.stderr.write("hello")
            """,
            modname="repro.core.worker",
            select=["KER005"],
        )
        assert rules_of(findings) == ["KER005"]
        assert "sys.stderr.write()" in findings[0].message

    def test_print_outside_worker_code_flagged_outside_cli_only(self):
        source = """
            def render_summary(report):
                print(report)
            """
        assert rules_of(
            lint_snippet(source, select=["KER005"])
        ) == ["KER005"]
        assert lint_snippet(source, modname="repro.cli", select=["KER005"]) == []

    def test_suppression_comment_honoured(self):
        findings = lint_snippet(
            """
            def debug_task(unit):
                print(unit)  # repro: allow[KER005] one-off debug helper
            """,
            select=["KER005"],
        )
        assert findings == []
