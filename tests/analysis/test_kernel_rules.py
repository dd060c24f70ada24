"""Good/bad fixtures for the KER kernel-hygiene rules."""

from .helpers import lint_snippet, rules_of

KER = ["KER001", "KER002", "KER003", "KER005"]


class TestNarrowDtype:
    def test_flags_int16_dp_matrix_in_align(self):
        findings = lint_snippet(
            """
            import numpy as np

            def kernel(n, m):
                scores = np.zeros((n, m), dtype=np.int16)
                return scores
            """,
            modname="repro.align.bad_kernel",
            select=KER,
        )
        assert rules_of(findings) == ["KER001"]

    def test_flags_astype_narrowing_and_string_dtype(self):
        findings = lint_snippet(
            """
            import numpy as np

            def narrow(h):
                return h.astype(np.int8), np.empty(4, dtype="int16")
            """,
            modname="repro.align.bad_kernel",
            select=KER,
        )
        assert rules_of(findings) == ["KER001", "KER001"]

    def test_allow_covers_only_its_own_int16_line(self):
        # The one sanctioned 16-bit site (the banded sweep's proved
        # tier in align/_dp.py) does not excuse its neighbour.
        findings = lint_snippet(
            """
            import numpy as np

            def banded_local_dtype(fits):
                if fits:
                    # repro: allow[KER001] 0 <= V <= top < 2**15
                    return np.dtype(np.int16)
                return np.dtype(np.int16)
            """,
            modname="repro.align._dp",
            select=KER,
        )
        assert rules_of(findings) == ["KER001"]
        assert findings[0].line == 8

    def test_uint8_pointers_pass(self):
        findings = lint_snippet(
            """
            import numpy as np

            def traceback(m):
                pointers = np.zeros(m + 1, dtype=np.uint8)
                scores = np.zeros(m + 1, dtype=np.int64)
                return pointers, scores
            """,
            modname="repro.align.good_kernel",
            select=KER,
        )
        assert findings == []

    def test_rule_scoped_to_align(self):
        findings = lint_snippet(
            """
            import numpy as np
            tiny = np.zeros(4, dtype=np.int16)
            """,
            modname="repro.hw.model",
            select=KER,
        )
        assert findings == []

    def test_reference_oracle_module_is_exempt(self):
        findings = lint_snippet(
            """
            import numpy as np

            def kernel(a, b):
                scores = np.zeros((4, 4), dtype=np.int16)
                for i in range(len(a)):
                    for j in range(len(b)):
                        scores[i % 4, j % 4] += 1
                return scores
            """,
            modname="repro.align._reference",
            select=KER,
        )
        assert findings == []


class TestNestedLoop:
    def test_flags_loop_over_both_axes(self):
        findings = lint_snippet(
            """
            def kernel(a, b, score):
                best = 0
                for i in range(len(a)):
                    for j in range(len(b)):
                        best = max(best, score(a[i], b[j]))
                return best
            """,
            modname="repro.align.bad_kernel",
            select=KER,
        )
        assert rules_of(findings) == ["KER002"]

    def test_single_row_loop_passes(self):
        findings = lint_snippet(
            """
            def kernel(a, rows):
                for i in range(1, len(a) + 1):
                    rows[i] = rows[i - 1] + 1
                return rows
            """,
            modname="repro.align.good_kernel",
            select=KER,
        )
        assert findings == []


class TestMutableDefault:
    def test_flags_literal_and_constructor_defaults(self):
        findings = lint_snippet(
            """
            def collect(item, bucket=[], index={}):
                bucket.append(item)
                return bucket, index

            def gather(item, seen=set()):
                seen.add(item)
                return seen
            """,
            select=KER,
        )
        assert rules_of(findings) == ["KER003", "KER003", "KER003"]

    def test_none_default_passes(self):
        findings = lint_snippet(
            """
            def collect(item, bucket=None):
                bucket = [] if bucket is None else bucket
                bucket.append(item)
                return bucket
            """,
            select=KER,
        )
        assert findings == []


class TestStrayPrint:
    def test_flags_print_in_library_code(self):
        findings = lint_snippet(
            """
            def debug(x):
                print("value", x)
            """,
            modname="repro.seed.debug",
            select=KER,
        )
        assert rules_of(findings) == ["KER005"]

    def test_cli_module_is_exempt(self):
        findings = lint_snippet(
            """
            def report(x):
                print("value", x)
            """,
            modname="repro.cli",
            select=KER,
        )
        assert findings == []
