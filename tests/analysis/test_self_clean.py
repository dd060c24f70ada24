"""The linter's own acceptance gate: the real tree must be clean.

Every finding must be either fixed or deliberately suppressed, and a
suppression without a reason or a rule id is itself an unsuppressible
finding (SUP001/SUP002) — CI runs the same check via ``repro lint``.
The tree is linted once per session; the CLI tests lint a one-file tree.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, render_json

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="session")
def src_result():
    return analyze_paths([SRC])


def test_source_tree_exists():
    assert SRC.is_dir()


def test_src_tree_has_zero_unsuppressed_findings(src_result):
    rendered = "\n".join(f.render() for f in src_result.findings)
    assert src_result.ok, f"repro lint found violations:\n{rendered}"


def test_json_report_round_trips(src_result):
    payload = json.loads(render_json(src_result))
    assert payload["ok"] is True
    assert payload["version"] == 1
    assert payload["files"] == len(src_result.files)
    assert payload["findings"] == []
