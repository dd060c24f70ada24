"""The linter's own acceptance gate: the real tree must be clean.

Every suppression in the tree must carry a reason (SUP001 would fire
otherwise), and every finding must be either fixed or deliberately
suppressed — CI runs the same check via ``repro lint --format json``.
"""

import json
from pathlib import Path

from repro.analysis import analyze_paths, render_json

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_source_tree_exists():
    assert SRC.is_dir()


def test_src_tree_has_zero_unsuppressed_findings():
    result = analyze_paths([SRC])
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.ok, f"repro lint found violations:\n{rendered}"


def test_every_suppression_in_tree_has_a_reason():
    result = analyze_paths([SRC])
    # SUP001 findings are unsuppressible, so a clean result already
    # implies reasons everywhere; double-check the parsed comments too.
    from repro.analysis.engine import collect_files, load_module

    for path in collect_files([SRC]):
        module = load_module(path)
        for comment in module.suppressions.comments:
            assert comment.reason, (
                f"{path}:{comment.line} suppression without a reason"
            )
            assert comment.rules, (
                f"{path}:{comment.line} suppression without rule ids"
            )


def test_layer_map_covers_every_package():
    from repro.analysis import RANKS

    packages = {
        child.name
        for child in SRC.iterdir()
        if child.is_dir() and (child / "__init__.py").exists()
    }
    assert packages <= set(RANKS), (
        f"packages missing from the layer map: {sorted(packages - set(RANKS))}"
    )


def test_json_report_round_trips():
    result = analyze_paths([SRC])
    payload = json.loads(render_json(result))
    assert payload["ok"] is True
    assert payload["version"] == 1
    assert payload["files"] == len(result.files)
    assert payload["findings"] == []
