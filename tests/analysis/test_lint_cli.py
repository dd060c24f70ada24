"""The three equivalent lint entry points and their exit codes.

Only ``test_repro_lint_subcommand`` lints the real tree; the other
checks run on a one-file tree, or exit before linting anything.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.app import main as analysis_main
from repro.analysis.registry import RETIRED_RULES
from repro.cli import main as cli_main

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture
def clean_tree(tmp_path):
    (tmp_path / "clean.py").write_text("def double(x):\n    return 2 * x\n")
    return tmp_path


def test_module_entry_point_clean_tree(clean_tree, capsys):
    code = analysis_main([str(clean_tree)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s) in 1 file(s)" in out


def test_repro_lint_subcommand(capsys):
    code = cli_main(["lint", str(SRC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_json_format(clean_tree, capsys):
    code = analysis_main([str(clean_tree), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["files"] == 1


def test_list_rules(capsys):
    code = analysis_main(["--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    for rule_id in (
        "DET001", "DET004", "FLOW002", "KER001", "KER005", "PAR003",
        "SUP001",
    ):
        assert rule_id in out
    # One header line, 12 rules and the 3 engine ids.
    assert len(out.strip().splitlines()) == 1 + 12 + 3


def test_dirty_file_fails_with_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
    code = analysis_main([str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "DET002" in out


def test_missing_path_fails_with_exit_two(tmp_path, capsys):
    code = analysis_main([str(tmp_path / "nope")])
    capsys.readouterr()
    assert code == 2


def test_select_filters_rules(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "x = np.random.rand(3)\n"
        "def f(a=[]):\n"
        "    return a\n"
    )
    code = analysis_main([str(bad), "--select", "KER003"])
    out = capsys.readouterr().out
    assert code == 1
    assert "KER003" in out
    assert "DET002" not in out


def test_syntax_error_reports_parse_finding(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    code = analysis_main([str(broken)])
    out = capsys.readouterr().out
    assert code == 1
    assert "PARSE" in out


def test_list_rules_includes_flow_rules(capsys):
    # FLOW002 is an ordinary registered rule; the retired ids (FLOW003
    # among them) are gone from the table.
    code = analysis_main(["--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FLOW002 error" in out
    for retired in RETIRED_RULES:
        assert retired not in out


def test_unknown_select_id_fails_with_exit_two(capsys):
    # A typo must not lint nothing and report "0 finding(s)".
    code = analysis_main([str(SRC), "--select", "DET001,NOPE99"])
    out = capsys.readouterr().out
    assert code == 2
    assert "no such rule: NOPE99" in out
    assert "finding(s)" not in out


@pytest.mark.parametrize("retired", sorted(RETIRED_RULES))
def test_retired_select_id_fails_with_exit_two(retired, capsys):
    # A script still selecting a folded rule must not silently pass.
    code = cli_main(["lint", str(SRC), "--select", retired])
    out = capsys.readouterr().out
    assert code == 2
    assert f"no such rule: {retired} (retired: " in out


def test_engine_ids_are_selectable(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    code = analysis_main([str(broken), "--select", "PARSE"])
    assert code == 1
    assert "PARSE" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag", [["--flow"], ["--graph", "out.json"], ["--baseline", "b.json"]]
)
def test_removed_mode_flags_are_rejected(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        analysis_main([str(SRC)] + flag)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
