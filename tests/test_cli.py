"""Command-line interface tests."""

import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN_HELP = Path(__file__).parent / "golden" / "cli_help.txt"
COMMANDS = (
    "generate align chain model mask net tblastx trace serve".split()
)


@pytest.fixture
def genomes(tmp_path):
    code = main(
        [
            "generate",
            "--length",
            "6000",
            "--distance",
            "0.4",
            "--seed",
            "3",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    return tmp_path


class TestGenerate:
    def test_writes_fasta_and_bed(self, genomes):
        assert (genomes / "target.fa").exists()
        assert (genomes / "query.fa").exists()
        assert (genomes / "target_exons.bed").exists()

    def test_bed_has_exon_rows(self, genomes):
        rows = (genomes / "target_exons.bed").read_text().splitlines()
        assert len(rows) == 10
        fields = rows[0].split("\t")
        assert fields[0] == "target"
        assert int(fields[2]) > int(fields[1])


class TestAlign:
    def test_darwin_align_writes_maf(self, genomes, capsys):
        out = genomes / "out.maf"
        code = main(
            [
                "align",
                str(genomes / "target.fa"),
                str(genomes / "query.fa"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "alignments" in captured.out

    def test_lastz_align(self, genomes, capsys):
        code = main(
            [
                "align",
                "--aligner",
                "lastz",
                str(genomes / "target.fa"),
                str(genomes / "query.fa"),
            ]
        )
        assert code == 0
        assert "alignments" in capsys.readouterr().out

    def test_plus_only(self, genomes):
        code = main(
            [
                "align",
                str(genomes / "target.fa"),
                str(genomes / "query.fa"),
                "--plus-only",
            ]
        )
        assert code == 0


class TestChain:
    def test_chain_from_maf(self, genomes, capsys):
        maf = genomes / "out.maf"
        main(
            [
                "align",
                str(genomes / "target.fa"),
                str(genomes / "query.fa"),
                "--out",
                str(maf),
            ]
        )
        chain_out = genomes / "out.chain"
        code = main(
            [
                "chain",
                str(maf),
                str(genomes / "target.fa"),
                str(genomes / "query.fa"),
                "--out",
                str(chain_out),
            ]
        )
        assert code == 0
        assert chain_out.exists()
        text = chain_out.read_text()
        assert text.startswith("chain ")


class TestTrace:
    def test_align_trace_out_and_render(self, genomes, capsys):
        import json

        trace_path = genomes / "run.json"
        code = main(
            [
                "align",
                str(genomes / "target.fa"),
                str(genomes / "query.fa"),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        report = json.loads(trace_path.read_text())
        assert report["spans"][0]["name"] == "align"
        # per-stage cell counts in the trace match the workload block
        root = report["spans"][0]
        assert (
            root["counters"]["filter_cells"]
            == report["workload"]["filter_cells"]
        )
        assert (
            root["counters"]["extension_cells"]
            == report["workload"]["extension_cells"]
        )
        capsys.readouterr()

        chrome_path = genomes / "chrome.json"
        code = main(
            ["trace", str(trace_path), "--chrome", str(chrome_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stage" in out
        assert "align" in out
        chrome = json.loads(chrome_path.read_text())
        assert all(e["ph"] == "X" for e in chrome["traceEvents"])

    def test_chain_trace_out(self, genomes, capsys):
        import json

        maf = genomes / "trace.maf"
        main(
            [
                "align",
                str(genomes / "target.fa"),
                str(genomes / "query.fa"),
                "--out",
                str(maf),
            ]
        )
        trace_path = genomes / "chain_run.json"
        code = main(
            [
                "chain",
                str(maf),
                str(genomes / "target.fa"),
                str(genomes / "query.fa"),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        report = json.loads(trace_path.read_text())
        assert report["spans"][0]["name"] == "chain"
        assert report["meta"]["command"] == "chain"

    @pytest.mark.parametrize(
        "content, expected",
        [
            (None, "No such file or directory"),
            ("not json {", "not JSON"),
            ("[1, 2, 3]", "not a run report"),
            ('{"spans": []}', "unsupported run-report version None"),
            ('{"version": 999}', "unsupported run-report version 999"),
        ],
        ids=["missing", "not-json", "not-object", "no-version", "bad-version"],
    )
    def test_unreadable_report_exits_with_one_line(
        self, tmp_path, content, expected
    ):
        path = tmp_path / "report.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", str(path)])
        message = str(excinfo.value.code)
        assert message.startswith(f"{path}: ")
        assert expected in message
        assert "\n" not in message


class TestModel:
    def test_model_defaults(self, capsys):
        code = main(["model"])
        assert code == 0
        out = capsys.readouterr().out
        assert "performance/$" in out
        assert "performance/W" in out

    def test_model_asic_table(self, capsys):
        code = main(["model", "--asic-table"])
        assert code == 0
        assert "BSW Logic" in capsys.readouterr().out


class TestMask:
    def test_mask_writes_fasta(self, genomes, capsys):
        out = genomes / "masked.fa"
        code = main(
            [
                "mask",
                str(genomes / "target.fa"),
                "--out",
                str(out),
                "--method",
                "frequency",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "masked" in capsys.readouterr().out


class TestNet:
    def test_net_from_maf(self, genomes, capsys):
        maf = genomes / "net.maf"
        main(
            [
                "align",
                str(genomes / "target.fa"),
                str(genomes / "query.fa"),
                "--out",
                str(maf),
            ]
        )
        code = main(
            [
                "net",
                str(maf),
                str(genomes / "target.fa"),
                str(genomes / "query.fa"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-level entries" in out


class TestTblastx:
    def test_translated_search(self, genomes, capsys):
        code = main(
            [
                "tblastx",
                str(genomes / "target.fa"),
                str(genomes / "query.fa"),
                "--threshold",
                "50",
                "--max-hits",
                "5",
            ]
        )
        assert code == 0
        assert "translated hits" in capsys.readouterr().out


class TestMalformedFasta:
    """Sequence data before the first ``>`` line is a one-line error."""

    @pytest.mark.parametrize(
        "command", ["align", "mask", "chain", "net", "tblastx"]
    )
    def test_headerless_fasta_exits_with_one_line(self, genomes, command):
        bad = genomes / "nohdr.fa"
        bad.write_text("ACGTACGT\n>late\nACGT\n")
        maf = genomes / "empty.maf"
        maf.write_text("##maf version=1\n")
        good = str(genomes / "query.fa")
        argv = {
            "align": ["align", str(bad), good],
            "mask": ["mask", str(bad), "--out", str(genomes / "m.fa")],
            "chain": ["chain", str(maf), str(bad), good],
            "net": ["net", str(maf), str(bad), good],
            "tblastx": ["tblastx", good, str(bad)],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value.code) == (
            f"{bad}: FASTA data before first header line"
        )


class TestMissingInput:
    """A missing input path or a directory is one ``PATH: strerror``
    line, not a traceback."""

    @pytest.mark.parametrize(
        "kind, strerror",
        [("missing", "No such file or directory"), ("dir", "Is a directory")],
    )
    @pytest.mark.parametrize(
        "command", ["align", "chain", "net", "mask", "tblastx"]
    )
    def test_exits_with_one_line(self, genomes, command, kind, strerror):
        bad = genomes / "nope"
        if kind == "dir":
            bad.mkdir()
        fasta = [str(genomes / "target.fa"), str(genomes / "query.fa")]
        argv = {
            "align": ["align", str(bad), fasta[1]],
            "chain": ["chain", str(bad), *fasta],
            "net": ["net", str(bad), *fasta],
            "mask": ["mask", str(bad), "--out", str(genomes / "m.fa")],
            "tblastx": ["tblastx", fasta[0], str(bad)],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value.code) == f"{bad}: {strerror}"


class TestOutOfRangeArguments:
    @pytest.mark.parametrize("word_length", ["-3", "0", "33"])
    def test_mask_word_length(self, genomes, word_length):
        argv = [
            "mask",
            str(genomes / "target.fa"),
            "--out",
            str(genomes / "m.fa"),
            "--word-length",
            word_length,
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value.code) == (
            "--word-length: word_length must be between 1 and 32, "
            f"got {word_length}"
        )
        assert not (genomes / "m.fa").exists()

    @pytest.mark.parametrize("max_hits", ["-1", "0"])
    def test_tblastx_max_hits(self, genomes, max_hits):
        fasta = [str(genomes / "target.fa"), str(genomes / "query.fa")]
        with pytest.raises(SystemExit) as excinfo:
            main(["tblastx", *fasta, "--max-hits", max_hits])
        assert str(excinfo.value.code) == "--max-hits must be at least 1"


class TestMalformedMaf:
    """A malformed MAF is one ``PATH: line N: message`` line, not a
    traceback."""

    @pytest.mark.parametrize(
        "body, message",
        [
            ("a score=abc\n", "line 2: could not convert string to float"),
            ("a score=1\ns q 0 x + 10 ACGT\n", "line 3: invalid literal"),
            ("a score=1\ns t 0 4 +\n", "line 3: 's' line needs 7 fields"),
            (
                "a score=1\ns t 0 2 + 4 AC\ns q 0 1 + 4 A\n",
                "line 4: MAF rows differ in length",
            ),
        ],
        ids=["score", "integer", "short_line", "unequal_rows"],
    )
    @pytest.mark.parametrize("command", ["chain", "net"])
    def test_exits_with_one_line(self, genomes, command, body, message):
        bad = genomes / "bad.maf"
        bad.write_text("##maf version=1\n" + body)
        fasta = [str(genomes / "target.fa"), str(genomes / "query.fa")]
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(bad), *fasta])
        assert str(excinfo.value.code).startswith(f"{bad}: {message}")


@pytest.fixture
def assemblies(tmp_path):
    code = main(
        [
            "generate",
            "--length",
            "3000",
            "--chromosomes",
            "2",
            "--distance",
            "0.4",
            "--seed",
            "3",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    return tmp_path


class TestRobustness:
    def test_generate_chromosomes_writes_multi_fasta(self, assemblies):
        target = (assemblies / "target.fa").read_text()
        names = [
            line[1:].split()[0]
            for line in target.splitlines()
            if line.startswith(">")
        ]
        assert names == ["target_chr1", "target_chr2"]
        bed_names = {
            row.split("\t")[0]
            for row in (assemblies / "target_exons.bed")
            .read_text()
            .splitlines()
        }
        assert bed_names <= {"target_chr1", "target_chr2"}

    def test_fault_injection_matches_serial(self, assemblies, capsys):
        serial = assemblies / "serial.maf"
        chaos = assemblies / "chaos.maf"
        args = [
            "align",
            str(assemblies / "target.fa"),
            str(assemblies / "query.fa"),
        ]
        assert main(args + ["--out", str(serial)]) == 0
        code = main(
            args
            + [
                "--out",
                str(chaos),
                "--workers",
                "2",
                "--inject-faults",
                "2:error=0.6",
            ]
        )
        assert code == 0
        assert chaos.read_bytes() == serial.read_bytes()
        assert "recovery" in capsys.readouterr().out

    def test_checkpoint_resume_roundtrip(self, assemblies, capsys):
        full = assemblies / "full.maf"
        resumed = assemblies / "resumed.maf"
        manifest = assemblies / "run.manifest"
        args = [
            "align",
            str(assemblies / "target.fa"),
            str(assemblies / "query.fa"),
        ]
        code = main(
            args + ["--out", str(full), "--checkpoint", str(manifest)]
        )
        assert code == 0
        lines = manifest.read_text().splitlines()
        assert len(lines) == 5  # header + 2x2 chromosome pairs
        # Drop the last two journaled units to simulate an interrupt.
        manifest.write_text("\n".join(lines[:3]) + "\n")
        code = main(
            args
            + [
                "--out",
                str(resumed),
                "--checkpoint",
                str(manifest),
                "--resume",
            ]
        )
        assert code == 0
        assert resumed.read_bytes() == full.read_bytes()
        assert "2 resumed" in capsys.readouterr().out

    def test_resume_against_foreign_or_unusable_manifest_exits_cleanly(
        self, assemblies
    ):
        # A typed ManifestError must end in a one-line exit, not a
        # traceback: a manifest from another configuration, then one
        # whose header is garbage.
        manifest = assemblies / "foreign.manifest"
        args = [
            "align",
            str(assemblies / "target.fa"),
            str(assemblies / "query.fa"),
            "--checkpoint",
            str(manifest),
        ]
        assert main(args) == 0
        with pytest.raises(SystemExit, match="refusing to resume") as exit:
            main(args + ["--resume", "--aligner", "lastz"])
        assert "\n" not in str(exit.value)
        manifest.write_text("not json\n")
        with pytest.raises(SystemExit, match="unreadable manifest header"):
            main(args + ["--resume"])

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("align", "--max-retries", "-1"),
            ("align", "--task-timeout", "0"),
            ("align", "--task-timeout", "-1"),
            ("serve", "--max-retries", "-3"),
            ("serve", "--task-timeout", "0"),
            ("serve", "--heartbeat-interval", "-1"),
            ("serve", "--heartbeat-deadline", "-1"),
        ],
    )
    def test_unusable_resilience_flag_exits_with_one_line(
        self, tmp_path, command, flag, value
    ):
        # Checked before any input is read or any state is created.
        state = tmp_path / "state"
        operands = {
            "align": ["t.fa", "q.fa", "--workers", "2"],
            "serve": [str(state), "--workers", "2"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *operands, flag, value])
        message = str(excinfo.value.code)
        assert message.startswith(f"{flag} must be ")
        assert "\n" not in message
        assert not state.exists()

    @pytest.mark.parametrize("fasta", ["target.fa", "query.fa"])
    def test_duplicate_chromosome_name_exits_with_one_line(
        self, assemblies, fasta
    ):
        # Rows and chains key on the name: a second 'chr' once took the
        # first one's srcSize and bases.
        path = assemblies / fasta
        lines = path.read_text().splitlines()
        path.write_text(
            "".join(
                ">chr\n" if line.startswith(">") else line + "\n"
                for line in lines
            )
        )
        out = assemblies / "out.maf"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "align",
                    str(assemblies / "target.fa"),
                    str(assemblies / "query.fa"),
                    "--out",
                    str(out),
                ]
            )
        role = fasta.removesuffix(".fa")
        assert str(excinfo.value.code) == (
            f"{role} assembly has two chromosomes named 'chr'"
        )
        assert not out.exists()

    def test_resume_requires_checkpoint(self, assemblies):
        with pytest.raises(SystemExit, match="checkpoint"):
            main(
                [
                    "align",
                    str(assemblies / "target.fa"),
                    str(assemblies / "query.fa"),
                    "--resume",
                ]
            )


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_help_lists_the_nine_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        unwrapped = "".join(capsys.readouterr().out.split())
        assert (
            "{generate,align,chain,model,mask,net,tblastx,trace,serve}"
            in unwrapped
        )

    @pytest.mark.skipif(
        sys.version_info < (3, 10), reason="3.9 titles the section differently"
    )
    def test_help_texts_are_byte_identical_to_the_golden_file(
        self, capsys, monkeypatch
    ):
        # tests/golden/cli_help.txt is `repro [CMD] --help` for the top
        # level and the ten subcommands, generated at PR 23 (before the
        # CLI imported per command) at 80 columns.
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for command in [""] + COMMANDS:
            with pytest.raises(SystemExit) as excinfo:
                main(([command] if command else []) + ["--help"])
            assert excinfo.value.code == 0
            texts.append(
                f"=== repro {command} --help\n" + capsys.readouterr().out
            )
        assert "".join(texts) == GOLDEN_HELP.read_text()

    def test_lint_subcommand_and_analysis_package_are_gone(self, capsys):
        # The source invariants are tier-1 tests (tests/test_invariants.py).
        with pytest.raises(SystemExit) as excinfo:
            main(["lint"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err
        with pytest.raises(ImportError):
            import repro.analysis  # noqa: F401

    def test_bench_subcommand_and_gate_module_are_gone(self, capsys):
        # The second benchmark gate was removed; perf/run.py is the ruler.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "check"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        with pytest.raises(ImportError):
            from repro.obs import gate  # noqa: F401

    def test_barrier_flag_is_gone(self):
        # The barrier schedule was removed with the flag that chose it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["align", "t.fa", "q.fa", "--no-streaming"]
            )
