"""Run manifests: journal/replay, torn tails, digest verification."""

import numpy as np
import pytest

from repro.genome import markov_genome
from repro.resilience import (
    ManifestError,
    ManifestMismatch,
    RunManifest,
    config_digest,
    sequences_digest,
)


def make_manifest(path, **overrides):
    fields = dict(
        aligner="DarwinWGA", config="c0", target="t0", query="q0"
    )
    fields.update(overrides)
    return RunManifest.create(path, **fields)


class TestDigests:
    def test_config_digest_tracks_values(self):
        from repro.core import DarwinWGAConfig

        base = config_digest(DarwinWGAConfig())
        assert config_digest(DarwinWGAConfig()) == base
        assert (
            config_digest(DarwinWGAConfig(both_strands=False)) != base
        )

    def test_config_digest_does_not_change_with_use(self):
        # Scoring memoises its int64 matrix on first use; the memo is
        # not part of the value, so a used config still resumes.
        from repro.core import DarwinWGAConfig

        config = DarwinWGAConfig()
        base = config_digest(config)
        assert config.scoring.row_scores(0, np.arange(4)).tolist() == [
            91, -90, -25, -100
        ]
        assert config_digest(config) == base

    def test_sequences_digest_tracks_content_order_and_names(self, rng):
        a = markov_genome(300, rng, name="a")
        b = markov_genome(300, rng, name="b")
        base = sequences_digest([a, b])
        assert sequences_digest([a, b]) == base
        assert sequences_digest([b, a]) != base
        renamed = markov_genome(300, np.random.default_rng(0), name="a2")
        assert sequences_digest([a, renamed]) != base


class TestRunManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.manifest"
        manifest = make_manifest(path)
        manifest.record("0:t|0:q", {"alignments": [1, 2]})
        manifest.record("0:t|1:q", {"alignments": []})
        loaded = RunManifest.load(path)
        assert len(loaded) == 2
        assert loaded.units == ["0:t|0:q", "0:t|1:q"]
        assert "0:t|0:q" in loaded
        assert loaded.result_for("0:t|0:q") == {"alignments": [1, 2]}
        assert loaded.skipped_records == 0

    def test_record_without_a_unit_key_is_skipped(self, tmp_path):
        # Torn-tail / checksum / truncation rules are tested on the
        # primitive (test_journal.py); this is the manifest's own fold.
        import json

        path = tmp_path / "run.manifest"
        manifest = make_manifest(path)
        manifest.record("u1", "value")
        header, line = path.read_text().splitlines()
        record = json.loads(line)
        del record["unit"]
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        loaded = RunManifest.load(path)
        assert loaded.units == []
        assert loaded.skipped_records == 1

    def test_rejects_missing_or_bad_header(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_text("")
        with pytest.raises(ManifestError, match="empty"):
            RunManifest.load(empty)
        garbled = tmp_path / "garbled"
        garbled.write_text("not json\n")
        with pytest.raises(ManifestError, match="header"):
            RunManifest.load(garbled)

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "run.manifest"
        make_manifest(path)
        text = path.read_text().replace('"version": 1', '"version": 99')
        path.write_text(text)
        with pytest.raises(ManifestError, match="version"):
            RunManifest.load(path)

    def test_verify_refuses_different_run(self, tmp_path):
        path = tmp_path / "run.manifest"
        manifest = make_manifest(path)
        manifest.verify(
            aligner="DarwinWGA", config="c0", target="t0", query="q0"
        )
        with pytest.raises(ManifestMismatch, match="config"):
            manifest.verify(
                aligner="DarwinWGA",
                config="different",
                target="t0",
                query="q0",
            )
        with pytest.raises(ManifestMismatch, match="target"):
            manifest.verify(
                aligner="DarwinWGA",
                config="c0",
                target="different",
                query="q0",
            )

    def test_attach_resume_loads_and_verifies(self, tmp_path):
        path = tmp_path / "run.manifest"
        manifest = make_manifest(path)
        manifest.record("u1", "value")
        resumed = RunManifest.attach(
            path,
            aligner="DarwinWGA",
            config="c0",
            target="t0",
            query="q0",
            resume=True,
        )
        assert resumed.units == ["u1"]
        with pytest.raises(ManifestMismatch):
            RunManifest.attach(
                path,
                aligner="DarwinWGA",
                config="changed",
                target="t0",
                query="q0",
                resume=True,
            )

    def test_attach_resume_without_file_creates(self, tmp_path):
        path = tmp_path / "fresh.manifest"
        manifest = RunManifest.attach(
            path,
            aligner="DarwinWGA",
            config="c0",
            target="t0",
            query="q0",
            resume=True,
        )
        assert path.exists()
        assert len(manifest) == 0

    @pytest.mark.parametrize("debris", [b"", b'{"aligner": "Darw'])
    def test_attach_resume_after_crash_inside_create_starts_fresh(
        self, tmp_path, debris
    ):
        # kill -9 inside create(), before the header fsync, leaves an
        # empty or torn-header file.  Resuming used to raise
        # "empty manifest" forever — and `repro serve` always resumes.
        path = tmp_path / "run.manifest"
        path.write_bytes(debris)
        fields = dict(
            aligner="DarwinWGA", config="c0", target="t0", query="q0"
        )
        manifest = RunManifest.attach(path, resume=True, **fields)
        assert len(manifest) == 0
        manifest.record("u1", "value")
        resumed = RunManifest.attach(path, resume=True, **fields)
        assert resumed.units == ["u1"]

    def test_attach_resume_refuses_durable_garbage(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text("not json\n")
        with pytest.raises(ManifestError, match="header"):
            RunManifest.attach(
                path,
                aligner="DarwinWGA",
                config="c0",
                target="t0",
                query="q0",
                resume=True,
            )

    def test_attach_without_resume_truncates(self, tmp_path):
        path = tmp_path / "run.manifest"
        manifest = make_manifest(path)
        manifest.record("u1", "value")
        fresh = RunManifest.attach(
            path,
            aligner="DarwinWGA",
            config="c0",
            target="t0",
            query="q0",
            resume=False,
        )
        assert len(fresh) == 0
        assert len(RunManifest.load(path)) == 0
