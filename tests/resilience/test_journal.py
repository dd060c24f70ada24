"""The append-only journal primitive: durability rules, checked once.

Torn tails, corrupt records, truncation at every byte, appends after a
repaired load and the start-fresh rule all live in
:class:`repro.resilience.journal.AppendJournal`; its two consumers
(``RunManifest``, ``JobJournal``) only test what they add on top.  The
last class pins the on-disk format against files the parent commit
wrote.
"""

import json
import shutil
import threading
from pathlib import Path

import pytest

from repro.resilience import RunManifest
from repro.resilience.journal import AppendJournal, JournalError
from repro.service import JobJournal

FIXTURES = Path(__file__).parent / "fixtures"

PAYLOADS = [b"first", b"second", b"third \xff bytes", b"fourth"]


class NoteError(JournalError):
    pass


class Notes(AppendJournal):
    """The smallest consumer: keeps verified payloads in a list."""

    noun = "notebook"
    record_kind = "note"
    version = 7
    error = NoteError

    def __init__(self, path, header):
        super().__init__(path, header)
        self.notes = []

    def _accept(self, record, payload):
        self.notes.append((record["page"], payload))


def write_notes(path, payloads=PAYLOADS):
    notes = Notes.create(path, owner="test")
    for page, payload in enumerate(payloads):
        notes._append(payload, page=page)
    return notes


def expected(payloads=PAYLOADS):
    return list(enumerate(payloads))


class TestRoundTrip:
    def test_create_append_load(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "notes.jsonl"
        written = write_notes(path)
        assert written.notes == expected()
        loaded = Notes.load(path)
        assert loaded.notes == expected()
        assert loaded.skipped_records == 0
        assert loaded.header == {
            "kind": "header", "version": 7, "owner": "test"
        }

    def test_create_truncates_an_old_journal(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        write_notes(path)
        Notes.create(path)
        assert Notes.load(path).notes == []

    def test_lines_are_sorted_key_json_with_payload_checksum(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        write_notes(path, [b"abc"])
        header, record = path.read_text().splitlines()
        assert header == json.dumps(
            {"kind": "header", "owner": "test", "version": 7}
        )
        assert json.loads(record) == {
            "kind": "note",
            "page": 0,
            "payload": "YWJj",
            "sha256": (
                "ba7816bf8f01cfea414140de5dae2223"
                "b00361a396177a9cb410ff61f20015ad"
            ),
        }
        assert list(json.loads(record)) == sorted(json.loads(record))


class TestTornAndCorrupt:
    def test_torn_tail_is_skipped_and_chopped(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        write_notes(path)
        raw = path.read_bytes()
        # Cut mid-way through the final record, as kill -9 during the
        # final write would.
        path.write_bytes(raw[:-17])
        loaded = Notes.load(path)
        assert loaded.notes == expected()[:-1]
        assert loaded.skipped_records == 1
        assert path.read_bytes() == raw[: raw[:-17].rfind(b"\n") + 1]

    def test_every_truncation_point_keeps_the_durable_prefix(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        write_notes(path)
        raw = path.read_bytes()
        ends = [i + 1 for i, byte in enumerate(raw) if byte == 0x0A]
        for cut in range(len(raw) + 1):
            path.write_bytes(raw[:cut])
            whole_lines = sum(1 for end in ends if end <= cut)
            if whole_lines == 0:
                # Not even the header survived: nothing was durable.
                with pytest.raises(NoteError, match="empty notebook"):
                    Notes.load(path)
                assert path.stat().st_size == 0
                continue
            loaded = Notes.load(path)
            assert loaded.notes == expected()[: whole_lines - 1]
            assert loaded.skipped_records == (0 if cut in ends else 1)

    def test_corrupted_payload_is_skipped_not_trusted(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        write_notes(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        # Flip one base64 character: the checksum no longer matches.
        payload = record["payload"]
        record["payload"] = ("B" if payload[0] != "B" else "C") + payload[1:]
        lines[2] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        loaded = Notes.load(path)
        assert loaded.skipped_records == 1
        assert loaded.notes == [expected()[0]] + expected()[2:]

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            '{"kind": "other", "payload": "", "sha256": ""}',
            '{"kind": "note", "page": 9}',
            '["a", "list"]',
        ],
    )
    def test_unparseable_or_foreign_records_are_skipped(self, tmp_path, line):
        path = tmp_path / "notes.jsonl"
        write_notes(path, PAYLOADS[:1])
        with open(path, "a") as handle:
            handle.write(line + "\n")
        loaded = Notes.load(path)
        assert loaded.notes == expected()[:1]
        assert loaded.skipped_records == 1

    def test_record_the_consumer_rejects_is_skipped(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        write_notes(path, PAYLOADS[:1])
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["page"]  # checksum fine, but _accept raises KeyError
        path.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
        loaded = Notes.load(path)
        assert loaded.notes == []
        assert loaded.skipped_records == 1

    def test_appends_continue_on_a_fresh_line_after_torn_load(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        write_notes(path, PAYLOADS[:2])
        path.write_bytes(path.read_bytes()[:-9])
        notes = Notes.load(path)
        assert notes.notes == expected()[:1]
        notes._append(b"after the crash", page=5)
        reloaded = Notes.load(path)
        # Loading chopped the torn bytes, so the append did not merge
        # into the partial record (which a second crash would lose).
        assert reloaded.notes == [expected()[0], (5, b"after the crash")]
        assert reloaded.skipped_records == 0


class TestHeaderValidation:
    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "empty notebook"),
            ("not json\n", "unreadable notebook header"),
            ('{"kind": "note"}\n', "not a header"),
            ('{"kind": "header", "version": 8}\n', "version 8"),
        ],
    )
    def test_load_refuses_with_the_consumers_error(
        self, tmp_path, text, match
    ):
        path = tmp_path / "notes.jsonl"
        path.write_text(text)
        with pytest.raises(NoteError, match=match):
            Notes.load(path)


class TestReopen:
    def test_missing_file_means_start_fresh(self, tmp_path):
        assert Notes.reopen(tmp_path / "absent.jsonl") is None

    def test_usable_file_is_loaded(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        write_notes(path)
        assert Notes.reopen(path).notes == expected()

    @pytest.mark.parametrize(
        "debris", [b"", b'{"kind": "hea', b'{"kind": "header", "version": 7}']
    )
    def test_crash_inside_create_means_start_fresh(self, tmp_path, debris):
        # No header line ever became durable, so nothing was ever
        # acknowledged: resuming must not fail forever.
        path = tmp_path / "notes.jsonl"
        path.write_bytes(debris)
        assert Notes.reopen(path) is None
        assert path.stat().st_size == 0

    @pytest.mark.parametrize(
        "text", ["not json\n", '{"kind": "header", "version": 8}\n']
    )
    def test_durable_but_unusable_file_still_raises(self, tmp_path, text):
        path = tmp_path / "notes.jsonl"
        path.write_text(text)
        with pytest.raises(NoteError):
            Notes.reopen(path)
        assert path.read_text() == text


class TestConcurrentAppends:
    def test_threads_interleave_whole_lines_in_fold_order(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        notes = Notes.create(path)
        writers, each = 4, 25

        def write(writer):
            for i in range(each):
                notes._append(b"w%d-%d" % (writer, i), page=writer)

        threads = [
            threading.Thread(target=write, args=(w,)) for w in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        loaded = Notes.load(path)
        assert loaded.skipped_records == 0
        assert len(loaded.notes) == writers * each
        # The in-memory fold saw the records in file order.
        assert notes.notes == loaded.notes


class TestParentCompatibility:
    """Files written by the parent commit (before the two journals
    moved onto the primitive) load identically, and appending the same
    record to them yields the same bytes the parent wrote."""

    def test_manifest(self, tmp_path):
        path = tmp_path / "run.manifest"
        shutil.copy(FIXTURES / "parent.manifest", path)
        manifest = RunManifest.load(path)
        assert manifest.skipped_records == 0
        assert manifest.header == {
            "kind": "header", "version": 1, "aligner": "DarwinWGA",
            "config": "c0", "target": "t0", "query": "q0",
        }
        assert manifest.units == ["0:chr1|0:chrA", "0:chr1|1:chrB"]
        assert manifest.result_for("0:chr1|0:chrA") == {
            "alignments": [1, 2], "score": 3000
        }
        assert manifest.result_for("0:chr1|1:chrB") == ["plain", "values", 7]
        manifest.verify(
            aligner="DarwinWGA", config="c0", target="t0", query="q0"
        )
        manifest.record("1:chr2|0:chrA", {"alignments": [], "score": 0})
        assert path.read_bytes() == (
            FIXTURES / "parent_appended.manifest"
        ).read_bytes()

    def test_manifest_header_bytes(self, tmp_path):
        path = tmp_path / "run.manifest"
        RunManifest.create(
            path, aligner="DarwinWGA", config="c0", target="t0", query="q0"
        )
        parent = (FIXTURES / "parent.manifest").read_bytes()
        assert path.read_bytes() == parent[: parent.index(b"\n") + 1]

    def test_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        shutil.copy(FIXTURES / "parent.journal.jsonl", path)
        journal = JobJournal.load(path)
        assert journal.skipped_records == 0
        assert journal.header == {"kind": "header", "version": 1}
        assert journal.events == [
            {"event": "submitted", "id": "job-000000", "seq": 0,
             "kind": "align", "priority": "default", "deadline": None,
             "spec": {"target": "t.fa", "query": "q.fa"}},
            {"event": "started", "id": "job-000000"},
        ]
        journal.append(
            {"event": "done", "id": "job-000000",
             "summary": {"alignments": 3}}
        )
        assert path.read_bytes() == (
            FIXTURES / "parent_appended.journal.jsonl"
        ).read_bytes()

    def test_journal_header_bytes(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        JobJournal.create(path)
        parent = (FIXTURES / "parent.journal.jsonl").read_bytes()
        assert path.read_bytes() == parent[: parent.index(b"\n") + 1]
