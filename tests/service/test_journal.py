"""Crash-safety of the job journal: torn tails, replay, idempotence."""

import json

import pytest

from repro.service import JobJournal, JournalError, replay_jobs

EVENTS = [
    {"event": "submitted", "id": "job-000000", "seq": 0, "kind": "align",
     "priority": "default", "deadline": None,
     "spec": {"target": "t.fa", "query": "q.fa"}},
    {"event": "started", "id": "job-000000"},
    {"event": "done", "id": "job-000000", "summary": {"alignments": 3}},
    {"event": "submitted", "id": "job-000001", "seq": 1, "kind": "align",
     "priority": "batch", "deadline": None,
     "spec": {"target": "t.fa", "query": "q.fa"}},
    {"event": "started", "id": "job-000001"},
]


def write_journal(path, events):
    journal = JobJournal.create(path)
    for event in events:
        journal.append(event)
    return journal


class TestRoundTrip:
    def test_append_then_load(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_journal(path, EVENTS)
        loaded = JobJournal.load(path)
        assert loaded.events == EVENTS
        assert loaded.skipped_records == 0

    def test_attach_creates_then_loads(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        assert not path.exists()
        journal = JobJournal.attach(path)
        assert path.exists()
        journal.append(EVENTS[0])
        again = JobJournal.attach(path)
        assert again.events == [EVENTS[0]]

    def test_len_counts_events(self, tmp_path):
        journal = write_journal(tmp_path / "j.jsonl", EVENTS)
        assert len(journal) == len(EVENTS)


class TestDurabilityWiring:
    """The torn-tail / checksum / truncation rules themselves are tested
    on the primitive (tests/resilience/test_journal.py); here only what
    the job journal adds."""

    def test_event_payload_that_is_not_json_is_skipped(self, tmp_path):
        import base64
        import hashlib

        path = tmp_path / "journal.jsonl"
        write_journal(path, EVENTS[:1])
        payload = b"\xff not json"
        with open(path, "a") as handle:
            handle.write(
                json.dumps(
                    {
                        "kind": "event",
                        "sha256": hashlib.sha256(payload).hexdigest(),
                        "payload": base64.b64encode(payload).decode(),
                    }
                )
                + "\n"
            )
        loaded = JobJournal.load(path)
        assert loaded.events == EVENTS[:1]
        assert loaded.skipped_records == 1

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "empty journal"),
            ("not json\n", "unreadable journal header"),
            ('{"kind": "header", "version": 99}\n', "version"),
        ],
    )
    def test_unusable_file_raises_journal_error(self, tmp_path, text, match):
        path = tmp_path / "journal.jsonl"
        path.write_text(text)
        with pytest.raises(JournalError, match=match):
            JobJournal.load(path)

    @pytest.mark.parametrize("debris", [b"", b'{"kind": "hea'])
    def test_attach_after_crash_inside_create_starts_fresh(
        self, tmp_path, debris
    ):
        # kill -9 before the header fsync: nothing was acknowledged.
        path = tmp_path / "journal.jsonl"
        path.write_bytes(debris)
        journal = JobJournal.attach(path)
        assert journal.events == []
        journal.append(EVENTS[0])
        assert JobJournal.load(path).events == [EVENTS[0]]


class TestReplay:
    def test_done_jobs_keep_results_inflight_requeue(self, tmp_path):
        jobs = replay_jobs(EVENTS)
        assert jobs["job-000000"].state == "done"
        assert jobs["job-000000"].summary == {"alignments": 3}
        # started but never done: the crash interrupted it.
        assert jobs["job-000001"].state == "queued"

    def test_terminal_events_apply(self):
        events = list(EVENTS[:1]) + [
            {"event": "failed", "id": "job-000000", "error": "boom"}
        ]
        jobs = replay_jobs(events)
        assert jobs["job-000000"].state == "failed"
        assert jobs["job-000000"].error == "boom"
        events[-1] = {"event": "expired", "id": "job-000000"}
        assert replay_jobs(events)["job-000000"].state == "expired"
        events[-1] = {"event": "cancelled", "id": "job-000000"}
        assert replay_jobs(events)["job-000000"].state == "cancelled"

    def test_orphan_events_are_ignored(self):
        # A torn tail can eat a `submitted` but keep later events for
        # the same id (they were separate appends): replay must not
        # invent half-known jobs.
        jobs = replay_jobs([{"event": "started", "id": "ghost"}])
        assert jobs == {}
