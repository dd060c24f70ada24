"""The daemon end to end: lifecycle, durability, degradation."""

import random
import time

import pytest

from repro.core import align_assemblies
from repro.genome import read_fasta
from repro.io import write_assembly_maf
from repro.service import Job, JobJournal, ServeClient, ServeConfig, ServeDaemon
from repro.service.client import ServeError


def _mutate(seq, step=89):
    out = list(seq)
    for i in range(0, len(out), step):
        out[i] = "ACGT"[("ACGT".index(out[i]) + 1) % 4]
    return "".join(out)


@pytest.fixture(scope="module")
def genomes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("genomes")
    rng = random.Random(41)
    chr1 = "".join(rng.choice("ACGT") for _ in range(1500))
    chr2 = "".join(rng.choice("ACGT") for _ in range(900))
    target = tmp / "target.fa"
    target.write_text(f">chr1\n{chr1}\n>chr2\n{chr2}\n")
    query = tmp / "query.fa"
    query.write_text(f">chrQ\n{_mutate(chr1[200:1300])}\n")
    return target, query


def make_daemon(tmp_path, **overrides):
    options = dict(
        state_dir=tmp_path / "state", port=0, workers=1, max_queued=4
    )
    options.update(overrides)
    return ServeDaemon(ServeConfig(**options))


class TestLifecycle:
    def test_submit_run_fetch(self, tmp_path, genomes):
        target, query = genomes
        daemon = make_daemon(tmp_path)
        port = daemon.start()
        client = ServeClient(port=port)
        ack = client.submit(
            {"kind": "align", "target": str(target), "query": str(query)}
        )
        record = client.wait(ack["id"], timeout=120, poll=0.05)
        assert record["state"] == "done"
        assert record["summary"]["alignments"] >= 1
        assert record["summary"]["matched_bp"] > 0
        health = client.healthz()
        assert health["ok"] and health["state"] == "serving"
        status = client.status()
        assert status["jobs"] == {"done": 1}
        assert status["metrics"]["serve_jobs_submitted"] == 1
        daemon.stop()

    def test_served_output_matches_single_shot(self, tmp_path, genomes):
        target, query = genomes
        daemon = make_daemon(tmp_path)
        port = daemon.start()
        client = ServeClient(port=port)
        ack = client.submit(
            {"kind": "align", "target": str(target), "query": str(query)}
        )
        record = client.wait(ack["id"], timeout=120, poll=0.05)
        daemon.stop()
        served = open(record["summary"]["output"]).read()
        targets, queries = read_fasta(target), read_fasta(query)
        result = align_assemblies(targets, queries)
        reference = tmp_path / "reference.maf"
        write_assembly_maf(result.alignments, targets, queries, reference)
        assert served == reference.read_text()

    def test_invalid_spec_is_400(self, tmp_path, genomes):
        daemon = make_daemon(tmp_path)
        port = daemon.start()
        client = ServeClient(port=port)
        with pytest.raises(ServeError) as excinfo:
            client.submit({"kind": "teleport"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.submit({"kind": "align", "target": "t.fa"})
        assert excinfo.value.status == 400
        daemon.stop()

    def test_chain_job_runs(self, tmp_path, genomes):
        target, query = genomes
        targets, queries = read_fasta(target), read_fasta(query)
        result = align_assemblies(targets, queries)
        maf = tmp_path / "in.maf"
        write_assembly_maf(result.alignments, targets, queries, maf)
        daemon = make_daemon(tmp_path)
        port = daemon.start()
        client = ServeClient(port=port)
        ack = client.submit(
            {
                "kind": "chain",
                "maf": str(maf),
                "target": str(target),
                "query": str(query),
            }
        )
        record = client.wait(ack["id"], timeout=60, poll=0.05)
        daemon.stop()
        assert record["state"] == "done"
        assert record["summary"]["chains"] >= 1


class TestGracefulDegradation:
    def test_saturation_sheds_with_retry_after(self, tmp_path, genomes):
        target, query = genomes
        # No runner thread: jobs queue but never drain, so admission
        # fills deterministically.
        daemon = make_daemon(tmp_path, max_queued=2)
        spec = {"kind": "align", "target": str(target), "query": str(query)}
        assert daemon.submit(dict(spec))[0] == 202
        assert daemon.submit(dict(spec))[0] == 202
        status, payload, headers = daemon.submit(dict(spec))
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "retry" in payload["error"]
        assert daemon.scheduler.shed == 1
        # Shed submissions are never journaled: a 429'd client was
        # refused, not acked.
        journal = JobJournal.load(daemon.state_dir / "journal.jsonl")
        assert len(journal.events) == 2
        daemon.stop()

    def test_draining_daemon_answers_503(self, tmp_path, genomes):
        target, query = genomes
        daemon = make_daemon(tmp_path)
        daemon.request_stop()
        status, payload = daemon.submit(
            {"kind": "align", "target": str(target), "query": str(query)}
        )[:2]
        assert status == 503
        daemon.stop()

    def test_deadline_expires_before_pickup(self, tmp_path, genomes):
        target, query = genomes
        daemon = make_daemon(tmp_path)
        status, payload = daemon.submit(
            {
                "kind": "align",
                "target": str(target),
                "query": str(query),
                "deadline": 0.01,
            }
        )[:2]
        assert status == 202
        time.sleep(0.05)
        daemon.start()
        client = ServeClient(port=daemon.port)
        record = client.wait(payload["id"], timeout=30, poll=0.05)
        assert record["state"] == "expired"
        assert client.status()["metrics"]["serve_jobs_expired"] == 1
        daemon.stop()

    def test_cancel_before_pickup(self, tmp_path, genomes):
        target, query = genomes
        daemon = make_daemon(tmp_path)
        _status, payload = daemon.submit(
            {"kind": "align", "target": str(target), "query": str(query)}
        )[:2]
        assert daemon.cancel(payload["id"])[0] == 200
        assert daemon.cancel(payload["id"])[0] == 400  # already cancelled
        assert daemon.cancel("job-999999")[0] == 404
        daemon.start()
        client = ServeClient(port=daemon.port)
        record = client.wait(payload["id"], timeout=10, poll=0.05)
        assert record["state"] == "cancelled"
        daemon.stop()

    def test_failed_job_does_not_poison_the_daemon(self, tmp_path, genomes):
        target, query = genomes
        daemon = make_daemon(tmp_path)
        port = daemon.start()
        client = ServeClient(port=port)
        bad = client.submit(
            {"kind": "align", "target": "/does/not/exist.fa",
             "query": str(query)}
        )
        good = client.submit(
            {"kind": "align", "target": str(target), "query": str(query)}
        )
        assert client.wait(bad["id"], timeout=30)["state"] == "failed"
        assert client.wait(good["id"], timeout=120)["state"] == "done"
        daemon.stop()

    def test_duplicate_chromosome_names_fail_the_job(self, tmp_path, genomes):
        target, query = genomes
        twice = tmp_path / "twice.fa"
        twice.write_text(target.read_text().replace(">chr2", ">chr1"))
        daemon = make_daemon(tmp_path)
        client = ServeClient(port=daemon.start())
        ack = client.submit(
            {"kind": "align", "target": str(twice), "query": str(query)}
        )
        record = client.wait(ack["id"], timeout=30, poll=0.05)
        daemon.stop()
        assert record["state"] == "failed"
        assert record["error"] == (
            "ValueError: target assembly has two chromosomes named 'chr1'"
        )


class TestCrashRecovery:
    def submit_two(self, daemon, target, query):
        spec = {"kind": "align", "target": str(target), "query": str(query)}
        first = daemon.submit(dict(spec))[1]["id"]
        second = daemon.submit(dict(spec, priority="batch"))[1]["id"]
        return first, second

    def test_restart_requeues_unfinished_jobs(self, tmp_path, genomes):
        target, query = genomes
        # First incarnation journals two submissions but is "killed"
        # before its runner ever starts (start() never called).
        first = make_daemon(tmp_path)
        ids = self.submit_two(first, target, query)
        # Second incarnation replays and completes them.
        second = make_daemon(tmp_path)
        assert set(second.jobs) == set(ids)
        assert all(job.state == "queued" for job in second.jobs.values())
        port = second.start()
        client = ServeClient(port=port)
        for job_id in ids:
            assert client.wait(job_id, timeout=120)["state"] == "done"
        second.stop()
        # Third incarnation: everything is done, nothing re-runs.
        third = make_daemon(tmp_path)
        assert all(job.state == "done" for job in third.jobs.values())
        assert third.scheduler.depth() == 0
        started = [
            event for event in third.journal.events
            if event["event"] == "started"
        ]
        assert len(started) == 2
        third.stop()

    def test_interrupted_job_resumes_from_checkpoint(
        self, tmp_path, genomes
    ):
        target, query = genomes
        # Run once to completion to learn the reference output.
        first = make_daemon(tmp_path)
        port = first.start()
        client = ServeClient(port=port)
        ack = client.submit(
            {"kind": "align", "target": str(target), "query": str(query)}
        )
        record = client.wait(ack["id"], timeout=120)
        reference = open(record["summary"]["output"]).read()
        first.stop()

        # Forge the crash: rewrite the journal as if the daemon died
        # mid-run (submitted + started, no done).  The job's checkpoint
        # manifest survives with its completed units.
        state = tmp_path / "state"
        events = JobJournal.load(state / "journal.jsonl").events
        journal = JobJournal.create(state / "journal.jsonl")
        for event in events:
            if event["event"] != "done":
                journal.append(event)

        revived = make_daemon(tmp_path)
        job = revived.jobs[ack["id"]]
        assert job.state == "queued"
        port = revived.start()
        client = ServeClient(port=port)
        record = client.wait(ack["id"], timeout=120)
        assert record["state"] == "done"
        # Every chromosome-pair unit came back from the checkpoint —
        # nothing recomputed — and the bytes match exactly.
        assert revived.resilience.stats.resumed_units == 2
        assert open(record["summary"]["output"]).read() == reference
        revived.stop()

    def test_torn_journal_tail_is_survived(self, tmp_path, genomes):
        target, query = genomes
        first = make_daemon(tmp_path)
        self.submit_two(first, target, query)
        journal_path = tmp_path / "state" / "journal.jsonl"
        raw = journal_path.read_bytes()
        journal_path.write_bytes(raw[:-11])  # tear the final record
        revived = make_daemon(tmp_path)
        # The torn submission was never acked (journal before HTTP
        # response), so only the intact job survives.
        assert len(revived.jobs) == 1
        assert revived.journal.skipped_records == 1
        revived.stop()


class TestSupervision:
    def test_parallel_daemon_output_matches_serial(
        self, tmp_path, genomes
    ):
        target, query = genomes
        daemon = make_daemon(tmp_path, workers=2)
        port = daemon.start()
        client = ServeClient(port=port)
        ack = client.submit(
            {"kind": "align", "target": str(target), "query": str(query)}
        )
        record = client.wait(ack["id"], timeout=180, poll=0.05)
        daemon.stop()
        assert record["state"] == "done"
        served = open(record["summary"]["output"]).read()
        targets, queries = read_fasta(target), read_fasta(query)
        result = align_assemblies(targets, queries)
        reference = tmp_path / "reference.maf"
        write_assembly_maf(result.alignments, targets, queries, reference)
        assert served == reference.read_text()

    def test_hung_worker_is_detected_and_job_completes(
        self, tmp_path, genomes
    ):
        """The full ladder through the daemon: an injected hang (worker
        goes silent, never crashes) is caught by the heartbeat sentinel,
        the pool is terminated and rebuilt, and the job still finishes
        with a correct result."""
        target, query = genomes
        daemon = make_daemon(
            tmp_path,
            workers=2,
            heartbeat_interval=0.05,
            heartbeat_deadline=0.4,
            inject_faults="3:hang=1.0",
            max_retries=1,
        )
        port = daemon.start()
        client = ServeClient(port=port)
        ack = client.submit(
            {"kind": "align", "target": str(target), "query": str(query)}
        )
        record = client.wait(ack["id"], timeout=300, poll=0.1)
        status = client.status()
        daemon.stop()
        assert record["state"] == "done"
        assert record["summary"]["alignments"] >= 1
        assert status["recovery"]["hangs"] >= 1
        assert status["hang_detections"] >= 1
        assert status["recovery"]["pool_rebuilds"] >= 1


class TestJobValidation:
    def test_unknown_priority_rejected(self):
        with pytest.raises(Exception, match="priority"):
            Job.from_request(
                {"kind": "align", "target": "t", "query": "q",
                 "priority": "ludicrous"},
                "job-000000",
                0,
            )

    def test_negative_deadline_rejected(self):
        with pytest.raises(Exception, match="deadline"):
            Job.from_request(
                {"kind": "align", "target": "t", "query": "q",
                 "deadline": -3},
                "job-000000",
                0,
            )
