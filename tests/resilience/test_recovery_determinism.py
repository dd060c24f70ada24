"""The resilience contract: any fault schedule, byte-identical output.

Each test runs a pipeline under a seeded :class:`FaultPlan` (worker
kills, deadline expiries, task errors, cache corruption) and asserts
the result equals the fault-free serial run — while also asserting the
recovery machinery actually fired, so a silently disabled injector
cannot fake a pass.
"""

import numpy as np
import pytest

from repro.core import DarwinWGA
from repro.core.pipeline import align_assemblies
from repro.genome import Assembly, Sequence, make_species_pair
from repro.lastz import LastzAligner
from repro.resilience import FaultPlan, ResilienceOptions, RetryPolicy

WORKLOAD_FIELDS = (
    "seed_hits",
    "filter_tiles",
    "filter_cells",
    "extension_tiles",
    "extension_cells",
    "anchors",
    "absorbed_anchors",
)


def assert_same_result(serial, recovered):
    assert recovered.alignments == serial.alignments
    for field in WORKLOAD_FIELDS:
        assert getattr(recovered.workload, field) == getattr(
            serial.workload, field
        ), field


def fast_options(spec: str) -> ResilienceOptions:
    """A fault plan with retries but no real backoff sleeping."""
    return ResilienceOptions(
        policy=RetryPolicy(max_retries=2, backoff_base=0.0),
        fault_plan=FaultPlan.parse(spec),
    )


@pytest.fixture(scope="module")
def assemblies():
    pair = make_species_pair(7000, 0.4, np.random.default_rng(19))
    t, q = pair.target.genome, pair.query.genome
    target = Assembly(
        name="t",
        chromosomes=[
            Sequence(t.codes[:3500], name="t1"),
            Sequence(t.codes[3500:], name="t2"),
        ],
    )
    query = Assembly(
        name="q",
        chromosomes=[
            Sequence(q.codes[:3500], name="q1"),
            Sequence(q.codes[3500:], name="q2"),
        ],
    )
    return target, query


@pytest.fixture(scope="module")
def serial_darwin(assemblies):
    target, query = assemblies
    return align_assemblies(target, query)


@pytest.fixture(scope="module")
def serial_lastz(assemblies):
    target, query = assemblies
    return align_assemblies(target, query, aligner_class=LastzAligner)


class TestChaosDeterminism:
    @pytest.mark.parametrize(
        "spec",
        ["0:crash=0.5", "1:timeout=0.7", "0:error=0.6"],
    )
    def test_darwin_output_survives_fault_schedule(
        self, assemblies, serial_darwin, spec
    ):
        target, query = assemblies
        options = fast_options(spec)
        recovered = align_assemblies(
            target, query, workers=2, resilience=options
        )
        assert_same_result(serial_darwin, recovered)
        assert options.stats.injected_faults
        assert options.stats.recovered

    def test_lastz_output_survives_fault_schedule(
        self, assemblies, serial_lastz
    ):
        target, query = assemblies
        options = fast_options("3:crash=0.4,error=0.4")
        recovered = align_assemblies(
            target,
            query,
            aligner_class=LastzAligner,
            workers=2,
            resilience=options,
        )
        assert_same_result(serial_lastz, recovered)
        assert options.stats.injected_faults
        assert options.stats.recovered

    def test_corrupt_cache_quarantines_and_matches(
        self, assemblies, serial_darwin, tmp_path
    ):
        from repro.seed import SeedIndexCache

        target, query = assemblies
        options = fast_options("9:corrupt=1.0")
        cache = SeedIndexCache(tmp_path, resilience=options)
        # First run stores both target indexes and corrupts each one.
        first = align_assemblies(
            target, query, index_cache=cache, resilience=options
        )
        assert_same_result(serial_darwin, first)
        assert options.stats.injected_faults.get("corrupt") == 2
        # Second run reloads the corrupted entries: each must be
        # quarantined and rebuilt, never trusted — output identical.
        second = align_assemblies(
            target, query, index_cache=cache, resilience=options
        )
        assert_same_result(serial_darwin, second)
        assert options.stats.quarantined_entries == 2
        assert list(tmp_path.glob("*.quarantined"))

    def test_corrupt_cache_parallel_workers_recover(
        self, assemblies, serial_darwin, tmp_path
    ):
        target, query = assemblies
        options = fast_options("9:corrupt=1.0")
        recovered = align_assemblies(
            target,
            query,
            workers=2,
            index_cache=tmp_path,
            resilience=options,
        )
        assert_same_result(serial_darwin, recovered)
        assert options.stats.injected_faults.get("corrupt")
        # The workers hit the corrupted warm entries and quarantined
        # them in their own processes.
        assert list(tmp_path.glob("*.quarantined"))


class _InterruptRun(RuntimeError):
    """Simulated crash partway through an assembly alignment."""


class _FlakyDarwin(DarwinWGA):
    """Dies before aligning its N-th unit (counts across instances)."""

    fail_at_unit = 3
    _calls = 0

    def align(self, target, query, index=None):
        type(self)._calls += 1
        if type(self)._calls == self.fail_at_unit:
            raise _InterruptRun(
                f"injected crash at unit {type(self)._calls}"
            )
        return super().align(target, query, index=index)


# The manifest pins the aligner by class name; the flaky stand-in must
# journal under the real name for the resumed run to accept it.
_FlakyDarwin.__name__ = "DarwinWGA"


class TestCheckpointResume:
    def test_resume_completes_interrupted_run(
        self, assemblies, serial_darwin, tmp_path
    ):
        target, query = assemblies
        manifest_path = tmp_path / "run.manifest"
        _FlakyDarwin._calls = 0
        with pytest.raises(_InterruptRun):
            align_assemblies(
                target,
                query,
                aligner_class=_FlakyDarwin,
                checkpoint=manifest_path,
            )
        options = ResilienceOptions()
        resumed = align_assemblies(
            target,
            query,
            checkpoint=manifest_path,
            resume=True,
            resilience=options,
        )
        assert_same_result(serial_darwin, resumed)
        assert options.stats.resumed_units == 2
        assert options.stats.journaled_units == 2

    def test_parallel_resume_matches_serial(
        self, assemblies, serial_darwin, tmp_path
    ):
        target, query = assemblies
        manifest_path = tmp_path / "run.manifest"
        _FlakyDarwin._calls = 0
        with pytest.raises(_InterruptRun):
            align_assemblies(
                target,
                query,
                aligner_class=_FlakyDarwin,
                checkpoint=manifest_path,
            )
        options = ResilienceOptions()
        resumed = align_assemblies(
            target,
            query,
            workers=2,
            checkpoint=manifest_path,
            resume=True,
            resilience=options,
        )
        assert_same_result(serial_darwin, resumed)
        assert options.stats.resumed_units == 2

    def test_resume_refuses_changed_inputs(self, assemblies, tmp_path):
        from repro.resilience import ManifestMismatch

        target, query = assemblies
        manifest_path = tmp_path / "run.manifest"
        align_assemblies(target, query, checkpoint=manifest_path)
        with pytest.raises(ManifestMismatch):
            align_assemblies(
                query,  # swapped inputs: digests cannot match
                target,
                checkpoint=manifest_path,
                resume=True,
            )

    def test_checkpointed_run_matches_plain_run(
        self, assemblies, serial_darwin, tmp_path
    ):
        target, query = assemblies
        result = align_assemblies(
            target, query, checkpoint=tmp_path / "run.manifest"
        )
        assert_same_result(serial_darwin, result)


@pytest.fixture(scope="module")
def serial_nine(nine_units):
    return align_assemblies(*nine_units)


class TestNineUnits:
    """Nine units all in flight at once on two workers: under each
    fault kind, and resumed from a run that died mid-way, they still
    commit the serial result."""

    @pytest.mark.parametrize(
        "spec", ["0:crash=0.3", "0:error=0.5", "1:timeout=0.5", "2:stall=0.5"]
    )
    def test_fault_schedule_matches_serial(
        self, nine_units, serial_nine, spec
    ):
        options = fast_options(spec)
        recovered = align_assemblies(
            *nine_units, workers=2, resilience=options
        )
        assert_same_result(serial_nine, recovered)
        kind = spec.split(":")[1].split("=")[0]
        assert options.stats.injected_faults.get(kind)
        assert options.stats.recovered or kind == "stall"

    def test_mid_run_resume_matches_serial(
        self, nine_units, serial_nine, tmp_path, monkeypatch
    ):
        manifest_path = tmp_path / "run.manifest"
        monkeypatch.setattr(_FlakyDarwin, "fail_at_unit", 5)
        _FlakyDarwin._calls = 0
        with pytest.raises(_InterruptRun):
            align_assemblies(
                *nine_units,
                aligner_class=_FlakyDarwin,
                checkpoint=manifest_path,
            )
        options = ResilienceOptions()
        resumed = align_assemblies(
            *nine_units,
            workers=2,
            checkpoint=manifest_path,
            resume=True,
            resilience=options,
        )
        assert_same_result(serial_nine, resumed)
        assert options.stats.resumed_units == 4
        assert options.stats.journaled_units == 5
