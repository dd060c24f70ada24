"""The supervised dispatcher's recovery ladder, against a real pool."""

import time

import pytest

from repro.obs import Tracer
from repro.parallel import ExecutionEngine, ResilientDispatcher
from repro.resilience import (
    FaultPlan,
    ResilienceOptions,
    RetryPolicy,
)


def double(x):
    return 2 * x


def always_raises(x):
    raise ValueError(f"deterministic bug for {x}")


def slow_identity(x):
    time.sleep(0.3)
    return x


def fail_until_third_call(counter_dir, x):
    """Fails on its first two invocations (per counter file), then works."""
    marker = counter_dir / f"calls-{x}"
    calls = int(marker.read_text()) if marker.exists() else 0
    marker.write_text(str(calls + 1))
    if calls < 2:
        raise RuntimeError(f"transient failure {calls}")
    return x


@pytest.fixture
def engine():
    with ExecutionEngine(2) as engine:
        yield engine


def make_dispatcher(engine, *, rates=None, seed=0, **policy_kwargs):
    options = ResilienceOptions(
        policy=RetryPolicy(**policy_kwargs),
        fault_plan=FaultPlan(seed=seed, rates=rates) if rates else None,
    )
    return ResilientDispatcher(engine, options, sleep=lambda _: None)


class TestHappyPath:
    def test_result_passthrough(self, engine):
        dispatcher = make_dispatcher(engine)
        tickets = [
            dispatcher.submit(double, i, key=f"u{i}") for i in range(8)
        ]
        assert [dispatcher.result(t) for t in tickets] == [
            2 * i for i in range(8)
        ]
        stats = dispatcher.options.stats
        assert not stats.recovered
        assert not dispatcher._outstanding


class TestInjectedFaults:
    def test_error_injection_falls_back_serially(self, engine):
        dispatcher = make_dispatcher(
            engine, rates={"error": 1.0}, max_retries=1
        )
        ticket = dispatcher.submit(double, 21, key="unit")
        assert dispatcher.result(ticket) == 42
        stats = dispatcher.options.stats
        assert stats.retries == 1
        assert stats.serial_fallbacks == 1
        assert stats.injected_faults["error"] == 2

    def test_timeout_injection_never_waits_on_the_future(self, engine):
        dispatcher = make_dispatcher(
            engine, rates={"timeout": 1.0}, max_retries=2
        )
        ticket = dispatcher.submit(double, 5, key="unit")
        assert dispatcher.result(ticket) == 10
        stats = dispatcher.options.stats
        assert stats.timeouts == 3  # every attempt, then fallback
        assert stats.serial_fallbacks == 1

    def test_crash_injection_rebuilds_the_pool(self, engine):
        dispatcher = make_dispatcher(
            engine, rates={"crash": 1.0}, max_retries=1
        )
        ticket = dispatcher.submit(double, 4, key="unit")
        assert dispatcher.result(ticket) == 8
        stats = dispatcher.options.stats
        assert stats.pool_rebuilds >= 1
        assert stats.serial_fallbacks == 1
        # The rebuilt pool is healthy for ordinary work afterwards.
        assert engine.submit(double, 3).result() == 6

    def test_crash_redispatches_all_outstanding_tickets(self, engine):
        dispatcher = make_dispatcher(
            engine, rates={"crash": 0.4}, seed=13, max_retries=3
        )
        tickets = [
            dispatcher.submit(double, i, key=f"u{i}") for i in range(10)
        ]
        assert [dispatcher.result(t) for t in tickets] == [
            2 * i for i in range(10)
        ]
        assert dispatcher.options.stats.pool_rebuilds >= 1
        assert not dispatcher._outstanding


class TestRealFaults:
    def test_transient_task_error_retries_to_success(self, engine, tmp_path):
        dispatcher = make_dispatcher(engine, max_retries=2)
        ticket = dispatcher.submit(
            fail_until_third_call, tmp_path, 7, key="flaky"
        )
        assert dispatcher.result(ticket) == 7
        stats = dispatcher.options.stats
        assert stats.retries == 2
        assert stats.serial_fallbacks == 0

    def test_deterministic_bug_reraises_from_fallback(self, engine):
        dispatcher = make_dispatcher(engine, max_retries=1)
        ticket = dispatcher.submit(always_raises, 9, key="buggy")
        with pytest.raises(ValueError, match="deterministic bug"):
            dispatcher.result(ticket)
        assert dispatcher.options.stats.serial_fallbacks == 1

    def test_real_deadline_expires_and_falls_back(self, engine):
        dispatcher = make_dispatcher(engine, max_retries=1, timeout=0.02)
        ticket = dispatcher.submit(slow_identity, 3, key="slow")
        assert dispatcher.result(ticket) == 3
        stats = dispatcher.options.stats
        assert stats.timeouts == 2
        assert stats.serial_fallbacks == 1


class TestHangEscalation:
    def test_hang_injection_escalates_through_the_sentinel(self):
        """A SIGSTOP-style hang (worker alive, silent, never returns)
        is invisible to futures; only the heartbeat sentinel sees it."""
        from repro.obs import HeartbeatMonitor, TelemetryOptions
        from repro.parallel import ResilientDispatcher

        telemetry = TelemetryOptions(heartbeat_interval=0.05)
        bus = telemetry.ensure_bus()
        monitor = HeartbeatMonitor(bus, deadline=0.4)
        options = ResilienceOptions(
            policy=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan(seed=3, rates={"hang": 1.0}),
            liveness=monitor,
        )
        with ExecutionEngine(
            2, resilience=options, telemetry=telemetry
        ) as engine:
            dispatcher = ResilientDispatcher(
                engine, options, sleep=lambda _: None
            )
            ticket = dispatcher.submit(double, 9, key="unit")
            assert dispatcher.result(ticket) == 18
        telemetry.close()
        stats = options.stats
        assert stats.hangs >= 1
        assert monitor.detections >= 1
        assert stats.pool_rebuilds >= 1
        # Every attempt hangs (rate 1.0), so the budget exhausts into
        # the serial fallback — correctness never depended on the pool.
        assert stats.serial_fallbacks == 1
        assert stats.injected_faults["hang"] >= 1


class TestTracing:
    def test_recovery_spans_record_actions(self, engine):
        tracer = Tracer()
        dispatcher = make_dispatcher(
            engine, rates={"error": 1.0}, max_retries=1
        )
        ticket = dispatcher.submit(double, 1, key="unit")
        dispatcher.result(ticket, tracer=tracer)
        actions = [
            span.attrs["action"]
            for span in tracer.walk()
            if span.name == "recovery"
        ]
        assert actions == ["retry", "serial_fallback"]


class TestEngineIntegration:
    def test_engine_dispatch_uses_its_options(self):
        options = ResilienceOptions(
            policy=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan(seed=2, rates={"error": 1.0}),
        )
        with ExecutionEngine(2, resilience=options) as engine:
            ticket = engine.dispatch(double, 8, key="unit")
            assert engine.result(ticket) == 16
        assert options.stats.serial_fallbacks == 1
