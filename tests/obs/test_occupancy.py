"""StreamStats under a fake clock: exact integrals, no wall time.

The unit window's occupancy and idle-tail figures rest on this
accounting, so the arithmetic is pinned with a deterministic
clock — every scenario computes the expected slot-second integrals by
hand.
"""

from repro.obs.occupancy import StreamStats


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make(slots=2):
    clock = FakeClock()
    return StreamStats(slots, clock=clock), clock


class TestIntegral:
    def test_no_events_is_all_zero(self):
        stats, _ = make()
        summary = stats.summary()
        assert summary["occupancy"] == 0.0
        assert summary["idle_tail_seconds"] == 0.0
        assert summary["window_seconds"] == 0.0

    def test_full_occupancy_single_slot(self):
        stats, clock = make(slots=1)
        stats.dispatched()
        clock.advance(4.0)
        stats.collected()
        stats.close()
        assert stats.occupancy() == 1.0
        assert stats.summary()["busy_slot_seconds"] == 4.0

    def test_depth_is_clamped_to_slots(self):
        # 3 units in flight on 2 slots for 2s: busy integral is
        # 2 slots x 2s, not 3 x 2.
        stats, clock = make(slots=2)
        stats.dispatched(3)
        clock.advance(2.0)
        stats.collected(3)
        stats.close()
        assert stats.summary()["busy_slot_seconds"] == 4.0
        assert stats.peak_in_flight == 3

    def test_partial_occupancy(self):
        # One of two slots busy for the whole 5s window.
        stats, clock = make(slots=2)
        stats.dispatched()
        clock.advance(5.0)
        stats.collected()
        stats.close()
        assert stats.occupancy() == 0.5


class TestIdleTail:
    def test_barrier_drain_is_the_tail(self):
        # Two units dispatched together on two slots; one finishes at
        # t=1, the other at t=3: the second slot idles 2 slot-s after
        # the last dispatch.
        stats, clock = make(slots=2)
        stats.dispatched(2)
        clock.advance(1.0)
        stats.collected()
        clock.advance(2.0)
        stats.collected()
        stats.close()
        assert stats.idle_tail_seconds() == 2.0

    def test_trailing_serial_stage_counts_via_close(self):
        # Work drains at t=1, but the schedule section ends at t=4
        # (e.g. a serial seed+filter ran after the drain): 2 slots x 3s
        # of tail idleness on top of nothing.
        stats, clock = make(slots=2)
        stats.dispatched(2)
        clock.advance(1.0)
        stats.collected(2)
        clock.advance(3.0)
        stats.close()
        assert stats.idle_tail_seconds() == 6.0

    def test_mid_stream_stall_is_not_in_the_tail(self):
        # A gap in the middle (t=1..3, nothing in flight), then
        # another dispatch that finishes exactly at close: tail is 0,
        # the gap shows up in occupancy instead.
        stats, clock = make(slots=1)
        stats.dispatched()
        clock.advance(1.0)
        stats.collected()
        clock.advance(2.0)
        stats.dispatched()
        clock.advance(1.0)
        stats.collected()
        stats.close()
        assert stats.idle_tail_seconds() == 0.0
        assert stats.occupancy() == 0.5  # 2 busy / 4 window

    def test_tail_without_close_ends_at_last_collect(self):
        stats, clock = make(slots=2)
        stats.dispatched(2)
        clock.advance(1.0)
        stats.collected()
        clock.advance(1.0)
        stats.collected()
        # No close(): window ends at the last collect (t=2); slot 2
        # idled for the second second.
        assert stats.idle_tail_seconds() == 1.0

    def test_streamed_schedule_has_no_tail(self):
        # Dispatches keep arriving until the end (each collect is
        # followed by a refill), so both slots stay busy through the
        # close: no tail, full occupancy.
        stats, clock = make(slots=2)
        stats.dispatched(2)
        clock.advance(1.0)
        stats.collected()
        stats.dispatched()
        clock.advance(1.0)
        stats.collected(2)
        stats.close()
        assert stats.idle_tail_seconds() == 0.0
        assert stats.occupancy() == 1.0


class TestCounters:
    def test_dispatch_collect_bookkeeping(self):
        stats, _ = make()
        assert stats.dispatched(2) == 2
        assert stats.collected() == 1
        summary = stats.summary()
        assert summary["dispatched_tasks"] == 2
        assert summary["collected_tasks"] == 1
