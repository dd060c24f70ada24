"""Live progress rendering: status line content and TTY behaviour."""

import io

from repro.obs.progress import NO_PROGRESS, ProgressRenderer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_renderer(enabled=True):
    clock = FakeClock()
    stream = io.StringIO()
    renderer = ProgressRenderer(
        stream=stream, enabled=enabled, clock=clock, min_interval=0.0
    )
    return renderer, stream, clock


class TestStatusLine:
    def test_counts_done_of_total(self):
        renderer, _, _ = make_renderer(enabled=False)
        renderer.begin("align", total=8)
        renderer.advance(units=3)
        assert renderer.status_line() == "align 3/8 units"

    def test_throughput_and_eta(self):
        renderer, _, clock = make_renderer(enabled=False)
        renderer.begin("align", total=4)
        clock.t = 10.0
        renderer.advance(units=2, cells=20_000_000)
        line = renderer.status_line()
        assert "2.0M cells/s" in line
        # 2 units took 10s; 2 remain -> ETA 10s.
        assert "ETA 0:10" in line

    def test_retries_and_fallbacks_counted(self):
        renderer, _, _ = make_renderer(enabled=False)
        renderer.begin("align")
        renderer.retried("t1:q1", "timeout", attempt=2)
        renderer.retried("t1:q2", "crash", attempt=1)
        renderer.fell_back("t1:q1", "timeout")
        assert "2 retried, 1 fell back" in renderer.status_line()

    def test_no_total_renders_bare_count(self):
        renderer, _, _ = make_renderer(enabled=False)
        renderer.begin("chain")
        renderer.advance(units=5)
        line = renderer.status_line()
        assert "chain 5 units" in line
        assert "/" not in line
        assert "ETA" not in line


class TestRendering:
    def test_disabled_renderer_writes_nothing(self):
        renderer, stream, _ = make_renderer(enabled=False)
        renderer.begin("align", total=2)
        renderer.advance(units=1)
        renderer.retried("u1", "crash", 1)
        renderer.close()
        assert stream.getvalue() == ""

    def test_non_tty_auto_disables(self):
        renderer = ProgressRenderer(stream=io.StringIO())
        assert renderer.enabled is False

    def test_enabled_renderer_repaints_in_place(self):
        renderer, stream, _ = make_renderer(enabled=True)
        renderer.begin("align", total=2)
        renderer.advance(units=1)
        output = stream.getvalue()
        assert output.count("\r") >= 2  # repaint, not scroll
        assert "\n" not in output
        assert "align 1/2 units" in output

    def test_notes_persist_above_status_line(self):
        renderer, stream, _ = make_renderer(enabled=True)
        renderer.begin("align", total=2)
        renderer.retried("u1", "crash", 1)
        noted = stream.getvalue()
        assert "retry #1 [u1] after crash" in noted
        assert "\n" in noted  # the note scrolled, unlike the status line
        # After the note the status line is repainted below it.
        assert stream.getvalue().endswith("units · 1 retried")

    def test_close_clears_the_line(self):
        renderer, stream, _ = make_renderer(enabled=True)
        renderer.begin("align", total=2)
        renderer.close()
        assert stream.getvalue().endswith("\r")

    def test_shared_null_progress_is_inert(self):
        NO_PROGRESS.begin("x", total=1)
        NO_PROGRESS.advance(units=1, cells=5)
        NO_PROGRESS.retried("k", "c", 1)
        NO_PROGRESS.fell_back("k", "c")
        NO_PROGRESS.close()
        assert NO_PROGRESS.enabled is False
