"""Resource sampling: the per-task point sample workers publish."""

import json

from repro.obs.resource import sample_resources


class TestSampleResources:
    def test_sample_has_plausible_values(self):
        sample = sample_resources()
        assert sample["rss_bytes"] > 0  # this test process surely uses memory

    def test_as_dict_is_wire_ready(self):
        sample = sample_resources()
        assert set(sample) == {"rss_bytes"}
        assert json.loads(json.dumps(sample)) == sample
