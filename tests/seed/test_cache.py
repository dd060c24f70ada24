"""Seed-index cache: hit/miss accounting, invalidation, corruption."""

import hashlib

import numpy as np
import pytest

from repro.genome import Sequence, markov_genome
from repro.seed import SeedIndex, SeedIndexCache, SpacedSeed, index_cache_key
from repro.seed import cache as cache_module


@pytest.fixture
def target(rng):
    return Sequence(markov_genome(4000, rng).codes, name="t")


@pytest.fixture
def seed():
    return SpacedSeed()


class TestSeedIndexCache:
    def test_miss_then_hit(self, tmp_path, target, seed):
        cache = SeedIndexCache(tmp_path)
        built = cache.get_or_build(target, seed)
        assert (cache.misses, cache.hits) == (1, 0)
        loaded = cache.get_or_build(target, seed)
        assert (cache.misses, cache.hits) == (1, 1)
        np.testing.assert_array_equal(
            built.sorted_words, loaded.sorted_words
        )
        np.testing.assert_array_equal(
            built.sorted_positions, loaded.sorted_positions
        )
        assert loaded.target_length == len(target)
        assert loaded.seed == seed

    def test_loaded_index_matches_fresh_build(self, tmp_path, target, seed):
        cache = SeedIndexCache(tmp_path)
        cache.get_or_build(target, seed)
        loaded = cache.load(target, seed)
        fresh = SeedIndex.build(target, seed)
        np.testing.assert_array_equal(
            loaded.sorted_words, fresh.sorted_words
        )
        np.testing.assert_array_equal(
            loaded.sorted_positions, fresh.sorted_positions
        )
        self.assert_same_lookups(loaded, fresh)

    def test_entry_written_before_the_bitmap_existed_loads(
        self, tmp_path, target, seed
    ):
        # The bitmap is derived, never stored: an entry laid down by the
        # previous release (these three keys, CACHE_VERSION 2, a sha256
        # sidecar) must still be a hit and give the same lookups.
        assert cache_module.CACHE_VERSION == 2
        fresh = SeedIndex.build(target, seed)
        entry = tmp_path / f"seedindex-{index_cache_key(target, seed)}.npz"
        with open(entry, "wb") as handle:
            np.savez(
                handle,
                sorted_words=fresh.sorted_words,
                sorted_positions=fresh.sorted_positions,
                target_length=np.int64(fresh.target_length),
            )
        digest = hashlib.sha256(entry.read_bytes()).hexdigest()
        (tmp_path / f"{entry.name}.sha256").write_text(digest + "\n")
        cache = SeedIndexCache(tmp_path)
        loaded = cache.get_or_build(target, seed)
        assert (cache.hits, cache.misses) == (1, 0)
        self.assert_same_lookups(loaded, fresh)
        # and what this release stores has exactly those keys
        other = tmp_path / "other"
        stored = SeedIndexCache(other).store(target, seed, fresh)
        with np.load(stored) as archive:
            assert sorted(archive.files) == [
                "sorted_positions", "sorted_words", "target_length",
            ]

    @staticmethod
    def assert_same_lookups(loaded, fresh):
        assert loaded.bitmap_bits == fresh.bitmap_bits
        np.testing.assert_array_equal(loaded.bitmap, fresh.bitmap)
        words = np.concatenate(
            [fresh.sorted_words[::3], fresh.sorted_words[::3] ^ 8]
        )
        positions = np.arange(words.size, dtype=np.int64)
        for got, want in zip(
            loaded.lookup_batch(words, positions),
            fresh.lookup_batch(words, positions),
        ):
            np.testing.assert_array_equal(got, want)

    def test_key_separates_sequences_and_seeds(self, rng, target):
        other = Sequence(markov_genome(4000, rng).codes, name="u")
        wide = SpacedSeed(pattern="111010011001010111011")
        base = index_cache_key(target, SpacedSeed())
        assert index_cache_key(other, SpacedSeed()) != base
        assert index_cache_key(target, wide) != base
        assert (
            index_cache_key(target, SpacedSeed(transitions=False)) != base
        )

    def test_different_seed_is_a_miss(self, tmp_path, target, seed):
        cache = SeedIndexCache(tmp_path)
        cache.get_or_build(target, seed)
        assert cache.load(target, SpacedSeed(transitions=False)) is None

    def test_version_bump_invalidates(
        self, tmp_path, target, seed, monkeypatch
    ):
        cache = SeedIndexCache(tmp_path)
        cache.get_or_build(target, seed)
        monkeypatch.setattr(
            cache_module, "CACHE_VERSION", cache_module.CACHE_VERSION + 1
        )
        assert cache.load(target, seed) is None
        cache.get_or_build(target, seed)
        assert cache.misses == 2

    def test_corrupted_entry_rebuilds(self, tmp_path, target, seed):
        cache = SeedIndexCache(tmp_path)
        cache.get_or_build(target, seed)
        (entry,) = tmp_path.glob("seedindex-*.npz")
        entry.write_bytes(b"not a numpy archive")
        assert cache.load(target, seed) is None
        rebuilt = cache.get_or_build(target, seed)
        fresh = SeedIndex.build(target, seed)
        np.testing.assert_array_equal(
            rebuilt.sorted_words, fresh.sorted_words
        )

    def test_checksum_mismatch_quarantines(self, tmp_path, target, seed):
        cache = SeedIndexCache(tmp_path)
        cache.get_or_build(target, seed)
        (entry,) = tmp_path.glob("seedindex-*.npz")
        payload = bytearray(entry.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        entry.write_bytes(bytes(payload))
        assert cache.load(target, seed) is None
        assert cache.quarantined == 1
        assert not entry.exists()
        assert (tmp_path / f"{entry.name}.quarantined").exists()
        rebuilt = cache.get_or_build(target, seed)
        fresh = SeedIndex.build(target, seed)
        np.testing.assert_array_equal(
            rebuilt.sorted_words, fresh.sorted_words
        )

    def test_missing_checksum_is_a_plain_miss(self, tmp_path, target, seed):
        cache = SeedIndexCache(tmp_path)
        cache.get_or_build(target, seed)
        (sidecar,) = tmp_path.glob("seedindex-*.sha256")
        sidecar.unlink()
        assert cache.load(target, seed) is None
        assert cache.quarantined == 0
        assert not list(tmp_path.glob("*.quarantined"))

    def test_injected_corruption_recovers(self, tmp_path, target, seed):
        from repro.resilience import FaultPlan, ResilienceOptions

        options = ResilienceOptions(
            fault_plan=FaultPlan(seed=4, rates={"corrupt": 1.0})
        )
        cache = SeedIndexCache(tmp_path, resilience=options)
        cache.get_or_build(target, seed)
        assert options.stats.injected_faults == {"corrupt": 1}
        # The stored bytes were flipped: the next lookup must quarantine
        # and rebuild rather than hand back a poisoned index.
        rebuilt = cache.get_or_build(target, seed)
        assert cache.quarantined == 1
        assert options.stats.quarantined_entries == 1
        fresh = SeedIndex.build(target, seed)
        np.testing.assert_array_equal(
            rebuilt.sorted_words, fresh.sorted_words
        )
        np.testing.assert_array_equal(
            rebuilt.sorted_positions, fresh.sorted_positions
        )

    def test_records_cache_attribute_on_span(self, tmp_path, target, seed):
        from repro.obs import Tracer

        tracer = Tracer()
        cache = SeedIndexCache(tmp_path)
        cache.get_or_build(target, seed, tracer=tracer)
        cache.get_or_build(target, seed, tracer=tracer)
        spans = [s for s in tracer.walk() if s.name == "build_index"]
        assert [s.attrs["cache"] for s in spans] == ["miss", "hit"]
