"""Unit tests for the shard feature-store view."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FeatureStore
from repro.parallel import FeatureStoreView, assign_shards


@pytest.fixture
def base() -> FeatureStore:
    rng = np.random.default_rng(7)
    return FeatureStore(rng.uniform(1.0, 10.0, size=(40, 3)))


class TestRestriction:
    def test_live_ids_are_owned_subset(self, base):
        view = FeatureStoreView(base, 1, 4, "round_robin")
        ids = view.live_ids()
        assert np.array_equal(ids, np.arange(1, 40, 4))
        assert len(view) == ids.size
        assert view.dim == base.dim

    def test_views_partition_the_store(self, base):
        parts = [
            FeatureStoreView(base, shard, 3, "hash").live_ids() for shard in range(3)
        ]
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, base.live_ids())

    def test_get_all_matches_base_rows(self, base):
        view = FeatureStoreView(base, 0, 2, "round_robin")
        ids, rows = view.get_all()
        assert np.array_equal(rows, base.get(ids))

    def test_scan_values_restricted_and_exact(self, base):
        view = FeatureStoreView(base, 2, 4, "round_robin")
        normal = np.asarray([1.0, 2.0, 3.0])
        ids, values = view.scan_values(normal)
        assert np.array_equal(ids, view.live_ids())
        assert np.allclose(values, base.get(ids) @ normal)

    def test_take_rows_delegates_globally(self, base):
        view = FeatureStoreView(base, 0, 4, "round_robin")
        ids = np.asarray([0, 4, 8], dtype=np.int64)
        assert np.array_equal(view.take_rows(ids), base.get(ids))

    def test_is_live_requires_ownership(self, base):
        view = FeatureStoreView(base, 0, 4, "round_robin")
        assert view.is_live(4)
        assert not view.is_live(5)  # live in base, owned by shard 1

    def test_rejects_out_of_range_shard(self, base):
        with pytest.raises(ValueError):
            FeatureStoreView(base, 4, 4, "round_robin")


class TestCacheInvalidation:
    def test_append_refreshes_membership(self, base):
        view = FeatureStoreView(base, 0, 4, "round_robin")
        before = view.live_ids()
        new_ids = base.append(np.ones((8, 3)))
        after = view.live_ids()
        expected_new = new_ids[assign_shards(new_ids, 4, "round_robin") == 0]
        assert after.size == before.size + expected_new.size
        assert np.array_equal(after, np.sort(np.concatenate([before, expected_new])))

    def test_delete_refreshes_membership(self, base):
        view = FeatureStoreView(base, 0, 4, "round_robin")
        assert 4 in view.live_ids()
        base.delete(np.asarray([4], dtype=np.int64))
        assert 4 not in view.live_ids()
        assert not view.is_live(4)

    def test_update_refreshes_scan_values(self, base):
        view = FeatureStoreView(base, 0, 2, "round_robin")
        normal = np.asarray([1.0, 1.0, 1.0])
        view.scan_values(normal)  # warm the row cache
        base.update(np.asarray([0], dtype=np.int64), np.asarray([[5.0, 5.0, 5.0]]))
        ids, values = view.scan_values(normal)
        assert values[ids == 0][0] == pytest.approx(15.0)

    def test_memory_bytes_reflects_caches(self, base):
        view = FeatureStoreView(base, 0, 2, "round_robin")
        assert view.memory_bytes() == 0
        view.get_all()
        assert view.memory_bytes() > 0

    def test_live_ids_survive_churn(self, base):
        """View churn mirror of the store's ids==positions pin: after
        interleaved base deletes and appends, each view's live ids are
        exactly the owned, live subset, and scans stay exact."""
        rng = np.random.default_rng(3)
        views = [FeatureStoreView(base, shard, 3, "round_robin") for shard in range(3)]
        for _ in range(10):
            live = base.live_ids()
            victims = rng.choice(live, size=2, replace=False)
            base.delete(np.sort(victims).astype(np.int64))
            base.append(rng.uniform(1.0, 10.0, size=(3, 3)))
            merged = np.sort(np.concatenate([view.live_ids() for view in views]))
            assert np.array_equal(merged, base.live_ids())
            normal = np.asarray([1.0, 2.0, 3.0])
            for view in views:
                ids, values = view.scan_values(normal)
                assert np.array_equal(ids, view.live_ids())
                assert np.allclose(values, base.get(ids) @ normal)
