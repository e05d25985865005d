"""Unit tests for the contiguous-range partition (``ShardSpec``)."""

import numpy as np
import pytest

from repro.sharding import ShardSpec

pytestmark = pytest.mark.sharding


def test_build_array_split_convention():
    """First ``d % count`` shards are one element larger (np.array_split)."""
    spec = ShardSpec.build(d=10, shard_count=3)
    assert spec.count == 3
    assert [spec.bounds(s) for s in range(3)] == [(0, 4), (4, 7), (7, 10)]
    assert [spec.size(s) for s in range(3)] == [4, 3, 3]
    ref = np.array_split(np.arange(10), 3)
    for s, lo, hi in spec.iter_bounds():
        np.testing.assert_array_equal(np.arange(lo, hi), ref[s])


def test_build_even_split():
    spec = ShardSpec.build(d=12, shard_count=4)
    assert all(spec.size(s) == 3 for s in range(4))
    assert spec.offsets[-1] == 12


def test_more_shards_than_coordinates_yields_empty_tails():
    spec = ShardSpec.build(d=3, shard_count=5)
    assert spec.count == 5
    assert [spec.size(s) for s in range(5)] == [1, 1, 1, 0, 0]
    # empty shards are well-formed ranges
    assert spec.bounds(4) == (3, 3)


def test_build_rejects_bad_inputs():
    with pytest.raises(ValueError, match="d must be positive"):
        ShardSpec.build(d=0, shard_count=1)
    with pytest.raises(ValueError, match="shard_count must be positive"):
        ShardSpec.build(d=10, shard_count=0)


def test_offsets_are_immutable():
    spec = ShardSpec.build(d=10, shard_count=3)
    with pytest.raises(ValueError):
        spec.offsets[0] = 5


def test_split_points_slices_cover_sorted_idx():
    rng = np.random.default_rng(0)
    spec = ShardSpec.build(d=101, shard_count=7)
    idx = np.sort(rng.choice(101, size=40, replace=False)).astype(np.int64)
    pts = spec.split_points(idx)
    assert pts[0] == 0 and pts[-1] == len(idx)
    rebuilt = []
    for s, lo, hi in spec.iter_bounds():
        part = idx[pts[s] : pts[s + 1]]
        assert ((part >= lo) & (part < hi)).all()
        rebuilt.append(part)
    np.testing.assert_array_equal(np.concatenate(rebuilt), idx)


def test_split_points_empty_idx():
    spec = ShardSpec.build(d=10, shard_count=3)
    pts = spec.split_points(np.empty(0, dtype=np.int64))
    assert (pts == 0).all()
