"""ShardingRuntime: sharded sums/top-k vs the unsharded originals, the
recycled (optionally memmapped) accumulator, and the release ledger."""

import os

import numpy as np
import pytest

from repro.compression.base import ClientPayload, weighted_dense_sum
from repro.compression.topk import top_k_indices
from repro.sharding import ShardingRuntime

pytestmark = pytest.mark.sharding


def make_payloads(rng, d, n=5, nnz=40):
    out = []
    for cid in range(n):
        idx = np.sort(rng.choice(d, size=nnz, replace=False)).astype(np.int64)
        vals = rng.normal(size=nnz).astype(np.float32)
        out.append(
            (cid, float(rng.uniform(0.5, 2.0)), ClientPayload(0, data={"idx": idx, "vals": vals}))
        )
    return out


@pytest.mark.parametrize("count", [1, 2, 7, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sparse_weighted_sum_bit_identical(count, dtype):
    rng = np.random.default_rng(count)
    d = 211
    rt = ShardingRuntime(d, count)
    try:
        payloads = make_payloads(rng, d)
        ref = weighted_dense_sum(payloads, d, dtype=dtype)
        got = rt.sparse_weighted_sum(payloads, dtype=dtype)
        np.testing.assert_array_equal(ref, got)
        assert got.dtype == np.dtype(dtype)
    finally:
        rt.close()


def test_masked_weighted_sum_matches_inplace_loop():
    rng = np.random.default_rng(9)
    d, m = 150, 40
    mask = np.sort(rng.choice(d, size=m, replace=False)).astype(np.int64)
    payloads = []
    ref = np.zeros(m, dtype=np.float32)
    for cid in range(4):
        vals = rng.normal(size=m).astype(np.float32)
        w = float(rng.uniform(0.5, 2.0))
        payloads.append((cid, w, ClientPayload(0, data={"shr_vals": vals})))
        ref += w * vals
    rt = ShardingRuntime(d, 7)
    try:
        got = rt.masked_weighted_sum(payloads, mask, dtype=np.float32)
        np.testing.assert_array_equal(ref, got)
    finally:
        rt.close()


def test_dense_weighted_sum_is_fresh_and_exact():
    """The FedAvg sum escapes as the global delta — it must never be the
    runtime's recycled accumulator."""
    rng = np.random.default_rng(11)
    d = 97
    payloads = []
    ref = np.zeros(d, dtype=np.float64)
    for cid in range(3):
        dense = rng.normal(size=d)
        w = float(rng.uniform(0.5, 2.0))
        payloads.append((cid, w, ClientPayload(0, data={"dense": dense})))
        ref += w * dense
    rt = ShardingRuntime(d, 4)
    try:
        got1 = rt.dense_weighted_sum(payloads, dtype=np.float64)
        got2 = rt.dense_weighted_sum(payloads, dtype=np.float64)
        np.testing.assert_array_equal(ref, got1)
        assert got1 is not got2  # fresh allocation per call
        assert got1 is not rt.accumulator(np.float64)
    finally:
        rt.close()


@pytest.mark.parametrize("count", [2, 7, 16])
def test_top_k_indices_bit_identical(count):
    rng = np.random.default_rng(13)
    d = 503
    x = rng.normal(size=d)
    rt = ShardingRuntime(d, count)
    try:
        for k in (0, -3, 1, 17, 250, d, d + 10):
            np.testing.assert_array_equal(
                top_k_indices(x, k), rt.top_k_indices(x, k)
            )
    finally:
        rt.close()


def test_accumulator_recycled_and_zeroed():
    rt = ShardingRuntime(10, 3)
    try:
        acc = rt.accumulator(np.float32)
        acc[:] = 7.0
        again = rt.accumulator(np.float32)
        assert again is acc
        np.testing.assert_array_equal(again, np.zeros(10, dtype=np.float32))
        # distinct dtypes get distinct buffers
        assert rt.accumulator(np.float64) is not acc
    finally:
        rt.close()


def test_mmap_accumulator_file_lifecycle():
    rt = ShardingRuntime(64, 4, mmap=True)
    acc = rt.accumulator(np.float32)
    assert isinstance(acc, np.memmap)
    paths = list(rt._acc_paths.values())
    assert paths and all(os.path.exists(p) for p in paths)
    root = rt._mmap_dir
    rt.close()
    assert not any(os.path.exists(p) for p in paths)
    assert not os.path.exists(root)
    # the runtime survives close: the next request recreates the file
    acc2 = rt.accumulator(np.float32)
    assert isinstance(acc2, np.memmap)
    rt.close()


def test_mmap_sum_bit_identical_to_ram():
    rng = np.random.default_rng(17)
    d = 211
    payloads = make_payloads(rng, d)
    ram = ShardingRuntime(d, 5)
    disk = ShardingRuntime(d, 5, mmap=True)
    try:
        a = np.array(ram.sparse_weighted_sum(payloads, dtype=np.float32))
        b = np.array(disk.sparse_weighted_sum(payloads, dtype=np.float32))
        np.testing.assert_array_equal(a, b)
    finally:
        ram.close()
        disk.close()


def test_release_ledger_counts_and_fraction():
    rt = ShardingRuntime(10, 2)  # shards [0,5) and [5,10)
    try:
        rt.observe_release(np.array([0, 1, 7], dtype=np.int64))
        rt.observe_release(np.array([5], dtype=np.int64))
        np.testing.assert_array_equal(rt.ledger.counts, [2, 2])
        assert rt.ledger.rounds == 2
        np.testing.assert_allclose(
            rt.ledger.released_fraction(), [2 / 10.0, 2 / 10.0]
        )
    finally:
        rt.close()


def test_ledger_zero_rounds_fraction_is_zero():
    rt = ShardingRuntime(10, 2)
    try:
        np.testing.assert_array_equal(rt.ledger.released_fraction(), [0.0, 0.0])
    finally:
        rt.close()
