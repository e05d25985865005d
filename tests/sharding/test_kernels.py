"""Per-shard kernels (the slice-writing rule) and per-shard-plus-merge top-k."""

import numpy as np
import pytest

from repro.compression.topk import top_k_indices
from repro.sharding import (
    ShardingRuntime,
    shard_elementwise_add,
    shard_top_k,
    shard_top_k_in_support,
)
from tests.sharding import reference

pytestmark = pytest.mark.sharding


def test_elementwise_add_is_plain_add():
    a = np.array([1.0, 2.0], dtype=np.float32)
    b = np.array([0.5, -2.0], dtype=np.float32)
    out = np.empty(2, dtype=np.float32)
    assert shard_elementwise_add(out, a, b) is out
    np.testing.assert_array_equal(out, a + b)
    # a half-precision param plus a float32 delta adds in float32
    half = a.astype(np.float16)
    np.testing.assert_array_equal(
        shard_elementwise_add(np.empty(2, dtype=np.float32), half, b), half + b
    )


def int_out(n):
    return np.empty(n, dtype=np.int64)


def test_top_candidates_globalizes_indices():
    x = np.array([0.1, -5.0, 2.0, 0.0], dtype=np.float64)
    out = int_out(2)
    assert shard_top_k(out, x, 2, lo=100) is out
    np.testing.assert_array_equal(out, [101, 102])
    # within a support the winners map back through it, into the slice
    support = np.array([3, 40, 41, 99], dtype=np.int64)
    out = int_out(2)
    assert shard_top_k_in_support(out, x, support, 2) is out
    np.testing.assert_array_equal(out, [40, 41])


def test_top_candidates_k_exceeds_shard():
    x = np.array([1.0, -2.0], dtype=np.float64)
    np.testing.assert_array_equal(shard_top_k(int_out(2), x, 10, lo=4), [4, 5])
    support = np.array([6, 9], dtype=np.int64)
    np.testing.assert_array_equal(
        shard_top_k_in_support(int_out(2), x, support, 10), support
    )


def test_top_candidates_k_zero():
    assert len(shard_top_k(int_out(0), np.ones(3), 0, lo=7)) == 0
    empty = np.empty(0, dtype=np.int64)
    # an empty shard of the support (k > 0) has no winners either
    assert len(shard_top_k_in_support(int_out(0), np.empty(0), empty, 5)) == 0


def test_merge_is_exact_vs_global_topk():
    """Superset property: per-shard top-min(k,|shard|) winners always
    contain the global top-k, for every partition of the vector."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=257)
    for count in (1, 2, 7, 16, 300):
        rt = ShardingRuntime(len(x), count)
        for k in (1, 5, 64, 256):
            got = rt.top_k_indices(x, k)
            np.testing.assert_array_equal(got, top_k_indices(x, k))
            assert got.dtype == np.int64


def test_merge_returns_everything_when_short(monkeypatch):
    """Winners that do not outnumber ``k`` *are* the answer: no second
    selection runs — with one shard never, with many whenever all of them
    sit in one shard."""
    x = np.zeros(40)
    x[[3, 7, 8]] = [1.0, -2.0, 3.0]
    support = np.array([3, 7, 8], dtype=np.int64)  # all inside shard 0 of 4
    lengths = []
    real = np.argpartition
    monkeypatch.setattr(
        np, "argpartition", lambda a, *args: lengths.append(len(a)) or real(a, *args)
    )
    for count in (1, 4):
        rt = ShardingRuntime(40, count)
        np.testing.assert_array_equal(rt.top_k_indices(x, 2, support), [7, 8])
    # one selection over the 3 support values per runtime — never a second
    # one over the 2 winners
    assert lengths == [3, 3]


@pytest.mark.parametrize("count", [1, 2, 7, 16])
@pytest.mark.parametrize("with_support", [False, True])
def test_per_shard_plus_merge_topk_equals_reference(count, with_support):
    """k ∈ {0, 1, < a shard, > every shard, ≥ d}, dense and in-support."""
    rng = np.random.default_rng(count)
    d = 240
    support = None
    x = rng.normal(size=d)
    if with_support:
        support = np.sort(rng.choice(d, size=90, replace=False)).astype(np.int64)
        dense, x = x, np.zeros(d)
        x[support] = dense[support]
    rt = ShardingRuntime(d, count)
    shard = d // count
    for k in (0, 1, max(1, shard // 2), min(d - 1, shard + 3), 89, d, d + 5):
        if with_support and k >= len(support) and k < d:
            continue  # zeros tie at the k-th magnitude: any answer is legal
        np.testing.assert_array_equal(
            rt.top_k_indices(x, k, support),
            reference.select_top_k(x, k, support),
            err_msg=f"k={k}",
        )
