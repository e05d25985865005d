"""ShardingRuntime: folds, sums and top-k for 1..N shards vs the plain
references, what one shard costs, and the release ledger."""

import tracemalloc

import numpy as np
import pytest

from repro.compression import FedAvgStrategy, GlueFLMaskStrategy, STCStrategy
from repro.compression.base import ClientPayload
from repro.compression.topk import top_k_indices
from repro.sharding import ShardingRuntime
from tests.compression.rounds import aggregate_payloads
from tests.sharding import reference

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


def folded_sum(rt, payloads, dtype):
    """Eq. 6's sum the way a strategy builds it: the round's accumulator,
    one ``fold_sparse`` per payload as it arrives."""
    acc = np.zeros(rt.d, dtype=dtype)
    for _, weight, payload in payloads:
        rt.fold_sparse(acc, weight, payload.data["idx"], payload.data["vals"])
    return acc


@pytest.mark.parametrize("count", [1, 2, 7, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sparse_weighted_sum_bit_identical(count, dtype):
    """Folded payload by payload, through a strategy bound to a
    ``count``-shard runtime (STC at q = 1 keeps every coordinate, so its
    global delta *is* the sum), Eq. 6 is the plain loop's bits — an
    empty payload among them included."""
    rng = np.random.default_rng(count)
    d = 211
    rt = ShardingRuntime(d, count)
    try:
        payloads = make_payloads(rng, d)
        payloads.insert(2, make_payloads(rng, d, n=1, nnz=0)[0])
        ref = reference.weighted_dense_sum(payloads, d, dtype=dtype)
        np.testing.assert_array_equal(ref, folded_sum(rt, payloads, dtype))
        stc = STCStrategy(q=1.0)
        stc.setup(d, rng, dtype=dtype)
        stc.bind_sharding(rt)
        got = aggregate_payloads(stc, payloads).global_delta
        np.testing.assert_array_equal(ref, got)
        assert got.dtype == np.dtype(dtype)
    finally:
        rt.close()


def dense_payloads(rng, length, key, n=4, dtype=np.float32):
    return [
        (
            cid,
            float(rng.uniform(0.5, 2.0)),
            ClientPayload(0, data={key: rng.normal(size=length).astype(dtype)}),
        )
        for cid in range(n)
    ]


def test_fold_dense_matches_inplace_loop():
    """``fold_dense`` is the in-place loop's bits on Eq. 5's shared-mask
    sum — an empty shared part (a GlueFL regeneration round) included."""
    rng = np.random.default_rng(2)
    for m in (30, 0):
        payloads = dense_payloads(rng, m, "shr_vals", n=5)
        acc = np.zeros(m, dtype=np.float32)
        for _, weight, payload in payloads:
            ShardingRuntime.fold_dense(acc, weight, payload.data["shr_vals"])
        np.testing.assert_array_equal(
            reference.slice_weighted_sum(payloads, "shr_vals", m, np.float32), acc
        )


def test_dense_weighted_sum_is_fresh_and_exact():
    """The FedAvg sum escapes as the global delta, so each round's is a
    fresh allocation, and the plain loop's bits."""
    rng = np.random.default_rng(11)
    d = 97
    payloads = dense_payloads(rng, d, "dense", n=3, dtype=np.float64)
    ref = reference.slice_weighted_sum(payloads, "dense", d, np.float64)
    for count in (1, 4):
        rt = ShardingRuntime(d, count)
        fedavg = FedAvgStrategy()
        fedavg.setup(d, rng)
        fedavg.bind_sharding(rt)
        try:
            got1 = aggregate_payloads(fedavg, payloads).global_delta
            got2 = aggregate_payloads(fedavg, payloads).global_delta
            np.testing.assert_array_equal(ref, got1)
            assert got1 is not got2  # fresh allocation per round
        finally:
            rt.close()


@pytest.mark.parametrize("count", [1, 2, 7, 16])
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


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_parallel_backends_fill_every_slice(backend):
    """Threads write their view of the result in place; a fork worker
    returns its part and the parent copies it back."""
    rng = np.random.default_rng(19)
    d = 211
    a = rng.normal(size=d).astype(np.float32)
    rt = ShardingRuntime(d, 4, backend=backend, workers=2)
    try:
        np.testing.assert_array_equal(
            rt.elementwise_add(a, a[::-1]), reference.elementwise_add(a, a[::-1])
        )
        np.testing.assert_array_equal(
            rt.top_k_indices(a, 30), top_k_indices(a, 30)
        )
    finally:
        rt.close()


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


def test_ledger_empty_shard_releases_nothing():
    """``shard_count > d`` is legal (empty trailing shards): their
    released fraction is 0.0, not 0/0."""
    rt = ShardingRuntime(3, 5)
    rt.observe_release(np.array([0, 2], dtype=np.int64))
    np.testing.assert_array_equal(
        rt.ledger.released_fraction(), [1.0, 0.0, 1.0, 0.0, 0.0]
    )


# -- one shard costs what the plain expression costs -------------------------


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_shard_peak_memory_matches_plain_expression():
    """The slice-writing rule: one shard allocates no part buffer and no
    d-sized copy next to its result, and a fold costs what one step of the
    plain loop does (d = 1e5, k = 5000, 6 payloads, f32)."""
    rng = np.random.default_rng(23)
    d, k = 100_000, 5_000
    sparse = make_payloads(rng, d, n=6, nnz=k)
    dense = dense_payloads(rng, d, "dense", n=6)
    a = rng.normal(size=d).astype(np.float32)
    b = rng.normal(size=d).astype(np.float32)
    rt = ShardingRuntime(d, 1)
    f32 = np.float32

    def fold_dense():
        acc = np.zeros(d, dtype=f32)
        for _, weight, payload in dense:
            rt.fold_dense(acc, weight, payload.data["dense"])
        return acc

    pairs = {
        "fold_sparse": (
            lambda: folded_sum(rt, sparse, f32),
            lambda: reference.weighted_dense_sum(sparse, d, dtype=f32),
        ),
        "fold_dense": (
            fold_dense,
            lambda: reference.slice_weighted_sum(dense, "dense", d, f32),
        ),
        "elementwise_add": (
            lambda: rt.elementwise_add(a, b),
            lambda: reference.elementwise_add(a, b),
        ),
    }
    for name, (ours, plain) in pairs.items():
        ours(), plain()  # warm caches so neither side pays a first call
        assert traced_peak(ours) <= 1.25 * traced_peak(plain), name


@pytest.mark.parametrize("count", [1, 7])
def test_compensate_allocates_one_vector_whatever_the_shard_count(count):
    """Residuals are flat client-side state: a bound runtime must not make
    ``compensate`` reassemble chunks (a second d-sized array)."""
    rng = np.random.default_rng(29)
    d = 100_000
    s = GlueFLMaskStrategy(q=0.2, q_shr=0.1)
    s.setup(d, rng, dtype=np.float32)
    s.bind_sharding(ShardingRuntime(d, count))
    s.begin_round(1)
    s.client_compress(0, rng.normal(size=d).astype(np.float32), 0.5)
    delta = rng.normal(size=d).astype(np.float32)
    stored, weight = s.residuals.peek(0)
    assert stored.shape == (d,)
    out = s.residuals.compensate(0, delta, 0.25)
    np.testing.assert_array_equal(
        out, reference.residual_round_trip(stored, delta, weight / 0.25)
    )
    peak = traced_peak(lambda: s.residuals.compensate(0, delta, 0.25))
    assert peak < 1.1 * delta.nbytes
