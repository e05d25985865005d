"""Hypothesis property-based tests on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression.error_comp import ErrorCompMode, ResidualStore
from repro.compression.topk import ratio_to_k, top_k_indices
from repro.fl.staleness import StalenessTracker
from repro.network.encoding import (
    bitmap_bytes,
    dense_bytes,
    golomb_position_bytes,
    index_bytes,
    sparse_bytes,
    values_bytes,
)
from repro.nn.functional import one_hot, softmax

from tests.fl.reference import HistogramLedger

finite_vectors = arrays(
    np.float64,
    st.integers(min_value=1, max_value=200),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


# ---------------------------------------------------------------- top-k
@given(finite_vectors, st.integers(0, 250))
def test_topk_size_and_bounds(x, k):
    idx = top_k_indices(x, k)
    assert len(idx) == min(max(k, 0), len(x))
    assert len(np.unique(idx)) == len(idx)
    if len(idx):
        assert idx.min() >= 0 and idx.max() < len(x)


@given(finite_vectors, st.integers(1, 200))
def test_topk_dominates_dropped(x, k):
    idx = top_k_indices(x, k)
    dropped = np.setdiff1d(np.arange(len(x)), idx)
    if len(dropped) and len(idx):
        assert np.abs(x[idx]).min() >= np.abs(x[dropped]).max() - 1e-9


@given(finite_vectors, st.floats(0.0, 1.0))
def test_ratio_to_k_in_range(x, q):
    k = ratio_to_k(q, len(x))
    assert 0 <= k <= len(x)


@given(finite_vectors, st.integers(0, 200))
def test_sparsify_reconstruction_error_is_minimal(x, k):
    """Top-k is the best k-sparse L2 approximation."""
    idx = top_k_indices(x, k)
    sent = np.zeros_like(x)
    sent[idx] = x[idx]
    err = np.abs(x - sent)
    if len(idx) < len(x) and len(idx) > 0:
        assert err.max() <= np.abs(x[idx]).min() + 1e-9


# ---------------------------------------------------------------- encoding
@given(st.integers(1, 10**7))
def test_dense_bitmap_relation(d):
    assert dense_bytes(d) == 4 * d
    assert bitmap_bytes(d) >= d // 8


@given(st.integers(1, 10**6))
def test_sparse_monotone_in_k(d):
    ks = sorted({0, 1, d // 7, d // 3, d})
    costs = [sparse_bytes(k, d) for k in ks if k <= d]
    assert all(a <= b for a, b in zip(costs, costs[1:]))


@given(st.integers(0, 10**5), st.integers(1, 10**6))
def test_sparse_bounded_by_parts(k, d):
    k = min(k, d)
    cost = sparse_bytes(k, d)
    assert cost <= dense_bytes(d)
    assert cost <= values_bytes(k) + bitmap_bytes(d)
    assert cost <= values_bytes(k) + index_bytes(k, d)


@given(st.integers(1, 10**6))
def test_golomb_bounded_by_bitmap(d):
    for k in {0, 1, d // 13, d // 2, d}:
        if k <= d:
            assert golomb_position_bytes(k, d) <= bitmap_bytes(d) + 1


# ---------------------------------------------------------------- error compensation
@given(
    arrays(np.float64, 32, elements=st.floats(-100, 100, allow_nan=False)),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
)
def test_rec_weighted_contribution_invariant(h, w_old, w_new):
    """ν_new · compensate(0) == ν_old · h for any weights (Eq. 7)."""
    store = ResidualStore(ErrorCompMode.REC)
    store.record(0, h, weight=w_old)
    out = store.compensate(0, np.zeros(32), current_weight=w_new)
    np.testing.assert_allclose(w_new * out, w_old * h.astype(np.float32), rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------- staleness
@given(
    st.lists(
        st.lists(st.integers(0, 49), min_size=0, max_size=30),
        min_size=1,
        max_size=20,
    )
)
def test_staleness_equals_union_of_updates(update_batches):
    """stale set == union of per-round changed sets since last sync, and
    its size is the count both ledgers price."""
    tr, ref = StalenessTracker(d=50, num_clients=1), HistogramLedger(50, 1)
    tr.mark_synced(np.array([0]))
    ref.mark_synced(np.array([0]))
    union = set()
    for batch in update_batches:
        idx = np.unique(np.array(batch, dtype=np.int64))
        tr.record_update(idx)
        ref.record_update(idx)
        union |= set(idx.tolist())
    # synced at version 0: stale is everything modified since
    assert set(np.flatnonzero(tr.last_modified > 0).tolist()) == union
    assert tr.stale_counts(np.array([0])).tolist() == [len(union)]
    assert ref.stale_counts(np.array([0])).tolist() == [len(union)]


@given(st.integers(1, 40), st.integers(1, 40))
def test_staleness_monotone_in_updates(d, rounds):
    tr = StalenessTracker(d=d, num_clients=1)
    tr.mark_synced(np.array([0]))
    prev = 0
    rng = np.random.default_rng(0)
    for _ in range(rounds):
        tr.record_update(rng.choice(d, size=min(3, d), replace=False))
        now = int(tr.stale_counts(np.array([0]))[0])
        assert now >= prev
        prev = now


# ---------------------------------------------------------------- nn numerics
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(2, 10)),
        elements=st.floats(-50, 50, allow_nan=False),
    )
)
def test_softmax_is_distribution(logits):
    p = softmax(logits)
    assert (p >= 0).all()
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


@given(st.lists(st.integers(0, 9), min_size=1, max_size=50))
def test_one_hot_rows(labels):
    y = one_hot(np.array(labels), 10)
    assert (y.sum(axis=1) == 1).all()
    np.testing.assert_array_equal(y.argmax(axis=1), labels)
