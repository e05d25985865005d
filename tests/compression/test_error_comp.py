import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.error_comp import ErrorCompMode, ResidualStore
from tests.compression.reference import HeapResidualStore


def test_none_mode_is_identity(rng):
    store = ResidualStore(ErrorCompMode.NONE)
    delta = rng.normal(size=10)
    store.record(3, np.ones(10), weight=2.0)
    np.testing.assert_array_equal(store.compensate(3, delta, 1.0), delta)
    assert len(store) == 0  # NONE never stores


def test_ec_adds_raw_residual(rng):
    store = ResidualStore(ErrorCompMode.EC)
    residual = rng.normal(size=5)
    store.record(1, residual, weight=4.0)
    delta = rng.normal(size=5)
    out = store.compensate(1, delta, current_weight=1.0)
    np.testing.assert_allclose(out, delta + residual.astype(np.float32), rtol=1e-6)


def test_rec_rescales_by_weight_ratio(rng):
    """Eq. 7: Δ + (ν_old / ν_new) · h."""
    store = ResidualStore(ErrorCompMode.REC)
    residual = rng.normal(size=5)
    store.record(1, residual, weight=4.0)
    delta = rng.normal(size=5)
    out = store.compensate(1, delta, current_weight=2.0)
    np.testing.assert_allclose(
        out, delta + 2.0 * residual.astype(np.float32), rtol=1e-6
    )


def test_rec_weighted_contribution_is_preserved(rng):
    """The whole point of re-scaling: ν_new · (scaled h) == ν_old · h."""
    store = ResidualStore(ErrorCompMode.REC)
    h = rng.normal(size=8)
    nu_old, nu_new = 3.0, 0.7
    store.record(0, h, weight=nu_old)
    contribution = nu_new * (store.compensate(0, np.zeros(8), nu_new))
    np.testing.assert_allclose(contribution, nu_old * h, rtol=1e-6)


def test_no_residual_is_identity(rng):
    store = ResidualStore(ErrorCompMode.REC)
    delta = rng.normal(size=4)
    np.testing.assert_array_equal(store.compensate(9, delta, 1.0), delta)


def test_rec_rejects_nonpositive_weight(rng):
    store = ResidualStore(ErrorCompMode.REC)
    store.record(1, np.ones(3), weight=1.0)
    with pytest.raises(ValueError):
        store.compensate(1, np.zeros(3), current_weight=0.0)


def test_peek(rng):
    store = ResidualStore(ErrorCompMode.EC)
    assert store.peek(5) is None
    store.record(5, np.ones(3), weight=2.5)
    h, w = store.peek(5)
    assert w == 2.5
    np.testing.assert_array_equal(h, np.ones(3, dtype=np.float32))


def test_mode_accepts_string():
    assert ResidualStore("rec").mode is ErrorCompMode.REC


@pytest.mark.parametrize("mode", [ErrorCompMode.EC, ErrorCompMode.REC])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_compensate_is_bit_identical_to_eq7_reference(rng, mode, dtype):
    """The fused in-place form performs Eq. 7's two operations in the
    delta's dtype — no different from the three-temporary expression."""
    store = ResidualStore(mode)
    residual = rng.normal(size=257).astype(dtype)
    store.record(0, residual.copy(), weight=0.3)
    delta = rng.normal(size=257).astype(dtype)
    kept = delta.copy()
    out = store.compensate(0, delta, current_weight=0.7)

    h = residual.astype(np.float32)
    scale = 0.3 / 0.7 if mode is ErrorCompMode.REC else None
    expected = (
        delta + scale * h.astype(dtype) if scale else delta + h.astype(dtype)
    )
    assert out.dtype == expected.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(out, expected)
    # caller-owned: zeroing it touches neither the delta nor the store
    out[:] = 0.0
    np.testing.assert_array_equal(delta, kept)
    np.testing.assert_array_equal(store.peek(0)[0], h)


# -- the store against its in-RAM oracle ---------------------------------------
def test_peek_returns_a_copy_and_keeps_lru_rank(rng):
    store = ResidualStore(ErrorCompMode.EC, max_clients=2)
    store.record(0, np.zeros(4), 1.0)
    store.record(1, np.ones(4), 1.0)
    first, _ = store.peek(0)  # must not freshen client 0 ...
    first[:] = 7.0  # ... nor alias what the store reads back
    store.record(2, np.ones(4), 1.0)  # the bound evicts the LRU client: 0
    assert store.peek(0) is None and store.evictions == 1
    np.testing.assert_array_equal(store.peek(1)[0], np.ones(4, np.float32))
    # a float64 compensate stages the row in the store's scratch row;
    # a peeked row must not be that scratch
    held, _ = store.peek(1)
    store.record(2, np.full(4, 3.0), 1.0)
    store.compensate(2, np.zeros(4), 1.0)
    np.testing.assert_array_equal(held, np.ones(4, np.float32))


def test_reset_keeps_mode_and_bound_and_takes_a_new_row_length():
    store = ResidualStore(ErrorCompMode.EC, max_clients=1)
    store.record(0, np.ones(6), 1.0)
    with pytest.raises(ValueError, match=r"length 4 .* length 6"):
        store.record(1, np.ones(4), 1.0)
    with pytest.raises(ValueError, match=r"length 4 .* length 6"):
        store.compensate(0, np.ones(4), 1.0)
    store.reset()
    assert len(store) == 0 and store.peek(0) is None
    store.record(1, np.ones(4), 1.0)
    store.record(2, np.ones(4), 1.0)
    assert store.mode is ErrorCompMode.EC
    assert len(store) == 1  # the bound survived


def _vector(seed, d, dtype):
    return np.random.default_rng(seed).normal(size=d).astype(dtype)


_CLIENTS = st.integers(0, 5)
_WEIGHTS = st.floats(0.1, 10.0)
_SEEDS = st.integers(0, 2**16)
_BOUNDS = st.sampled_from([None, 1, 3])
_RECORD = st.tuples(st.just("record"), _CLIENTS, _SEEDS, _WEIGHTS)
_OPS = st.one_of(
    _RECORD,
    st.tuples(st.just("compensate"), _CLIENTS, _SEEDS, _WEIGHTS),
    st.tuples(st.just("bound"), _BOUNDS),
    st.tuples(st.just("reset")),
)


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(list(ErrorCompMode)),
    dtype=st.sampled_from([np.float32, np.float64]),
    max_clients=_BOUNDS,
    d=st.integers(1, 33),
    # open on a few records so bounds and resets meet a populated store
    ops=st.builds(
        lambda head, tail: head + tail,
        st.lists(_RECORD, min_size=2, max_size=6),
        st.lists(_OPS, max_size=40),
    ),
)
def test_file_store_is_bit_equal_to_the_heap_oracle(mode, dtype, max_clients, d, ops):
    store = ResidualStore(mode, max_clients=max_clients)
    oracle = HeapResidualStore(mode, max_clients=max_clients)
    most_rows = 0  # most clients stored at once since the file was opened
    for op, *args in ops:
        if op == "record":
            cid, seed, weight = args
            residual = _vector(seed, d, dtype)
            store.record(cid, residual, weight)
            oracle.record(cid, residual, weight)
        elif op == "compensate":
            cid, seed, weight = args
            delta = _vector(seed, d, dtype)
            ours = store.compensate(cid, delta, weight)
            theirs = oracle.compensate(cid, delta, weight)
            assert ours.dtype == theirs.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(ours, theirs)
            assert not np.shares_memory(ours, delta)
        elif op == "bound":
            store.bound(*args)
            oracle.bound(*args)
        else:
            store.reset()
            oracle.reset()
            most_rows = 0
        assert len(store) == len(oracle)
        assert store.evictions == oracle.evictions
        for cid in range(6):
            ours, theirs = store.peek(cid), oracle.peek(cid)
            assert (ours is None) == (theirs is None)
            if ours is not None:
                assert ours[1] == theirs[1]
                np.testing.assert_array_equal(ours[0], theirs[0])
        # evicted rows are reused: the file never holds more rows than the
        # most clients the store ever held at once
        most_rows = max(most_rows, len(store))
        size = 0 if store._file is None else os.fstat(store._file.fileno()).st_size
        assert size <= most_rows * d * 4
        assert (store._file is None) or mode is not ErrorCompMode.NONE
    store.close()
