import tracemalloc

import numpy as np
import pytest

from repro.fl import staleness
from repro.fl.staleness import StalenessTracker
from repro.network.encoding import dense_bytes, sparse_bytes

from tests.fl.reference import HistogramLedger


def _stale_positions(tr, client_id):
    """The exact coordinates a client must download, read off
    ``last_modified``: every one changed after its last sync, or all of
    them before its first."""
    last = tr.last_sync_of(np.array([client_id]))[0]
    if last < 0:
        return np.arange(tr.d)
    return np.flatnonzero(tr.last_modified > last)


def test_first_contact_downloads_full_model():
    tr = StalenessTracker(d=100, num_clients=5)
    nbytes, counts = tr.download_bytes_many(np.array([0]))
    assert counts.tolist() == [100]
    assert nbytes.tolist() == [dense_bytes(100)]


def test_synced_client_downloads_nothing():
    tr = StalenessTracker(d=100, num_clients=5)
    tr.mark_synced(np.array([0]))
    nbytes, counts = tr.download_bytes_many(np.array([0]))
    assert counts.tolist() == [0]
    assert nbytes.tolist() == [0]


def test_staleness_accumulates_union_of_masks():
    tr = StalenessTracker(d=100, num_clients=3)
    tr.mark_synced(np.array([0, 1]))
    tr.record_update(np.arange(0, 10))
    tr.record_update(np.arange(5, 15))  # overlap with previous
    assert tr.stale_counts(np.array([0])).tolist() == [15]  # union, not sum
    tr.mark_synced(np.array([0]))
    tr.record_update(np.arange(20, 25))
    assert tr.stale_counts(np.array([0, 1])).tolist() == [5, 20]


def test_stale_positions_exact():
    tr = StalenessTracker(d=20, num_clients=2)
    tr.mark_synced(np.array([0]))
    tr.record_update(np.array([3, 7]))
    np.testing.assert_array_equal(_stale_positions(tr, 0), [3, 7])
    np.testing.assert_array_equal(_stale_positions(tr, 1), np.arange(20))
    # the counts the ledger prices are the sizes of those exact sets
    assert tr.stale_counts(np.array([0, 1])).tolist() == [2, 20]


def test_vectorized_counts_match_scalar():
    """Counts and bytes per client == the whole-histogram oracle's counts,
    priced one client at a time."""
    d = 50
    tr, ref = StalenessTracker(d=d, num_clients=6), HistogramLedger(d, 6)
    for ledger in (tr, ref):
        ledger.mark_synced(np.array([1, 3]))
        ledger.record_update(np.arange(10))
        ledger.mark_synced(np.array([3]))
        ledger.record_update(np.arange(5, 20))
    ids = np.arange(6)
    counts = tr.stale_counts(ids)
    for i in ids:
        assert counts[i] == ref.stale_counts(np.array([i]))[0]
        assert counts[i] == len(_stale_positions(tr, i))
    # a contact is priced from one last_sync read: bytes and counts together
    nbytes, priced_counts = tr.download_bytes_many(ids)
    np.testing.assert_array_equal(priced_counts, counts)
    last = tr.last_sync_of(ids)
    for i in ids:
        want = dense_bytes(d) if last[i] < 0 else sparse_bytes(int(counts[i]), d)
        assert nbytes[i] == want


def test_download_bytes_sparse_vs_dense():
    tr = StalenessTracker(d=1000, num_clients=2)
    tr.mark_synced(np.array([0]))
    tr.record_update(np.arange(10))
    nbytes, _ = tr.download_bytes_many(np.array([0, 1]))
    assert nbytes[0] == sparse_bytes(10, 1000)
    # client 1 never synced -> dense
    assert nbytes[1] == dense_bytes(1000)


def test_mean_staleness_fraction():
    tr = StalenessTracker(d=100, num_clients=4)
    tr.mark_synced(np.array([0, 1, 2, 3]))
    tr.record_update(np.arange(50))
    tr.mark_synced(np.array([0]))
    frac = tr.mean_staleness_fraction(np.array([0, 1]))
    assert frac == pytest.approx((0.0 + 0.5) / 2)
    assert tr.mean_staleness_fraction(np.array([])) == 0.0


def test_version_monotonic():
    tr = StalenessTracker(d=10, num_clients=1)
    assert tr.record_update(np.array([0])) == 1
    assert tr.record_update(np.array([1])) == 2


def test_validation():
    with pytest.raises(ValueError):
        StalenessTracker(0, 5)
    with pytest.raises(ValueError):
        StalenessTracker(5, 0)


def test_sync_gaps_vectorized():
    tr = StalenessTracker(d=10, num_clients=4)
    tr.mark_synced(np.array([0, 1]))          # synced at version 0
    tr.record_update(np.array([0]))           # version 1
    tr.mark_synced(np.array([1]))             # client 1 re-synced at 1
    tr.record_update(np.array([1]))           # version 2
    gaps = tr.sync_gaps(np.array([0, 1, 2]))
    # client 0: synced at v0, now v2 -> gap 2; client 1: gap 1;
    # client 2: never contacted -> -1
    np.testing.assert_array_equal(gaps, [2, 1, -1])


@pytest.mark.parametrize("seed", range(5))
def test_version_histogram_matches_brute_force(seed):
    """The incrementally maintained per-version histogram behind
    ``stale_counts`` == a scan of ``last_modified`` per client, over random
    update / sync sequences (empty, overlapping and full-width updates)."""
    rng = np.random.default_rng(seed)
    d, n = 60, 8
    tr = StalenessTracker(d=d, num_clients=n)
    ids = np.arange(n)
    for _ in range(40):
        if rng.random() < 0.6:
            size = int(rng.choice([0, 1, rng.integers(0, d + 1), d]))
            tr.record_update(
                np.sort(rng.choice(d, size=size, replace=False))
            )
        else:
            tr.mark_synced(rng.choice(n, size=rng.integers(0, n), replace=False))
        last = tr.last_sync_of(ids)
        brute = np.where(
            last < 0, d, (tr.last_modified[None, :] > last[:, None]).sum(axis=1)
        )
        np.testing.assert_array_equal(tr.stale_counts(ids), brute)
        assert tr.stale_counts(ids).dtype == np.int64


@pytest.mark.parametrize("seed", range(4))
def test_tree_counts_equal_the_histogram_oracle(seed):
    """The Fenwick ledger == the whole-histogram ledger it replaced
    (``tests/fl/reference.py``), integer for integer, over random histories
    long enough to double the tree three times: empty, sparse, overlapping
    and full-width updates, with syncs between them."""
    rng = np.random.default_rng(seed)
    d, n = 50, 12
    tr, ref = StalenessTracker(d=d, num_clients=n), HistogramLedger(d, n)
    ids = np.arange(n)
    for _ in range(600):
        if rng.random() < 0.7:
            size = int(rng.choice([0, 1, rng.integers(0, d + 1), d]))
            changed = np.sort(rng.choice(d, size=size, replace=False))
            assert tr.record_update(changed) == ref.record_update(changed)
        else:
            synced = rng.choice(n, size=rng.integers(0, n + 1), replace=False)
            tr.mark_synced(synced)
            ref.mark_synced(synced)
        np.testing.assert_array_equal(tr.stale_counts(ids), ref.stale_counts(ids))
    assert len(tr._tree) - 1 >= tr.version + 1 > 256


@pytest.mark.parametrize("n", [8, 332])
def test_an_update_allocates_by_its_size_not_by_the_versions(n):
    """At 2·10⁵ versions an update allocates O(len(changed_idx)) bytes —
    the whole histogram re-allocated three version-long arrays (≈ 4.8 MB)."""
    d = 332
    tr = StalenessTracker(d=d, num_clients=4)
    empty = np.zeros(0, dtype=np.int64)
    for _ in range(200_000):
        tr.record_update(empty)
    rng = np.random.default_rng(0)
    for _ in range(50):  # spread the coordinates over recent versions
        tr.record_update(np.sort(rng.choice(d, size=n, replace=False)))
    changed = np.sort(rng.choice(d, size=n, replace=False))
    tracemalloc.start()
    try:
        tr.record_update(changed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 1024 + 64 * n, f"{peak} B for {n} coordinates"


def test_materialized_clients_counts_distinct_contacts():
    tr = StalenessTracker(d=10, num_clients=6)
    assert tr.materialized_clients == 0
    tr.mark_synced(np.array([4, 1, 4]))  # a repeat inside one call
    tr.record_update(np.array([0]))
    tr.mark_synced(np.array([1, 5]))  # 1 again, in a later version
    tr.mark_synced(np.array([], dtype=np.int64))
    assert tr.materialized_clients == 3
    np.testing.assert_array_equal(
        tr.last_sync_of(np.arange(6)), [-1, 1, -1, -1, 0, 1]
    )


def test_record_update_refuses_a_version_the_column_cannot_hold(monkeypatch):
    tr = StalenessTracker(d=4, num_clients=2)
    # the last version the int32 column holds (as last_sync + 1) reads back
    tr.version = staleness._MAX_VERSION
    tr.mark_synced(np.array([0]))
    assert tr.last_sync_of(np.array([0, 1])).tolist() == [tr.version, -1]
    # the guard, below a cap small enough to reach by updating
    monkeypatch.setattr(staleness, "_MAX_VERSION", 2)
    tr = StalenessTracker(d=4, num_clients=2)
    assert [tr.record_update(np.array([i])) for i in range(2)] == [1, 2]
    with pytest.raises(OverflowError, match="int32"):
        tr.record_update(np.array([2]))
    assert tr.version == 2 and tr.stale_counts(np.array([1])).tolist() == [4]


@pytest.mark.population
def test_last_sync_is_one_int32_column_at_a_million_clients():
    """10⁶ clients, 10⁵ of them contacted (some twice): the tracker holds
    4 B per client plus O(1), however many it contacts, and
    ``materialized_clients`` is exact."""
    n, contacted = 1_000_000, 100_000
    ids = np.random.default_rng(0).permutation(n)[:contacted]
    tracemalloc.start()
    try:
        tr = StalenessTracker(d=100, num_clients=n)
        empty, _ = tracemalloc.get_traced_memory()
        for batch in np.array_split(ids, 1_000):
            tr.mark_synced(batch)
            tr.mark_synced(batch[:3])  # a re-sync is not a new client
            tr.record_update(np.arange(batch[0] % 100, 100))
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert empty <= 4 * n + 64 * 1024
    assert live - empty <= 64 * 1024, f"{live - empty} B grew with contacts"
    assert tr.materialized_clients == contacted
    assert (tr.last_sync_of(ids) >= 0).all()
